//! Rule definition and builder.
//!
//! A [`Rule`] pairs a *matcher* (the `when` part: scan working memory, push
//! zero or more matched fact tuples into the [`Matches`] it is handed — the
//! engine's buffer for that rule, kept from one evaluation to the next) with
//! an *action* (the `then`
//! part: mutate working memory and/or the shared globals). Rules carry a
//! *salience* — higher fires first, mirroring Drools — and are generic over a
//! `Ctx` type standing in for Drools globals (the Policy Service passes its
//! configuration and response buffers through it).
//!
//! Rules additionally declare which fact types their matcher *reads* (the
//! [`Watch`] set). The incremental engine only re-evaluates a matcher when
//! one of its watched types has been mutated since the last evaluation;
//! `when_each::<T>` subscribes to `T` automatically, join rules built with
//! [`RuleBuilder::when`] declare reads via [`RuleBuilder::watches`], and
//! undeclared rules conservatively watch everything. A declaration can be
//! narrowed to the [`Fields`] of `T` the matcher reads
//! ([`RuleBuilder::watches_fields`], [`RuleBuilder::when_each_fields`]) and
//! a rule can name a type without which it cannot match
//! ([`RuleBuilder::requires`]).
//!
//! Each rule belongs to one [`AgendaGroup`] (Drools' `agenda-group`;
//! [`AgendaGroup::MAIN`] unless set with [`RuleBuilder::agenda_group`]), and
//! a [`Focus`] names the groups a rules pass may visit.

use crate::memory::{Fact, FactHandle, Fields, WorkingMemory};
use std::any::TypeId;
use std::sync::Arc;

/// Handles a [`Match`] holds inline: the widest join the policy rules make
/// (transfer × cluster ledger × host-pair ledger). Wider tuples spill to the
/// heap.
const INLINE_HANDLES: usize = 3;

/// A matched fact tuple: the handles a rule instance binds to, at least
/// one, readable as a `[FactHandle]` slice. Build one from an array or a
/// slice (`[h].into()`, `[h, other].into()`); tuples of up to three handles
/// are stored inline, so matchers and the engine's match caches allocate
/// nothing per tuple.
///
/// The engine refracts on `(rule, handles, versions-of-handles)`, recorded
/// on the first fact, so a rule re-fires on a tuple only after one of its
/// facts is updated.
#[derive(Debug, Clone)]
pub struct Match(Tuple);

#[derive(Debug, Clone)]
enum Tuple {
    Inline {
        len: u8,
        handles: [FactHandle; INLINE_HANDLES],
    },
    Heap(Box<[FactHandle]>),
}

impl std::ops::Deref for Match {
    type Target = [FactHandle];
    fn deref(&self) -> &[FactHandle] {
        match &self.0 {
            Tuple::Inline { len, handles } => &handles[..*len as usize],
            Tuple::Heap(handles) => handles,
        }
    }
}

impl From<&[FactHandle]> for Match {
    fn from(tuple: &[FactHandle]) -> Match {
        assert!(!tuple.is_empty(), "a match binds at least one fact");
        if tuple.len() <= INLINE_HANDLES {
            let mut handles = [FactHandle::PAD; INLINE_HANDLES];
            handles[..tuple.len()].copy_from_slice(tuple);
            Match(Tuple::Inline {
                len: tuple.len() as u8,
                handles,
            })
        } else {
            Match(Tuple::Heap(tuple.into()))
        }
    }
}

impl<const N: usize> From<[FactHandle; N]> for Match {
    fn from(tuple: [FactHandle; N]) -> Match {
        tuple.as_slice().into()
    }
}

/// Where a matcher puts the tuples it finds.
///
/// The engine hands a rule's matcher the rule's own match buffer, emptied,
/// so an evaluation allocates only when it finds more tuples than any
/// evaluation of the rule before it. The debug oracle hands it a probe that
/// keeps the first tuple it would fire on and drops the rest, so checking a
/// shortcut allocates nothing either.
pub struct Matches<'a>(Sink<'a>);

enum Sink<'a> {
    All(&'a mut Vec<Match>),
    #[cfg(debug_assertions)]
    First {
        eligible: &'a dyn Fn(&Match) -> bool,
        found: Option<Match>,
    },
}

impl Matches<'_> {
    /// Add a matched tuple, after every tuple pushed before it.
    pub fn push(&mut self, m: Match) {
        match &mut self.0 {
            Sink::All(out) => out.push(m),
            #[cfg(debug_assertions)]
            Sink::First { eligible, found } => {
                if found.is_none() && eligible(&m) {
                    *found = Some(m);
                }
            }
        }
    }
}

type Matcher<Ctx> = Box<dyn Fn(&WorkingMemory, &Ctx, &mut Matches<'_>) + Send>;
type Action<Ctx> = Box<dyn FnMut(&mut WorkingMemory, &mut Ctx, &Match) + Send>;
type EachProbe<Ctx> = Box<dyn Fn(&WorkingMemory, &Ctx, FactHandle) -> bool + Send>;

/// Delta-evaluation support for single-type predicate rules: the watched
/// type plus a per-handle re-probe of the `when_each` predicate. The engine
/// uses this to refresh a stale match cache by re-probing only the handles
/// that actually changed instead of re-scanning every fact of the type.
pub(crate) struct EachMatch<Ctx> {
    pub(crate) table: TableRef,
    pub(crate) probe: EachProbe<Ctx>,
}

/// A fact type a rule names, resolved to the position of the type's table
/// when the rule is installed — the engine's per-firing checks then read the
/// table directly instead of probing a `TypeId` map.
#[derive(Clone, Copy)]
pub(crate) struct TableRef {
    type_id: TypeId,
    /// `WorkingMemory::table_index_or_new::<T>`, kept because the type
    /// itself is erased here.
    locate: fn(&mut WorkingMemory) -> u32,
    /// Table position; meaningful once [`Watch::resolve`] ran.
    position: u32,
}

impl TableRef {
    fn of<T: Fact>() -> Self {
        TableRef {
            type_id: TypeId::of::<T>(),
            locate: WorkingMemory::table_index_or_new::<T>,
            position: u32::MAX,
        }
    }

    fn resolve(&mut self, wm: &mut WorkingMemory) {
        self.position = (self.locate)(wm);
    }

    pub(crate) fn position(&self) -> u32 {
        self.position
    }
}

/// One watched fact type and the fields of it the matcher reads.
#[derive(Clone, Copy)]
pub struct WatchedType {
    table: TableRef,
    fields: Fields,
}

impl WatchedType {
    /// A watch on `fields` of `T` ([`Fields::ALL`]: the whole fact).
    pub fn of<T: Fact>(fields: Fields) -> Self {
        WatchedType {
            table: TableRef::of::<T>(),
            fields,
        }
    }

    /// Position of the watched type's table, once the rule is installed.
    pub(crate) fn position(&self) -> u32 {
        self.table.position
    }
}

impl PartialEq for WatchedType {
    fn eq(&self, other: &Self) -> bool {
        self.table.type_id == other.table.type_id && self.fields == other.fields
    }
}

impl std::fmt::Debug for WatchedType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}/{:?}", self.table.type_id, self.fields)
    }
}

/// The agenda group a rule belongs to (Drools' `agenda-group`). A session
/// fires a pass with a [`Focus`] on some groups; a rule outside it is
/// neither visited nor evaluated by that pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgendaGroup(u8);

impl AgendaGroup {
    /// Where a rule with no declared group sits (Drools' `MAIN`).
    pub const MAIN: AgendaGroup = AgendaGroup(0);

    /// Group number `n`, below 64 (a [`Focus`] is one bit per group).
    pub const fn new(n: u8) -> AgendaGroup {
        assert!(n < 64, "agenda group out of range");
        AgendaGroup(n)
    }
}

/// A set of [`AgendaGroup`]s: what one rules pass visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Focus(u64);

impl Focus {
    /// Every group: what [`crate::Session::fire_all`] fires.
    pub const ALL: Focus = Focus(u64::MAX);

    /// No group: a pass that fires nothing.
    pub const NONE: Focus = Focus(0);

    /// Only `group`.
    pub const fn on(group: AgendaGroup) -> Focus {
        Focus(1 << group.0)
    }

    /// This focus and `group`.
    pub const fn and(self, group: AgendaGroup) -> Focus {
        Focus(self.0 | 1 << group.0)
    }

    /// True when `group` is in focus.
    pub const fn contains(self, group: AgendaGroup) -> bool {
        self.0 & 1 << group.0 != 0
    }
}

/// Which facts a rule's matcher reads.
///
/// This is the rule's subscription in the engine's dirty-set propagation: a
/// matcher is only re-evaluated when a watched field of a watched type
/// changed. `All` is the conservative default for rules that never declared
/// their reads.
#[derive(Debug, Clone, PartialEq)]
pub enum Watch {
    /// Re-evaluate whenever *any* fact changes (no declaration).
    All,
    /// Re-evaluate only when one of these changes.
    Types(Vec<WatchedType>),
}

/// What a rule's watched facts did since the rule last looked at them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Freshness {
    /// Nothing watched was mutated: cached matches and the position reached
    /// in them both stand.
    Clean,
    /// A watched type was mutated, but only in fields the matcher does not
    /// read: the cached matches stand, yet a fact in them may carry a new
    /// version, so they must be scanned again from the start.
    Touched,
    /// Something the matcher reads changed: re-evaluate.
    Dirty,
}

impl Watch {
    /// Point every watched type at its table in `wm` (created if new).
    pub(crate) fn resolve(&mut self, wm: &mut WorkingMemory) {
        if let Watch::Types(types) = self {
            for watched in types {
                watched.table.resolve(wm);
            }
        }
    }

    /// Compare `wm` with what a rule saw: `valid_at` is the generation its
    /// cached matches were computed at, `seen_at` (≥ `valid_at`) the one it
    /// last scanned them at. Array reads only — no map probe.
    pub(crate) fn freshness(&self, wm: &WorkingMemory, valid_at: u64, seen_at: u64) -> Freshness {
        match self {
            Watch::All if wm.generation() > valid_at => Freshness::Dirty,
            Watch::All => Freshness::Clean,
            Watch::Types(types) => {
                let mut freshness = Freshness::Clean;
                for watched in types {
                    let table = wm.table_at(watched.table.position);
                    if table.generation() > seen_at {
                        if table.touched_since(watched.fields, valid_at) {
                            return Freshness::Dirty;
                        }
                        freshness = Freshness::Touched;
                    }
                }
                freshness
            }
        }
    }
}

/// A production rule.
pub struct Rule<Ctx> {
    name: Arc<str>,
    salience: i32,
    group: AgendaGroup,
    matcher: Matcher<Ctx>,
    action: Action<Ctx>,
    watch: Watch,
    requires: Vec<TableRef>,
    each: Option<EachMatch<Ctx>>,
}

impl<Ctx> Rule<Ctx> {
    /// Start building a rule with the given name.
    #[allow(clippy::new_ret_no_self)] // `new` is the Drools-style builder entry
    pub fn new(name: impl Into<String>) -> RuleBuilder<Ctx> {
        RuleBuilder {
            name: name.into(),
            salience: 0,
            group: AgendaGroup::MAIN,
            matcher: None,
            action: None,
            watched_types: None,
            requires: Vec::new(),
            each: None,
        }
    }

    /// Rule name (diagnostics, firing log).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shared handle to the rule name — the engine's firing log stores these
    /// instead of allocating a fresh `String` per firing.
    pub fn name_arc(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// Firing priority; higher fires first.
    pub fn salience(&self) -> i32 {
        self.salience
    }

    /// The agenda group the rule belongs to.
    pub fn agenda_group(&self) -> AgendaGroup {
        self.group
    }

    /// The facts this rule's matcher reads.
    pub fn watch(&self) -> &Watch {
        &self.watch
    }

    /// Resolve the types the rule names to their tables in `wm`; the engine
    /// calls this once, when the rule is installed.
    pub(crate) fn resolve(&mut self, wm: &mut WorkingMemory) {
        self.watch.resolve(wm);
        for required in &mut self.requires {
            required.resolve(wm);
        }
        if let Some(each) = &mut self.each {
            each.table.resolve(wm);
        }
    }

    /// True while a [required](RuleBuilder::requires) type has no live fact:
    /// the matcher cannot return anything.
    pub(crate) fn cannot_match(&self, wm: &WorkingMemory) -> bool {
        self.requires
            .iter()
            .any(|required| wm.table_at(required.position).live() == 0)
    }

    /// Run the matcher, appending its tuples to `out`.
    pub(crate) fn matches_into(&self, wm: &WorkingMemory, ctx: &Ctx, out: &mut Vec<Match>) {
        (self.matcher)(wm, ctx, &mut Matches(Sink::All(out)));
    }

    /// The first tuple of a fresh matcher run that `eligible` accepts.
    #[cfg(debug_assertions)]
    pub(crate) fn first_match(
        &self,
        wm: &WorkingMemory,
        ctx: &Ctx,
        eligible: &dyn Fn(&Match) -> bool,
    ) -> Option<Match> {
        let mut first = Matches(Sink::First {
            eligible,
            found: None,
        });
        (self.matcher)(wm, ctx, &mut first);
        match first.0 {
            Sink::First { found, .. } => found,
            Sink::All(_) => unreachable!("a first-match probe"),
        }
    }

    /// Every tuple of a fresh matcher run.
    #[cfg(test)]
    pub(crate) fn matches(&self, wm: &WorkingMemory, ctx: &Ctx) -> Vec<Match> {
        let mut out = Vec::new();
        self.matches_into(wm, ctx, &mut out);
        out
    }

    /// Delta-evaluation hook for `when_each` rules (None for join rules).
    pub(crate) fn each(&self) -> Option<&EachMatch<Ctx>> {
        self.each.as_ref()
    }

    pub(crate) fn fire(&mut self, wm: &mut WorkingMemory, ctx: &mut Ctx, m: &Match) {
        (self.action)(wm, ctx, m)
    }
}

impl<Ctx> std::fmt::Debug for Rule<Ctx> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rule")
            .field("name", &self.name)
            .field("salience", &self.salience)
            .field("group", &self.group)
            .field("watch", &self.watch)
            .finish()
    }
}

/// Fluent builder returned by [`Rule::new`].
pub struct RuleBuilder<Ctx> {
    name: String,
    salience: i32,
    group: AgendaGroup,
    matcher: Option<Matcher<Ctx>>,
    action: Option<Action<Ctx>>,
    /// `None` = never declared (→ [`Watch::All`] unless `when_each` infers);
    /// `Some(types)` = explicit subscription list.
    watched_types: Option<Vec<WatchedType>>,
    requires: Vec<TableRef>,
    each: Option<EachMatch<Ctx>>,
}

impl<Ctx> RuleBuilder<Ctx> {
    /// Set the salience (default 0; higher fires first).
    pub fn salience(mut self, salience: i32) -> Self {
        self.salience = salience;
        self
    }

    /// Put the rule in `group` (default [`AgendaGroup::MAIN`]).
    pub fn agenda_group(mut self, group: AgendaGroup) -> Self {
        self.group = group;
        self
    }

    /// Declare that the matcher reads facts of type `T`.
    ///
    /// Call once per fact type a [`RuleBuilder::when`] matcher inspects —
    /// including types it joins against but does not return in the match
    /// tuple. The engine then skips re-evaluating the matcher while all
    /// declared types are unchanged. Omitting the declaration is always
    /// safe (the rule watches everything); under-declaring is not.
    pub fn watches<T: Fact>(self) -> Self {
        self.watches_fields::<T>(Fields::ALL)
    }

    /// [`RuleBuilder::watches`] narrowed to the field groups of `T` the
    /// matcher reads (Drools' property reactivity): a
    /// [`WorkingMemory::update_fields`] that names none of them no longer
    /// re-evaluates the matcher. Inserts, retracts and plain updates of `T`
    /// always do, so [`Fields::NONE`] declares a matcher that reads only
    /// whether a `T` exists and what never changes about it. Repeated
    /// declarations for one type add up. Declare every group the matcher
    /// reads on any fact of the type, including facts it only filters out.
    pub fn watches_fields<T: Fact>(mut self, fields: Fields) -> Self {
        let watched = WatchedType::of::<T>(fields);
        let types = self.watched_types.get_or_insert_with(Vec::new);
        match types
            .iter_mut()
            .find(|w| w.table.type_id == watched.table.type_id)
        {
            Some(existing) => existing.fields = existing.fields | fields,
            None => types.push(watched),
        }
        self
    }

    /// Declare that the matcher returns nothing while no fact of type `T` is
    /// live. The engine then passes over the rule without running the
    /// matcher until a `T` is inserted. The rule must also watch `T` (it
    /// reads it), which is what wakes it on that insert; [`RuleBuilder::then`]
    /// panics otherwise.
    pub fn requires<T: Fact>(mut self) -> Self {
        self.requires.push(TableRef::of::<T>());
        self
    }

    /// Full matcher: push every fact tuple this rule should fire on.
    pub fn when(
        mut self,
        matcher: impl Fn(&WorkingMemory, &Ctx, &mut Matches<'_>) + Send + 'static,
    ) -> Self {
        self.matcher = Some(Box::new(matcher));
        self
    }

    /// Convenience matcher over all facts of one type passing a predicate:
    /// each matching fact becomes a single-handle tuple. Automatically
    /// subscribes the rule to type `T` (dirty-set propagation).
    pub fn when_each<T: Fact>(
        self,
        pred: impl Fn(&T, &Ctx) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.when_each_fields(Fields::ALL, pred)
    }

    /// [`RuleBuilder::when_each`] for a predicate that reads only `fields`
    /// of `T` (see [`RuleBuilder::watches_fields`]).
    pub fn when_each_fields<T: Fact>(
        mut self,
        fields: Fields,
        pred: impl Fn(&T, &Ctx) -> bool + Send + Sync + 'static,
    ) -> Self {
        let pred = Arc::new(pred);
        let scan_pred = Arc::clone(&pred);
        self.matcher = Some(Box::new(move |wm, ctx, out| {
            for (h, t) in wm.iter::<T>() {
                if scan_pred(t, ctx) {
                    out.push([h].into());
                }
            }
        }));
        // The same predicate, re-runnable for one handle: the engine's
        // delta path refreshes a stale cache by probing only changed facts.
        self.each = Some(EachMatch {
            table: TableRef::of::<T>(),
            probe: Box::new(move |wm, ctx, h| wm.get::<T>(h).is_some_and(|t| pred(t, ctx))),
        });
        self.watches_fields::<T>(fields)
    }

    /// The action body; completes the rule.
    pub fn then(
        mut self,
        action: impl FnMut(&mut WorkingMemory, &mut Ctx, &Match) + Send + 'static,
    ) -> Rule<Ctx> {
        self.action = Some(Box::new(action));
        if let Some(types) = &self.watched_types {
            assert!(
                self.requires
                    .iter()
                    .all(|r| types.iter().any(|w| w.table.type_id == r.type_id)),
                "rule `{}` requires a fact type it does not watch: nothing would wake it",
                self.name
            );
        }
        Rule {
            name: Arc::from(self.name.as_str()),
            salience: self.salience,
            group: self.group,
            matcher: self.matcher.expect("rule needs a `when` clause"),
            action: self.action.expect("rule needs a `then` clause"),
            watch: match self.watched_types {
                Some(types) => Watch::Types(types),
                None => Watch::All,
            },
            requires: self.requires,
            each: self.each,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Num(i64);

    #[derive(Debug)]
    struct Other(#[allow(dead_code)] i64);

    #[test]
    fn builder_produces_named_rule() {
        let r: Rule<()> = Rule::new("double-evens")
            .salience(5)
            .when_each::<Num>(|n, _| n.0 % 2 == 0)
            .then(|wm, _, m| {
                wm.update::<Num>(m[0], |n| n.0 *= 2);
            });
        assert_eq!(r.name(), "double-evens");
        assert_eq!(r.salience(), 5);
    }

    #[test]
    fn when_each_matches_per_fact() {
        let mut wm = WorkingMemory::new();
        wm.insert(Num(1));
        wm.insert(Num(2));
        wm.insert(Num(4));
        let r: Rule<()> = Rule::new("evens")
            .when_each::<Num>(|n, _| n.0 % 2 == 0)
            .then(|_, _, _| {});
        let ms = r.matches(&wm, &());
        assert_eq!(ms.len(), 2);
        for m in &ms {
            assert_eq!(m.len(), 1);
        }
    }

    #[test]
    fn ctx_is_visible_to_matcher() {
        let mut wm = WorkingMemory::new();
        wm.insert(Num(5));
        let r: Rule<i64> = Rule::new("above-threshold")
            .when_each::<Num>(|n, threshold| n.0 > *threshold)
            .then(|_, _, _| {});
        assert_eq!(r.matches(&wm, &3).len(), 1);
        assert_eq!(r.matches(&wm, &9).len(), 0);
    }

    #[test]
    #[should_panic(expected = "when")]
    fn missing_when_panics() {
        let _: Rule<()> = RuleBuilder {
            name: "broken".into(),
            salience: 0,
            group: AgendaGroup::MAIN,
            matcher: None,
            action: None,
            watched_types: None,
            requires: Vec::new(),
            each: None,
        }
        .then(|_, _, _| {});
    }

    #[test]
    fn fire_runs_action() {
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Num(3));
        let mut r: Rule<()> = Rule::new("inc")
            .when_each::<Num>(|_, _| true)
            .then(|wm, _, m| {
                wm.update::<Num>(m[0], |n| n.0 += 1);
            });
        r.fire(&mut wm, &mut (), &[h].into());
        assert_eq!(wm.get::<Num>(h).unwrap().0, 4);
    }

    #[test]
    fn when_each_auto_watches_its_type() {
        let r: Rule<()> = Rule::new("evens")
            .when_each::<Num>(|n, _| n.0 % 2 == 0)
            .then(|_, _, _| {});
        assert_eq!(
            r.watch(),
            &Watch::Types(vec![WatchedType::of::<Num>(Fields::ALL)])
        );
    }

    #[test]
    fn undeclared_when_watches_all() {
        let r: Rule<()> = Rule::new("join").when(|_, _, _| {}).then(|_, _, _| {});
        assert_eq!(r.watch(), &Watch::All);
    }

    #[test]
    fn watches_declares_and_dedups_types() {
        let r: Rule<()> = Rule::new("join")
            .watches::<Num>()
            .watches::<Other>()
            .watches::<Num>()
            .when(|_, _, _| {})
            .then(|_, _, _| {});
        assert_eq!(
            r.watch(),
            &Watch::Types(vec![
                WatchedType::of::<Num>(Fields::ALL),
                WatchedType::of::<Other>(Fields::ALL)
            ])
        );
    }

    #[test]
    fn field_declarations_for_one_type_add_up() {
        let r: Rule<()> = Rule::new("join")
            .watches_fields::<Num>(Fields::bit(0))
            .watches_fields::<Num>(Fields::bit(2))
            .watches_fields::<Other>(Fields::NONE)
            .when(|_, _, _| {})
            .then(|_, _, _| {});
        assert_eq!(
            r.watch(),
            &Watch::Types(vec![
                WatchedType::of::<Num>(Fields::bit(0) | Fields::bit(2)),
                WatchedType::of::<Other>(Fields::NONE)
            ])
        );
    }

    #[test]
    #[should_panic(expected = "requires a fact type it does not watch")]
    fn requiring_an_unwatched_type_panics() {
        let _: Rule<()> = Rule::new("never-woken")
            .requires::<Other>()
            .watches::<Num>()
            .when(|_, _, _| {})
            .then(|_, _, _| {});
    }

    #[test]
    fn watch_dirtiness_is_per_type() {
        let mut wm = WorkingMemory::new();
        wm.insert(Num(1));
        let mut watch_num = Watch::Types(vec![WatchedType::of::<Num>(Fields::ALL)]);
        watch_num.resolve(&mut wm);
        let watch_all = Watch::All;
        let at = wm.generation();
        assert_eq!(watch_num.freshness(&wm, at, at), Freshness::Clean);
        wm.insert(Other(1));
        assert_eq!(
            watch_num.freshness(&wm, at, at),
            Freshness::Clean,
            "Other must not dirty Num watch"
        );
        assert_eq!(watch_all.freshness(&wm, at, at), Freshness::Dirty);
        wm.insert(Num(2));
        assert_eq!(watch_num.freshness(&wm, at, at), Freshness::Dirty);
    }

    #[test]
    fn watch_dirtiness_is_per_field() {
        const LOW: Fields = Fields::bit(0);
        const HIGH: Fields = Fields::bit(1);
        let mut wm = WorkingMemory::new();
        let h = wm.insert(Num(1));
        let mut reads_low = Watch::Types(vec![WatchedType::of::<Num>(LOW)]);
        let mut reads_identity = Watch::Types(vec![WatchedType::of::<Num>(Fields::NONE)]);
        reads_low.resolve(&mut wm);
        reads_identity.resolve(&mut wm);
        let at = wm.generation();
        // A write to a field neither reads keeps both matchers' output but
        // bumped a version: cached tuples must be scanned again.
        wm.update_fields::<Num>(h, HIGH, |n| n.0 += 2);
        assert_eq!(reads_low.freshness(&wm, at, at), Freshness::Touched);
        assert_eq!(reads_identity.freshness(&wm, at, at), Freshness::Touched);
        let seen = wm.generation();
        assert_eq!(reads_low.freshness(&wm, at, seen), Freshness::Clean);
        wm.update_fields::<Num>(h, LOW | HIGH, |n| n.0 += 1);
        assert_eq!(reads_low.freshness(&wm, at, seen), Freshness::Dirty);
        assert_eq!(reads_identity.freshness(&wm, at, seen), Freshness::Touched);
        // Plain updates, inserts and retracts touch every field.
        wm.update::<Num>(h, |n| n.0 += 1);
        assert_eq!(reads_identity.freshness(&wm, at, seen), Freshness::Dirty);
        let at = wm.generation();
        wm.retract(h);
        assert_eq!(reads_identity.freshness(&wm, at, at), Freshness::Dirty);
    }
}
