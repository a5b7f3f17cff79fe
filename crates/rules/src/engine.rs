//! The forward-chaining engine.
//!
//! [`Session`] owns a [`WorkingMemory`] and a rule set; the memory keeps the
//! refraction records on the facts they name. Conflict resolution is Drools'
//! default modulo recency: salience (descending), then rule installation
//! order, then tuple order within a rule's matches. [`Session::fire`] fires
//! the first eligible activation among the rules of the [agenda
//! groups](crate::AgendaGroup) in its [`Focus`], then repeats until
//! quiescence or a firing budget is exhausted (a guard against
//! non-converging rule sets, which Drools leaves to the author);
//! [`Session::fire_all`] is the same pass with every group in focus. A rule
//! outside the focus is neither visited nor evaluated, and whatever changed
//! under it is served by the next pass that focuses it.
//!
//! # Incremental agenda
//!
//! Matching is incremental (a Rete-lite): each rule keeps its last matcher
//! output as a cached *agenda segment*, stamped with the working-memory
//! generation it was computed at. The matcher is only re-run when something
//! the rule [watches](crate::rule::Watch) — a fact type, or named
//! [`Fields`](crate::Fields) of one — has been mutated since that stamp;
//! [`WorkingMemory`] maintains the per-type and per-field dirty generations,
//! fed by `insert`/`update`/`update_fields`/`retract`, and a rule reads them
//! through table positions resolved when it was installed. Because a
//! refraction record is only dropped when its tuple can no longer match at
//! the versions it names, and fact versions only move when a watched type is
//! mutated, a per-rule scan cursor skips already-refracted tuples without
//! looking them up again; a mutation the matcher does not read keeps the
//! segment but rewinds the cursor, since it bumped a version and may have
//! re-armed a tuple. A rule that [requires](crate::RuleBuilder::requires) a
//! fact type is passed over outright while no such fact is live.
//!
//! A firing visits only the rules of its *wake set*: a bitset over the
//! salience order, filled from the type tables whose generation moved since
//! the last look (each table wakes the rules watching it) and cleared for a
//! rule when a visit finds it guarded or its cached segment exhausted. A
//! quiescence check therefore costs the rules that something woke, not
//! O(rules) per firing.
//!
//! Debug builds check every one of these shortcuts: whenever the engine
//! decides about a rule without running its matcher — guarded, served from
//! its cache, asleep, or out of focus — it also runs the matcher from
//! scratch and panics, naming the rule, unless the first live un-refracted
//! tuple is the one the shortcut chose (none, for a rule passed over). That
//! is exactly the condition under which the shortcut cannot change which
//! rule fires next, so an under-declared watch, or a rule in a group its
//! caller does not focus while it could fire, fails the first test that
//! exercises it.
//!
//! Matchers must be pure functions of (working memory, ctx). The engine
//! deliberately does **not** watch `Ctx`: like Drools globals, a ctx change
//! does not re-activate rules. Callers that mutate ctx in a way matchers can
//! observe (e.g. a config change between requests) must call
//! [`Session::invalidate_agenda`].
//!
//! Refraction: a rule does not fire twice on one tuple of handles at the
//! same fact versions. Updating a fact bumps its version, which re-arms
//! every rule matching it — exactly the Drools `update()` semantics the
//! paper's policy rules rely on. A firing is recorded on the slot of the
//! tuple's first fact, with the versions of the others, and the record
//! lives until that fact is updated or retracted: no tuple at the versions
//! it names can match after that, so nothing ever sweeps the records, and a
//! check reads the first fact's slot, not a hash set. A rule whose first
//! fact outlives the others it fires with holds one record per such firing
//! until the first fact moves; the policy rules bind the request's own
//! transfer or cleanup first.

use crate::memory::{FactHandle, WorkingMemory};
use crate::rule::{Focus, Freshness, Match, Rule, Watch};
use pwm_obs::{Counter, Registry};
use std::sync::Arc;
use std::time::Instant;

/// Per-rule observability counters (cumulative over the session).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleStats {
    /// Rule name (shared with the rule itself).
    pub name: Arc<str>,
    /// Rule salience, for display.
    pub salience: i32,
    /// Times the matcher was (re-)evaluated. Stays flat while the rule's
    /// watched fact types are clean — the direct measure that dirty-set
    /// propagation is working.
    pub evaluations: u64,
    /// Total fact tuples the matcher returned across evaluations.
    pub matches: u64,
    /// Times the rule's action fired.
    pub firings: u64,
    /// Wall-clock time spent in the matcher, in nanoseconds — estimated
    /// from one timed evaluation in 16, which stands for all 16.
    pub eval_nanos: u64,
}

/// Outcome of a [`Session::fire`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiringReport {
    /// Total rule firings performed.
    pub firings: usize,
    /// True if the engine stopped due to the firing budget rather than
    /// quiescence.
    pub budget_exhausted: bool,
}

/// One matcher evaluation in this many is timed (per rule, starting with the
/// first) and charged that many times over: two clock reads cost about as
/// much as a typical policy matcher.
const EVAL_TIMING_SAMPLE: u64 = 16;

/// Cached agenda state for one rule.
#[derive(Default)]
struct RuleState {
    /// Last matcher output (the rule's agenda segment).
    matches: Vec<Match>,
    /// The buffer `matches` was merged out of by the last delta refresh,
    /// kept so the next one merges back into it instead of allocating.
    spare: Vec<Match>,
    /// Working-memory generation `matches` was computed at.
    valid_at: u64,
    /// Generation `matches` was last scanned at (≥ `valid_at`): `scan_from`
    /// holds while no watched type is mutated after it.
    seen_at: u64,
    /// False until the matcher has run at least once (or after
    /// [`Session::invalidate_agenda`]).
    computed: bool,
    /// Index of the first tuple in `matches` that might still be eligible;
    /// everything before it is known refracted or stale for this cache.
    scan_from: usize,
    evaluations: u64,
    matched: u64,
    firings: u64,
    eval_nanos: u64,
}

impl RuleState {
    /// `[evaluations, matches, firings, eval_nanos]`, cumulative.
    fn counters(&self) -> [u64; 4] {
        [
            self.evaluations,
            self.matched,
            self.firings,
            self.eval_nanos,
        ]
    }
}

/// A set of rule positions, one bit each.
#[derive(Default)]
struct Bits(Vec<u64>);

impl Bits {
    /// Make room for positions below `n`, keeping the set.
    fn grow(&mut self, n: usize) {
        self.0.resize(n.div_ceil(64), 0);
    }

    /// Make the set empty, with room for positions below `n`.
    fn reset(&mut self, n: usize) {
        self.0.clear();
        self.grow(n);
    }

    /// Make the set hold every position below `n`.
    fn fill(&mut self, n: usize) {
        self.reset(n);
        for i in 0..n {
            self.insert(i);
        }
    }

    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    #[cfg(debug_assertions)]
    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & 1 << (i % 64) != 0
    }

    fn union_with(&mut self, other: &Bits) {
        for (word, other) in self.0.iter_mut().zip(&other.0) {
            *word |= other;
        }
    }
}

/// What one rule has published so far.
#[derive(Default)]
struct RuleObs {
    /// The rule's counters as of the last publish (as of attachment before
    /// the first), so each publish adds only what moved since.
    published: [u64; 4],
    /// The rule's counter series, in [`RuleState::counters`] order; created
    /// the first time the rule is published.
    metrics: Option<[Counter; 4]>,
}

/// Metrics hookup for a session: the shared registry, base labels stamped
/// onto every series (e.g. the policy session name), and cached per-rule
/// handles so the hot path pays atomic adds, not registry lookups.
struct SessionObs {
    registry: Registry,
    labels: Vec<(String, String)>,
    per_rule: Vec<RuleObs>,
}

impl SessionObs {
    /// Add what the counters of the rules in `moved` (installation
    /// indices) moved since the last publish, and empty `moved`. A rule is
    /// in it after its counters moved, and from its installation or the
    /// attachment until its series are first created.
    fn publish<Ctx>(&mut self, rules: &[Rule<Ctx>], states: &[RuleState], moved: &mut Bits) {
        let SessionObs {
            registry,
            labels,
            per_rule,
        } = self;
        per_rule.resize_with(rules.len(), RuleObs::default);
        for (w, word) in moved.0.iter_mut().enumerate() {
            while *word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                Self::publish_rule(
                    registry,
                    labels,
                    &rules[idx],
                    &states[idx],
                    &mut per_rule[idx],
                );
            }
        }
    }

    /// Add what `rule`'s counters moved since its last publish, creating
    /// its series the first time.
    fn publish_rule<Ctx>(
        registry: &Registry,
        labels: &[(String, String)],
        rule: &Rule<Ctx>,
        state: &RuleState,
        obs: &mut RuleObs,
    ) {
        let now = state.counters();
        let metrics = obs.metrics.get_or_insert_with(|| {
            let mut refs: Vec<(&str, &str)> = Vec::with_capacity(labels.len() + 1);
            refs.extend(labels.iter().map(|(k, v)| (k.as_str(), v.as_str())));
            refs.push(("rule", rule.name()));
            [
                (
                    "pwm_rules_evaluations_total",
                    "Matcher (re-)evaluations per rule",
                ),
                (
                    "pwm_rules_matches_total",
                    "Fact tuples returned by matchers per rule",
                ),
                ("pwm_rules_firings_total", "Rule action firings per rule"),
                (
                    "pwm_rules_eval_nanos_total",
                    "Wall-clock nanoseconds spent in matchers per rule, estimated from one timed evaluation in 16",
                ),
            ]
            .map(|(name, help)| registry.counter(name, help, &refs))
        });
        for ((counter, now), was) in metrics.iter().zip(now).zip(obs.published) {
            counter.add(now - was);
        }
        obs.published = now;
    }
}

/// A rule session: working memory + rules + agenda state.
pub struct Session<Ctx> {
    /// The fact store. Public so callers can insert/inspect facts directly,
    /// as Drools callers do with a `KieSession`.
    pub wm: WorkingMemory,
    rules: Vec<Rule<Ctx>>,
    states: Vec<RuleState>,
    /// Scratch for [`Session::delta_refresh`]'s changed-handle list.
    changed: Vec<FactHandle>,
    /// Rule indices sorted by (salience desc, installation order); rebuilt
    /// lazily after `add_rule` instead of per firing. The bitsets below
    /// hold positions in this order.
    order: Vec<usize>,
    order_valid: bool,
    /// The wake set: rules a firing visits. A rule leaves it when a visit
    /// finds it guarded or its cached matches exhausted, and comes back
    /// when a table it watches moves past `looked_at`.
    awake: Bits,
    /// Per watched table position, the rules watching it.
    wakes_on: Vec<(u32, Bits)>,
    /// Rules that watch every type ([`Watch::All`]).
    wakes_on_any: Bits,
    /// Working-memory generation the wake set was last filled at.
    looked_at: u64,
    /// Rules in the groups of `focused`.
    in_focus: Bits,
    focused: Option<Focus>,
    /// Rules (installation indices) whose counters moved since the last
    /// publish.
    moved: Bits,
    /// Firings one pass may make before it stops (`budget_exhausted`).
    pub(crate) max_firings: usize,
    obs: Option<SessionObs>,
}

impl<Ctx> Session<Ctx> {
    /// New session with an empty memory and default firing budget.
    pub fn new() -> Self {
        Session {
            wm: WorkingMemory::new(),
            rules: Vec::new(),
            states: Vec::new(),
            changed: Vec::new(),
            order: Vec::new(),
            order_valid: true,
            awake: Bits::default(),
            wakes_on: Vec::new(),
            wakes_on_any: Bits::default(),
            looked_at: 0,
            in_focus: Bits::default(),
            focused: None,
            moved: Bits::default(),
            max_firings: 100_000,
            obs: None,
        }
    }

    /// Publish per-rule counters (`pwm_rules_evaluations_total`,
    /// `pwm_rules_matches_total`, `pwm_rules_firings_total`,
    /// `pwm_rules_eval_nanos_total`) to `registry` at the end of every
    /// [`Session::fire`], each series labeled with the rule name plus the
    /// given base labels (e.g. the owning policy session).
    pub fn set_obs(&mut self, registry: Registry, base_labels: &[(&str, &str)]) {
        self.obs = Some(SessionObs {
            registry,
            labels: base_labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            per_rule: self
                .states
                .iter()
                .map(|state| RuleObs {
                    published: state.counters(),
                    metrics: None,
                })
                .collect(),
        });
        // Every rule's series is created by the next publish.
        self.moved.fill(self.rules.len());
    }

    /// Install a rule. Order of installation breaks salience ties.
    pub fn add_rule(&mut self, mut rule: Rule<Ctx>) {
        rule.resolve(&mut self.wm);
        self.rules.push(rule);
        self.states.push(RuleState::default());
        self.order_valid = false;
        self.moved.grow(self.rules.len());
        self.moved.insert(self.rules.len() - 1);
    }

    /// Cumulative per-rule counters, in installation order.
    pub fn rule_stats(&self) -> Vec<RuleStats> {
        self.rules
            .iter()
            .zip(&self.states)
            .map(|(rule, state)| RuleStats {
                name: rule.name_arc(),
                salience: rule.salience(),
                evaluations: state.evaluations,
                matches: state.matched,
                firings: state.firings,
                eval_nanos: state.eval_nanos,
            })
            .collect()
    }

    /// Discard every cached match list, forcing each matcher to re-run on
    /// its next consideration. Required after mutating ctx in a way matchers
    /// observe (the engine does not watch ctx, mirroring Drools globals).
    pub fn invalidate_agenda(&mut self) {
        for state in &mut self.states {
            state.computed = false;
            state.scan_from = 0;
            state.matches.clear();
        }
        self.awake.fill(self.order.len());
    }

    /// Run the rules of every agenda group to quiescence: [`Session::fire`]
    /// with [`Focus::ALL`].
    pub fn fire_all(&mut self, ctx: &mut Ctx) -> FiringReport {
        self.fire(ctx, Focus::ALL)
    }

    /// Run the rules of the groups in `focus` to quiescence (Drools'
    /// `setFocus` then `fireAllRules`). Returns what fired. Rules of other
    /// groups are not visited; what changed under them waits for a pass
    /// that focuses them.
    pub fn fire(&mut self, ctx: &mut Ctx, focus: Focus) -> FiringReport {
        self.ensure_order();
        self.set_focus(focus);
        let mut firings = 0;
        let mut budget_exhausted = false;
        loop {
            if firings >= self.max_firings {
                budget_exhausted = true;
                break;
            }
            match self.next_activation(ctx) {
                Some((rule_idx, m)) => {
                    self.wm.refract(rule_idx as u32, &m);
                    self.states[rule_idx].firings += 1;
                    self.moved.insert(rule_idx);
                    self.rules[rule_idx].fire(&mut self.wm, ctx, &m);
                    firings += 1;
                }
                None => break,
            }
        }
        if let Some(obs) = &mut self.obs {
            obs.publish(&self.rules, &self.states, &mut self.moved);
        }
        FiringReport {
            firings,
            budget_exhausted,
        }
    }

    /// Try to refresh a stale `when_each` match cache by re-probing only the
    /// handles mutated since the cache was computed, instead of re-scanning
    /// every fact of the watched type. Returns `false` when the rule is a
    /// join rule, the cache was never computed, or the per-type change log
    /// has been compacted past the cache's generation — the caller then
    /// falls back to a full matcher run.
    ///
    /// The merge walks the cached matches (ascending handle order — exactly
    /// what a full scan produces) and the sorted changed handles together,
    /// so the refreshed cache is byte-identical to a full re-scan.
    fn delta_refresh(
        rule: &Rule<Ctx>,
        state: &mut RuleState,
        wm: &WorkingMemory,
        ctx: &Ctx,
        changed: &mut Vec<FactHandle>,
    ) -> bool {
        if !state.computed {
            return false;
        }
        let Some(each) = rule.each() else {
            return false;
        };
        let Some(changes) = wm
            .table_at(each.table.position())
            .changed_since(state.valid_at)
        else {
            return false;
        };
        changed.clear();
        changed.extend(changes.iter().map(|&(_, h)| h));
        changed.sort_unstable();
        changed.dedup();
        if changed.is_empty() {
            return true;
        }
        // Each changed handle is probed once, when the merge reaches it.
        let passes = |h: FactHandle| (each.probe)(wm, ctx, h);
        let mut merged = std::mem::take(&mut state.spare);
        merged.clear();
        let mut ci = 0;
        for m in &state.matches {
            let h = m[0];
            while ci < changed.len() && changed[ci] < h {
                if passes(changed[ci]) {
                    merged.push([changed[ci]].into());
                }
                ci += 1;
            }
            if ci < changed.len() && changed[ci] == h {
                if passes(h) {
                    merged.push(m.clone());
                }
                ci += 1;
                continue;
            }
            merged.push(m.clone());
        }
        for &h in &changed[ci..] {
            if passes(h) {
                merged.push([h].into());
            }
        }
        state.spare = std::mem::replace(&mut state.matches, merged);
        true
    }

    /// Rebuild the salience order and the per-table wake lists if
    /// `add_rule` invalidated them; every rule starts awake.
    fn ensure_order(&mut self) {
        if self.order_valid {
            return;
        }
        self.order = (0..self.rules.len()).collect();
        self.order.sort_by_key(|&i| (-self.rules[i].salience(), i));
        let n = self.order.len();
        self.wakes_on.clear();
        self.wakes_on_any.reset(n);
        for (oi, &idx) in self.order.iter().enumerate() {
            let Watch::Types(types) = self.rules[idx].watch() else {
                self.wakes_on_any.insert(oi);
                continue;
            };
            for watched in types {
                let position = watched.position();
                let at = match self.wakes_on.iter().position(|(p, _)| *p == position) {
                    Some(at) => at,
                    None => {
                        let mut rules = Bits::default();
                        rules.reset(n);
                        self.wakes_on.push((position, rules));
                        self.wakes_on.len() - 1
                    }
                };
                self.wakes_on[at].1.insert(oi);
            }
        }
        self.awake.fill(n);
        self.focused = None;
        self.order_valid = true;
    }

    /// Point `in_focus` at the rules of `focus`'s groups.
    fn set_focus(&mut self, focus: Focus) {
        if self.focused == Some(focus) {
            return;
        }
        self.in_focus.reset(self.order.len());
        for (oi, &idx) in self.order.iter().enumerate() {
            if focus.contains(self.rules[idx].agenda_group()) {
                self.in_focus.insert(oi);
            }
        }
        self.focused = Some(focus);
    }

    /// Add to the wake set the rules watching a table mutated since the
    /// last look.
    fn wake(&mut self) {
        let now = self.wm.generation();
        if now == self.looked_at {
            return;
        }
        for (position, rules) in &self.wakes_on {
            if self.wm.table_at(*position).generation() > self.looked_at {
                self.awake.union_with(rules);
            }
        }
        self.awake.union_with(&self.wakes_on_any);
        self.looked_at = now;
    }

    /// Find the highest-priority non-refracted activation in focus.
    ///
    /// Semantically identical to re-matching every rule of the focus
    /// against the current memory in (salience desc, installation) order
    /// and returning the first non-refracted live tuple; the wake set and
    /// the cache/dirty machinery only skip work whose outcome cannot have
    /// changed.
    fn next_activation(&mut self, ctx: &Ctx) -> Option<(usize, Match)> {
        self.wake();
        // First position the debug oracle has not yet accounted for.
        #[cfg(debug_assertions)]
        let mut passed = 0;
        for w in 0..self.awake.0.len() {
            let mut candidates = self.awake.0[w] & self.in_focus.0[w];
            while candidates != 0 {
                let oi = w * 64 + candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                #[cfg(debug_assertions)]
                {
                    self.check_passed_over(ctx, passed..oi);
                    passed = oi + 1;
                }
                let found = self.visit(oi, ctx);
                if found.is_some() {
                    return found;
                }
            }
        }
        #[cfg(debug_assertions)]
        self.check_passed_over(ctx, passed..self.order.len());
        None
    }

    /// Visit the awake rule at salience position `oi`: refresh its cached
    /// matches if something it reads changed, then return its first live
    /// un-refracted tuple, or put it to sleep.
    fn visit(&mut self, oi: usize, ctx: &Ctx) -> Option<(usize, Match)> {
        let idx = self.order[oi];
        let rule = &self.rules[idx];
        let state = &mut self.states[idx];
        if rule.cannot_match(&self.wm) {
            // Asleep, state untouched: the insert that lifts the guard
            // moves a watched table, which wakes and dirties it.
            self.awake.remove(oi);
            #[cfg(debug_assertions)]
            Self::check_shortcut(rule, idx, &self.wm, ctx, None, "guarded");
            return None;
        }
        let freshness = if state.computed {
            rule.watch()
                .freshness(&self.wm, state.valid_at, state.seen_at)
        } else {
            Freshness::Dirty
        };
        if freshness == Freshness::Dirty {
            let started = state
                .evaluations
                .is_multiple_of(EVAL_TIMING_SAMPLE)
                .then(Instant::now);
            if !Self::delta_refresh(rule, state, &self.wm, ctx, &mut self.changed) {
                state.matches.clear();
                rule.matches_into(&self.wm, ctx, &mut state.matches);
            }
            if let Some(started) = started {
                state.eval_nanos += EVAL_TIMING_SAMPLE * started.elapsed().as_nanos() as u64;
            }
            state.evaluations += 1;
            state.matched += state.matches.len() as u64;
            state.valid_at = self.wm.generation();
            state.computed = true;
            self.moved.insert(idx);
        }
        if freshness != Freshness::Clean {
            state.seen_at = self.wm.generation();
            state.scan_from = 0;
        }
        let mut pos = state.scan_from;
        let mut found = None;
        while pos < state.matches.len() {
            let m = &state.matches[pos];
            // Skip refracted tuples, and tuples holding a stale handle:
            // a matcher may have returned one another firing retracted.
            if self.wm.refracted(idx as u32, m) == Some(false) {
                found = Some((idx, m.clone()));
                break;
            }
            pos += 1;
        }
        // The caller refracts a found tuple before firing, so the next
        // scan may resume at it.
        state.scan_from = pos;
        if found.is_none() {
            // Exhausted: asleep until a watched table moves.
            self.awake.remove(oi);
        }
        #[cfg(debug_assertions)]
        if freshness != Freshness::Dirty {
            let chosen = found.as_ref().map(|(_, m)| m);
            Self::check_shortcut(rule, idx, &self.wm, ctx, chosen, "cached");
        }
        found
    }

    /// The debug oracle for the rules at salience positions `passed`, which
    /// a firing did not visit: each was asleep or out of focus, so none may
    /// have a live un-refracted tuple.
    #[cfg(debug_assertions)]
    fn check_passed_over(&self, ctx: &Ctx, passed: std::ops::Range<usize>) {
        for oi in passed {
            let idx = self.order[oi];
            let why = if self.in_focus.contains(oi) {
                "asleep"
            } else {
                "out of focus"
            };
            Self::check_shortcut(&self.rules[idx], idx, &self.wm, ctx, None, why);
        }
    }

    /// The debug oracle: `rule` was decided on without running its matcher —
    /// passed over (`chosen` is `None`) or served from its cached matches.
    /// Run the matcher from scratch; the first live un-refracted tuple must
    /// be `chosen`, or the rule's `watches`/`requires`, or an
    /// `update_fields` it depends on, declare less than is read or written
    /// (or ctx changed under the matcher with no `invalidate_agenda`, or the
    /// rule could fire in a group its caller left out of focus).
    #[cfg(debug_assertions)]
    fn check_shortcut(
        rule: &Rule<Ctx>,
        idx: usize,
        wm: &WorkingMemory,
        ctx: &Ctx,
        chosen: Option<&Match>,
        why: &str,
    ) {
        let eligible = |m: &Match| wm.refracted(idx as u32, m) == Some(false);
        // The oracle's walks are no work of the engine's: a release build
        // makes none, and the count reads the same in both.
        let walked = wm.walked.get();
        let fresh = rule.first_match(wm, ctx, &eligible);
        wm.walked.set(walked);
        assert!(
            fresh.as_deref() == chosen.map(|m| &**m),
            "rule `{}` was {why} and not re-evaluated, which chose {chosen:?}, but its matcher \
             now yields {fresh:?} first: a watch, a `requires` or an `update_fields` \
             under-declares what it reads or writes, ctx changed without `invalidate_agenda`, \
             or a pass left out of focus a rule that could fire",
            rule.name(),
        );
    }
}

impl<Ctx> Default for Session<Ctx> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::Fields;
    use crate::rule::{AgendaGroup, Watch, WatchedType};

    #[derive(Debug)]
    struct Counter(u64);

    #[derive(Debug, PartialEq)]
    struct Item {
        priority: Option<u32>,
    }

    #[test]
    fn single_rule_fires_once_per_fact() {
        let mut s: Session<()> = Session::new();
        s.wm.insert(Item { priority: None });
        s.wm.insert(Item { priority: None });
        s.add_rule(
            Rule::new("assign")
                .when_each::<Item>(|i, _| i.priority.is_none())
                .then(|wm, _, m| {
                    wm.update::<Item>(m[0], |i| i.priority = Some(1));
                }),
        );
        let r = s.fire_all(&mut ());
        assert_eq!(r.firings, 2);
        assert!(!r.budget_exhausted);
        assert!(s.wm.iter::<Item>().all(|(_, i)| i.priority == Some(1)));
    }

    #[test]
    fn refraction_prevents_refire_on_unchanged_fact() {
        let mut s: Session<u64> = Session::new();
        s.wm.insert(Counter(0));
        // Matcher matches unconditionally; action does NOT update the fact,
        // so the rule must fire exactly once per tuple version.
        s.add_rule(
            Rule::new("observe")
                .when_each::<Counter>(|_, _| true)
                .then(|_, fired: &mut u64, _| *fired += 1),
        );
        let mut fired = 0;
        s.fire_all(&mut fired);
        assert_eq!(fired, 1);
        // A second fire_all adds nothing.
        s.fire_all(&mut fired);
        assert_eq!(fired, 1);
    }

    #[test]
    fn update_rearms_rules() {
        let mut s: Session<u64> = Session::new();
        let h = s.wm.insert(Counter(0));
        s.add_rule(
            Rule::new("observe")
                .when_each::<Counter>(|_, _| true)
                .then(|_, fired: &mut u64, _| *fired += 1),
        );
        let mut fired = 0;
        s.fire_all(&mut fired);
        s.wm.update::<Counter>(h, |c| c.0 += 1);
        s.fire_all(&mut fired);
        assert_eq!(fired, 2);
    }

    #[test]
    fn chained_rules_reach_quiescence() {
        // Rule A counts up to 5 by updating the fact; each update re-arms it.
        let mut s: Session<()> = Session::new();
        s.wm.insert(Counter(0));
        s.add_rule(
            Rule::new("count-to-five")
                .when_each::<Counter>(|c, _| c.0 < 5)
                .then(|wm, _, m| {
                    wm.update::<Counter>(m[0], |c| c.0 += 1);
                }),
        );
        let r = s.fire_all(&mut ());
        assert_eq!(r.firings, 5);
        let (_, c) = s.wm.find::<Counter>(|_| true).unwrap();
        assert_eq!(c.0, 5);
    }

    #[test]
    fn salience_orders_firing() {
        let mut s: Session<Vec<&'static str>> = Session::new();
        s.wm.insert(Counter(0));
        s.add_rule(
            Rule::new("low")
                .salience(1)
                .when_each::<Counter>(|_, _| true)
                .then(|_, log: &mut Vec<&'static str>, _| log.push("low")),
        );
        s.add_rule(
            Rule::new("high")
                .salience(10)
                .when_each::<Counter>(|_, _| true)
                .then(|_, log: &mut Vec<&'static str>, _| log.push("high")),
        );
        let mut log = Vec::new();
        assert_eq!(s.fire_all(&mut log).firings, 2);
        assert_eq!(log, vec!["high", "low"]);
    }

    #[test]
    fn equal_salience_fires_in_installation_order() {
        let mut s: Session<Vec<&'static str>> = Session::new();
        s.wm.insert(Counter(0));
        for name in ["first", "second", "third"] {
            s.add_rule(
                Rule::new(name)
                    .when_each::<Counter>(|_, _| true)
                    .then(move |_, log: &mut Vec<&'static str>, _| log.push(name)),
            );
        }
        let mut log = Vec::new();
        s.fire_all(&mut log);
        assert_eq!(log, vec!["first", "second", "third"]);
    }

    #[test]
    fn budget_stops_runaway_rules() {
        let mut s: Session<()> = Session::new();
        s.wm.insert(Counter(0));
        s.add_rule(
            Rule::new("forever")
                .when_each::<Counter>(|_, _| true)
                .then(|wm, _, m| {
                    wm.update::<Counter>(m[0], |c| c.0 += 1);
                }),
        );
        let r = s.fire_all(&mut ());
        assert_eq!(r.firings, 100_000);
        assert!(r.budget_exhausted);
    }

    #[test]
    fn retraction_by_one_rule_hides_fact_from_others() {
        let mut s: Session<u64> = Session::new();
        s.wm.insert(Item { priority: None });
        s.add_rule(
            Rule::new("delete-unprioritized")
                .salience(10)
                .when_each::<Item>(|i, _| i.priority.is_none())
                .then(|wm, _, m| {
                    wm.retract(m[0]);
                }),
        );
        s.add_rule(
            Rule::new("count-items")
                .when_each::<Item>(|_, _| true)
                .then(|_, seen: &mut u64, _| *seen += 1),
        );
        let mut seen = 0;
        s.fire_all(&mut seen);
        assert_eq!(seen, 0, "lower-salience rule saw a retracted fact");
    }

    #[test]
    fn a_fact_that_moves_or_goes_holds_no_refraction_record() {
        let mut s: Session<u64> = Session::new();
        let a = s.wm.insert(Counter(0));
        let b = s.wm.insert(Counter(1));
        s.add_rule(
            Rule::new("observe")
                .when_each::<Counter>(|_, _| true)
                .then(|_, fired: &mut u64, _| *fired += 1),
        );
        let mut fired = 0;
        s.fire_all(&mut fired);
        assert_eq!((fired, s.wm.refraction_records()), (2, 2));
        s.wm.update::<Counter>(a, |c| c.0 += 1);
        assert_eq!(s.wm.refraction_records(), 1, "updated: its record went");
        s.fire_all(&mut fired);
        assert_eq!((fired, s.wm.refraction_records()), (3, 2));
        s.wm.retract(b);
        assert_eq!(s.wm.refraction_records(), 1, "retracted: its record went");
        // A fact recycling the slot starts with no record, and fires.
        s.wm.insert(Counter(2));
        s.fire_all(&mut fired);
        assert_eq!((fired, s.wm.refraction_records()), (4, 2));
        s.wm.retract(a);
        s.wm.retract_all::<Counter>();
        assert_eq!(s.wm.refraction_records(), 0);
    }

    /// On/off switch a matcher reads beside the facts it binds.
    #[derive(Debug)]
    struct Switch(bool);

    /// A one-fact rule over every `Counter`, matching only while the
    /// `Switch` is on: the switch moves the tuple out of and back into the
    /// rule's matches without touching the counter.
    fn switched_session() -> Session<u64> {
        let mut s = Session::new();
        s.add_rule(
            Rule::new("switched")
                .watches::<Counter>()
                .watches::<Switch>()
                .when(|wm, _, out| {
                    if wm.iter::<Switch>().any(|(_, on)| on.0) {
                        for (h, _) in wm.iter::<Counter>() {
                            out.push([h].into());
                        }
                    }
                })
                .then(|_, fired: &mut u64, _| *fired += 1),
        );
        s
    }

    #[test]
    fn a_tuple_that_leaves_and_returns_at_the_same_versions_stays_refracted() {
        let mut s = switched_session();
        let counter = s.wm.insert(Counter(0));
        let switch = s.wm.insert(Switch(true));
        let mut fired = 0;
        s.fire_all(&mut fired);
        assert_eq!(fired, 1);
        s.wm.update::<Switch>(switch, |on| on.0 = false);
        s.fire_all(&mut fired);
        s.wm.update::<Switch>(switch, |on| on.0 = true);
        s.fire_all(&mut fired);
        assert_eq!(fired, 1, "the counter came back at the version it fired at");
        // Its own update re-arms it.
        s.wm.update::<Counter>(counter, |c| c.0 += 1);
        s.fire_all(&mut fired);
        assert_eq!(fired, 2);
        s.fire_all(&mut fired);
        assert_eq!(fired, 2);
    }

    /// A rule over every `Counter` tuple of width `n`, in insertion order.
    fn join_session(n: usize) -> (Session<u64>, Vec<FactHandle>) {
        let mut s = Session::new();
        let handles = (0..n as u64).map(|i| s.wm.insert(Counter(i))).collect();
        s.add_rule(
            Rule::new("join")
                .watches::<Counter>()
                .when(move |wm, _, out| {
                    let hs = wm.handles::<Counter>();
                    if hs.len() == n {
                        out.push(hs[..].into());
                    }
                })
                .then(|_, fired: &mut u64, _| *fired += 1),
        );
        (s, handles)
    }

    #[test]
    fn a_join_tuple_rearms_when_only_its_last_fact_moves() {
        for n in [2, 3] {
            let (mut s, handles) = join_session(n);
            let mut fired = 0;
            s.fire_all(&mut fired);
            s.fire_all(&mut fired);
            assert_eq!(fired, 1, "{n} facts");
            s.wm.update::<Counter>(handles[n - 1], |c| c.0 += 1);
            s.fire_all(&mut fired);
            assert_eq!(fired, 2, "{n} facts: the last one moved");
            s.fire_all(&mut fired);
            assert_eq!(fired, 2, "{n} facts");
        }
    }

    #[test]
    fn two_fact_join_rule() {
        // Pair every Counter with every Item: a 2-tuple match.
        let mut s: Session<u64> = Session::new();
        s.wm.insert(Counter(1));
        s.wm.insert(Counter(2));
        s.wm.insert(Item { priority: None });
        s.add_rule(
            Rule::new("join")
                .when(|wm, _, out| {
                    for (ch, _) in wm.iter::<Counter>() {
                        for (ih, _) in wm.iter::<Item>() {
                            out.push([ch, ih].into());
                        }
                    }
                })
                .then(|_, pairs: &mut u64, _| *pairs += 1),
        );
        let mut pairs = 0;
        s.fire_all(&mut pairs);
        assert_eq!(pairs, 2);
    }

    #[test]
    fn log_is_off_by_default_but_firings_still_counted() {
        let mut s: Session<()> = Session::new();
        s.wm.insert(Counter(0));
        s.add_rule(
            Rule::new("noop")
                .when_each::<Counter>(|_, _| true)
                .then(|_, _, _| {}),
        );
        let r = s.fire_all(&mut ());
        assert_eq!(r.firings, 1);
    }

    #[test]
    fn clean_type_rules_are_not_reevaluated() {
        let mut s: Session<()> = Session::new();
        s.wm.insert(Counter(0));
        s.wm.insert(Item { priority: None });
        s.add_rule(
            Rule::new("counters")
                .when_each::<Counter>(|_, _| true)
                .then(|_, _, _| {}),
        );
        s.add_rule(
            Rule::new("items")
                .when_each::<Item>(|_, _| true)
                .then(|_, _, _| {}),
        );
        s.fire_all(&mut ());
        let before = s.rule_stats();
        // Mutating only Item must leave the Counter rule's matcher untouched.
        s.wm.insert(Item { priority: Some(2) });
        let report = s.fire_all(&mut ());
        assert_eq!(report.firings, 1);
        let after = s.rule_stats();
        assert_eq!(
            after[0].evaluations, before[0].evaluations,
            "Counter rule re-evaluated while its watched type was clean"
        );
        assert!(after[1].evaluations > before[1].evaluations);
        assert_eq!(after[1].firings, before[1].firings + 1);
    }

    #[test]
    fn rule_stats_report_names_and_counts() {
        let mut s: Session<()> = Session::new();
        s.wm.insert(Counter(0));
        s.add_rule(
            Rule::new("noop")
                .when_each::<Counter>(|_, _| true)
                .then(|_, _, _| {}),
        );
        s.fire_all(&mut ());
        let stats = s.rule_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name.as_ref(), "noop");
        assert_eq!(stats[0].firings, 1);
        assert!(stats[0].evaluations >= 1);
        assert!(stats[0].matches >= 1);
    }

    #[test]
    fn invalidate_agenda_picks_up_ctx_changes() {
        // Matchers read ctx but the engine (like Drools globals) does not
        // watch it; invalidate_agenda is the explicit re-arm.
        let mut s: Session<i64> = Session::new();
        s.wm.insert(Counter(5));
        s.add_rule(
            Rule::new("above-threshold")
                .when_each::<Counter>(|c, threshold| (c.0 as i64) > *threshold)
                .then(|_, _, _| {}),
        );
        let mut threshold = 10;
        assert_eq!(s.fire_all(&mut threshold).firings, 0);
        threshold = 3;
        // Release builds keep serving the stale agenda; a debug build's
        // oracle would reject this pass as an un-announced change.
        #[cfg(not(debug_assertions))]
        assert_eq!(
            s.fire_all(&mut threshold).firings,
            0,
            "ctx changes alone must not re-activate (Drools globals)"
        );
        s.invalidate_agenda();
        assert_eq!(s.fire_all(&mut threshold).firings, 1);
    }

    #[test]
    fn wide_join_tuples_use_heap_keys() {
        // A 3-fact join's record spans two nodes; refraction must still
        // hold (fires once per distinct triple).
        let mut s: Session<u64> = Session::new();
        s.wm.insert(Counter(1));
        s.wm.insert(Counter(2));
        s.wm.insert(Counter(3));
        s.add_rule(
            Rule::new("triple")
                .when(|wm, _, out| {
                    let hs = wm.handles::<Counter>();
                    if hs.len() == 3 {
                        out.push(hs[..].into());
                    }
                })
                .then(|_, fired: &mut u64, _| *fired += 1),
        );
        let mut fired = 0;
        s.fire_all(&mut fired);
        s.fire_all(&mut fired);
        assert_eq!(fired, 1);
        assert_eq!(s.wm.refraction_records(), 1);
    }

    #[test]
    fn registry_counters_track_rule_activity() {
        let registry = Registry::new();
        let mut s: Session<()> = Session::new();
        s.set_obs(registry.clone(), &[("session", "default")]);
        s.wm.insert(Counter(0));
        s.add_rule(
            Rule::new("observe")
                .when_each::<Counter>(|_, _| true)
                .then(|_, _, _| {}),
        );
        s.fire_all(&mut ());
        s.fire_all(&mut ()); // quiescent: no new firings
        let text = registry.render_prometheus();
        assert!(
            text.contains("pwm_rules_firings_total{rule=\"observe\",session=\"default\"} 1"),
            "unexpected exposition:\n{text}"
        );
        assert!(text.contains("pwm_rules_evaluations_total{rule=\"observe\",session=\"default\"}"));
        assert!(text.contains("pwm_rules_matches_total{rule=\"observe\",session=\"default\"} 1"));
    }

    #[derive(Debug)]
    struct Job {
        ready: bool,
        note: u32,
    }

    impl Job {
        const READY: Fields = Fields::bit(0);
        const NOTE: Fields = Fields::bit(1);
    }

    #[test]
    fn a_write_to_an_unread_field_does_not_reevaluate() {
        let mut s: Session<()> = Session::new();
        let h = s.wm.insert(Job {
            ready: false,
            note: 0,
        });
        s.add_rule(
            Rule::new("start-ready-jobs")
                .when_each_fields::<Job>(Job::READY, |j, _| j.ready)
                .then(|_, _, _| {}),
        );
        s.add_rule(
            Rule::new("watch-everything")
                .when_each::<Job>(|j, _| j.ready)
                .then(|_, _, _| {}),
        );
        s.fire_all(&mut ());
        let before = s.rule_stats();
        s.wm.update_fields::<Job>(h, Job::NOTE, |j| j.note += 1);
        assert_eq!(s.fire_all(&mut ()).firings, 0);
        let after = s.rule_stats();
        assert_eq!(after[0].evaluations, before[0].evaluations);
        assert_eq!(after[1].evaluations, before[1].evaluations + 1);
        // The field it reads wakes it; so does a plain update.
        s.wm.update_fields::<Job>(h, Job::READY, |j| j.ready = true);
        assert_eq!(s.fire_all(&mut ()).firings, 2);
        s.wm.update::<Job>(h, |j| j.note += 1);
        assert_eq!(s.fire_all(&mut ()).firings, 2);
        assert_eq!(s.rule_stats()[0].evaluations, before[0].evaluations + 2);
    }

    #[test]
    fn a_write_to_an_unread_field_still_rearms_a_matching_rule() {
        // Refraction is keyed on fact versions and every write bumps one:
        // the rule keeps its cached match but must fire on it again.
        let mut s: Session<u64> = Session::new();
        let h = s.wm.insert(Job {
            ready: true,
            note: 0,
        });
        s.add_rule(
            Rule::new("count-ready")
                .when_each_fields::<Job>(Job::READY, |j, _| j.ready)
                .then(|_, fired: &mut u64, _| *fired += 1),
        );
        let mut fired = 0;
        s.fire_all(&mut fired);
        s.wm.update_fields::<Job>(h, Job::NOTE, |j| j.note += 1);
        s.fire_all(&mut fired);
        assert_eq!(fired, 2);
        assert_eq!(s.rule_stats()[0].evaluations, 1, "served from the cache");
    }

    #[test]
    fn a_rule_is_not_evaluated_while_a_required_type_is_empty() {
        let mut s: Session<u64> = Session::new();
        s.wm.insert(Counter(1));
        s.add_rule(
            Rule::new("pair-up")
                .requires::<Item>()
                .watches::<Counter>()
                .watches::<Item>()
                .when(|wm, _, out| {
                    for (c, _) in wm.iter::<Counter>() {
                        for (i, _) in wm.iter::<Item>() {
                            out.push([c, i].into());
                        }
                    }
                })
                .then(|_, fired: &mut u64, _| *fired += 1),
        );
        let mut fired = 0;
        s.fire_all(&mut fired);
        s.wm.insert(Counter(2));
        s.fire_all(&mut fired);
        assert_eq!((fired, s.rule_stats()[0].evaluations), (0, 0));
        // The first Item lifts the guard, on the very next pass.
        let item = s.wm.insert(Item { priority: None });
        s.fire_all(&mut fired);
        assert_eq!(fired, 2);
        // And it comes back down with the last one.
        s.wm.retract(item);
        let evaluations = s.rule_stats()[0].evaluations;
        s.wm.insert(Counter(3));
        s.fire_all(&mut fired);
        assert_eq!((fired, s.rule_stats()[0].evaluations), (2, evaluations));
        s.wm.insert(Item { priority: None });
        s.fire_all(&mut fired);
        assert_eq!(fired, 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rule `reads-more-than-it-says` was cached")]
    fn the_debug_oracle_names_an_under_declared_rule() {
        let mut s: Session<()> = Session::new();
        let h = s.wm.insert(Job {
            ready: false,
            note: 0,
        });
        s.add_rule(
            Rule::new("reads-more-than-it-says")
                .when_each_fields::<Job>(Job::READY, |j, _| j.ready || j.note > 0)
                .then(|_, _, _| {}),
        );
        s.fire_all(&mut ());
        s.wm.update_fields::<Job>(h, Job::NOTE, |j| j.note = 1);
        s.fire_all(&mut ());
    }

    #[test]
    fn evaluation_time_is_estimated_from_a_sample() {
        let mut s: Session<()> = Session::new();
        let h = s.wm.insert(Counter(0));
        s.add_rule(
            Rule::new("spin")
                .when_each::<Counter>(|_, _| {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    false
                })
                .then(|_, _, _| {}),
        );
        // The first evaluation is timed and stands for sixteen.
        s.fire_all(&mut ());
        let first = s.rule_stats()[0].eval_nanos;
        assert!(first >= EVAL_TIMING_SAMPLE * 200_000, "{first}");
        for _ in 1..EVAL_TIMING_SAMPLE {
            s.wm.update::<Counter>(h, |c| c.0 += 1);
            s.fire_all(&mut ());
        }
        let stats = &s.rule_stats()[0];
        assert_eq!((stats.evaluations, stats.eval_nanos), (16, first));
        s.wm.update::<Counter>(h, |c| c.0 += 1);
        s.fire_all(&mut ());
        assert!(s.rule_stats()[0].eval_nanos > first);
    }

    #[test]
    fn declared_join_watch_reacts_to_both_types() {
        // A join rule with explicit watches must re-arm when either watched
        // type changes, and must not when an unrelated type changes.
        #[derive(Debug)]
        struct Unrelated;
        let mut s: Session<u64> = Session::new();
        let ch = s.wm.insert(Counter(1));
        s.wm.insert(Item { priority: None });
        s.add_rule(
            Rule::new("join")
                .watches::<Counter>()
                .watches::<Item>()
                .when(|wm, _, out| {
                    for (c, _) in wm.iter::<Counter>() {
                        for (i, _) in wm.iter::<Item>() {
                            out.push([c, i].into());
                        }
                    }
                })
                .then(|_, fired: &mut u64, _| *fired += 1),
        );
        assert_eq!(
            s.rules[0].watch(),
            &Watch::Types(vec![
                WatchedType::of::<Counter>(Fields::ALL),
                WatchedType::of::<Item>(Fields::ALL)
            ])
        );
        let mut fired = 0;
        s.fire_all(&mut fired);
        assert_eq!(fired, 1);
        let evals_before = s.rule_stats()[0].evaluations;
        s.wm.insert(Unrelated);
        s.fire_all(&mut fired);
        assert_eq!(fired, 1);
        assert_eq!(
            s.rule_stats()[0].evaluations,
            evals_before,
            "unrelated type dirtied a declared join watch"
        );
        s.wm.update::<Counter>(ch, |c| c.0 += 1);
        s.fire_all(&mut fired);
        assert_eq!(fired, 2, "updating a watched join input must re-arm");
    }

    const FIRST: AgendaGroup = AgendaGroup::new(1);
    const SECOND: AgendaGroup = AgendaGroup::new(2);

    /// One rule per group: `counters` in `FIRST` fires on counters of 10
    /// or more, `items` in `SECOND` on items of priority 1, `zeros` in
    /// `MAIN` on items of priority 0.
    fn grouped_session() -> Session<Vec<&'static str>> {
        let mut s = Session::new();
        s.add_rule(
            Rule::new("counters")
                .agenda_group(FIRST)
                .when_each::<Counter>(|c, _| c.0 >= 10)
                .then(|_, log: &mut Vec<&'static str>, _| log.push("counters")),
        );
        s.add_rule(
            Rule::new("items")
                .salience(5)
                .agenda_group(SECOND)
                .when_each::<Item>(|i, _| i.priority == Some(1))
                .then(|_, log: &mut Vec<&'static str>, _| log.push("items")),
        );
        s.add_rule(
            Rule::new("zeros")
                .when_each::<Item>(|i, _| i.priority == Some(0))
                .then(|_, log: &mut Vec<&'static str>, _| log.push("zeros")),
        );
        s
    }

    fn evaluations(s: &Session<Vec<&'static str>>, rule: &str) -> u64 {
        let stats = s.rule_stats();
        stats.iter().find(|r| &*r.name == rule).unwrap().evaluations
    }

    #[test]
    fn a_rule_out_of_focus_is_not_evaluated_and_its_dirt_waits_for_focus() {
        let mut s = grouped_session();
        let mut log = Vec::new();
        let item = s.wm.insert(Item { priority: None });
        s.wm.insert(Counter(10));
        assert_eq!(s.fire(&mut log, Focus::on(FIRST)).firings, 1);
        assert_eq!(evaluations(&s, "items"), 0, "out of focus, yet evaluated");
        assert_eq!(evaluations(&s, "zeros"), 0);
        assert_eq!(s.fire(&mut log, Focus::on(SECOND)).firings, 0);
        assert_eq!(evaluations(&s, "items"), 1);
        // A write the rule reads, made while it is out of focus, is served
        // by the next pass that focuses it, and only then.
        s.wm.update::<Item>(item, |i| i.priority = Some(2));
        s.fire(&mut log, Focus::on(FIRST));
        assert_eq!(evaluations(&s, "items"), 1);
        s.wm.update::<Item>(item, |i| i.priority = Some(1));
        assert_eq!(s.fire(&mut log, Focus::on(SECOND)).firings, 1);
        assert_eq!(evaluations(&s, "items"), 2);
        assert_eq!(s.fire_all(&mut log).firings, 0);
        assert_eq!(log, ["counters", "items"]);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn a_focus_holds_back_an_activation_until_a_pass_focuses_its_group() {
        // Drools' semantics, which release builds keep; a debug build's
        // oracle rejects such a pass (see the test below).
        let mut s = grouped_session();
        let mut log = Vec::new();
        s.wm.insert(Item { priority: Some(1) });
        assert_eq!(s.fire(&mut log, Focus::on(FIRST)).firings, 0);
        assert_eq!(s.fire(&mut log, Focus::NONE).firings, 0);
        assert_eq!(s.fire(&mut log, Focus::on(SECOND)).firings, 1);
        assert_eq!(s.fire_all(&mut log).firings, 0);
        assert_eq!(log, ["items"]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rule `items` was out of focus")]
    fn the_debug_oracle_names_a_rule_left_out_of_focus_that_could_fire() {
        let mut s = grouped_session();
        s.wm.insert(Item { priority: Some(1) });
        s.fire(&mut Vec::new(), Focus::on(FIRST).and(AgendaGroup::MAIN));
    }

    #[test]
    fn fire_all_is_a_pass_with_every_group_focused() {
        let run = |focus: Option<Focus>| {
            let mut s = grouped_session();
            let mut log = Vec::new();
            let mut reports = Vec::new();
            for n in 0..4 {
                s.wm.insert(Counter(8 + n));
                s.wm.insert(Item {
                    priority: Some(n as u32 % 2),
                });
                reports.push(match focus {
                    Some(focus) => s.fire(&mut log, focus),
                    None => s.fire_all(&mut log),
                });
            }
            (log, reports, s.rule_stats())
        };
        let every = Focus::on(FIRST).and(SECOND).and(AgendaGroup::MAIN);
        let (log, reports, mut stats) = run(None);
        let (focused_log, focused_reports, mut focused_stats) = run(Some(every));
        assert_eq!(log.len(), 6);
        assert_eq!((&log, &reports), (&focused_log, &focused_reports));
        for stats in [&mut stats, &mut focused_stats] {
            for rule in stats.iter_mut() {
                rule.eval_nanos = 0;
            }
        }
        assert_eq!(stats, focused_stats);
    }

    #[test]
    fn a_rule_out_of_focus_still_publishes_its_series() {
        let registry = Registry::new();
        let mut s = grouped_session();
        s.set_obs(registry.clone(), &[("session", "default")]);
        s.wm.insert(Counter(10));
        s.fire(&mut Vec::new(), Focus::on(FIRST));
        let text = registry.render_prometheus();
        assert!(
            text.contains("pwm_rules_evaluations_total{rule=\"items\",session=\"default\"} 0"),
            "unexpected exposition:\n{text}"
        );
        assert!(text.contains("pwm_rules_firings_total{rule=\"counters\",session=\"default\"} 1"));
    }
}
