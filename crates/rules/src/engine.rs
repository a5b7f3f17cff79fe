//! The forward-chaining engine.
//!
//! [`Session`] owns a [`WorkingMemory`], a rule set, and the *fired set*
//! implementing refraction. Conflict resolution is Drools' default modulo
//! recency: salience (descending), then rule installation order, then tuple
//! order within a rule's matches. [`Session::fire_all`] fires the first
//! eligible activation, then repeats until quiescence or a firing budget is
//! exhausted (a guard against non-converging rule sets, which Drools leaves
//! to the author).
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
//! through table positions resolved when it was installed. A rule whose
//! cached segment has been fully refracted is marked *exhausted* and skipped
//! in O(1) until it turns dirty again, so quiescence checks no longer pay
//! O(rules × facts) per firing. Because live refraction entries are never
//! removed (GC only drops entries with retracted facts) and fact versions
//! only move when a watched type is mutated, a per-rule scan cursor
//! additionally skips already-refracted tuples without re-hashing them; a
//! mutation the matcher does not read keeps the segment but rewinds the
//! cursor, since it bumped a version and may have re-armed a tuple. A rule
//! that [requires](crate::RuleBuilder::requires) a fact type is passed over
//! outright while no such fact is live.
//!
//! Debug builds check every one of these shortcuts: whenever the engine
//! decides about a rule without running its matcher, it also runs the
//! matcher from scratch and panics, naming the rule, unless the first live
//! un-refracted tuple is the one the shortcut chose (none, for a skipped
//! rule). That is exactly the condition under which the shortcut cannot
//! change which rule fires next, so an under-declared watch fails the first
//! test that exercises it.
//!
//! Matchers must be pure functions of (working memory, ctx). The engine
//! deliberately does **not** watch `Ctx`: like Drools globals, a ctx change
//! does not re-activate rules. Callers that mutate ctx in a way matchers can
//! observe (e.g. a config change between requests) must call
//! [`Session::invalidate_agenda`].
//!
//! Refraction key: `(rule, tuple handles, tuple fact versions)`. Updating a
//! fact bumps its version, which re-arms every rule matching it — exactly
//! the Drools `update()` semantics the paper's policy rules rely on. Keys
//! for tuples of up to two facts (the common case: `when_each` rules and
//! pairwise joins) are stored inline without heap allocation.

use crate::memory::{FactHandle, MintedBuild, WorkingMemory};
use crate::rule::{Freshness, Match, Rule};
use pwm_obs::{Counter, Registry};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Fact tuples up to this length get allocation-free refraction keys.
const INLINE_FACTS: usize = 2;

/// Refraction key: (rule index, matched handles with their versions).
///
/// Small tuples are stored inline; only joins wider than [`INLINE_FACTS`]
/// facts pay a heap allocation per candidate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum RefractionKey {
    /// Tuple of at most [`INLINE_FACTS`] facts, padded with zeroes (the
    /// `len` discriminant keeps padded keys distinct from genuine ones).
    Inline {
        rule: u32,
        len: u8,
        facts: [(FactHandle, u64); INLINE_FACTS],
    },
    /// Wider join tuple.
    Heap {
        rule: u32,
        facts: Box<[(FactHandle, u64)]>,
    },
}

impl RefractionKey {
    /// The key of `m` at its facts' current versions, or `None` when a
    /// handle in the tuple is no longer live.
    fn new(rule: usize, m: &Match, wm: &WorkingMemory) -> Option<Self> {
        let rule = rule as u32;
        if m.len() <= INLINE_FACTS {
            let mut facts = [(FactHandle(0), 0u64); INLINE_FACTS];
            for (slot, h) in facts.iter_mut().zip(m.iter()) {
                *slot = (*h, wm.version(*h)?);
            }
            Some(RefractionKey::Inline {
                rule,
                len: m.len() as u8,
                facts,
            })
        } else {
            Some(RefractionKey::Heap {
                rule,
                facts: m
                    .iter()
                    .map(|h| Some((*h, wm.version(*h)?)))
                    .collect::<Option<_>>()?,
            })
        }
    }

    /// The (handle, version) pairs the key binds (without inline padding).
    fn facts(&self) -> &[(FactHandle, u64)] {
        match self {
            RefractionKey::Inline { len, facts, .. } => &facts[..*len as usize],
            RefractionKey::Heap { facts, .. } => facts,
        }
    }
}

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

/// Outcome of a [`Session::fire_all`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiringReport {
    /// Total rule firings performed.
    pub firings: usize,
    /// Rule names in firing order (capped at `LOG_CAP` entries). Empty
    /// unless the session opted in via [`Session::with_firing_log`]; names
    /// are shared `Arc<str>`s, so logging does not allocate per firing.
    pub log: Vec<Arc<str>>,
    /// True if the engine stopped due to the firing budget rather than
    /// quiescence.
    pub budget_exhausted: bool,
}

const LOG_CAP: usize = 10_000;

/// One matcher evaluation in this many is timed (per rule, starting with the
/// first) and charged that many times over: two clock reads cost about as
/// much as a typical policy matcher.
const EVAL_TIMING_SAMPLE: u64 = 16;

/// Refraction GC threshold: `maybe_gc_refraction` does nothing until the
/// fired set reaches this size (then doubles the watermark after each sweep).
const GC_MIN_WATERMARK: usize = 256;

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
    /// Generation `matches` was last scanned at (≥ `valid_at`): `exhausted`
    /// and `scan_from` hold while no watched type is mutated after it.
    seen_at: u64,
    /// False until the matcher has run at least once (or after
    /// [`Session::invalidate_agenda`]).
    computed: bool,
    /// True when every tuple in `matches` is refracted or stale; cleared on
    /// re-evaluation and refraction reset.
    exhausted: bool,
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
    /// Add what every rule's counters moved since the last publish. A rule
    /// whose series exist and whose counters stood still — the common case
    /// under incremental matching — costs one array compare.
    fn publish<Ctx>(&mut self, rules: &[Rule<Ctx>], states: &[RuleState]) {
        let SessionObs {
            registry,
            labels,
            per_rule,
        } = self;
        per_rule.resize_with(rules.len(), RuleObs::default);
        for ((rule, state), obs) in rules.iter().zip(states).zip(per_rule) {
            let now = state.counters();
            if obs.metrics.is_some() && now == obs.published {
                continue;
            }
            let metrics = obs.metrics.get_or_insert_with(|| {
                let mut labels: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                labels.push(("rule", rule.name()));
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
                .map(|(name, help)| registry.counter(name, help, &labels))
            });
            for ((counter, now), was) in metrics.iter().zip(now).zip(obs.published) {
                counter.add(now - was);
            }
            obs.published = now;
        }
    }
}

/// A rule session: working memory + rules + refraction state.
pub struct Session<Ctx> {
    /// The fact store. Public so callers can insert/inspect facts directly,
    /// as Drools callers do with a `KieSession`.
    pub wm: WorkingMemory,
    rules: Vec<Rule<Ctx>>,
    states: Vec<RuleState>,
    fired: HashSet<RefractionKey, MintedBuild>,
    /// Scratch for [`Session::delta_refresh`]'s changed-handle list.
    changed: Vec<FactHandle>,
    /// Rule indices sorted by (salience desc, installation order); rebuilt
    /// lazily after `add_rule` instead of per firing.
    order: Vec<usize>,
    order_valid: bool,
    max_firings: usize,
    log_firings: bool,
    gc_watermark: usize,
    obs: Option<SessionObs>,
}

impl<Ctx> Session<Ctx> {
    /// New session with an empty memory and default firing budget.
    pub fn new() -> Self {
        Session {
            wm: WorkingMemory::new(),
            rules: Vec::new(),
            states: Vec::new(),
            fired: HashSet::default(),
            changed: Vec::new(),
            order: Vec::new(),
            order_valid: true,
            max_firings: 100_000,
            log_firings: false,
            gc_watermark: GC_MIN_WATERMARK,
            obs: None,
        }
    }

    /// Publish per-rule counters (`pwm_rules_evaluations_total`,
    /// `pwm_rules_matches_total`, `pwm_rules_firings_total`,
    /// `pwm_rules_eval_nanos_total`) to `registry` at the end of every
    /// [`Session::fire_all`], each series labeled with the rule name plus
    /// the given base labels (e.g. the owning policy session).
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
    }

    /// Override the firing budget.
    pub fn with_max_firings(mut self, max: usize) -> Self {
        self.max_firings = max.max(1);
        self
    }

    /// Record rule names in [`FiringReport::log`] (off by default; the
    /// firings counter and per-rule stats are always maintained).
    pub fn with_firing_log(mut self) -> Self {
        self.log_firings = true;
        self
    }

    /// Install a rule. Order of installation breaks salience ties.
    pub fn add_rule(&mut self, mut rule: Rule<Ctx>) {
        rule.resolve(&mut self.wm);
        self.rules.push(rule);
        self.states.push(RuleState::default());
        self.order_valid = false;
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
            state.exhausted = false;
            state.scan_from = 0;
            state.matches.clear();
        }
    }

    /// Forget all refraction state (e.g. at the start of a fresh request
    /// evaluation, for one-shot `when_once` rules).
    pub fn reset_refraction(&mut self) {
        self.fired.clear();
        for state in &mut self.states {
            state.exhausted = false;
            state.scan_from = 0;
        }
    }

    /// Drop refraction entries that reference retracted facts (the fired set
    /// otherwise grows for the lifetime of a long policy session).
    ///
    /// This never removes an entry whose facts are all live, so cached
    /// agenda segments (including scan cursors and exhausted marks) remain
    /// valid across a sweep.
    pub fn gc_refraction(&mut self) {
        let wm = &self.wm;
        self.fired
            .retain(|key| key.facts().iter().all(|(h, _)| wm.contains(*h)));
    }

    /// Amortized refraction GC: sweeps only once the fired set crosses a
    /// watermark, then doubles the watermark (floored at a minimum). Call
    /// sites on the request hot path use this instead of sweeping the whole
    /// set on every request.
    pub fn maybe_gc_refraction(&mut self) {
        if self.fired.len() >= self.gc_watermark {
            self.gc_refraction();
            self.gc_watermark = (self.fired.len() * 2).max(GC_MIN_WATERMARK);
        }
    }

    /// Run rules to quiescence. Returns what fired.
    pub fn fire_all(&mut self, ctx: &mut Ctx) -> FiringReport {
        let mut firings = 0;
        let mut log = Vec::new();
        let mut budget_exhausted = false;
        loop {
            if firings >= self.max_firings {
                budget_exhausted = true;
                break;
            }
            match self.next_activation(ctx) {
                Some((rule_idx, m, key)) => {
                    self.fired.insert(key);
                    self.states[rule_idx].firings += 1;
                    let rule = &mut self.rules[rule_idx];
                    if self.log_firings && log.len() < LOG_CAP {
                        log.push(rule.name_arc());
                    }
                    rule.fire(&mut self.wm, ctx, &m);
                    firings += 1;
                }
                None => break,
            }
        }
        if let Some(obs) = &mut self.obs {
            obs.publish(&self.rules, &self.states);
        }
        FiringReport {
            firings,
            log,
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

    /// Rebuild the salience order if `add_rule` invalidated it.
    fn ensure_order(&mut self) {
        if !self.order_valid {
            self.order = (0..self.rules.len()).collect();
            self.order.sort_by_key(|&i| (-self.rules[i].salience(), i));
            self.order_valid = true;
        }
    }

    /// Find the highest-priority non-refracted activation.
    ///
    /// Semantically identical to re-matching every rule against the current
    /// memory in (salience desc, installation) order and returning the first
    /// non-refracted live tuple; the cache/dirty machinery only skips work
    /// whose outcome cannot have changed.
    fn next_activation(&mut self, ctx: &Ctx) -> Option<(usize, Match, RefractionKey)> {
        self.ensure_order();
        for oi in 0..self.order.len() {
            let idx = self.order[oi];
            let rule = &self.rules[idx];
            let state = &mut self.states[idx];
            if rule.cannot_match(&self.wm) {
                // Left as it is: the insert that lifts the guard dirties it.
                #[cfg(debug_assertions)]
                Self::check_shortcut(rule, idx, &self.wm, ctx, &self.fired, None, "guarded");
                continue;
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
                    state.matches = rule.matches(&self.wm, ctx);
                }
                if let Some(started) = started {
                    state.eval_nanos += EVAL_TIMING_SAMPLE * started.elapsed().as_nanos() as u64;
                }
                state.evaluations += 1;
                state.matched += state.matches.len() as u64;
                state.valid_at = self.wm.generation();
                state.computed = true;
            } else if freshness == Freshness::Clean && state.exhausted {
                #[cfg(debug_assertions)]
                Self::check_shortcut(rule, idx, &self.wm, ctx, &self.fired, None, "clean");
                continue;
            }
            if freshness != Freshness::Clean {
                state.seen_at = self.wm.generation();
                state.exhausted = false;
                state.scan_from = 0;
            }
            let mut pos = state.scan_from;
            let mut found = None;
            while pos < state.matches.len() {
                let m = &state.matches[pos];
                // Skip refracted tuples, and tuples holding a stale handle:
                // a matcher may have returned one another firing retracted.
                match RefractionKey::new(idx, m, &self.wm) {
                    Some(key) if !self.fired.contains(&key) => {
                        found = Some((idx, m.clone(), key));
                        break;
                    }
                    _ => pos += 1,
                }
            }
            // The caller refracts a found tuple before firing, so the next
            // scan may resume at it.
            state.scan_from = pos;
            state.exhausted = found.is_none();
            #[cfg(debug_assertions)]
            if freshness != Freshness::Dirty {
                let chosen = found.as_ref().map(|(_, m, _)| m);
                Self::check_shortcut(rule, idx, &self.wm, ctx, &self.fired, chosen, "cached");
            }
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// The debug oracle: `rule` was decided on without running its matcher —
    /// passed over (`chosen` is `None`) or served from its cached matches.
    /// Run the matcher from scratch; the first live un-refracted tuple must
    /// be `chosen`, or the rule's `watches`/`requires`, or an
    /// `update_fields` it depends on, declare less than is read or written
    /// (or ctx changed under the matcher with no `invalidate_agenda`).
    #[cfg(debug_assertions)]
    fn check_shortcut(
        rule: &Rule<Ctx>,
        idx: usize,
        wm: &WorkingMemory,
        ctx: &Ctx,
        fired: &HashSet<RefractionKey, MintedBuild>,
        chosen: Option<&Match>,
        why: &str,
    ) {
        let fresh = rule
            .matches(wm, ctx)
            .into_iter()
            .find(|m| RefractionKey::new(idx, m, wm).is_some_and(|key| !fired.contains(&key)));
        assert!(
            fresh.as_deref() == chosen.map(|m| &**m),
            "rule `{}` was {why} and not re-evaluated, which chose {chosen:?}, but its matcher \
             now yields {fresh:?} first: a watch, a `requires` or an `update_fields` \
             under-declares what it reads or writes, or ctx changed without `invalidate_agenda`",
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
    use crate::rule::{Watch, WatchedType};

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
        let mut s: Session<Vec<&'static str>> = Session::new().with_firing_log();
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
        let report = s.fire_all(&mut log);
        assert_eq!(log, vec!["high", "low"]);
        let logged: Vec<&str> = report.log.iter().map(|n| n.as_ref()).collect();
        assert_eq!(logged, vec!["high", "low"]);
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
        let mut s: Session<()> = Session::new().with_max_firings(50);
        s.wm.insert(Counter(0));
        s.add_rule(
            Rule::new("forever")
                .when_each::<Counter>(|_, _| true)
                .then(|wm, _, m| {
                    wm.update::<Counter>(m[0], |c| c.0 += 1);
                }),
        );
        let r = s.fire_all(&mut ());
        assert_eq!(r.firings, 50);
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
    fn reset_refraction_allows_refire() {
        let mut s: Session<u64> = Session::new();
        s.wm.insert(Counter(0));
        s.add_rule(
            Rule::new("observe")
                .when_each::<Counter>(|_, _| true)
                .then(|_, fired: &mut u64, _| *fired += 1),
        );
        let mut fired = 0;
        s.fire_all(&mut fired);
        s.reset_refraction();
        s.fire_all(&mut fired);
        assert_eq!(fired, 2);
    }

    #[test]
    fn gc_refraction_drops_stale_entries() {
        let mut s: Session<()> = Session::new();
        let h = s.wm.insert(Counter(0));
        s.add_rule(
            Rule::new("noop")
                .when_each::<Counter>(|_, _| true)
                .then(|_, _, _| {}),
        );
        s.fire_all(&mut ());
        assert_eq!(s.fired.len(), 1);
        s.wm.retract(h);
        s.gc_refraction();
        assert!(s.fired.is_empty());
    }

    #[test]
    fn when_once_rule_fires_single_time() {
        let mut s: Session<u64> = Session::new();
        s.wm.insert(Counter(0));
        s.add_rule(
            Rule::new("setup")
                .when_once(|wm, _| wm.count::<Counter>() > 0)
                .then(|_, fired: &mut u64, _| *fired += 1),
        );
        let mut fired = 0;
        s.fire_all(&mut fired);
        s.fire_all(&mut fired);
        assert_eq!(fired, 1);
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
                .when(|wm, _| {
                    let mut out = Vec::new();
                    for (ch, _) in wm.iter::<Counter>() {
                        for (ih, _) in wm.iter::<Item>() {
                            out.push([ch, ih].into());
                        }
                    }
                    out
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
        assert!(r.log.is_empty());
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
    fn maybe_gc_keeps_fired_set_bounded() {
        let mut s: Session<()> = Session::new();
        s.add_rule(
            Rule::new("noop")
                .when_each::<Counter>(|_, _| true)
                .then(|_, _, _| {}),
        );
        for i in 0..600 {
            let h = s.wm.insert(Counter(i));
            s.fire_all(&mut ());
            s.wm.retract(h);
            s.maybe_gc_refraction();
        }
        assert!(
            s.fired.len() < 600,
            "watermark GC never swept ({} entries)",
            s.fired.len()
        );
    }

    #[test]
    fn wide_join_tuples_use_heap_keys() {
        // A 3-fact join exceeds the inline key capacity; refraction must
        // still hold (fires once per distinct triple).
        let mut s: Session<u64> = Session::new();
        s.wm.insert(Counter(1));
        s.wm.insert(Counter(2));
        s.wm.insert(Counter(3));
        s.add_rule(
            Rule::new("triple")
                .when(|wm, _| {
                    let hs = wm.handles::<Counter>();
                    if hs.len() == 3 {
                        vec![hs[..].into()]
                    } else {
                        vec![]
                    }
                })
                .then(|_, fired: &mut u64, _| *fired += 1),
        );
        let mut fired = 0;
        s.fire_all(&mut fired);
        s.fire_all(&mut fired);
        assert_eq!(fired, 1);
        assert!(s
            .fired
            .iter()
            .all(|k| matches!(k, RefractionKey::Heap { .. })));
        assert_eq!(s.fired.iter().next().unwrap().facts().len(), 3);
    }

    #[test]
    fn refraction_keys_differing_only_in_len_hash_apart() {
        use std::hash::BuildHasher;
        // A one-fact tuple over (handle 0, version 0) and the zero padding
        // of an empty tuple carry the same words; only `len` — a `u8`, one
        // multiply under `MintedHasher` — tells them apart.
        let key = |len| RefractionKey::Inline {
            rule: 3,
            len,
            facts: [(FactHandle(0), 0); INLINE_FACTS],
        };
        let build = MintedBuild::default();
        assert_ne!(key(0), key(1));
        assert_ne!(build.hash_one(key(0)), build.hash_one(key(1)));
        assert_ne!(build.hash_one(key(1)), build.hash_one(key(2)));
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
                .when(|wm, _| {
                    let mut out = Vec::new();
                    for (c, _) in wm.iter::<Counter>() {
                        for (i, _) in wm.iter::<Item>() {
                            out.push([c, i].into());
                        }
                    }
                    out
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
                .when(|wm, _| {
                    let mut out = Vec::new();
                    for (c, _) in wm.iter::<Counter>() {
                        for (i, _) in wm.iter::<Item>() {
                            out.push([c, i].into());
                        }
                    }
                    out
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
}
