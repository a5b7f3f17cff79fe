//! Reference evaluator for equivalence testing.
//!
//! [`NaiveSession`] is the pre-incremental engine: every call to
//! `next_activation` re-evaluates the matcher of every rule in focus against
//! the current working memory and re-sorts the salience order. It is the
//! oracle the incremental agenda in [`crate::engine`] is tested against —
//! randomized scripts of inserts/updates/retracts/focused firings must
//! produce bit-identical firing sequences and final memory state on both
//! engines.
//!
//! Test-only: compiled under `#[cfg(test)]` from `lib.rs`.

use crate::memory::{FactHandle, WorkingMemory};
use crate::rule::{Focus, Match, Rule};
use std::collections::HashSet;

type RefractionKey = (usize, Vec<(FactHandle, u64)>);

/// Firing outcome mirroring `FiringReport`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NaiveReport {
    pub firings: usize,
    pub budget_exhausted: bool,
    /// True when, at some firing, a rule out of focus ranked above the one
    /// chosen (above every rule, at quiescence) had a live un-refracted
    /// tuple: the focus held back an activation `fire_all` would have
    /// weighed, which is what the incremental engine's debug oracle rejects.
    pub held_back: bool,
}

/// The O(firings × rules × facts) engine this crate used to ship.
pub(crate) struct NaiveSession<Ctx> {
    pub wm: WorkingMemory,
    rules: Vec<Rule<Ctx>>,
    fired: HashSet<RefractionKey>,
    pub max_firings: usize,
}

impl<Ctx> NaiveSession<Ctx> {
    pub fn new() -> Self {
        NaiveSession {
            wm: WorkingMemory::new(),
            rules: Vec::new(),
            fired: HashSet::new(),
            max_firings: 100_000,
        }
    }

    /// Install a rule. Its watched types get their tables as the engine's
    /// `add_rule` gives them, so a handle names the same fact in both
    /// memories; the naive engine reads no watch.
    pub fn add_rule(&mut self, mut rule: Rule<Ctx>) {
        rule.resolve(&mut self.wm);
        self.rules.push(rule);
    }

    pub fn fire(&mut self, ctx: &mut Ctx, focus: Focus) -> NaiveReport {
        let mut report = NaiveReport {
            firings: 0,
            budget_exhausted: false,
            held_back: false,
        };
        while report.firings < self.max_firings {
            match self.next_activation(ctx, focus, &mut report.held_back) {
                Some((rule_idx, m, key)) => {
                    self.fired.insert(key);
                    self.rules[rule_idx].fire(&mut self.wm, ctx, &m);
                    report.firings += 1;
                }
                None => return report,
            }
        }
        report.budget_exhausted = true;
        report
    }

    fn next_activation(
        &self,
        ctx: &Ctx,
        focus: Focus,
        held_back: &mut bool,
    ) -> Option<(usize, Match, RefractionKey)> {
        let mut order: Vec<usize> = (0..self.rules.len()).collect();
        order.sort_by_key(|&i| (-self.rules[i].salience(), i));
        for idx in order {
            let rule = &self.rules[idx];
            let first = rule.matches(&self.wm, ctx).into_iter().find_map(|m| {
                if m.iter().any(|h| !self.wm.contains(*h)) {
                    return None;
                }
                let key: Vec<(FactHandle, u64)> = m
                    .iter()
                    .map(|h| (*h, self.wm.version(*h).unwrap_or(0)))
                    .collect();
                let full_key = (idx, key);
                (!self.fired.contains(&full_key)).then_some((idx, m, full_key))
            });
            if !focus.contains(rule.agenda_group()) {
                *held_back |= first.is_some();
            } else if first.is_some() {
                return first;
            }
        }
        None
    }
}

/// Randomized equivalence: the incremental agenda must be observationally
/// identical to the naive engine on arbitrary fact/firing scripts. The naive
/// engine ignores `watches_fields` and `requires` and keeps no wake set — it
/// runs every matcher in focus — so identical firing logs show the
/// declarations only ever skip work, and that a rule out of focus keeps what
/// changed under it for the next pass that focuses it.
///
/// A focused pass that holds back an activation is Drools' semantics and
/// what release builds run; a debug build's oracle rejects it by design
/// (the Policy Service promises its focus never does). So a debug build
/// checks that the oracle panics, naming a rule out of focus, at the first
/// such pass of a script, and ends the script there.
/// `PWM_PROPTEST_CASES` raises the case count for CI's release run.
mod equivalence {
    use super::NaiveSession;
    use crate::engine::Session;
    use crate::memory::{FactHandle, Fields};
    use crate::rule::{AgendaGroup, Focus, Rule};
    use proptest::prelude::*;

    /// `n` drives most rules; `tag` only the tag rule.
    #[derive(Debug)]
    struct A {
        n: u32,
        tag: u32,
    }

    impl A {
        const N: Fields = Fields::bit(0);
        const TAG: Fields = Fields::bit(1);
    }

    #[derive(Debug)]
    struct B(u32);

    type Ctx = Vec<String>;

    /// One step of a random session script. Handle-indexed ops address the
    /// i-th handle ever inserted (possibly already retracted — both engines
    /// must agree on the resulting no-op too).
    #[derive(Debug, Clone)]
    enum Op {
        InsertA(u32),
        InsertB(u32),
        /// Plain `update` of `A::n` (touches every field).
        UpdateA(usize),
        /// `update_fields(A::N)`.
        BumpA(usize),
        /// `update_fields(A::TAG)`.
        TagA(usize),
        UpdateB(usize),
        Retract(usize),
        /// A pass over the groups of [`GROUPS`] whose bit is set in the mask.
        Fire(u32),
        /// Retract a fact and insert a copy of it, which takes the freed
        /// slot: the old handle stays in the script, stale.
        Recycle(usize),
    }

    /// The groups the rules below sit in: `A`'s chain, `B`'s rules, and
    /// the rest.
    const GROUPS: [AgendaGroup; 3] = [AgendaGroup::new(1), AgendaGroup::new(2), AgendaGroup::MAIN];

    fn focus(mask: u32) -> Focus {
        let mut focus = Focus::NONE;
        for (bit, group) in GROUPS.iter().enumerate() {
            if mask & 1 << bit != 0 {
                focus = focus.and(*group);
            }
        }
        focus
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..10, 0u32..12).prop_map(|(tag, n)| match tag {
            0 => Op::InsertA(n),
            1 => Op::InsertB(n),
            2 => Op::UpdateA(n as usize),
            3 => Op::UpdateB(n as usize),
            4 => Op::Retract(n as usize),
            5 => Op::Recycle(n as usize),
            6 => Op::BumpA(n as usize),
            7 => Op::TagA(n as usize),
            // Every group, or a subset (possibly none).
            8 => Op::Fire(7),
            _ => Op::Fire(n % 8),
        })
    }

    /// The shared rule set, exercising every matcher form and declaration:
    /// chaining `when_each` rules over one field group each, a two-type join
    /// that requires one of its types and reads one field group of the
    /// other, a high-salience retraction rule, and a negative-salience
    /// observer that reads no field at all — it stays
    /// refracted until *any* write re-arms it, the case a field-clean rule
    /// must rewind its cursor for. Installed identically into both engines,
    /// in the three groups of [`GROUPS`].
    fn install_rules(add: &mut dyn FnMut(Rule<Ctx>)) {
        add(Rule::new("bump-small-a")
            .salience(5)
            .agenda_group(GROUPS[0])
            .when_each_fields::<A>(A::N, |a, _| a.n < 3)
            .then(|wm, ctx: &mut Ctx, m| {
                wm.update_fields::<A>(m[0], A::N, |a| a.n += 1);
                ctx.push("bump".into());
            }));
        add(Rule::new("even-out-odd-tags")
            .salience(4)
            .agenda_group(GROUPS[0])
            .when_each_fields::<A>(A::TAG, |a, _| a.tag % 2 == 1)
            .then(|wm, ctx: &mut Ctx, m| {
                wm.update_fields::<A>(m[0], A::TAG, |a| a.tag += 1);
                ctx.push("tag".into());
            }));
        add(Rule::new("retract-large-b")
            .salience(8)
            .agenda_group(GROUPS[1])
            .when_each::<B>(|b, _| b.0 >= 10)
            .then(|wm, ctx: &mut Ctx, m| {
                wm.retract(m[0]);
                ctx.push("retract".into());
            }));
        add(Rule::new("parity-join")
            .agenda_group(GROUPS[1])
            .requires::<B>()
            .watches_fields::<A>(A::N)
            .watches::<B>()
            .when(|wm, _, out| {
                for (ah, a) in wm.iter::<A>() {
                    for (bh, b) in wm.iter::<B>() {
                        if a.n % 2 == b.0 % 2 {
                            out.push([ah, bh].into());
                        }
                    }
                }
            })
            .then(|wm, ctx: &mut Ctx, m| {
                wm.update::<B>(m[1], |b| {
                    if b.0 < 8 {
                        b.0 += 2;
                    }
                });
                ctx.push("join".into());
            }));
        add(Rule::new("observe-a")
            .salience(-1)
            .when_each_fields::<A>(Fields::NONE, |_, _| true)
            .then(|_, ctx: &mut Ctx, _| ctx.push("observe".into())));
    }

    fn dump(wm: &crate::memory::WorkingMemory) -> Vec<(u64, String)> {
        let mut out: Vec<(u64, String)> = wm
            .iter::<A>()
            .map(|(h, a)| (h.seq(), format!("{a:?}")))
            .chain(wm.iter::<B>().map(|(h, b)| (h.seq(), format!("{b:?}"))))
            .collect();
        out.sort();
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: option_env!("PWM_PROPTEST_CASES")
                .and_then(|s| s.parse().ok())
                .unwrap_or(256),
        })]
        #[test]
        fn incremental_matches_naive_on_random_scripts(
            ops in proptest::collection::vec(op_strategy(), 0..40)
        ) {
            let mut inc: Session<Ctx> = Session::new();
            let mut nai: NaiveSession<Ctx> = NaiveSession::new();
            // `parity-join` can re-arm itself without end: a small budget
            // keeps such scripts cheap.
            inc.max_firings = 100;
            nai.max_firings = 100;
            install_rules(&mut |r| inc.add_rule(r));
            install_rules(&mut |r| nai.add_rule(r));
            let mut ctx_inc: Ctx = Vec::new();
            let mut ctx_nai: Ctx = Vec::new();
            // Both sessions start empty and see the same inserts, so handle
            // values line up; indexed ops address the i-th insertion.
            let mut handles: Vec<FactHandle> = Vec::new();
            let pick = |handles: &Vec<FactHandle>, i: usize| {
                handles.get(i % handles.len().max(1)).copied()
            };
            // Set when a debug build's oracle ended the script (see above).
            let mut held_back = false;
            for op in &ops {
                match *op {
                    Op::InsertA(n) => {
                        let h = inc.wm.insert(A { n, tag: n / 2 });
                        let h2 = nai.wm.insert(A { n, tag: n / 2 });
                        prop_assert_eq!(h, h2);
                        handles.push(h);
                    }
                    Op::InsertB(n) => {
                        let h = inc.wm.insert(B(n));
                        let h2 = nai.wm.insert(B(n));
                        prop_assert_eq!(h, h2);
                        handles.push(h);
                    }
                    Op::UpdateA(i) => {
                        if let Some(h) = pick(&handles, i) {
                            let a = inc.wm.update::<A>(h, |a| a.n += 1);
                            let b = nai.wm.update::<A>(h, |a| a.n += 1);
                            prop_assert_eq!(a, b);
                        }
                    }
                    Op::BumpA(i) => {
                        if let Some(h) = pick(&handles, i) {
                            let a = inc.wm.update_fields::<A>(h, A::N, |a| a.n += 1);
                            let b = nai.wm.update_fields::<A>(h, A::N, |a| a.n += 1);
                            prop_assert_eq!(a, b);
                        }
                    }
                    Op::TagA(i) => {
                        if let Some(h) = pick(&handles, i) {
                            let a = inc.wm.update_fields::<A>(h, A::TAG, |a| a.tag += 1);
                            let b = nai.wm.update_fields::<A>(h, A::TAG, |a| a.tag += 1);
                            prop_assert_eq!(a, b);
                        }
                    }
                    Op::UpdateB(i) => {
                        if let Some(h) = pick(&handles, i) {
                            let a = inc.wm.update::<B>(h, |b| b.0 += 1);
                            let b = nai.wm.update::<B>(h, |b| b.0 += 1);
                            prop_assert_eq!(a, b);
                        }
                    }
                    Op::Retract(i) => {
                        if let Some(h) = pick(&handles, i) {
                            let a = inc.wm.retract(h);
                            let b = nai.wm.retract(h);
                            prop_assert_eq!(a, b);
                        }
                    }
                    Op::Fire(mask) => {
                        let focus = focus(mask);
                        let rn = nai.fire(&mut ctx_nai, focus);
                        if rn.held_back && cfg!(debug_assertions) {
                            let pass = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                inc.fire(&mut ctx_inc, focus)
                            }));
                            let message = pass
                                .err()
                                .and_then(|e| e.downcast::<String>().ok())
                                .map(|m| *m)
                                .unwrap_or_default();
                            prop_assert!(
                                message.contains("was out of focus"),
                                "a pass holding back an activation got past the oracle: {}",
                                message
                            );
                            held_back = true;
                            break;
                        }
                        let ri = inc.fire(&mut ctx_inc, focus);
                        prop_assert_eq!(ri.firings, rn.firings);
                        prop_assert_eq!(ri.budget_exhausted, rn.budget_exhausted);
                        // Every action appends its rule's mark to the context.
                        prop_assert_eq!(&ctx_inc, &ctx_nai, "firing sequences diverged");
                    }
                    // The copy may fire where the original was refracted;
                    // the original's records went with it, and its handle,
                    // now naming a recycled slot, must miss on both.
                    Op::Recycle(i) => {
                        let Some(h) = pick(&handles, i) else { continue };
                        let a = inc.wm.get::<A>(h).map(|a| (a.n, a.tag));
                        let b = inc.wm.get::<B>(h).map(|b| b.0);
                        prop_assert_eq!(inc.wm.retract(h), nai.wm.retract(h));
                        let (hi, hn) = match (a, b) {
                            (Some((n, tag)), _) => {
                                (inc.wm.insert(A { n, tag }), nai.wm.insert(A { n, tag }))
                            }
                            (_, Some(n)) => (inc.wm.insert(B(n)), nai.wm.insert(B(n))),
                            (None, None) => continue,
                        };
                        prop_assert_eq!(hi, hn);
                        handles.push(hi);
                    }
                }
            }
            // Drain every group to quiescence, then compare every observable.
            if !held_back {
                let ri = inc.fire_all(&mut ctx_inc);
                let rn = nai.fire(&mut ctx_nai, Focus::ALL);
                prop_assert_eq!(ri.firings, rn.firings);
                prop_assert_eq!(&ctx_inc, &ctx_nai, "action effects on ctx diverged");
                prop_assert_eq!(dump(&inc.wm), dump(&nai.wm), "final memories diverged");
            }
        }
    }
}
