//! The agenda groups of the policy rules.
//!
//! Every policy rule can fire in one service pass only: a batch of transfer
//! requests, the outcomes of executed transfers, a batch of cleanup
//! requests, or the outcomes of cleanups. Each rule sits in the agenda group
//! of its pass (Drools' `agenda-group`), and each pass focuses its group, so
//! a report pass never evaluates the batch rules and a cleanup pass never
//! the transfer rules. The rules of a policy family that only matches while
//! [`PolicyConfig`] selects it — greedy or balanced allocation, backend
//! selection — sit in a group of their own, which the pass focuses only
//! while the family is selected. A family's release sits in the report
//! group whatever is selected: a charge made under one configuration is
//! returned under the next.
//!
//! A grouping is an optimisation, never a change of meaning: debug builds
//! check at every firing that no rule left out of focus could fire.

use crate::config::{AllocationPolicy, PolicyConfig, StoragePolicy};
use pwm_rules::{AgendaGroup, Focus};

/// Table I transfer rules and the recovery suppressions.
pub(crate) const EVALUATE_TRANSFERS: AgendaGroup = AgendaGroup::new(1);
/// Greedy's enforce rule (Table II).
pub(crate) const GREEDY: AgendaGroup = AgendaGroup::new(2);
/// Balanced's ledger-creation and enforce rules (Table III).
pub(crate) const BALANCED: AgendaGroup = AgendaGroup::new(3);
/// Storage's backend pick.
pub(crate) const STORAGE: AgendaGroup = AgendaGroup::new(4);
/// The two completion removals, and the balanced and storage releases.
pub(crate) const REPORT_TRANSFERS: AgendaGroup = AgendaGroup::new(5);
/// The three cleanup rules of Table I that judge a cleanup batch.
pub(crate) const EVALUATE_CLEANUPS: AgendaGroup = AgendaGroup::new(6);
/// The completed-cleanup removal.
pub(crate) const REPORT_CLEANUPS: AgendaGroup = AgendaGroup::new(7);

/// A rules pass of the Policy Service.
#[derive(Clone, Copy)]
pub(crate) enum Pass {
    EvaluateTransfers,
    ReportTransfers,
    EvaluateCleanups,
    ReportCleanups,
}

impl Pass {
    /// The groups this pass focuses under `config`.
    pub(crate) fn focus(self, config: &PolicyConfig) -> Focus {
        match self {
            Pass::EvaluateTransfers => {
                let focus = match config.allocation {
                    AllocationPolicy::Greedy => Focus::on(EVALUATE_TRANSFERS).and(GREEDY),
                    AllocationPolicy::Balanced => Focus::on(EVALUATE_TRANSFERS).and(BALANCED),
                    AllocationPolicy::Unlimited => Focus::on(EVALUATE_TRANSFERS),
                };
                if config.storage == StoragePolicy::Off {
                    focus
                } else {
                    focus.and(STORAGE)
                }
            }
            Pass::ReportTransfers => Focus::on(REPORT_TRANSFERS),
            Pass::EvaluateCleanups => Focus::on(EVALUATE_CLEANUPS),
            Pass::ReportCleanups => Focus::on(REPORT_CLEANUPS),
        }
    }
}
