//! The rate allocator's work counters. Live instrumentation goes through
//! the `pwm-obs` handle attached with `Network::set_obs`.

/// Counters describing how much work the rate allocator actually did —
/// the observable difference between the incremental, component-local
/// engine and its test-only from-scratch reference (see `DESIGN.md` §8).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocStats {
    /// Rate-recomputation entry points taken (one per integration step with
    /// live flows).
    pub recomputes: u64,
    /// Recomputes that found no dirty links and skipped allocation entirely.
    pub skipped: u64,
    /// Component-local progressive-filling runs performed.
    pub component_runs: u64,
    /// Flows passed through progressive filling, summed over all runs. For
    /// the from-scratch reference this is `recomputes × live flows`; component-local
    /// allocation only pays for flows in dirty components.
    pub flows_allocated: u64,
    /// Links touched by progressive filling, summed over all runs.
    pub links_allocated: u64,
    /// Rate writes suppressed because the fresh allocation matched the
    /// previous one within epsilon (no ETA churn, no wakeup cascade).
    pub unchanged_writes: u64,
}
