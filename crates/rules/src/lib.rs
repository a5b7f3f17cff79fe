//! # pwm-rules — a forward-chaining production rule engine
//!
//! The paper implements its Policy Service on the Drools rule engine; this
//! crate is the from-scratch Rust substitute. It provides the Drools
//! operational semantics the policy rules depend on:
//!
//! * a typed [`WorkingMemory`] of facts with insert / update / retract and
//!   per-fact version counters,
//! * [`Rule`]s with `when` matchers and `then` actions, carrying *salience*
//!   priorities, generic over a shared globals type `Ctx`,
//! * a [`Session`] that fires rules to quiescence with Drools-style
//!   *refraction* (a rule fires once per fact tuple until one of the facts
//!   is updated), salience-descending conflict resolution, and a firing
//!   budget guarding against divergent rule sets,
//! * Drools' *agenda groups*: each rule sits in one [`AgendaGroup`], and
//!   [`Session::fire`] runs a pass over the groups of a [`Focus`] only.
//!
//! Matching is *incremental*: each rule declares which fact types its
//! matcher reads ([`rule::Watch`]; `when_each` infers it, join rules use
//! [`RuleBuilder::watches`]), working memory tracks a per-type dirty
//! generation, and the session caches each rule's matches between firings —
//! re-evaluating a matcher only when a watched type actually changed. A
//! watch can be narrowed to the [`Fields`] a matcher reads
//! ([`RuleBuilder::watches_fields`], fed by
//! [`WorkingMemory::update_fields`]), and a rule can name a fact type it
//! cannot match without ([`RuleBuilder::requires`]). See the [`engine`]
//! module docs for the agenda design, its invariants and the debug-build
//! oracle that checks every evaluation the agenda skips.
//!
//! ```
//! use pwm_rules::{Rule, Session};
//!
//! #[derive(Debug)]
//! struct Transfer { streams: Option<u32> }
//!
//! struct Config { default_streams: u32 }
//!
//! let mut session: Session<Config> = Session::new();
//! session.wm.insert(Transfer { streams: None });
//! session.add_rule(
//!     Rule::new("assign default level of parallel streams")
//!         .when_each::<Transfer>(|t, _: &Config| t.streams.is_none())
//!         .then(|wm, cfg, m| {
//!             wm.update::<Transfer>(m[0], |t| t.streams = Some(cfg.default_streams));
//!         }),
//! );
//! let mut cfg = Config { default_streams: 4 };
//! let report = session.fire_all(&mut cfg);
//! assert_eq!(report.firings, 1);
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod memory;
#[cfg(test)]
mod naive;
pub mod rule;

pub use engine::{FiringReport, RuleStats, Session};
pub use memory::{
    Fact, FactHandle, FactId, Fields, IndexKey, IndexPos, MintedBuild, WorkingMemory,
};
pub use rule::{AgendaGroup, Focus, Match, Matches, Rule, RuleBuilder, Watch, WatchedType};
