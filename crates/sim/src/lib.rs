//! # pwm-sim — discrete-event simulation kernel
//!
//! The foundation that every simulated substrate in this workspace runs on:
//!
//! * [`time`] — integer microsecond virtual clock ([`SimTime`],
//!   [`SimDuration`]), exact and platform-independent.
//! * [`ladder`] — deterministic pending-event set ([`LadderQueue`]) with
//!   insertion-order tie-breaking and amortized O(1) scheduling; [`event`]
//!   holds its [`EventHandle`] and [`QueueHealth`] vocabulary.
//! * [`rng`] — seed-derivable random streams ([`SimRng`]) so experiments are
//!   reproducible run-to-run and component-to-component.
//! * [`fault`] — deterministic fault plans ([`FaultPlan`]): seeded,
//!   schedulable fault windows that turn the simulator into a reliability
//!   testbed without sacrificing bit-for-bit reproducibility.
//! * [`stats`] — the mean ± stddev [`Summary`] of one figure point, the
//!   way the benchmark harness reports it.
//!
//! The kernel is intentionally *polling-style*: owners of a [`LadderQueue`]
//! pop typed events in a loop and mutate their own state, which sidesteps the
//! borrow gymnastics of callback-style simulators while keeping the event
//! order fully deterministic.
//!
//! ```
//! use pwm_sim::{LadderQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut q = LadderQueue::new();
//! q.schedule_at(SimTime::from_secs(1), Ev::Tick(1));
//! q.schedule_in(SimDuration::from_secs(2), Ev::Tick(2));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_secs(1), Ev::Tick(1)));
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod ladder;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::{EventHandle, QueueHealth};
pub use fault::{seeded_windows, CrashPoint, FaultEvent, FaultPlan, FaultWindow};
pub use ladder::LadderQueue;
pub use rng::{derive_seed, SimRng};
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
