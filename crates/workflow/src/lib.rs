//! # pwm-workflow — the workflow management substrate
//!
//! A from-scratch stand-in for the Pegasus Workflow Management System and
//! the Condor DAGMan executor beneath it, providing exactly the pieces the
//! paper's evaluation depends on:
//!
//! * [`dag`] — abstract workflows (jobs + logical files, DAX-style), with
//!   data dependencies derived from producer/consumer relations;
//! * [`catalog`] — site and replica catalogs (the Obelix compute site, the
//!   Apache/GridFTP data sources);
//! * [`planner`] — the planning phase: stage-in / stage-out / cleanup job
//!   insertion and horizontal task clustering with a clustering factor;
//! * [`executor`] — a DAGMan-like engine over the `pwm-net` simulator with
//!   compute slots, the local staging-job limit, per-job retries, and a
//!   Pegasus-Transfer-Tool state machine that consults the Policy Service
//!   and executes approved transfers serially in the advised order. Its
//!   policy traffic goes through one port (`policy_port`), which owns the
//!   `pwm_core::transport::PolicyTransport`, sends the completion reports
//!   of one simulated instant as one call, and resends what an outage
//!   dropped. Three planes attach to it only when configured, each owning
//!   its state and answering the core at fixed points: [`recovery`]
//!   (faults, checksums, re-planning), [`StorageRuntime`] (backend
//!   placement and dollars) and the sim-time tracer (`trace`);
//! * [`stats`] — per-run statistics (makespan, staging goodput, retries,
//!   peak WAN streams) consumed by the benchmark harness.

#![warn(missing_docs)]

pub mod catalog;
pub mod dag;
pub mod executor;
pub mod multi;
pub mod planner;
mod policy_port;
pub mod recovery;
pub mod report;
pub mod stats;
mod storage;
mod trace;

pub use catalog::{ComputeSite, Replica, ReplicaCatalog};
pub use dag::{AbstractJob, AbstractWorkflow, JobIx, WorkflowError};
pub use executor::{ExecutorConfig, WorkflowExecutor, CLEANUP_DURATION};
pub use multi::merge_plans;
pub use planner::{
    plan, ExecutablePlan, JobName, Jobs, JobsIter, PlanError, PlanJob, PlanJobKind,
    PlannedTransfer, PlannerConfig,
};
pub use recovery::{Checkpoint, CrashTarget, RecoveryConfig, RecoveryReport};
pub use report::render_report;
pub use stats::RunStats;
pub use storage::StorageRuntime;
