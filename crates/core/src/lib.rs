//! # pwm-core — the Policy Service
//!
//! The paper's primary contribution: a general policy service that advises a
//! workflow management system on data staging and cleanup. It "removes
//! duplicate staging and cleanup requests, allows multiple workflows to
//! share staged files safely, defines the default number of parallel streams
//! to use for each transfer, and enforces a maximum number of parallel
//! streams to be allocated between a source and destination host."
//!
//! Architecture (paper Fig. 1), mapped to modules:
//!
//! * **Policy Service / policy engine** — [`service::PolicyService`], built
//!   on the `pwm-rules` production-rule engine (the Drools substitute).
//! * **Policy Memory** — the rule session's working memory, holding the
//!   fact types in [`model`] (transfers, staged-file resources, cleanups,
//!   host-pair allocation ledgers).
//! * **Policy Rules** — [`rules_base`] (Table I, applied to all transfers),
//!   [`greedy`] (Table II), [`balanced`] (Table III), plus the
//!   structure-based priority algorithms of Section III.c in [`priority`].
//! * **Policy Controller** — [`controller::PolicyController`], the
//!   thread-safe front door used by the RESTful web interface (`pwm-rest`).
//!
//! ```
//! use pwm_core::{PolicyConfig, PolicyService, TransferSpec, Url, WorkflowId};
//!
//! let mut service = PolicyService::new(
//!     PolicyConfig::default().with_default_streams(8).with_threshold(50),
//! );
//! let advice = service.evaluate_transfers(vec![TransferSpec {
//!     source: Url::parse("gsiftp://gridftp-vm.tacc/data/extra.dat").unwrap(),
//!     dest: Url::parse("file://obelix-nfs/scratch/extra.dat").unwrap(),
//!     bytes: 100_000_000,
//!     requested_streams: None,
//!     workflow: WorkflowId(1),
//!     cluster: None,
//!     priority: None,
//! }]);
//! assert_eq!(advice[0].streams, 8);
//! ```

#![warn(missing_docs)]

pub mod advice;
mod agenda;
pub mod audit;
pub mod balanced;
pub mod config;
pub mod controller;
pub mod ctx;
pub mod disk;
pub mod durable;
pub mod failover;
pub mod greedy;
mod indexes;
mod keys;
pub mod ledger;
pub mod model;
pub mod name;
pub mod priority;
pub mod recovery_rules;
pub mod rules_base;
pub mod service;
pub mod shard;
pub mod storage_rules;
pub mod transport;
mod window;

pub use advice::{
    CleanupAction, CleanupAdvice, CleanupOutcome, TransferAction, TransferAdvice, TransferOutcome,
};
pub use audit::{AuditLog, AuditRecord, PolicyEvent};
pub use config::{
    AllocationPolicy, BackendProfileCfg, OrderingPolicy, PolicyConfig, StoragePolicy,
};
pub use controller::{ControllerError, PolicyController, DEFAULT_SESSION};
pub use ctx::PolicyCtx;
pub use disk::{CrashPoint, Disk, DiskFault, DiskOp, FaultKind, FsDisk, SimDisk};
pub use durable::{
    crc32, decode_frames, encode_frame, read_recovery, Durability, DurabilityConfig, DurableCounts,
    DurableFact, DurableState, Recovered, WalCommand, WalRecord,
};
pub use failover::{FailoverProbe, FailoverTransport, ServiceFault};
pub use ledger::{balanced_grant, greedy_grant, greedy_total_for_concurrent_jobs, no_policy_total};
pub use model::{
    BackendDownFact, BackendLoadFact, BackendProfileFact, CleanupId, CleanupSpec, ClusterId,
    GroupId, HealthEvent, HostDownFact, StagedOnFact, SuppressReason, SuspectReplicaFact,
    TransferId, TransferSpec, Url, WorkflowId, WorkflowSet,
};
pub use name::Name;
pub use priority::{assign_priorities, PriorityAlgorithm, WorkflowGraph};
pub use service::{
    HostPairSnapshot, MemorySnapshot, PolicyService, RuleCounters, ServiceStats, SharedSimClock,
    SHARD_ID_BITS,
};
pub use shard::{fnv1a64, HashRing, ShardedPolicyService, RING_VNODES};
pub use storage_rules::{estimated_dollars, estimated_seconds};
pub use transport::{InProcessTransport, NoPolicyTransport, PolicyTransport, TransportError};
pub use window::{CleanupWindow, TransferWindow};
