//! Conformance suite for the vendored JSON codec (`third_party/serde*`),
//! run by tier-1 because `third_party/*` is outside the workspace.
//!
//! 1. **Golden bytes.** The literals below were printed by a build of the
//!    commit *before* the codec stopped building a `Value` tree
//!    (`serde_json::to_string` / `to_string_pretty` of the values defined
//!    here). Encoding must reproduce them byte for byte and decoding them
//!    must reproduce the values: a WAL directory or snapshot written by that
//!    build has to recover under this one, and clients of either must
//!    understand the other. Never regenerate a literal to make a test pass.
//! 2. **Decoding rules**, one case each: what is accepted, what is refused,
//!    and which error wins.
//! 3. **Round trips** over the wire envelopes with hostile strings.
//! 4. **URL fields around `Name`'s inline limit** through every codec.
//! 5. **Heads two ends could frame differently**, refused by the scanner and
//!    by the client (the server's answer is a test of its connection core).

#![allow(clippy::too_many_lines)]

use proptest::prelude::*;
use pwm_core::model::*;
use pwm_core::*;
use pwm_rest::*;
use serde::{Deserialize, Serialize};
use std::fmt::Debug;

// ---------------------------------------------------------------------------
// 1. Golden bytes
// ---------------------------------------------------------------------------

fn url(scheme: &str, host: &str, path: &str) -> Url {
    Url::new(scheme, host, path)
}

/// Every optional field set, and strings that need each kind of escape.
fn full_spec() -> TransferSpec {
    TransferSpec {
        source: url(
            "gsiftp",
            "gridftp-vm.tacc",
            "/data/\"q\"\\b\n\t\u{1}é中🦀.dat",
        ),
        dest: url("file", "", "/scratch/f1.dat"),
        bytes: 18_446_744_073_709_551_615,
        requested_streams: Some(8),
        workflow: WorkflowId(7),
        cluster: Some(ClusterId(3)),
        priority: Some(-2),
    }
}

fn plain_spec() -> TransferSpec {
    TransferSpec {
        source: url("http", "apache.isi", "/f2.dat"),
        dest: url("file", "obelix-nfs", "/scratch/f2.dat"),
        bytes: 1_000_000,
        requested_streams: None,
        workflow: WorkflowId(1),
        cluster: None,
        priority: None,
    }
}

fn cleanup_spec() -> CleanupSpec {
    CleanupSpec {
        file: url("file", "obelix-nfs", "/scratch/f2.dat"),
        workflow: WorkflowId(1),
    }
}

fn advice() -> Vec<TransferAdvice> {
    vec![
        TransferAdvice {
            id: TransferId(0),
            source: full_spec().source,
            dest: full_spec().dest,
            action: TransferAction::Execute,
            streams: 8,
            group: GroupId(1),
            order: 0,
            backend: Some("obj-s3".into()),
        },
        TransferAdvice {
            id: TransferId(1),
            source: plain_spec().source,
            dest: plain_spec().dest,
            action: TransferAction::Skip(SuppressReason::AlreadyStaged),
            streams: 0,
            group: GroupId(2),
            order: 1,
            backend: None,
        },
    ]
}

fn health_events() -> Vec<HealthEvent> {
    vec![
        HealthEvent::HostDown {
            host: "tacc".into(),
        },
        HealthEvent::HostUp {
            host: "tacc".into(),
        },
        HealthEvent::BackendDown {
            backend: "obj-s3".into(),
        },
        HealthEvent::BackendUp {
            backend: "obj-s3".into(),
        },
        HealthEvent::SuspectReplica {
            host: "isi".into(),
            file: "/f2.dat".into(),
            quarantine: true,
        },
        HealthEvent::ReplicaCleared {
            host: "isi".into(),
            file: "/f2.dat".into(),
        },
    ]
}

fn config() -> PolicyConfig {
    PolicyConfig::default()
        .with_pair_threshold("tacc", "isi", 20)
        .with_pair_threshold("isi", "tacc", 30)
        .with_allocation(AllocationPolicy::Balanced)
        .with_ordering(OrderingPolicy::ByPriority)
        .with_cluster_factor(4)
        .with_audit_retention(128)
        .with_backend(pwm_storage::ec2_trio().remove(2), "obelix-nfs")
        .with_storage(StoragePolicy::LatencyFloor {
            max_setup_s: 0.25,
            min_bandwidth_bps: 1e8,
        })
}

fn resource_fact() -> ResourceFact {
    ResourceFact {
        dest: plain_spec().dest,
        source: plain_spec().source,
        users: [WorkflowId(9), WorkflowId(2)].into_iter().collect(),
        state: ResourceState::Staged,
        producer: Some(TransferId(1)),
    }
}

fn snapshot() -> MemorySnapshot {
    MemorySnapshot {
        in_progress_transfers: 1,
        staged_files: 1,
        staging_files: 0,
        in_progress_cleanups: 0,
        host_pairs: vec![HostPairSnapshot {
            src_host: "apache.isi".into(),
            dst_host: "obelix-nfs".into(),
            allocated: 4,
            peak_allocated: 8,
        }],
    }
}

fn stats() -> ServiceStats {
    ServiceStats {
        transfer_requests: 2,
        transfers_executed: 1,
        transfers_suppressed: 1,
        rule_firings: 11,
        ..ServiceStats::default()
    }
}

fn durable_state() -> DurableState {
    DurableState {
        applied_seq: 3,
        config: PolicyConfig::default(),
        next_transfer: 2,
        next_cleanup: 1,
        next_group: 3,
        stats: stats(),
        audit_capacity: 4096,
        audit_next_seq: 2,
        audit_records: vec![
            AuditRecord {
                seq: 0,
                event: PolicyEvent::TransferEvaluated {
                    id: TransferId(0),
                    streams: 4,
                    skipped: None,
                },
            },
            AuditRecord {
                seq: 1,
                event: PolicyEvent::CleanupEvaluated {
                    id: CleanupId(0),
                    skipped: Some(SuppressReason::ResourceInUse),
                },
            },
            AuditRecord {
                seq: 2,
                event: PolicyEvent::ConfigChanged,
            },
        ],
        facts: vec![
            DurableFact::Transfer(TransferFact {
                id: TransferId(0),
                spec: plain_spec(),
                state: TransferState::InProgress,
                streams: Some(4),
                charged_streams: 4,
                group: Some(GroupId(2)),
                in_current_batch: false,
                suppressed: None,
                cluster_released: false,
                backend: None,
                backend_released: false,
            }),
            DurableFact::Resource(resource_fact()),
            DurableFact::Cleanup(CleanupFact {
                id: CleanupId(0),
                spec: cleanup_spec(),
                state: CleanupState::Pending,
                in_current_batch: true,
                suppressed: Some(SuppressReason::ResourceInUse),
            }),
            DurableFact::HostPair(HostPairFact {
                src_host: "apache.isi".into(),
                dst_host: "obelix-nfs".into(),
                group: GroupId(2),
                allocated: 4,
                peak_allocated: 8,
            }),
            DurableFact::ClusterAlloc(ClusterAllocFact {
                group: GroupId(2),
                cluster: ClusterId(3),
                allocated: 2,
            }),
            DurableFact::BackendLoad(BackendLoadFact {
                backend: "obj-s3".into(),
                active: 1,
                bytes_assigned: 1.5e9,
                dollars_committed: 0.000_125,
            }),
            DurableFact::HostDown(HostDownFact {
                host: "tacc".into(),
            }),
            DurableFact::SuspectReplica(SuspectReplicaFact {
                host: "isi".into(),
                file: "/f2.dat".into(),
                strikes: 2,
                quarantined: false,
            }),
        ],
        summary: snapshot(),
    }
}

fn wal(seq: u64, cmd: WalCommand) -> WalRecord {
    WalRecord { seq, cmd }
}

/// `value` encodes to exactly `compact` / `pretty`, and both decode to it.
fn golden<T>(value: &T, compact: &str, pretty: &str)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    assert_eq!(serde_json::to_string(value).unwrap(), compact);
    assert_eq!(serde_json::to_vec(value).unwrap(), compact.as_bytes());
    assert_eq!(serde_json::to_string_pretty(value).unwrap(), pretty);
    assert_eq!(
        &serde_json::from_slice::<T>(compact.as_bytes()).unwrap(),
        value
    );
    assert_eq!(&serde_json::from_str::<T>(pretty).unwrap(), value);
}

#[test]
fn golden_transfer_request_envelope() {
    let value: TransferRequestEnvelope = TransferRequestEnvelope {
        transfers: vec![full_spec(), plain_spec()],
    };
    golden(
        &value,
        r#"{"transfers":[{"source":{"scheme":"gsiftp","host":"gridftp-vm.tacc","path":"/data/\"q\"\\b\n\t\u0001é中🦀.dat"},"dest":{"scheme":"file","host":"","path":"/scratch/f1.dat"},"bytes":18446744073709551615,"requested_streams":8,"workflow":7,"cluster":3,"priority":-2},{"source":{"scheme":"http","host":"apache.isi","path":"/f2.dat"},"dest":{"scheme":"file","host":"obelix-nfs","path":"/scratch/f2.dat"},"bytes":1000000,"requested_streams":null,"workflow":1,"cluster":null,"priority":null}]}"#,
        r#"{
  "transfers": [
    {
      "source": {
        "scheme": "gsiftp",
        "host": "gridftp-vm.tacc",
        "path": "/data/\"q\"\\b\n\t\u0001é中🦀.dat"
      },
      "dest": {
        "scheme": "file",
        "host": "",
        "path": "/scratch/f1.dat"
      },
      "bytes": 18446744073709551615,
      "requested_streams": 8,
      "workflow": 7,
      "cluster": 3,
      "priority": -2
    },
    {
      "source": {
        "scheme": "http",
        "host": "apache.isi",
        "path": "/f2.dat"
      },
      "dest": {
        "scheme": "file",
        "host": "obelix-nfs",
        "path": "/scratch/f2.dat"
      },
      "bytes": 1000000,
      "requested_streams": null,
      "workflow": 1,
      "cluster": null,
      "priority": null
    }
  ]
}"#,
    );
}

#[test]
fn golden_transfer_response_envelope() {
    let value: TransferResponseEnvelope = TransferResponseEnvelope { advice: advice() };
    golden(
        &value,
        r#"{"advice":[{"id":0,"source":{"scheme":"gsiftp","host":"gridftp-vm.tacc","path":"/data/\"q\"\\b\n\t\u0001é中🦀.dat"},"dest":{"scheme":"file","host":"","path":"/scratch/f1.dat"},"action":"Execute","streams":8,"group":1,"order":0,"backend":"obj-s3"},{"id":1,"source":{"scheme":"http","host":"apache.isi","path":"/f2.dat"},"dest":{"scheme":"file","host":"obelix-nfs","path":"/scratch/f2.dat"},"action":{"Skip":"AlreadyStaged"},"streams":0,"group":2,"order":1,"backend":null}]}"#,
        r#"{
  "advice": [
    {
      "id": 0,
      "source": {
        "scheme": "gsiftp",
        "host": "gridftp-vm.tacc",
        "path": "/data/\"q\"\\b\n\t\u0001é中🦀.dat"
      },
      "dest": {
        "scheme": "file",
        "host": "",
        "path": "/scratch/f1.dat"
      },
      "action": "Execute",
      "streams": 8,
      "group": 1,
      "order": 0,
      "backend": "obj-s3"
    },
    {
      "id": 1,
      "source": {
        "scheme": "http",
        "host": "apache.isi",
        "path": "/f2.dat"
      },
      "dest": {
        "scheme": "file",
        "host": "obelix-nfs",
        "path": "/scratch/f2.dat"
      },
      "action": {
        "Skip": "AlreadyStaged"
      },
      "streams": 0,
      "group": 2,
      "order": 1,
      "backend": null
    }
  ]
}"#,
    );
}

#[test]
fn golden_transfer_completion_envelope() {
    let value: TransferCompletionEnvelope = TransferCompletionEnvelope {
        outcomes: vec![
            TransferOutcome {
                id: TransferId(0),
                success: true,
            },
            TransferOutcome {
                id: TransferId(1),
                success: false,
            },
        ],
    };
    golden(
        &value,
        r#"{"outcomes":[{"id":0,"success":true},{"id":1,"success":false}]}"#,
        r#"{
  "outcomes": [
    {
      "id": 0,
      "success": true
    },
    {
      "id": 1,
      "success": false
    }
  ]
}"#,
    );
}

#[test]
fn golden_cleanup_request_envelope() {
    let value: CleanupRequestEnvelope = CleanupRequestEnvelope {
        cleanups: vec![cleanup_spec()],
    };
    golden(
        &value,
        r#"{"cleanups":[{"file":{"scheme":"file","host":"obelix-nfs","path":"/scratch/f2.dat"},"workflow":1}]}"#,
        r#"{
  "cleanups": [
    {
      "file": {
        "scheme": "file",
        "host": "obelix-nfs",
        "path": "/scratch/f2.dat"
      },
      "workflow": 1
    }
  ]
}"#,
    );
}

#[test]
fn golden_cleanup_response_envelope() {
    let value: CleanupResponseEnvelope = CleanupResponseEnvelope {
        advice: vec![
            CleanupAdvice {
                id: CleanupId(0),
                file: cleanup_spec().file,
                action: CleanupAction::Execute,
            },
            CleanupAdvice {
                id: CleanupId(1),
                file: full_spec().source,
                action: CleanupAction::Skip(SuppressReason::DuplicateCleanup),
            },
        ],
    };
    golden(
        &value,
        r#"{"advice":[{"id":0,"file":{"scheme":"file","host":"obelix-nfs","path":"/scratch/f2.dat"},"action":"Execute"},{"id":1,"file":{"scheme":"gsiftp","host":"gridftp-vm.tacc","path":"/data/\"q\"\\b\n\t\u0001é中🦀.dat"},"action":{"Skip":"DuplicateCleanup"}}]}"#,
        r#"{
  "advice": [
    {
      "id": 0,
      "file": {
        "scheme": "file",
        "host": "obelix-nfs",
        "path": "/scratch/f2.dat"
      },
      "action": "Execute"
    },
    {
      "id": 1,
      "file": {
        "scheme": "gsiftp",
        "host": "gridftp-vm.tacc",
        "path": "/data/\"q\"\\b\n\t\u0001é中🦀.dat"
      },
      "action": {
        "Skip": "DuplicateCleanup"
      }
    }
  ]
}"#,
    );
}

#[test]
fn golden_cleanup_completion_envelope() {
    let value: CleanupCompletionEnvelope = CleanupCompletionEnvelope {
        outcomes: vec![CleanupOutcome {
            id: CleanupId(0),
            success: true,
        }],
    };
    golden(
        &value,
        r#"{"outcomes":[{"id":0,"success":true}]}"#,
        r#"{
  "outcomes": [
    {
      "id": 0,
      "success": true
    }
  ]
}"#,
    );
}

#[test]
fn golden_health_report_envelope() {
    let value: HealthReportEnvelope = HealthReportEnvelope {
        events: health_events(),
    };
    golden(
        &value,
        r#"{"events":[{"HostDown":{"host":"tacc"}},{"HostUp":{"host":"tacc"}},{"BackendDown":{"backend":"obj-s3"}},{"BackendUp":{"backend":"obj-s3"}},{"SuspectReplica":{"host":"isi","file":"/f2.dat","quarantine":true}},{"ReplicaCleared":{"host":"isi","file":"/f2.dat"}}]}"#,
        r#"{
  "events": [
    {
      "HostDown": {
        "host": "tacc"
      }
    },
    {
      "HostUp": {
        "host": "tacc"
      }
    },
    {
      "BackendDown": {
        "backend": "obj-s3"
      }
    },
    {
      "BackendUp": {
        "backend": "obj-s3"
      }
    },
    {
      "SuspectReplica": {
        "host": "isi",
        "file": "/f2.dat",
        "quarantine": true
      }
    },
    {
      "ReplicaCleared": {
        "host": "isi",
        "file": "/f2.dat"
      }
    }
  ]
}"#,
    );
}

#[test]
fn golden_status_envelope() {
    let value: StatusEnvelope = StatusEnvelope {
        snapshot: snapshot(),
        stats: stats(),
        rules: vec![RuleCounters {
            name: "dedup-in-batch".into(),
            salience: -10,
            evaluations: 5,
            matches: 2,
            firings: 1,
            eval_nanos: 1200,
        }],
    };
    golden(
        &value,
        r#"{"snapshot":{"in_progress_transfers":1,"staged_files":1,"staging_files":0,"in_progress_cleanups":0,"host_pairs":[{"src_host":"apache.isi","dst_host":"obelix-nfs","allocated":4,"peak_allocated":8}]},"stats":{"transfer_requests":2,"transfers_executed":1,"transfers_suppressed":1,"transfers_completed":0,"transfers_failed":0,"cleanup_requests":0,"cleanups_executed":0,"cleanups_suppressed":0,"rule_firings":11},"rules":[{"name":"dedup-in-batch","salience":-10,"evaluations":5,"matches":2,"firings":1,"eval_nanos":1200}]}"#,
        r#"{
  "snapshot": {
    "in_progress_transfers": 1,
    "staged_files": 1,
    "staging_files": 0,
    "in_progress_cleanups": 0,
    "host_pairs": [
      {
        "src_host": "apache.isi",
        "dst_host": "obelix-nfs",
        "allocated": 4,
        "peak_allocated": 8
      }
    ]
  },
  "stats": {
    "transfer_requests": 2,
    "transfers_executed": 1,
    "transfers_suppressed": 1,
    "transfers_completed": 0,
    "transfers_failed": 0,
    "cleanup_requests": 0,
    "cleanups_executed": 0,
    "cleanups_suppressed": 0,
    "rule_firings": 11
  },
  "rules": [
    {
      "name": "dedup-in-batch",
      "salience": -10,
      "evaluations": 5,
      "matches": 2,
      "firings": 1,
      "eval_nanos": 1200
    }
  ]
}"#,
    );
}

#[test]
fn golden_ack_envelope() {
    let value: AckEnvelope = AckEnvelope::ok();
    golden(
        &value,
        r#"{"status":"ok"}"#,
        r#"{
  "status": "ok"
}"#,
    );
}

#[test]
fn golden_error_envelope() {
    let value: ErrorEnvelope = ErrorEnvelope {
        error: "bad json: expected `,` or `}` at byte 7".into(),
    };
    golden(
        &value,
        r#"{"error":"bad json: expected `,` or `}` at byte 7"}"#,
        r#"{
  "error": "bad json: expected `,` or `}` at byte 7"
}"#,
    );
}

#[test]
fn golden_empty_transfer_request_envelope() {
    let value: TransferRequestEnvelope = TransferRequestEnvelope { transfers: vec![] };
    golden(
        &value,
        r#"{"transfers":[]}"#,
        r#"{
  "transfers": []
}"#,
    );
}

#[test]
fn golden_wal_evaluate_transfers() {
    let value: WalRecord = wal(1, WalCommand::EvaluateTransfers(vec![full_spec()]));
    golden(
        &value,
        r#"{"seq":1,"cmd":{"EvaluateTransfers":[{"source":{"scheme":"gsiftp","host":"gridftp-vm.tacc","path":"/data/\"q\"\\b\n\t\u0001é中🦀.dat"},"dest":{"scheme":"file","host":"","path":"/scratch/f1.dat"},"bytes":18446744073709551615,"requested_streams":8,"workflow":7,"cluster":3,"priority":-2}]}}"#,
        r#"{
  "seq": 1,
  "cmd": {
    "EvaluateTransfers": [
      {
        "source": {
          "scheme": "gsiftp",
          "host": "gridftp-vm.tacc",
          "path": "/data/\"q\"\\b\n\t\u0001é中🦀.dat"
        },
        "dest": {
          "scheme": "file",
          "host": "",
          "path": "/scratch/f1.dat"
        },
        "bytes": 18446744073709551615,
        "requested_streams": 8,
        "workflow": 7,
        "cluster": 3,
        "priority": -2
      }
    ]
  }
}"#,
    );
}

#[test]
fn golden_wal_evaluate_transfer_groups() {
    let value: WalRecord = wal(
        2,
        WalCommand::EvaluateTransferGroups(vec![vec![plain_spec()], vec![]]),
    );
    golden(
        &value,
        r#"{"seq":2,"cmd":{"EvaluateTransferGroups":[[{"source":{"scheme":"http","host":"apache.isi","path":"/f2.dat"},"dest":{"scheme":"file","host":"obelix-nfs","path":"/scratch/f2.dat"},"bytes":1000000,"requested_streams":null,"workflow":1,"cluster":null,"priority":null}],[]]}}"#,
        r#"{
  "seq": 2,
  "cmd": {
    "EvaluateTransferGroups": [
      [
        {
          "source": {
            "scheme": "http",
            "host": "apache.isi",
            "path": "/f2.dat"
          },
          "dest": {
            "scheme": "file",
            "host": "obelix-nfs",
            "path": "/scratch/f2.dat"
          },
          "bytes": 1000000,
          "requested_streams": null,
          "workflow": 1,
          "cluster": null,
          "priority": null
        }
      ],
      []
    ]
  }
}"#,
    );
}

#[test]
fn golden_wal_report_transfers() {
    let value: WalRecord = wal(
        3,
        WalCommand::ReportTransfers(vec![TransferOutcome {
            id: TransferId(0),
            success: true,
        }]),
    );
    golden(
        &value,
        r#"{"seq":3,"cmd":{"ReportTransfers":[{"id":0,"success":true}]}}"#,
        r#"{
  "seq": 3,
  "cmd": {
    "ReportTransfers": [
      {
        "id": 0,
        "success": true
      }
    ]
  }
}"#,
    );
}

#[test]
fn golden_wal_evaluate_cleanups() {
    let value: WalRecord = wal(4, WalCommand::EvaluateCleanups(vec![cleanup_spec()]));
    golden(
        &value,
        r#"{"seq":4,"cmd":{"EvaluateCleanups":[{"file":{"scheme":"file","host":"obelix-nfs","path":"/scratch/f2.dat"},"workflow":1}]}}"#,
        r#"{
  "seq": 4,
  "cmd": {
    "EvaluateCleanups": [
      {
        "file": {
          "scheme": "file",
          "host": "obelix-nfs",
          "path": "/scratch/f2.dat"
        },
        "workflow": 1
      }
    ]
  }
}"#,
    );
}

#[test]
fn golden_wal_report_cleanups() {
    let value: WalRecord = wal(
        5,
        WalCommand::ReportCleanups(vec![CleanupOutcome {
            id: CleanupId(0),
            success: false,
        }]),
    );
    golden(
        &value,
        r#"{"seq":5,"cmd":{"ReportCleanups":[{"id":0,"success":false}]}}"#,
        r#"{
  "seq": 5,
  "cmd": {
    "ReportCleanups": [
      {
        "id": 0,
        "success": false
      }
    ]
  }
}"#,
    );
}

#[test]
fn golden_wal_set_config() {
    let value: WalRecord = wal(6, WalCommand::SetConfig(PolicyConfig::default()));
    golden(
        &value,
        r#"{"seq":6,"cmd":{"SetConfig":{"default_streams":4,"default_threshold":50,"pair_thresholds":[],"allocation":"Greedy","ordering":"ByUrl","cluster_factor":1,"dedup":true,"audit_retention":null,"backends":[],"storage":"Off"}}}"#,
        r#"{
  "seq": 6,
  "cmd": {
    "SetConfig": {
      "default_streams": 4,
      "default_threshold": 50,
      "pair_thresholds": [],
      "allocation": "Greedy",
      "ordering": "ByUrl",
      "cluster_factor": 1,
      "dedup": true,
      "audit_retention": null,
      "backends": [],
      "storage": "Off"
    }
  }
}"#,
    );
}

#[test]
fn golden_wal_report_health() {
    let value: WalRecord = wal(
        7,
        WalCommand::ReportHealth(vec![HealthEvent::HostDown {
            host: "tacc".into(),
        }]),
    );
    golden(
        &value,
        r#"{"seq":7,"cmd":{"ReportHealth":[{"HostDown":{"host":"tacc"}}]}}"#,
        r#"{
  "seq": 7,
  "cmd": {
    "ReportHealth": [
      {
        "HostDown": {
          "host": "tacc"
        }
      }
    ]
  }
}"#,
    );
}

#[test]
fn golden_durable_state() {
    let value: DurableState = durable_state();
    golden(
        &value,
        r#"{"applied_seq":3,"config":{"default_streams":4,"default_threshold":50,"pair_thresholds":[],"allocation":"Greedy","ordering":"ByUrl","cluster_factor":1,"dedup":true,"audit_retention":null,"backends":[],"storage":"Off"},"next_transfer":2,"next_cleanup":1,"next_group":3,"stats":{"transfer_requests":2,"transfers_executed":1,"transfers_suppressed":1,"transfers_completed":0,"transfers_failed":0,"cleanup_requests":0,"cleanups_executed":0,"cleanups_suppressed":0,"rule_firings":11},"audit_capacity":4096,"audit_next_seq":2,"audit_records":[{"seq":0,"event":{"TransferEvaluated":{"id":0,"streams":4,"skipped":null}}},{"seq":1,"event":{"CleanupEvaluated":{"id":0,"skipped":"ResourceInUse"}}},{"seq":2,"event":"ConfigChanged"}],"facts":[{"Transfer":{"id":0,"spec":{"source":{"scheme":"http","host":"apache.isi","path":"/f2.dat"},"dest":{"scheme":"file","host":"obelix-nfs","path":"/scratch/f2.dat"},"bytes":1000000,"requested_streams":null,"workflow":1,"cluster":null,"priority":null},"state":"InProgress","streams":4,"charged_streams":4,"group":2,"in_current_batch":false,"suppressed":null,"cluster_released":false,"backend":null,"backend_released":false}},{"Resource":{"dest":{"scheme":"file","host":"obelix-nfs","path":"/scratch/f2.dat"},"source":{"scheme":"http","host":"apache.isi","path":"/f2.dat"},"users":[2,9],"state":"Staged","producer":1}},{"Cleanup":{"id":0,"spec":{"file":{"scheme":"file","host":"obelix-nfs","path":"/scratch/f2.dat"},"workflow":1},"state":"Pending","in_current_batch":true,"suppressed":"ResourceInUse"}},{"HostPair":{"src_host":"apache.isi","dst_host":"obelix-nfs","group":2,"allocated":4,"peak_allocated":8}},{"ClusterAlloc":{"group":2,"cluster":3,"allocated":2}},{"BackendLoad":{"backend":"obj-s3","active":1,"bytes_assigned":1500000000,"dollars_committed":0.000125}},{"HostDown":{"host":"tacc"}},{"SuspectReplica":{"host":"isi","file":"/f2.dat","strikes":2,"quarantined":false}}],"summary":{"in_progress_transfers":1,"staged_files":1,"staging_files":0,"in_progress_cleanups":0,"host_pairs":[{"src_host":"apache.isi","dst_host":"obelix-nfs","allocated":4,"peak_allocated":8}]}}"#,
        r#"{
  "applied_seq": 3,
  "config": {
    "default_streams": 4,
    "default_threshold": 50,
    "pair_thresholds": [],
    "allocation": "Greedy",
    "ordering": "ByUrl",
    "cluster_factor": 1,
    "dedup": true,
    "audit_retention": null,
    "backends": [],
    "storage": "Off"
  },
  "next_transfer": 2,
  "next_cleanup": 1,
  "next_group": 3,
  "stats": {
    "transfer_requests": 2,
    "transfers_executed": 1,
    "transfers_suppressed": 1,
    "transfers_completed": 0,
    "transfers_failed": 0,
    "cleanup_requests": 0,
    "cleanups_executed": 0,
    "cleanups_suppressed": 0,
    "rule_firings": 11
  },
  "audit_capacity": 4096,
  "audit_next_seq": 2,
  "audit_records": [
    {
      "seq": 0,
      "event": {
        "TransferEvaluated": {
          "id": 0,
          "streams": 4,
          "skipped": null
        }
      }
    },
    {
      "seq": 1,
      "event": {
        "CleanupEvaluated": {
          "id": 0,
          "skipped": "ResourceInUse"
        }
      }
    },
    {
      "seq": 2,
      "event": "ConfigChanged"
    }
  ],
  "facts": [
    {
      "Transfer": {
        "id": 0,
        "spec": {
          "source": {
            "scheme": "http",
            "host": "apache.isi",
            "path": "/f2.dat"
          },
          "dest": {
            "scheme": "file",
            "host": "obelix-nfs",
            "path": "/scratch/f2.dat"
          },
          "bytes": 1000000,
          "requested_streams": null,
          "workflow": 1,
          "cluster": null,
          "priority": null
        },
        "state": "InProgress",
        "streams": 4,
        "charged_streams": 4,
        "group": 2,
        "in_current_batch": false,
        "suppressed": null,
        "cluster_released": false,
        "backend": null,
        "backend_released": false
      }
    },
    {
      "Resource": {
        "dest": {
          "scheme": "file",
          "host": "obelix-nfs",
          "path": "/scratch/f2.dat"
        },
        "source": {
          "scheme": "http",
          "host": "apache.isi",
          "path": "/f2.dat"
        },
        "users": [
          2,
          9
        ],
        "state": "Staged",
        "producer": 1
      }
    },
    {
      "Cleanup": {
        "id": 0,
        "spec": {
          "file": {
            "scheme": "file",
            "host": "obelix-nfs",
            "path": "/scratch/f2.dat"
          },
          "workflow": 1
        },
        "state": "Pending",
        "in_current_batch": true,
        "suppressed": "ResourceInUse"
      }
    },
    {
      "HostPair": {
        "src_host": "apache.isi",
        "dst_host": "obelix-nfs",
        "group": 2,
        "allocated": 4,
        "peak_allocated": 8
      }
    },
    {
      "ClusterAlloc": {
        "group": 2,
        "cluster": 3,
        "allocated": 2
      }
    },
    {
      "BackendLoad": {
        "backend": "obj-s3",
        "active": 1,
        "bytes_assigned": 1500000000,
        "dollars_committed": 0.000125
      }
    },
    {
      "HostDown": {
        "host": "tacc"
      }
    },
    {
      "SuspectReplica": {
        "host": "isi",
        "file": "/f2.dat",
        "strikes": 2,
        "quarantined": false
      }
    }
  ],
  "summary": {
    "in_progress_transfers": 1,
    "staged_files": 1,
    "staging_files": 0,
    "in_progress_cleanups": 0,
    "host_pairs": [
      {
        "src_host": "apache.isi",
        "dst_host": "obelix-nfs",
        "allocated": 4,
        "peak_allocated": 8
      }
    ]
  }
}"#,
    );
}

#[test]
fn golden_policy_config_with_pair_thresholds() {
    let value: PolicyConfig = config();
    golden(
        &value,
        r#"{"default_streams":4,"default_threshold":50,"pair_thresholds":[{"src_host":"isi","dst_host":"tacc","threshold":30},{"src_host":"tacc","dst_host":"isi","threshold":20}],"allocation":"Balanced","ordering":"ByPriority","cluster_factor":4,"dedup":true,"audit_retention":128,"backends":[{"profile":{"name":"obj-s3","kind":"ObjectStore","bandwidth_bps":150000000,"iops":0,"io_bytes":0,"request_overhead_s":0.05,"request_latency_s":0.01,"chunk_bytes":33554432,"cost":{"per_gb_hour":0.00005,"per_request":0.0005,"per_gb_egress":0.09}},"site":"obelix-nfs"}],"storage":{"LatencyFloor":{"max_setup_s":0.25,"min_bandwidth_bps":100000000}}}"#,
        r#"{
  "default_streams": 4,
  "default_threshold": 50,
  "pair_thresholds": [
    {
      "src_host": "isi",
      "dst_host": "tacc",
      "threshold": 30
    },
    {
      "src_host": "tacc",
      "dst_host": "isi",
      "threshold": 20
    }
  ],
  "allocation": "Balanced",
  "ordering": "ByPriority",
  "cluster_factor": 4,
  "dedup": true,
  "audit_retention": 128,
  "backends": [
    {
      "profile": {
        "name": "obj-s3",
        "kind": "ObjectStore",
        "bandwidth_bps": 150000000,
        "iops": 0,
        "io_bytes": 0,
        "request_overhead_s": 0.05,
        "request_latency_s": 0.01,
        "chunk_bytes": 33554432,
        "cost": {
          "per_gb_hour": 0.00005,
          "per_request": 0.0005,
          "per_gb_egress": 0.09
        }
      },
      "site": "obelix-nfs"
    }
  ],
  "storage": {
    "LatencyFloor": {
      "max_setup_s": 0.25,
      "min_bandwidth_bps": 100000000
    }
  }
}"#,
    );
}

#[test]
fn golden_resource_fact_with_two_users() {
    let value: ResourceFact = resource_fact();
    golden(
        &value,
        r#"{"dest":{"scheme":"file","host":"obelix-nfs","path":"/scratch/f2.dat"},"source":{"scheme":"http","host":"apache.isi","path":"/f2.dat"},"users":[2,9],"state":"Staged","producer":1}"#,
        r#"{
  "dest": {
    "scheme": "file",
    "host": "obelix-nfs",
    "path": "/scratch/f2.dat"
  },
  "source": {
    "scheme": "http",
    "host": "apache.isi",
    "path": "/f2.dat"
  },
  "users": [
    2,
    9
  ],
  "state": "Staged",
  "producer": 1
}"#,
    );
}

/// No user left: the set a staged file holds once every workflow detached.
#[test]
fn golden_resource_fact_with_no_users() {
    let value = ResourceFact {
        users: WorkflowSet::new(),
        producer: None,
        ..resource_fact()
    };
    golden(
        &value,
        r#"{"dest":{"scheme":"file","host":"obelix-nfs","path":"/scratch/f2.dat"},"source":{"scheme":"http","host":"apache.isi","path":"/f2.dat"},"users":[],"state":"Staged","producer":null}"#,
        r#"{
  "dest": {
    "scheme": "file",
    "host": "obelix-nfs",
    "path": "/scratch/f2.dat"
  },
  "source": {
    "scheme": "http",
    "host": "apache.isi",
    "path": "/f2.dat"
  },
  "users": [],
  "state": "Staged",
  "producer": null
}"#,
    );
}

/// One user, held inline: the shape of nearly every resident file.
#[test]
fn golden_resource_fact_with_one_user() {
    let value = ResourceFact {
        users: [WorkflowId(7)].into_iter().collect(),
        state: ResourceState::Staging,
        producer: Some(TransferId(4)),
        ..resource_fact()
    };
    golden(
        &value,
        r#"{"dest":{"scheme":"file","host":"obelix-nfs","path":"/scratch/f2.dat"},"source":{"scheme":"http","host":"apache.isi","path":"/f2.dat"},"users":[7],"state":"Staging","producer":4}"#,
        r#"{
  "dest": {
    "scheme": "file",
    "host": "obelix-nfs",
    "path": "/scratch/f2.dat"
  },
  "source": {
    "scheme": "http",
    "host": "apache.isi",
    "path": "/f2.dat"
  },
  "users": [
    7
  ],
  "state": "Staging",
  "producer": 4
}"#,
    );
}

// Every advice shape, captured on the commit before the derived encoder wrote
// keys and unit variants as precomputed literals (PR 24): one line each, the
// pretty form with its line breaks escaped.

/// Every escape the writer has — `"`, `\`, `\n`, `\r`, `\t` by name, the other
/// control characters as `\u00xx` — and what it leaves alone: DEL, U+2028,
/// two-, three- and four-byte characters.
const EVERY_ESCAPE: &str = "\"q\"\\b\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}\u{2028}é中🦀";

const EVERY_REASON: [SuppressReason; 7] = [
    SuppressReason::DuplicateInBatch,
    SuppressReason::AlreadyInProgress,
    SuppressReason::AlreadyStaged,
    SuppressReason::DuplicateCleanup,
    SuppressReason::ResourceInUse,
    SuppressReason::SourceQuarantined,
    SuppressReason::SourceHostDown,
];

/// `Execute` then a skip for every reason, on URLs at `Name`'s inline limit
/// and across a multi-byte character; backends escaped, plain and absent.
fn every_transfer_action() -> Vec<TransferAdvice> {
    let specs = limit_specs();
    std::iter::once(TransferAction::Execute)
        .chain(EVERY_REASON.map(TransferAction::Skip))
        .enumerate()
        .map(|(i, action)| TransferAdvice {
            id: TransferId(i as u64),
            source: specs[i % 2].source.clone(),
            dest: specs[i % 2].dest.clone(),
            action,
            streams: 8 * i as u32,
            group: GroupId(i as u64 / 2),
            order: i as u32,
            backend: [Some(EVERY_ESCAPE.into()), None, Some("obj-s3".into())][i % 3].clone(),
        })
        .collect()
}

fn every_cleanup_action() -> Vec<CleanupAdvice> {
    let specs = limit_specs();
    std::iter::once(CleanupAction::Execute)
        .chain(EVERY_REASON.map(CleanupAction::Skip))
        .enumerate()
        .map(|(i, action)| CleanupAdvice {
            id: CleanupId(i as u64),
            file: [&specs[0].dest, &specs[1].source][i % 2].clone(),
            action,
        })
        .collect()
}

/// The limit specs and one whose URL needs every escape, as the batched
/// path logs them.
fn wal_with_every_escape() -> WalRecord {
    let mut escaped = plain_spec();
    escaped.source = url(EVERY_ESCAPE, EVERY_ESCAPE, EVERY_ESCAPE);
    escaped.priority = Some(i32::MIN);
    wal(
        8,
        WalCommand::EvaluateTransferGroups(vec![limit_specs(), vec![escaped]]),
    )
}

#[test]
fn golden_transfer_response_every_action() {
    let envelope = TransferResponseEnvelope {
        advice: every_transfer_action(),
    };
    // What the server writes from borrowed advice is what the derive writes.
    assert_eq!(
        fastjson::render_transfer_response(&envelope.advice),
        serde_json::to_vec(&envelope).unwrap()
    );
    golden(
        &envelope,
        "{\"advice\":[{\"id\":0,\"source\":{\"scheme\":\"gsiftp\",\"host\":\"gridftp-012345678.tacc\",\"path\":\"/d/twenty-two-bytes.dat\"},\"dest\":{\"scheme\":\"file\",\"host\":\"obelix-nfs-01234567.isi\",\"path\":\"/s/twenty-three-bytes.dat\"},\"action\":\"Execute\",\"streams\":0,\"group\":0,\"order\":0,\"backend\":\"\\\"q\\\"\\\\b\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{2028}é中🦀\"},{\"id\":1,\"source\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas中.fits\"},\"dest\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas🦀é.fits\"},\"action\":{\"Skip\":\"DuplicateInBatch\"},\"streams\":8,\"group\":0,\"order\":1,\"backend\":null},{\"id\":2,\"source\":{\"scheme\":\"gsiftp\",\"host\":\"gridftp-012345678.tacc\",\"path\":\"/d/twenty-two-bytes.dat\"},\"dest\":{\"scheme\":\"file\",\"host\":\"obelix-nfs-01234567.isi\",\"path\":\"/s/twenty-three-bytes.dat\"},\"action\":{\"Skip\":\"AlreadyInProgress\"},\"streams\":16,\"group\":1,\"order\":2,\"backend\":\"obj-s3\"},{\"id\":3,\"source\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas中.fits\"},\"dest\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas🦀é.fits\"},\"action\":{\"Skip\":\"AlreadyStaged\"},\"streams\":24,\"group\":1,\"order\":3,\"backend\":\"\\\"q\\\"\\\\b\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{2028}é中🦀\"},{\"id\":4,\"source\":{\"scheme\":\"gsiftp\",\"host\":\"gridftp-012345678.tacc\",\"path\":\"/d/twenty-two-bytes.dat\"},\"dest\":{\"scheme\":\"file\",\"host\":\"obelix-nfs-01234567.isi\",\"path\":\"/s/twenty-three-bytes.dat\"},\"action\":{\"Skip\":\"DuplicateCleanup\"},\"streams\":32,\"group\":2,\"order\":4,\"backend\":null},{\"id\":5,\"source\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas中.fits\"},\"dest\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas🦀é.fits\"},\"action\":{\"Skip\":\"ResourceInUse\"},\"streams\":40,\"group\":2,\"order\":5,\"backend\":\"obj-s3\"},{\"id\":6,\"source\":{\"scheme\":\"gsiftp\",\"host\":\"gridftp-012345678.tacc\",\"path\":\"/d/twenty-two-bytes.dat\"},\"dest\":{\"scheme\":\"file\",\"host\":\"obelix-nfs-01234567.isi\",\"path\":\"/s/twenty-three-bytes.dat\"},\"action\":{\"Skip\":\"SourceQuarantined\"},\"streams\":48,\"group\":3,\"order\":6,\"backend\":\"\\\"q\\\"\\\\b\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{2028}é中🦀\"},{\"id\":7,\"source\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas中.fits\"},\"dest\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas🦀é.fits\"},\"action\":{\"Skip\":\"SourceHostDown\"},\"streams\":56,\"group\":3,\"order\":7,\"backend\":null}]}",
        "{\n  \"advice\": [\n    {\n      \"id\": 0,\n      \"source\": {\n        \"scheme\": \"gsiftp\",\n        \"host\": \"gridftp-012345678.tacc\",\n        \"path\": \"/d/twenty-two-bytes.dat\"\n      },\n      \"dest\": {\n        \"scheme\": \"file\",\n        \"host\": \"obelix-nfs-01234567.isi\",\n        \"path\": \"/s/twenty-three-bytes.dat\"\n      },\n      \"action\": \"Execute\",\n      \"streams\": 0,\n      \"group\": 0,\n      \"order\": 0,\n      \"backend\": \"\\\"q\\\"\\\\b\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{2028}é中🦀\"\n    },\n    {\n      \"id\": 1,\n      \"source\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas中.fits\"\n      },\n      \"dest\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas🦀é.fits\"\n      },\n      \"action\": {\n        \"Skip\": \"DuplicateInBatch\"\n      },\n      \"streams\": 8,\n      \"group\": 0,\n      \"order\": 1,\n      \"backend\": null\n    },\n    {\n      \"id\": 2,\n      \"source\": {\n        \"scheme\": \"gsiftp\",\n        \"host\": \"gridftp-012345678.tacc\",\n        \"path\": \"/d/twenty-two-bytes.dat\"\n      },\n      \"dest\": {\n        \"scheme\": \"file\",\n        \"host\": \"obelix-nfs-01234567.isi\",\n        \"path\": \"/s/twenty-three-bytes.dat\"\n      },\n      \"action\": {\n        \"Skip\": \"AlreadyInProgress\"\n      },\n      \"streams\": 16,\n      \"group\": 1,\n      \"order\": 2,\n      \"backend\": \"obj-s3\"\n    },\n    {\n      \"id\": 3,\n      \"source\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas中.fits\"\n      },\n      \"dest\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas🦀é.fits\"\n      },\n      \"action\": {\n        \"Skip\": \"AlreadyStaged\"\n      },\n      \"streams\": 24,\n      \"group\": 1,\n      \"order\": 3,\n      \"backend\": \"\\\"q\\\"\\\\b\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{2028}é中🦀\"\n    },\n    {\n      \"id\": 4,\n      \"source\": {\n        \"scheme\": \"gsiftp\",\n        \"host\": \"gridftp-012345678.tacc\",\n        \"path\": \"/d/twenty-two-bytes.dat\"\n      },\n      \"dest\": {\n        \"scheme\": \"file\",\n        \"host\": \"obelix-nfs-01234567.isi\",\n        \"path\": \"/s/twenty-three-bytes.dat\"\n      },\n      \"action\": {\n        \"Skip\": \"DuplicateCleanup\"\n      },\n      \"streams\": 32,\n      \"group\": 2,\n      \"order\": 4,\n      \"backend\": null\n    },\n    {\n      \"id\": 5,\n      \"source\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas中.fits\"\n      },\n      \"dest\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas🦀é.fits\"\n      },\n      \"action\": {\n        \"Skip\": \"ResourceInUse\"\n      },\n      \"streams\": 40,\n      \"group\": 2,\n      \"order\": 5,\n      \"backend\": \"obj-s3\"\n    },\n    {\n      \"id\": 6,\n      \"source\": {\n        \"scheme\": \"gsiftp\",\n        \"host\": \"gridftp-012345678.tacc\",\n        \"path\": \"/d/twenty-two-bytes.dat\"\n      },\n      \"dest\": {\n        \"scheme\": \"file\",\n        \"host\": \"obelix-nfs-01234567.isi\",\n        \"path\": \"/s/twenty-three-bytes.dat\"\n      },\n      \"action\": {\n        \"Skip\": \"SourceQuarantined\"\n      },\n      \"streams\": 48,\n      \"group\": 3,\n      \"order\": 6,\n      \"backend\": \"\\\"q\\\"\\\\b\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{2028}é中🦀\"\n    },\n    {\n      \"id\": 7,\n      \"source\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas中.fits\"\n      },\n      \"dest\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas🦀é.fits\"\n      },\n      \"action\": {\n        \"Skip\": \"SourceHostDown\"\n      },\n      \"streams\": 56,\n      \"group\": 3,\n      \"order\": 7,\n      \"backend\": null\n    }\n  ]\n}",
    );
}

#[test]
fn golden_cleanup_response_every_action() {
    golden(
        &CleanupResponseEnvelope { advice: every_cleanup_action() },
        "{\"advice\":[{\"id\":0,\"file\":{\"scheme\":\"file\",\"host\":\"obelix-nfs-01234567.isi\",\"path\":\"/s/twenty-three-bytes.dat\"},\"action\":\"Execute\"},{\"id\":1,\"file\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas中.fits\"},\"action\":{\"Skip\":\"DuplicateInBatch\"}},{\"id\":2,\"file\":{\"scheme\":\"file\",\"host\":\"obelix-nfs-01234567.isi\",\"path\":\"/s/twenty-three-bytes.dat\"},\"action\":{\"Skip\":\"AlreadyInProgress\"}},{\"id\":3,\"file\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas中.fits\"},\"action\":{\"Skip\":\"AlreadyStaged\"}},{\"id\":4,\"file\":{\"scheme\":\"file\",\"host\":\"obelix-nfs-01234567.isi\",\"path\":\"/s/twenty-three-bytes.dat\"},\"action\":{\"Skip\":\"DuplicateCleanup\"}},{\"id\":5,\"file\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas中.fits\"},\"action\":{\"Skip\":\"ResourceInUse\"}},{\"id\":6,\"file\":{\"scheme\":\"file\",\"host\":\"obelix-nfs-01234567.isi\",\"path\":\"/s/twenty-three-bytes.dat\"},\"action\":{\"Skip\":\"SourceQuarantined\"}},{\"id\":7,\"file\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas中.fits\"},\"action\":{\"Skip\":\"SourceHostDown\"}}]}",
        "{\n  \"advice\": [\n    {\n      \"id\": 0,\n      \"file\": {\n        \"scheme\": \"file\",\n        \"host\": \"obelix-nfs-01234567.isi\",\n        \"path\": \"/s/twenty-three-bytes.dat\"\n      },\n      \"action\": \"Execute\"\n    },\n    {\n      \"id\": 1,\n      \"file\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas中.fits\"\n      },\n      \"action\": {\n        \"Skip\": \"DuplicateInBatch\"\n      }\n    },\n    {\n      \"id\": 2,\n      \"file\": {\n        \"scheme\": \"file\",\n        \"host\": \"obelix-nfs-01234567.isi\",\n        \"path\": \"/s/twenty-three-bytes.dat\"\n      },\n      \"action\": {\n        \"Skip\": \"AlreadyInProgress\"\n      }\n    },\n    {\n      \"id\": 3,\n      \"file\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas中.fits\"\n      },\n      \"action\": {\n        \"Skip\": \"AlreadyStaged\"\n      }\n    },\n    {\n      \"id\": 4,\n      \"file\": {\n        \"scheme\": \"file\",\n        \"host\": \"obelix-nfs-01234567.isi\",\n        \"path\": \"/s/twenty-three-bytes.dat\"\n      },\n      \"action\": {\n        \"Skip\": \"DuplicateCleanup\"\n      }\n    },\n    {\n      \"id\": 5,\n      \"file\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas中.fits\"\n      },\n      \"action\": {\n        \"Skip\": \"ResourceInUse\"\n      }\n    },\n    {\n      \"id\": 6,\n      \"file\": {\n        \"scheme\": \"file\",\n        \"host\": \"obelix-nfs-01234567.isi\",\n        \"path\": \"/s/twenty-three-bytes.dat\"\n      },\n      \"action\": {\n        \"Skip\": \"SourceQuarantined\"\n      }\n    },\n    {\n      \"id\": 7,\n      \"file\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas中.fits\"\n      },\n      \"action\": {\n        \"Skip\": \"SourceHostDown\"\n      }\n    }\n  ]\n}",
    );
}

#[test]
fn golden_transfer_request_at_the_inline_limit() {
    golden(
        &TransferRequestEnvelope { transfers: limit_specs() },
        LIMIT_SPECS_JSON,
        "{\n  \"transfers\": [\n    {\n      \"source\": {\n        \"scheme\": \"gsiftp\",\n        \"host\": \"gridftp-012345678.tacc\",\n        \"path\": \"/d/twenty-two-bytes.dat\"\n      },\n      \"dest\": {\n        \"scheme\": \"file\",\n        \"host\": \"obelix-nfs-01234567.isi\",\n        \"path\": \"/s/twenty-three-bytes.dat\"\n      },\n      \"bytes\": 1,\n      \"requested_streams\": null,\n      \"workflow\": 1,\n      \"cluster\": null,\n      \"priority\": null\n    },\n    {\n      \"source\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas中.fits\"\n      },\n      \"dest\": {\n        \"scheme\": \"file\",\n        \"host\": \"\",\n        \"path\": \"/scratch/montage/2mas🦀é.fits\"\n      },\n      \"bytes\": 1,\n      \"requested_streams\": null,\n      \"workflow\": 1,\n      \"cluster\": null,\n      \"priority\": null\n    }\n  ]\n}",
    );
}

#[test]
fn golden_wal_transfer_groups_with_every_escape() {
    golden(
        &wal_with_every_escape(),
        "{\"seq\":8,\"cmd\":{\"EvaluateTransferGroups\":[[{\"source\":{\"scheme\":\"gsiftp\",\"host\":\"gridftp-012345678.tacc\",\"path\":\"/d/twenty-two-bytes.dat\"},\"dest\":{\"scheme\":\"file\",\"host\":\"obelix-nfs-01234567.isi\",\"path\":\"/s/twenty-three-bytes.dat\"},\"bytes\":1,\"requested_streams\":null,\"workflow\":1,\"cluster\":null,\"priority\":null},{\"source\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas中.fits\"},\"dest\":{\"scheme\":\"file\",\"host\":\"\",\"path\":\"/scratch/montage/2mas🦀é.fits\"},\"bytes\":1,\"requested_streams\":null,\"workflow\":1,\"cluster\":null,\"priority\":null}],[{\"source\":{\"scheme\":\"\\\"q\\\"\\\\b\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{2028}é中🦀\",\"host\":\"\\\"q\\\"\\\\b\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{2028}é中🦀\",\"path\":\"/\\\"q\\\"\\\\b\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{2028}é中🦀\"},\"dest\":{\"scheme\":\"file\",\"host\":\"obelix-nfs\",\"path\":\"/scratch/f2.dat\"},\"bytes\":1000000,\"requested_streams\":null,\"workflow\":1,\"cluster\":null,\"priority\":-2147483648}]]}}",
        "{\n  \"seq\": 8,\n  \"cmd\": {\n    \"EvaluateTransferGroups\": [\n      [\n        {\n          \"source\": {\n            \"scheme\": \"gsiftp\",\n            \"host\": \"gridftp-012345678.tacc\",\n            \"path\": \"/d/twenty-two-bytes.dat\"\n          },\n          \"dest\": {\n            \"scheme\": \"file\",\n            \"host\": \"obelix-nfs-01234567.isi\",\n            \"path\": \"/s/twenty-three-bytes.dat\"\n          },\n          \"bytes\": 1,\n          \"requested_streams\": null,\n          \"workflow\": 1,\n          \"cluster\": null,\n          \"priority\": null\n        },\n        {\n          \"source\": {\n            \"scheme\": \"file\",\n            \"host\": \"\",\n            \"path\": \"/scratch/montage/2mas中.fits\"\n          },\n          \"dest\": {\n            \"scheme\": \"file\",\n            \"host\": \"\",\n            \"path\": \"/scratch/montage/2mas🦀é.fits\"\n          },\n          \"bytes\": 1,\n          \"requested_streams\": null,\n          \"workflow\": 1,\n          \"cluster\": null,\n          \"priority\": null\n        }\n      ],\n      [\n        {\n          \"source\": {\n            \"scheme\": \"\\\"q\\\"\\\\b\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{2028}é中🦀\",\n            \"host\": \"\\\"q\\\"\\\\b\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{2028}é中🦀\",\n            \"path\": \"/\\\"q\\\"\\\\b\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{2028}é中🦀\"\n          },\n          \"dest\": {\n            \"scheme\": \"file\",\n            \"host\": \"obelix-nfs\",\n            \"path\": \"/scratch/f2.dat\"\n          },\n          \"bytes\": 1000000,\n          \"requested_streams\": null,\n          \"workflow\": 1,\n          \"cluster\": null,\n          \"priority\": -2147483648\n        }\n      ]\n    ]\n  }\n}",
    );
}

// ---------------------------------------------------------------------------
// 2. Decoding rules
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Probe {
    count: u32,
    name: String,
    #[serde(default)]
    tags: Vec<u8>,
    delta: Option<i64>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(u32),
    Pair(u32, String),
    Named { x: f64, y: Option<bool> },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u32, String);

fn decode<T: Deserialize>(text: &str) -> Result<T, String> {
    serde_json::from_str(text).map_err(|e| e.to_string())
}

fn probe(count: u32, name: &str, tags: &[u8], delta: Option<i64>) -> Probe {
    Probe {
        count,
        name: name.into(),
        tags: tags.to_vec(),
        delta,
    }
}

#[test]
fn whitespace_between_every_token_and_reordered_keys() {
    let text =
        " \t\r\n{ \"delta\" : -5 , \"tags\" : [ 1 , 2 ] , \"name\" : \"n\" , \"count\" : 3 } \n";
    assert_eq!(decode(text), Ok(probe(3, "n", &[1, 2], Some(-5))));
}

#[test]
fn unknown_fields_are_ignored_whatever_their_shape() {
    let text = r#"{"x":{"deep":[1,{"y":null}],"s":"é\n"},"count":1,"z":[],"name":"n","w":-1.5e3}"#;
    assert_eq!(decode(text), Ok(probe(1, "n", &[], None)));
    // ... but their syntax is still checked.
    for bad in [
        r#"{"x":[1,],"count":1,"name":"n"}"#,
        r#"{"x":"\q","count":1,"name":"n"}"#,
        r#"{"x":tru,"count":1,"name":"n"}"#,
        r#"{"x":1-2,"count":1,"name":"n"}"#,
    ] {
        assert!(decode::<Probe>(bad).is_err(), "{bad}");
    }
}

#[test]
fn the_first_duplicate_key_wins() {
    let text = r#"{"count":1,"name":"first","count":2,"name":"second"}"#;
    assert_eq!(decode(text), Ok(probe(1, "first", &[], None)));
    // Later duplicates are not even type-checked, only parsed.
    let text = r#"{"count":1,"name":"n","count":"two","delta":null,"delta":7}"#;
    assert_eq!(decode(text), Ok(probe(1, "n", &[], None)));
}

#[test]
fn absent_and_null_options_are_none_and_defaults_fill_in() {
    assert_eq!(
        decode(r#"{"count":1,"name":"n"}"#),
        Ok(probe(1, "n", &[], None))
    );
    assert_eq!(
        decode(r#"{"count":1,"name":"n","delta":null}"#),
        Ok(probe(1, "n", &[], None))
    );
    // `default` covers absence only: null is not a list.
    assert!(decode::<Probe>(r#"{"count":1,"name":"n","tags":null}"#).is_err());
    let missing = decode::<Probe>(r#"{"name":"n"}"#).unwrap_err();
    assert!(missing.contains("missing field `count`"), "{missing}");
    assert!(decode::<Probe>("[]")
        .unwrap_err()
        .contains("expected object"));
}

#[test]
fn integers_refuse_floats_and_floats_accept_integers() {
    for float in ["1.0", "1e2", "-0.0", "99999999999999999999"] {
        assert!(decode::<u32>(float).is_err(), "{float}");
        assert!(decode::<i64>(float).is_err(), "{float}");
        assert!(decode::<f64>(float).is_ok(), "{float}");
    }
    assert_eq!(decode::<f64>("7"), Ok(7.0));
    assert_eq!(decode::<f32>("-7"), Ok(-7.0));
    assert_eq!(decode::<f64>("18446744073709551615"), Ok(u64::MAX as f64));
}

#[test]
fn integer_ranges_are_exact() {
    assert_eq!(decode::<u64>("18446744073709551615"), Ok(u64::MAX));
    assert_eq!(decode::<i64>("9223372036854775807"), Ok(i64::MAX));
    assert_eq!(decode::<i64>("-9223372036854775808"), Ok(i64::MIN));
    assert_eq!(decode::<u8>("255"), Ok(255));
    assert_eq!(decode::<i8>("-128"), Ok(-128));
    assert!(decode::<i64>("9223372036854775808").is_err());
    assert!(decode::<u64>("-1").is_err());
    assert!(decode::<u8>("256").is_err());
    assert!(decode::<i8>("-129").is_err());
    assert!(decode::<u32>("4294967296").is_err());
    assert_eq!(
        serde_json::to_string(&u64::MAX).unwrap(),
        "18446744073709551615"
    );
    assert_eq!(
        serde_json::to_string(&i64::MIN).unwrap(),
        "-9223372036854775808"
    );
}

#[test]
fn floats_print_shortest_round_trip_and_non_finite_as_null() {
    for (value, text) in [
        (0.1f64, "0.1"),
        (1e8, "100000000"),
        (1.5e9, "1500000000"),
        (-0.000_125, "-0.000125"),
        (1e300, &format!("1{}", "0".repeat(300))),
        (f64::NAN, "null"),
        (f64::INFINITY, "null"),
    ] {
        assert_eq!(serde_json::to_string(&value).unwrap(), text);
    }
    // An f32 widens first, so its decimal expansion is the f64's.
    assert_eq!(
        serde_json::to_string(&0.1f32).unwrap(),
        "0.10000000149011612"
    );
}

#[test]
fn enums_are_externally_tagged_with_exactly_one_key() {
    assert_eq!(decode(r#""Unit""#), Ok(Shape::Unit));
    assert_eq!(decode(r#"{"Newtype":4}"#), Ok(Shape::Newtype(4)));
    assert_eq!(
        decode(r#" { "Pair" : [ 4 , "s" ] } "#),
        Ok(Shape::Pair(4, "s".into()))
    );
    assert_eq!(
        decode(r#"{"Named":{"y":true,"x":2,"extra":0}}"#),
        Ok(Shape::Named {
            x: 2.0,
            y: Some(true)
        })
    );
    for bad in [
        r#"{}"#,
        r#"{"Newtype":4,"Newtype":4}"#,
        r#"{"Newtype":4,"Unit":null}"#,
        r#"{"Unit":null}"#,
        r#""Newtype""#,
        r#""Nope""#,
        r#"{"Nope":1}"#,
        r#"{"Named":{"y":true}}"#,
        r#"["Unit"]"#,
        "4",
        "null",
    ] {
        assert!(decode::<Shape>(bad).is_err(), "{bad}");
    }
    assert_eq!(serde_json::to_string(&Shape::Unit).unwrap(), r#""Unit""#);
    assert_eq!(
        serde_json::to_string(&Shape::Pair(4, "s".into())).unwrap(),
        r#"{"Pair":[4,"s"]}"#
    );
    assert_eq!(
        serde_json::to_string_pretty(&Shape::Named { x: 0.5, y: None }).unwrap(),
        "{\n  \"Named\": {\n    \"x\": 0.5,\n    \"y\": null\n  }\n}"
    );
}

#[test]
fn tuples_have_exact_arity() {
    assert_eq!(decode(r#"[1,"a"]"#), Ok(Pair(1, "a".into())));
    for bad in [r#"[]"#, r#"[1]"#, r#"[1,"a",2]"#, r#"{"0":1,"1":"a"}"#] {
        assert!(decode::<Pair>(bad).is_err(), "{bad}");
    }
    assert!(decode::<Shape>(r#"{"Pair":[4]}"#).is_err());
    assert!(decode::<Shape>(r#"{"Pair":[4,"s",0]}"#).is_err());
    assert_eq!(
        serde_json::to_string(&Pair(1, "a".into())).unwrap(),
        r#"[1,"a"]"#
    );
}

#[test]
fn trailing_characters_and_truncated_bodies_are_refused() {
    let whole = r#"{"count":1,"name":"n","tags":[1,2],"delta":3}"#;
    assert!(decode::<Probe>(whole).is_ok());
    assert!(decode::<Probe>(&format!("{whole} \n")).is_ok());
    for junk in ["x", "{}", ",", "]", "\u{0}"] {
        let refused = decode::<Probe>(&format!("{whole}{junk}")).unwrap_err();
        assert!(
            refused.contains("trailing characters"),
            "{junk:?}: {refused}"
        );
    }
    for cut in 0..whole.len() {
        assert!(decode::<Probe>(&whole[..cut]).is_err(), "{}", &whole[..cut]);
    }
}

#[test]
fn the_whole_body_must_be_utf8() {
    // The bad byte sits in a value no field reads.
    let mut body = br#"{"count":1,"name":"n","ignored":"#.to_vec();
    body.extend_from_slice(b"\"\xff\"}");
    let refused = serde_json::from_slice::<Probe>(&body)
        .unwrap_err()
        .to_string();
    assert!(refused.contains("invalid utf-8"), "{refused}");
}

#[test]
fn a_syntax_error_anywhere_wins_over_a_type_error() {
    // `count` has the wrong type at byte 9; the document breaks at byte 36.
    let both = r#"{"count":"three","name":"n","tags":[1 2]}"#;
    let refused = decode::<Probe>(both).unwrap_err();
    assert!(
        refused.contains("expected `,` or `]` at byte 38"),
        "{refused}"
    );
    // With the syntax repaired, the type error is what remains.
    let typed = r#"{"count":"three","name":"n","tags":[1,2]}"#;
    assert_eq!(decode::<Probe>(typed).unwrap_err(), "expected integer");
    // Same for a refused enum and a short tuple in front of the damage.
    let refused = decode::<Vec<Shape>>(r#"["Nope",{"Pair":[1]},"#).unwrap_err();
    assert!(refused.contains("unexpected end of input"), "{refused}");
}

#[test]
fn escapes_decode_and_surrogate_pairs_combine() {
    assert_eq!(
        decode::<String>(r#""\"\\\/\b\f\n\r\tAé中""#),
        Ok("\"\\/\u{8}\u{c}\n\r\tAé中".to_string())
    );
    // How Python's json.dumps spells U+1F600.
    assert_eq!(
        decode::<String>(r#""\ud83d\ude00""#),
        Ok("\u{1f600}".to_string())
    );
    assert_eq!(
        decode::<String>(r#""a\uD83D\uDE00b""#),
        Ok("a\u{1f600}b".to_string())
    );
    let envelope: CleanupRequestEnvelope = serde_json::from_str(
        r#"{"cleanups":[{"file":{"scheme":"file","host":"isi","path":"/s/\ud83e\udd80.dat"},"workflow":1}]}"#,
    )
    .unwrap();
    assert_eq!(envelope.cleanups[0].file.path, "/s/🦀.dat");
    for lone in [
        r#""\ud83d""#,
        r#""\ud83d rest""#,
        r#""\ud83d\n""#,
        r#""\ud83dA""#,
        r#""\ud83d\ud83d""#,
        r#""\ude00""#,
        r#""\ude00\ud83d""#,
    ] {
        assert!(decode::<String>(lone).is_err(), "{lone}");
    }
    for bad in [r#""\u12""#, r#""\u12g4""#, r#""\x41""#, r#""open"#, r#""\"#] {
        assert!(decode::<String>(bad).is_err(), "{bad}");
    }
}

#[test]
fn nesting_is_capped_in_typed_reads_and_in_skipped_values() {
    let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    let objects = |depth: usize| "{\"k\":".repeat(depth) + "0" + &"}".repeat(depth);
    // Skipped: the nested value is an unknown field, one level down already.
    for nested in [arrays(127), objects(127)] {
        let text = format!(r#"{{"count":1,"name":"n","ignored":{nested}}}"#);
        assert_eq!(decode(&text), Ok(probe(1, "n", &[], None)));
    }
    for nested in [arrays(128), objects(128)] {
        let text = format!(r#"{{"count":1,"name":"n","ignored":{nested}}}"#);
        let refused = decode::<Probe>(&text).unwrap_err();
        assert!(refused.contains("nesting deeper than 128"), "{refused}");
    }
    // Typed: nothing in the workspace nests 128 deep, so read through a
    // type that does — a list of lists of ... — by hand.
    #[derive(Debug, PartialEq)]
    struct Deep(usize);
    impl Deserialize for Deep {
        fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
            r.begin_array()?;
            let mut depth = 1;
            while r.array_next()? {
                depth += Deep::deserialize(r)?.0;
            }
            Ok(Deep(depth))
        }
    }
    assert_eq!(decode(&arrays(128)), Ok(Deep(128)));
    assert!(decode::<Deep>(&arrays(129))
        .unwrap_err()
        .contains("nesting deeper than 128"));
    // Unclosed and far beyond the cap: refused at the cap, without recursing
    // to the end of the input first.
    assert!(decode::<Deep>(&"[".repeat(100_000))
        .unwrap_err()
        .contains("nesting deeper than 128"));
    assert!(decode::<Probe>(&"{\"count\":".repeat(100_000)).is_err());
}

// ---------------------------------------------------------------------------
// 3. Round trips
// ---------------------------------------------------------------------------

/// Quotes, backslashes, control bytes, and 2-, 3- and 4-byte UTF-8.
fn arb_string() -> impl Strategy<Value = String> {
    const PALETTE: &[char] = &[
        'a',
        'Z',
        '/',
        '.',
        ' ',
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        'é',
        '中',
        '\u{2028}',
        '🦀',
        '\u{10ffff}',
    ];
    proptest::collection::vec(
        any::<u8>().prop_map(|b| PALETTE[usize::from(b) % PALETTE.len()]),
        0..16,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn arb_url() -> impl Strategy<Value = Url> {
    (arb_string(), arb_string(), arb_string()).prop_map(|(scheme, host, path)| Url {
        scheme: scheme.into(),
        host: host.into(),
        path: path.into(),
    })
}

fn arb_reason() -> impl Strategy<Value = Option<SuppressReason>> {
    const REASONS: &[Option<SuppressReason>] = &[
        None,
        Some(SuppressReason::DuplicateInBatch),
        Some(SuppressReason::AlreadyInProgress),
        Some(SuppressReason::AlreadyStaged),
        Some(SuppressReason::DuplicateCleanup),
        Some(SuppressReason::ResourceInUse),
        Some(SuppressReason::SourceQuarantined),
        Some(SuppressReason::SourceHostDown),
    ];
    any::<u8>().prop_map(|b| REASONS[usize::from(b) % REASONS.len()])
}

fn arb_spec() -> impl Strategy<Value = TransferSpec> {
    (
        (arb_url(), arb_url(), any::<u64>()),
        (
            proptest::option::of(any::<u32>()),
            any::<u64>(),
            proptest::option::of(any::<u32>()),
            proptest::option::of(any::<i32>()),
        ),
    )
        .prop_map(
            |((source, dest, bytes), (requested_streams, workflow, cluster, priority))| {
                TransferSpec {
                    source,
                    dest,
                    bytes,
                    requested_streams,
                    workflow: WorkflowId(workflow),
                    cluster: cluster.map(ClusterId),
                    priority,
                }
            },
        )
}

fn arb_advice() -> impl Strategy<Value = TransferAdvice> {
    (
        (any::<u64>(), arb_url(), arb_url(), arb_reason()),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u32>(),
            proptest::option::of(arb_string()),
        ),
    )
        .prop_map(
            |((id, source, dest, reason), (streams, group, order, backend))| TransferAdvice {
                id: TransferId(id),
                source,
                dest,
                action: reason.map_or(TransferAction::Execute, TransferAction::Skip),
                streams,
                group: GroupId(group),
                order,
                backend,
            },
        )
}

fn arb_cleanup_advice() -> impl Strategy<Value = CleanupAdvice> {
    (any::<u64>(), arb_url(), arb_reason()).prop_map(|(id, file, reason)| CleanupAdvice {
        id: CleanupId(id),
        file,
        action: reason.map_or(CleanupAction::Execute, CleanupAction::Skip),
    })
}

fn round_trip<T: Serialize + Deserialize + PartialEq + Debug>(value: &T) {
    let compact = serde_json::to_vec(value).unwrap();
    assert_eq!(&serde_json::from_slice::<T>(&compact).unwrap(), value);
    let pretty = serde_json::to_string_pretty(value).unwrap();
    assert_eq!(&serde_json::from_str::<T>(&pretty).unwrap(), value);
}

proptest! {
    #[test]
    fn transfer_requests_round_trip(transfers in proptest::collection::vec(arb_spec(), 0..4)) {
        round_trip(&TransferRequestEnvelope { transfers });
    }

    #[test]
    fn transfer_responses_round_trip(advice in proptest::collection::vec(arb_advice(), 0..4)) {
        round_trip(&TransferResponseEnvelope { advice });
    }

    #[test]
    fn cleanup_responses_round_trip(advice in proptest::collection::vec(arb_cleanup_advice(), 0..6)) {
        round_trip(&CleanupResponseEnvelope { advice });
    }

    /// Arbitrary bytes are decoded or refused, never a panic or a hang.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = serde_json::from_slice::<TransferRequestEnvelope>(&bytes);
        const JSONISH: &[u8] = b"{}[]\",:\\u0dtrfn-1.e ";
        let jsonish: Vec<u8> = bytes.iter().map(|b| JSONISH[usize::from(*b) % JSONISH.len()]).collect();
        let _ = serde_json::from_slice::<TransferRequestEnvelope>(&jsonish);
        let _ = serde_json::from_slice::<Vec<Shape>>(&jsonish);
    }
}

// ---------------------------------------------------------------------------
// 4. URL fields around the 22-byte inline limit of `pwm_core::Name`
// ---------------------------------------------------------------------------

/// A 22-byte host (the longest held inline) staging to a 23-byte one (the
/// shortest held shared); an empty host; and a path whose three-byte
/// character straddles byte 22. What crosses the wire is the text, whatever
/// holds it: the literals are what a `String`-field `Url` encoded to.
fn limit_specs() -> Vec<TransferSpec> {
    let spec = |source: Url, dest: Url| TransferSpec {
        source,
        dest,
        bytes: 1,
        requested_streams: None,
        workflow: WorkflowId(1),
        cluster: None,
        priority: None,
    };
    vec![
        spec(
            url(
                "gsiftp",
                "gridftp-012345678.tacc",
                "/d/twenty-two-bytes.dat",
            ),
            url(
                "file",
                "obelix-nfs-01234567.isi",
                "/s/twenty-three-bytes.dat",
            ),
        ),
        spec(
            url("file", "", "/scratch/montage/2mas中.fits"),
            url("file", "", "/scratch/montage/2mas🦀é.fits"),
        ),
    ]
}

const LIMIT_SPECS_JSON: &str = r#"{"transfers":[{"source":{"scheme":"gsiftp","host":"gridftp-012345678.tacc","path":"/d/twenty-two-bytes.dat"},"dest":{"scheme":"file","host":"obelix-nfs-01234567.isi","path":"/s/twenty-three-bytes.dat"},"bytes":1,"requested_streams":null,"workflow":1,"cluster":null,"priority":null},{"source":{"scheme":"file","host":"","path":"/scratch/montage/2mas中.fits"},"dest":{"scheme":"file","host":"","path":"/scratch/montage/2mas🦀é.fits"},"bytes":1,"requested_streams":null,"workflow":1,"cluster":null,"priority":null}]}"#;

#[test]
fn url_fields_at_the_inline_limit_cross_every_codec_unchanged() {
    let transfers = limit_specs();
    assert_eq!(transfers[0].source.host.len(), 22);
    assert_eq!(transfers[0].source.path.len(), 23);
    assert_eq!(transfers[0].dest.host.len(), 23);
    assert!(!transfers[1].source.path.is_char_boundary(22));
    assert!(!transfers[1].dest.path.is_char_boundary(22));

    // Derived serde, both directions.
    let envelope = TransferRequestEnvelope {
        transfers: transfers.clone(),
    };
    assert_eq!(serde_json::to_string(&envelope).unwrap(), LIMIT_SPECS_JSON);
    assert_eq!(
        serde_json::from_str::<TransferRequestEnvelope>(LIMIT_SPECS_JSON).unwrap(),
        envelope
    );
    round_trip(&envelope);

    // The fast codec: same specs in, same bytes out as the derive.
    assert_eq!(
        fastjson::parse_transfer_request(LIMIT_SPECS_JSON.as_bytes()),
        Some(transfers.clone())
    );
    let advice: Vec<TransferAdvice> = transfers
        .iter()
        .enumerate()
        .map(|(i, t)| TransferAdvice {
            id: TransferId(i as u64),
            source: t.source.clone(),
            dest: t.dest.clone(),
            action: TransferAction::Execute,
            streams: 4,
            group: GroupId(1),
            order: i as u32,
            backend: None,
        })
        .collect();
    assert_eq!(
        fastjson::render_transfer_response(&advice),
        serde_json::to_vec(&TransferResponseEnvelope {
            advice: advice.clone()
        })
        .unwrap()
    );

    // XML carries a URL as its display form.
    let text = xml::transfer_request_to_xml(&transfers);
    assert!(text.contains("gsiftp://gridftp-012345678.tacc/d/twenty-two-bytes.dat"));
    assert!(text.contains("file:///scratch/montage/2mas🦀é.fits"));
    assert_eq!(xml::transfer_request_from_xml(&text).unwrap(), transfers);
    let text = xml::transfer_response_to_xml(&advice);
    assert_eq!(xml::transfer_response_from_xml(&text).unwrap(), advice);
}

// ---------------------------------------------------------------------------
// 5. Heads two ends could frame differently (RFC 9112 §6.3)
// ---------------------------------------------------------------------------

/// A keep-alive connection frames each message by its Content-Length, so a
/// head whose length is ambiguous is refused: guessing would hand its body,
/// or part of it, to the next request.
fn refused(head: &str) -> bool {
    let wire = format!("{head}\r\n\r\nabcde");
    matches!(
        http::try_parse_request(wire.as_bytes(), 1 << 20),
        Err(HttpError::Malformed(_))
    )
}

#[test]
fn conflicting_content_lengths_are_refused() {
    assert!(refused(
        "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5"
    ));
}

#[test]
fn a_content_length_with_a_sign_is_refused() {
    assert!(refused("POST /x HTTP/1.1\r\nContent-Length: +3"));
}

#[test]
fn whitespace_before_a_field_colon_is_refused() {
    assert!(refused("POST /x HTTP/1.1\r\nContent-Length : 5"));
}

#[test]
fn any_transfer_encoding_is_refused() {
    assert!(refused("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked"));
}

#[test]
fn a_response_with_a_signed_or_conflicting_length_is_refused() {
    for head in [
        "HTTP/1.1 200 OK\r\nContent-Length: +2",
        "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3",
    ] {
        let wire = format!("{head}\r\n\r\n{{}}x");
        assert!(http::try_parse_response(wire.as_bytes()).is_err(), "{head}");
    }
}

/// The client refuses a response it cannot frame as an I/O error, like a
/// broken connection, rather than reading a body of a length it guessed.
#[test]
fn the_client_reports_a_signed_response_length_as_an_io_error() {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut buf = Vec::new();
        while http::try_parse_request(&buf, 1 << 20).unwrap().is_none() {
            let mut chunk = [0u8; 4096];
            let n = conn.read(&mut chunk).unwrap();
            buf.extend_from_slice(&chunk[..n]);
        }
        conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: +13\r\n\r\n{\"advice\":[]}")
            .unwrap();
    });
    let mut client = PolicyRestClient::new(addr, DEFAULT_SESSION);
    let err = client.evaluate_transfers(vec![plain_spec()]).unwrap_err();
    assert!(matches!(err, TransportError::Io(_)), "{err:?}");
    stub.join().unwrap();
}
