//! Integration: the on-disk format, pinned.
//!
//! `tests/data/durable_format/` holds the `snapshot.bin` and `wal.log`
//! that the durability layer wrote for [`script`] before it wrote through
//! the `Disk` seam. Two checks hold that format still:
//!
//! 1. **Old files recover.** [`FsDisk`] recovery of the committed files
//!    equals the live state of the script.
//! 2. **Same bytes.** This tree, on the real filesystem, writes those
//!    files byte for byte.

use pwm_core::durable::{SNAPSHOT_FILE, WAL_FILE};
use pwm_core::{
    CleanupOutcome, CleanupSpec, DurabilityConfig, FsDisk, HealthEvent, PolicyConfig,
    PolicyService, TransferOutcome, TransferSpec, Url, WorkflowId,
};
use std::path::{Path, PathBuf};

fn spec(n: u64, src: &str) -> TransferSpec {
    TransferSpec {
        source: Url::new("gsiftp", src, format!("/data/f{n}")),
        dest: Url::new("file", "wn", format!("/scratch/f{n}")),
        bytes: n * 1_000,
        requested_streams: None,
        workflow: WorkflowId(1),
        cluster: None,
        priority: None,
    }
}

/// Seven commands, one of each `WalCommand`, compacting every four: the
/// snapshot holds the first four, the log the last three.
fn script(dir: &Path) -> PolicyService {
    let mut svc = PolicyService::new(PolicyConfig::default());
    svc.enable_durability(DurabilityConfig::new(dir).with_snapshot_every(4))
        .unwrap();
    let first = svc.evaluate_transfers(vec![spec(1, "a"), spec(2, "a"), spec(1, "a")]);
    svc.evaluate_transfer_groups(vec![vec![spec(3, "b")], vec![spec(4, "b"), spec(2, "a")]]);
    svc.report_transfers(vec![
        TransferOutcome {
            id: first[0].id,
            success: true,
        },
        TransferOutcome {
            id: first[1].id,
            success: false,
        },
    ]);
    svc.report_health(vec![HealthEvent::HostDown { host: "c".into() }]);
    let cleaned = svc.evaluate_cleanups(vec![CleanupSpec {
        file: spec(1, "a").dest,
        workflow: WorkflowId(1),
    }]);
    svc.report_cleanups(vec![CleanupOutcome {
        id: cleaned[0].id,
        success: true,
    }]);
    svc.set_config(PolicyConfig::default().with_threshold(20));
    svc
}

fn committed() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/durable_format")
}

#[test]
fn committed_files_recover_and_this_tree_writes_them_byte_for_byte() {
    let dir = FsDisk::scratch_dir("durable-format");
    let live = script(&dir);

    let recovered = PolicyService::recover_from(&FsDisk::default(), &committed()).unwrap();
    // A recovered service does not log, so it stamps no applied sequence.
    let mut state = live.durable_state();
    state.applied_seq = 0;
    assert_eq!(recovered.durable_state(), state);
    assert_eq!(recovered.snapshot(), live.snapshot());

    for file in [SNAPSHOT_FILE, WAL_FILE] {
        let written = std::fs::read(dir.join(file)).unwrap();
        let pinned = std::fs::read(committed().join(file)).unwrap();
        assert!(written == pinned, "{file}: this tree writes other bytes");
    }
    std::fs::remove_dir_all(&dir).ok();
}
