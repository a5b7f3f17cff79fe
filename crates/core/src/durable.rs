//! Crash-consistent persistence for policy memory.
//!
//! The durability layer is a classic redo scheme. Every *input* that
//! mutates a session — transfer/cleanup evaluation batches, outcome
//! reports, health reports, config changes — is appended to a write-ahead
//! log before it is applied, and a full [`DurableState`] snapshot is
//! written every `snapshot_every` appends, after which the log is
//! compacted. Because the rule engine is deterministic, replaying the
//! surviving log suffix over the last snapshot reproduces the pre-crash
//! policy memory exactly: `PartialEq`-identical facts, assigned ids,
//! allocation ledgers, stats, and audit numbering.
//!
//! On-disk format: frames of `[len: u32 LE][crc32: u32 LE][payload]`,
//! where the payload is the `serde_json` encoding of a [`WalRecord`] (in
//! `wal.log`) or a [`DurableState`] (in `snapshot.bin`, written via
//! `snapshot.tmp` + rename); the frame and its CRC are this module's own
//! code. Recovery reads the longest valid frame prefix and discards a
//! torn or corrupt tail — the torn-tail rule: a crash may lose the last
//! in-flight command, but never corrupts the recovered state and never
//! panics on garbage.
//!
//! [`Durability`] decides what to write and writes it through a
//! [`Disk`]: [`crate::FsDisk`] in production, [`crate::SimDisk`] where a
//! test or a scenario scripts a disk failure. A disk failure of any kind
//! — `ENOSPC`, a failed sync, a torn write, a scripted death — has one
//! meaning: the first error freezes the sink, and from the call that met
//! it on, its session is down.

use crate::advice::{CleanupOutcome, TransferOutcome};
use crate::audit::AuditRecord;
use crate::config::PolicyConfig;
use crate::disk::{Disk, FsDisk};
use crate::model::{
    BackendDownFact, BackendLoadFact, CleanupFact, CleanupSpec, ClusterAllocFact, HealthEvent,
    HostDownFact, HostPairFact, ResourceFact, StagedOnFact, SuspectReplicaFact, TransferFact,
    TransferSpec,
};
use crate::service::{MemorySnapshot, ServiceStats};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// Log file name inside a durability directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside a durability directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Temporary snapshot name; renamed over [`SNAPSHOT_FILE`] once complete.
pub const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Upper bound on one frame's payload. A torn length field read as garbage
/// would otherwise ask the reader to allocate gigabytes; anything larger
/// than this is treated as corruption.
pub const MAX_FRAME: usize = 64 << 20;

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven and built at
/// compile time so the codec stays dependency-free.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

/// CRC-32 checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Wrap `payload` in a `[len][crc32][payload]` frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decode the longest valid frame prefix of `bytes`.
///
/// Returns the payloads in order plus the byte length of the valid prefix;
/// decoding stops (without error) at the first short header, impossible
/// length, truncated payload, or checksum mismatch. This is the torn-tail
/// rule as a pure function, so it can be property-tested without touching
/// the filesystem.
pub fn decode_frames(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + 8) {
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_FRAME {
            break;
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        payloads.push(payload);
        pos += 8 + len;
    }
    (payloads, pos)
}

/// One logged mutation: the service's input, not its rule firings. Replay
/// feeds these back through the deterministic engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WalCommand {
    /// A transfer-request batch was evaluated.
    EvaluateTransfers(Vec<TransferSpec>),
    /// Several pipelined transfer-request groups were evaluated in one
    /// rules pass (the event loop's batched advice path). Logged as a
    /// single command so replay reproduces the same single `fire_all`
    /// and therefore identical engine statistics.
    EvaluateTransferGroups(Vec<Vec<TransferSpec>>),
    /// Transfer outcomes were reported.
    ReportTransfers(Vec<TransferOutcome>),
    /// A cleanup-request batch was evaluated.
    EvaluateCleanups(Vec<CleanupSpec>),
    /// Cleanup outcomes were reported.
    ReportCleanups(Vec<CleanupOutcome>),
    /// The session configuration was replaced.
    SetConfig(PolicyConfig),
    /// Infrastructure health observations were reported (recovery family).
    ReportHealth(Vec<HealthEvent>),
}

/// A sequence-numbered log record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Monotone sequence number, 1-based; records at or below a snapshot's
    /// `applied_seq` are already folded into that snapshot.
    pub seq: u64,
    /// The logged command.
    pub cmd: WalCommand,
}

/// One fact of policy memory, tagged by type. Snapshots store all facts as
/// a single interleaved list in global insertion (handle) order, because
/// working-memory iteration order — which advice ordering observes — is
/// insertion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DurableFact {
    /// A transfer lifecycle fact.
    Transfer(TransferFact),
    /// A staged-file resource fact.
    Resource(ResourceFact),
    /// A cleanup lifecycle fact.
    Cleanup(CleanupFact),
    /// A host-pair allocation ledger fact.
    HostPair(HostPairFact),
    /// A per-cluster allocation ledger fact (balanced policy).
    ClusterAlloc(ClusterAllocFact),
    /// A file-landed-on-backend fact (storage policy family).
    StagedOn(StagedOnFact),
    /// A per-backend allocation ledger fact (storage policy family).
    BackendLoad(BackendLoadFact),
    /// A down-host fact (recovery family).
    HostDown(HostDownFact),
    /// A down-backend fact (recovery family).
    BackendDown(BackendDownFact),
    /// A suspect-replica fact (recovery family).
    SuspectReplica(SuspectReplicaFact),
}

/// The complete serializable state of one policy session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurableState {
    /// Highest log sequence number whose effects this state includes
    /// (0 = none; log replay starts at `applied_seq + 1`).
    pub applied_seq: u64,
    /// Session configuration in force.
    pub config: PolicyConfig,
    /// Next transfer id to assign.
    pub next_transfer: u64,
    /// Next cleanup id to assign.
    pub next_cleanup: u64,
    /// Next group id to mint.
    pub next_group: u64,
    /// Monitoring counters.
    pub stats: ServiceStats,
    /// Audit-ring capacity.
    pub audit_capacity: usize,
    /// Audit sequence counter (so numbering resumes, not restarts).
    pub audit_next_seq: u64,
    /// Retained audit records, oldest first.
    pub audit_records: Vec<AuditRecord>,
    /// All facts, in global insertion order.
    pub facts: Vec<DurableFact>,
    /// Monitoring summary at snapshot time; recovery re-derives it from
    /// the restored facts as an integrity cross-check.
    pub summary: MemorySnapshot,
}

/// Where and how a session persists itself.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding `wal.log` and `snapshot.bin` (created on enable).
    pub dir: PathBuf,
    /// Appends between snapshots (log compaction period).
    pub snapshot_every: u64,
    /// The disk `dir` is on.
    disk: Box<dyn Disk>,
}

impl DurabilityConfig {
    /// Durability in `dir` on the real filesystem, with the default
    /// compaction period.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig::on(FsDisk::default(), dir)
    }

    /// Durability in `dir` on `disk`, with the default compaction period.
    pub fn on(disk: impl Disk + 'static, dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            snapshot_every: 64,
            disk: Box::new(disk),
        }
    }

    /// Builder-style: snapshot (and compact the log) every `n` appends.
    pub fn with_snapshot_every(mut self, n: u64) -> Self {
        self.snapshot_every = n.max(1);
        self
    }

    /// The disk `dir` is on.
    pub fn disk(&self) -> &dyn Disk {
        &*self.disk
    }
}

/// What a [`Durability`] sink has written since it was opened: exact
/// counts, read-only, that price the durable path.
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableCounts {
    /// Log records appended whole.
    pub appends: u64,
    /// Syncs, on the log and on snapshot files.
    pub fsyncs: u64,
    /// Snapshots installed, the base one `create` writes included.
    pub snapshots: u64,
    /// Bytes written, log and snapshot files together.
    pub bytes_written: u64,
}

/// The append/snapshot sink owned by a durable [`crate::PolicyService`].
///
/// The first error from its disk, whatever its cause, takes the sink
/// down: from then on every call fails without touching the disk, so the
/// log ends where the failure left it. The service reports its session
/// down from that call on.
pub struct Durability {
    disk: Box<dyn Disk>,
    files: Files,
    snapshot_every: u64,
    next_seq: u64,
    counts: DurableCounts,
    since_snapshot: u64,
    down: bool,
}

/// The three files of a durability directory.
struct Files {
    wal: PathBuf,
    tmp: PathBuf,
    snapshot: PathBuf,
}

impl Durability {
    /// Open the sink in `cfg.dir`, writing `state` as the base snapshot
    /// and starting an empty log — so a recovery directory always holds a
    /// snapshot, even if the process dies before the first append.
    pub fn create(cfg: DurabilityConfig, state: &DurableState) -> io::Result<Durability> {
        let DurabilityConfig {
            dir,
            snapshot_every,
            mut disk,
        } = cfg;
        disk.create_dir_all(&dir)?;
        let mut d = Durability {
            disk,
            files: Files {
                wal: dir.join(WAL_FILE),
                tmp: dir.join(SNAPSHOT_TMP),
                snapshot: dir.join(SNAPSHOT_FILE),
            },
            snapshot_every,
            next_seq: state.applied_seq + 1,
            counts: DurableCounts::default(),
            since_snapshot: 0,
            down: false,
        };
        d.write_snapshot(state)?;
        Ok(d)
    }

    /// Sequence number the next [`WalRecord`] must carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// What this sink has written so far.
    pub fn counts(&self) -> DurableCounts {
        self.counts
    }

    /// True once a disk operation has failed (the sink writes no more).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// True when a snapshot is due after the current command's effects
    /// have been applied.
    pub fn snapshot_pending(&self) -> bool {
        !self.down && self.since_snapshot >= self.snapshot_every
    }

    /// Append one record to the log and sync it (write-ahead: callers log
    /// *before* applying).
    pub fn append(&mut self, record: &WalRecord) -> io::Result<()> {
        let frame =
            self.io(|_, _| Ok(encode_frame(&serde_json::to_vec(record).map_err(to_io)?)))?;
        self.io(|d, f| d.append(&f.wal, &frame))?;
        self.counts.bytes_written += frame.len() as u64;
        self.io(|d, f| d.sync(&f.wal))?;
        self.counts.fsyncs += 1;
        self.counts.appends += 1;
        self.next_seq = record.seq + 1;
        self.since_snapshot += 1;
        Ok(())
    }

    /// Write `state` as the new base snapshot and compact the log:
    /// `snapshot.tmp` → sync → rename over `snapshot.bin` → truncate
    /// `wal.log`. A death before the rename leaves the old snapshot and the
    /// whole log; one between rename and truncate leaves the new snapshot
    /// and a log whose records replay skips (`seq <= applied_seq`).
    pub fn write_snapshot(&mut self, state: &DurableState) -> io::Result<()> {
        let frame = self.io(|_, _| Ok(encode_frame(&serde_json::to_vec(state).map_err(to_io)?)))?;
        self.io(|d, f| d.write_new(&f.tmp, &frame))?;
        self.counts.bytes_written += frame.len() as u64;
        self.io(|d, f| d.sync(&f.tmp))?;
        self.counts.fsyncs += 1;
        self.io(|d, f| d.rename(&f.tmp, &f.snapshot))?;
        self.counts.snapshots += 1;
        self.io(|d, f| d.truncate(&f.wal))?;
        self.since_snapshot = 0;
        Ok(())
    }

    /// Run one disk operation (or a frame's encoding), unless an earlier
    /// one failed; its error takes the sink down.
    fn io<T>(&mut self, op: impl FnOnce(&mut dyn Disk, &Files) -> io::Result<T>) -> io::Result<T> {
        if self.down {
            return Err(io::Error::other("durability sink is down"));
        }
        let out = op(&mut *self.disk, &self.files);
        self.down = out.is_err();
        out
    }
}

/// What [`read_recovery`] found in a durability directory.
#[derive(Debug)]
pub struct Recovered {
    /// The last durable snapshot.
    pub state: DurableState,
    /// Log records to replay (`seq > state.applied_seq`), oldest first.
    pub records: Vec<WalRecord>,
    /// Bytes of torn/corrupt log tail that were discarded.
    pub discarded_bytes: usize,
}

/// Read a durability directory on `disk`: the snapshot plus the surviving
/// log suffix. Errors only on a missing/unreadable snapshot or an I/O
/// failure; log corruption truncates, never fails. A `snapshot.tmp` is
/// never read: until its rename it is not the snapshot.
pub fn read_recovery(disk: &dyn Disk, dir: &Path) -> io::Result<Recovered> {
    let snap_bytes = disk.read(&dir.join(SNAPSHOT_FILE))?;
    let (snap_frames, _) = decode_frames(&snap_bytes);
    let Some(snap_payload) = snap_frames.first() else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "snapshot file holds no valid frame",
        ));
    };
    let state: DurableState = serde_json::from_slice(snap_payload).map_err(to_io)?;

    let wal_bytes = match disk.read(&dir.join(WAL_FILE)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let (frames, valid_len) = decode_frames(&wal_bytes);
    let mut records = Vec::new();
    for payload in frames {
        // A checksummed frame that fails to decode is treated like a torn
        // tail: keep the prefix, drop the rest.
        let Ok(record) = serde_json::from_slice::<WalRecord>(payload) else {
            break;
        };
        if record.seq > state.applied_seq {
            records.push(record);
        }
    }
    Ok(Recovered {
        state,
        records,
        discarded_bytes: wal_bytes.len() - valid_len,
    })
}

fn to_io(e: serde_json::Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{CrashPoint, DiskFault, DiskOp, FaultKind, SimDisk};
    use crate::model::{Url, WorkflowId};

    fn record(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            cmd: WalCommand::EvaluateTransfers(vec![TransferSpec {
                source: Url::new("gsiftp", "s", format!("/f{seq}")),
                dest: Url::new("file", "d", format!("/f{seq}")),
                bytes: seq * 100,
                requested_streams: None,
                workflow: WorkflowId(1),
                cluster: None,
                priority: None,
            }]),
        }
    }

    fn empty_state(applied_seq: u64) -> DurableState {
        DurableState {
            applied_seq,
            config: PolicyConfig::default(),
            next_transfer: 0,
            next_cleanup: 0,
            next_group: 0,
            stats: ServiceStats::default(),
            audit_capacity: 16,
            audit_next_seq: 0,
            audit_records: Vec::new(),
            facts: Vec::new(),
            summary: MemorySnapshot {
                in_progress_transfers: 0,
                staged_files: 0,
                staging_files: 0,
                in_progress_cleanups: 0,
                host_pairs: Vec::new(),
            },
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_roundtrip() {
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"gamma-gamma"];
        let mut bytes = Vec::new();
        for p in &payloads {
            bytes.extend_from_slice(&encode_frame(p));
        }
        let (decoded, valid) = decode_frames(&bytes);
        assert_eq!(decoded, payloads);
        assert_eq!(valid, bytes.len());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mut bytes = encode_frame(b"kept");
        let full = encode_frame(b"torn-away-record");
        let keep_prefix = bytes.len();
        bytes.extend_from_slice(&full[..full.len() - 3]);
        let (decoded, valid) = decode_frames(&bytes);
        assert_eq!(decoded, vec![b"kept".as_slice()]);
        assert_eq!(valid, keep_prefix);
    }

    #[test]
    fn corrupt_byte_stops_at_the_bad_frame() {
        let mut bytes = encode_frame(b"good");
        let mut bad = encode_frame(b"flipped");
        *bad.last_mut().unwrap() ^= 0x01;
        bytes.extend_from_slice(&bad);
        let (decoded, _) = decode_frames(&bytes);
        assert_eq!(decoded, vec![b"good".as_slice()]);
    }

    #[test]
    fn absurd_length_field_is_corruption() {
        let mut bytes = vec![0xFF; 8]; // length ≈ 4 GiB
        bytes.extend_from_slice(&[0u8; 64]);
        let (decoded, valid) = decode_frames(&bytes);
        assert!(decoded.is_empty());
        assert_eq!(valid, 0);
    }

    #[test]
    fn wal_record_json_roundtrip() {
        let r = record(3);
        let json = serde_json::to_vec(&r).unwrap();
        let back: WalRecord = serde_json::from_slice(&json).unwrap();
        assert_eq!(r, back);
    }

    /// A sink on `disk` in `dir`, compacting every `every` appends.
    fn sink(disk: &SimDisk, every: u64) -> Durability {
        let cfg = DurabilityConfig::on(disk.clone(), "d").with_snapshot_every(every);
        Durability::create(cfg, &empty_state(0)).unwrap()
    }

    fn recover(disk: &SimDisk) -> Recovered {
        read_recovery(disk, Path::new("d")).unwrap()
    }

    #[test]
    fn append_then_recover_returns_records_after_applied_seq() {
        let disk = SimDisk::new();
        let mut d = sink(&disk, 64);
        for seq in 1..=3 {
            assert_eq!(d.next_seq(), seq);
            d.append(&record(seq)).unwrap();
        }
        let rec = recover(&disk);
        assert_eq!(rec.state, empty_state(0));
        assert_eq!(rec.records, vec![record(1), record(2), record(3)]);
        assert_eq!(rec.discarded_bytes, 0);
    }

    #[test]
    fn snapshot_compacts_the_log() {
        let disk = SimDisk::new();
        let mut d = sink(&disk, 2);
        d.append(&record(1)).unwrap();
        assert!(!d.snapshot_pending());
        d.append(&record(2)).unwrap();
        assert!(d.snapshot_pending());
        d.write_snapshot(&empty_state(2)).unwrap();
        d.append(&record(3)).unwrap();
        let rec = recover(&disk);
        assert_eq!(rec.state.applied_seq, 2);
        assert_eq!(rec.records, vec![record(3)], "compacted records skipped");
    }

    /// Appends records 1..=5 to a sink whose disk fails on `fault`; each
    /// append's result, in order.
    fn append_five(disk: &SimDisk, every: u64) -> (Durability, Vec<bool>) {
        let mut d = sink(disk, every);
        let ok = (1..=5)
            .map(|seq| {
                let ok = d.append(&record(seq)).is_ok();
                if d.snapshot_pending() {
                    d.write_snapshot(&empty_state(seq)).ok();
                }
                ok
            })
            .collect();
        (d, ok)
    }

    #[test]
    fn after_append_crash_freezes_the_sink() {
        // A death at the second log sync: record 2 is whole on disk, its
        // call failed, and nothing after it is written.
        let disk = SimDisk::failing(CrashPoint::AfterAppend(2));
        let (d, ok) = append_five(&disk, 64);
        assert!(d.is_down());
        assert_eq!(ok, [true, false, false, false, false]);
        assert_eq!(recover(&disk).records, vec![record(1), record(2)]);
    }

    #[test]
    fn torn_append_crash_leaves_recoverable_prefix() {
        let disk = SimDisk::failing(CrashPoint::TornAppend { append: 3, keep: 9 });
        let (d, ok) = append_five(&disk, 64);
        assert!(d.is_down());
        assert_eq!(ok, [true, true, false, false, false]);
        let rec = recover(&disk);
        assert_eq!(rec.records, vec![record(1), record(2)]);
        assert_eq!(rec.discarded_bytes, 9, "the torn bytes were discarded");
    }

    #[test]
    fn no_space_and_a_failed_sync_freeze_the_sink_at_that_append() {
        // ENOSPC lands nothing of record 3; a failed sync leaves it written.
        for (kind, op, kept) in [
            (FaultKind::NoSpace, DiskOp::Write, 2),
            (FaultKind::IoError, DiskOp::Sync, 3),
        ] {
            let disk = SimDisk::failing(DiskFault::on_log(op, 3, kind));
            let (d, ok) = append_five(&disk, 64);
            assert!(d.is_down(), "{kind:?}");
            assert_eq!(ok, [true, true, false, false, false], "{kind:?}");
            let records: Vec<WalRecord> = (1..=kept).map(record).collect();
            assert_eq!(recover(&disk).records, records, "{kind:?}");
        }
    }

    /// A torn `snapshot.tmp` beside the directory, as a death while writing
    /// it leaves one: recovery never reads it.
    fn tear_tmp(disk: &SimDisk) {
        let mut disk = disk.clone();
        let torn = &encode_frame(b"a snapshot cut short")[..11];
        disk.write_new(&Path::new("d").join(SNAPSHOT_TMP), torn)
            .unwrap();
    }

    #[test]
    fn mid_snapshot_crash_keeps_old_snapshot_and_full_log() {
        // Snapshot 1 is the base one; the death is at the compaction after
        // record 2, between its temporary file and the rename.
        let fault = DiskFault {
            file: SNAPSHOT_TMP,
            op: DiskOp::Rename,
            nth: 2,
            kind: FaultKind::Die,
        };
        let disk = SimDisk::failing(fault);
        let (d, ok) = append_five(&disk, 2);
        assert!(d.is_down());
        assert_eq!(ok, [true, true, false, false, false]);
        assert!(disk.read(&Path::new("d").join(SNAPSHOT_TMP)).is_ok());
        tear_tmp(&disk);
        let rec = recover(&disk);
        assert_eq!(rec.state.applied_seq, 0, "old snapshot still authoritative");
        assert_eq!(rec.records, vec![record(1), record(2)]);
    }

    #[test]
    fn a_death_between_rename_and_truncate_replays_nothing_twice() {
        // Truncate 1 is the base snapshot's; the death is at the
        // compaction after record 2, once the new snapshot is renamed in.
        let fault = DiskFault::on_log(DiskOp::Truncate, 2, FaultKind::Die);
        let disk = SimDisk::failing(fault);
        let (d, ok) = append_five(&disk, 2);
        assert!(d.is_down());
        assert_eq!(ok, [true, true, false, false, false]);
        tear_tmp(&disk);
        let rec = recover(&disk);
        assert_eq!(rec.state.applied_seq, 2, "the new snapshot is installed");
        assert!(rec.records.is_empty(), "records 1-2 are in the snapshot");
        assert_eq!(rec.discarded_bytes, 0);
    }

    #[test]
    fn no_space_on_the_snapshot_file_keeps_the_old_snapshot() {
        let fault = DiskFault {
            file: SNAPSHOT_TMP,
            op: DiskOp::Write,
            nth: 2,
            kind: FaultKind::NoSpace,
        };
        let disk = SimDisk::failing(fault);
        let (d, ok) = append_five(&disk, 2);
        assert!(d.is_down());
        assert_eq!(ok, [true, true, false, false, false]);
        let rec = recover(&disk);
        assert_eq!(rec.state.applied_seq, 0);
        assert_eq!(rec.records, vec![record(1), record(2)]);
    }

    #[test]
    fn missing_snapshot_errors_cleanly() {
        let err = read_recovery(&SimDisk::new(), Path::new("d")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn the_fs_disk_runs_the_snapshot_protocol() {
        let dir = FsDisk::scratch_dir("fs-disk");
        let cfg = DurabilityConfig::new(&dir).with_snapshot_every(2);
        let mut d = Durability::create(cfg, &empty_state(0)).unwrap();
        for seq in 1..=3 {
            d.append(&record(seq)).unwrap();
            if d.snapshot_pending() {
                d.write_snapshot(&empty_state(seq)).unwrap();
            }
        }
        assert!(
            !dir.join(SNAPSHOT_TMP).exists(),
            "renamed over the snapshot"
        );
        let rec = read_recovery(&FsDisk::default(), &dir).unwrap();
        assert_eq!(rec.state.applied_seq, 2);
        assert_eq!(rec.records, vec![record(3)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Round-trip: any payload list decodes back exactly.
        #[test]
        fn frames_roundtrip(payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 0..12)) {
            let mut bytes = Vec::new();
            for p in &payloads {
                bytes.extend_from_slice(&encode_frame(p));
            }
            let (decoded, valid) = decode_frames(&bytes);
            prop_assert_eq!(valid, bytes.len());
            prop_assert_eq!(decoded.len(), payloads.len());
            for (d, p) in decoded.iter().zip(&payloads) {
                prop_assert_eq!(*d, p.as_slice());
            }
        }

        /// Truncating the byte stream anywhere yields a prefix of the
        /// original payload list — never an error, never a panic.
        #[test]
        fn random_truncation_yields_a_prefix(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..64), 1..8),
            cut_frac in 0.0f64..1.0,
        ) {
            let mut bytes = Vec::new();
            for p in &payloads {
                bytes.extend_from_slice(&encode_frame(p));
            }
            let cut = (bytes.len() as f64 * cut_frac) as usize;
            let (decoded, valid) = decode_frames(&bytes[..cut]);
            prop_assert!(valid <= cut);
            prop_assert!(decoded.len() <= payloads.len());
            for (d, p) in decoded.iter().zip(&payloads) {
                prop_assert_eq!(*d, p.as_slice());
            }
        }

        /// Flipping one byte anywhere still yields a prefix of the
        /// original list up to the damaged frame (frames after a corrupt
        /// one are dropped by the torn-tail rule, never misread).
        #[test]
        fn random_corruption_never_panics_and_keeps_prefix_consistency(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..64), 1..8),
            flip_at_frac in 0.0f64..1.0,
            flip_bits in 1u8..255,
        ) {
            let mut bytes = Vec::new();
            for p in &payloads {
                bytes.extend_from_slice(&encode_frame(p));
            }
            let flip_at = ((bytes.len() - 1) as f64 * flip_at_frac) as usize;
            bytes[flip_at] ^= flip_bits;
            let (decoded, _) = decode_frames(&bytes);
            // Any frame decoded before the damage must match the original
            // (CRC makes silently-wrong payloads vanishingly improbable;
            // structurally the prefix property is exact).
            for (d, p) in decoded.iter().zip(&payloads) {
                prop_assert_eq!(*d, p.as_slice());
            }
            prop_assert!(decoded.len() <= payloads.len());
        }

        /// The decoder never panics on arbitrary garbage.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let (decoded, valid) = decode_frames(&bytes);
            prop_assert!(valid <= bytes.len());
            let _ = decoded;
        }
    }
}
