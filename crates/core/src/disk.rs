//! The disk a durable session writes through.
//!
//! [`crate::Durability`] decides *what* goes to disk: the log frames, the
//! snapshot's temporary file, the rename over the live snapshot and the
//! log's truncate. It writes them through the [`Disk`] trait, which has
//! two implementations:
//!
//! * [`FsDisk`], the production disk: files in a real directory.
//! * [`SimDisk`], files held as bytes in memory, with one scripted
//!   [`DiskFault`]: an `ENOSPC` write, a failed sync, a torn write or a
//!   death, at the k-th operation of one kind on one file. Tests, `repro
//!   crash` and the chaos stack's durable primary run on it, so a disk
//!   failure is a deterministic part of a scenario.
//!
//! Every write is synced at once, so `SimDisk` holds no unsynced bytes
//! apart: a byte it has taken is a byte recovery reads.

use crate::durable::WAL_FILE;
use parking_lot::Mutex;
pub use pwm_sim::CrashPoint;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The file operations a durability sink needs. Paths are whole paths:
/// one disk serves every shard's directory, and each shard's sink holds
/// its own [`Disk::handle`] on it.
pub trait Disk: fmt::Debug + Send {
    /// Create `dir` and its parents if they are missing.
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()>;
    /// Append `bytes` to the file at `path`, creating it if missing.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Make what was written to `path` durable.
    fn sync(&mut self, path: &Path) -> io::Result<()>;
    /// Create (or replace) the file at `path` holding `bytes`.
    fn write_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Rename `from` over `to`, replacing it.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    /// Empty the file at `path`, creating it if missing.
    fn truncate(&mut self, path: &Path) -> io::Result<()>;
    /// The whole file at `path`; `NotFound` if there is none.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Another handle on the same disk, with no open file of its own.
    fn handle(&self) -> Box<dyn Disk>;
}

impl Clone for Box<dyn Disk> {
    fn clone(&self) -> Self {
        self.handle()
    }
}

/// The real filesystem. Keeps the last file it wrote open, so a log's
/// appends reuse one descriptor between snapshots.
#[derive(Debug, Default)]
pub struct FsDisk {
    open: Option<(PathBuf, File)>,
}

impl FsDisk {
    /// A fresh, empty directory under the system temporary directory,
    /// unique per process and call: for the tests that run a sink on the
    /// real filesystem.
    pub fn scratch_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "pwm-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).expect("create a scratch directory");
        dir
    }

    fn keep(&mut self, path: &Path, file: File) -> &mut File {
        &mut self.open.insert((path.to_path_buf(), file)).1
    }

    fn kept(&mut self, path: &Path) -> Option<&mut File> {
        match &mut self.open {
            Some((p, f)) if p == path => Some(f),
            _ => None,
        }
    }
}

impl Disk for FsDisk {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let file = match self.kept(path) {
            Some(f) => f,
            None => {
                let f = OpenOptions::new().create(true).append(true).open(path)?;
                self.keep(path, f)
            }
        };
        file.write_all(bytes)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        match self.kept(path) {
            Some(f) => f.sync_all(),
            None => File::open(path)?.sync_all(),
        }
    }

    fn write_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let file = File::create(path)?;
        self.keep(path, file).write_all(bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        if self.kept(from).is_some() {
            self.open = None;
        }
        fs::rename(from, to)
    }

    fn truncate(&mut self, path: &Path) -> io::Result<()> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        self.keep(path, file);
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn handle(&self) -> Box<dyn Disk> {
        Box::new(FsDisk::default())
    }
}

/// A kind of disk operation, as a [`DiskFault`] counts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiskOp {
    /// [`Disk::append`] or [`Disk::write_new`].
    Write,
    /// [`Disk::sync`].
    Sync,
    /// [`Disk::rename`], counted on the file renamed away.
    Rename,
    /// [`Disk::truncate`].
    Truncate,
}

/// What a [`DiskFault`] does to the operation it lands on. The operation
/// returns an error in every case; the sink that sees it writes nothing
/// more, so a fault of any kind ends that sink's log where it leaves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The device is full (`ENOSPC`): nothing of the operation lands.
    NoSpace,
    /// An I/O error (`EIO`): nothing of the operation lands. A failed
    /// sync leaves the file as written, since no byte is held apart as
    /// unsynced: the record it was to make durable is still read back.
    IoError,
    /// A write lands only its first `n` bytes (at most one short of the
    /// whole), and the process dies. On any other operation, a death.
    Torn(usize),
    /// The process dies at the operation, which never happens. Dying at
    /// a log's sync leaves its last record whole on disk, like a death
    /// just after the sync.
    Die,
}

/// One scripted failure: `kind` at the `nth` (1-based) `op` on each file
/// named `file`. Ordinals count per path over the disk's life, so every
/// shard's log of a sharded session fails at its own `nth` append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskFault {
    /// File name the fault watches, in any directory: [`WAL_FILE`],
    /// [`crate::durable::SNAPSHOT_TMP`], ...
    pub file: &'static str,
    /// The kind of operation it counts.
    pub op: DiskOp,
    /// Which of those operations fails.
    pub nth: u64,
    /// How it fails.
    pub kind: FaultKind,
}

impl DiskFault {
    /// `kind` at the `nth` `op` on the log.
    pub fn on_log(op: DiskOp, nth: u64, kind: FaultKind) -> DiskFault {
        DiskFault {
            file: WAL_FILE,
            op,
            nth,
            kind,
        }
    }
}

/// A seeded crash point as a disk script. A death after the n-th append
/// dies at the n-th log sync; a torn append tears the n-th log write. A
/// death mid-snapshot after the n-th append leaves what the first does
/// (the old snapshot, the log through record n, the firing call refused)
/// plus a torn `snapshot.tmp` that recovery never reads, so its script is
/// the same death. The snapshot protocol's own deaths are scripted on
/// their operations (see the module's tests).
impl From<CrashPoint> for DiskFault {
    fn from(crash: CrashPoint) -> DiskFault {
        match crash {
            CrashPoint::AfterAppend(n) | CrashPoint::MidSnapshot { append: n } => {
                DiskFault::on_log(DiskOp::Sync, n, FaultKind::Die)
            }
            CrashPoint::TornAppend { append, keep } => {
                DiskFault::on_log(DiskOp::Write, append, FaultKind::Torn(keep))
            }
        }
    }
}

/// Files held as bytes in memory, failing once per file on its script.
/// A clone is another handle on the same files.
#[derive(Debug, Clone, Default)]
pub struct SimDisk(Arc<Mutex<SimFiles>>);

#[derive(Debug, Default)]
struct SimFiles {
    files: BTreeMap<PathBuf, Vec<u8>>,
    fault: Option<DiskFault>,
    /// Operations done so far, per path and kind.
    done: BTreeMap<(PathBuf, DiskOp), u64>,
}

impl SimFiles {
    /// Count one `op` on `path`; the fault, if this is the one it lands on.
    fn count(&mut self, path: &Path, op: DiskOp) -> Option<FaultKind> {
        let n = self.done.entry((path.to_path_buf(), op)).or_default();
        *n += 1;
        let fault = self.fault?;
        let named = path.file_name().is_some_and(|f| f == fault.file);
        (named && fault.op == op && fault.nth == *n).then_some(fault.kind)
    }
}

impl SimDisk {
    /// An empty disk that never fails.
    pub fn new() -> SimDisk {
        SimDisk::default()
    }

    /// An empty disk that fails on `fault`.
    pub fn failing(fault: impl Into<DiskFault>) -> SimDisk {
        let disk = SimDisk::default();
        disk.0.lock().fault = Some(fault.into());
        disk
    }

    /// Count and run one operation on `path`: `land(files, keep)` applies
    /// it with `keep` of its `len` bytes, all of them unless the fault
    /// lands here; a torn write lands a part, any other fault nothing.
    fn run(
        &self,
        path: &Path,
        op: DiskOp,
        len: usize,
        land: impl FnOnce(&mut BTreeMap<PathBuf, Vec<u8>>, usize) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut disk = self.0.lock();
        let Some(kind) = disk.count(path, op) else {
            return land(&mut disk.files, len);
        };
        if let FaultKind::Torn(keep) = kind {
            if op == DiskOp::Write {
                land(&mut disk.files, keep.min(len.saturating_sub(1)))?;
            }
        }
        Err(fault_error(kind, op, path))
    }
}

fn fault_error(kind: FaultKind, op: DiskOp, path: &Path) -> io::Error {
    let path = path.display();
    match kind {
        FaultKind::NoSpace => io::Error::new(
            io::ErrorKind::StorageFull,
            format!("simulated ENOSPC on {op:?} of {path}"),
        ),
        FaultKind::IoError => io::Error::other(format!("simulated EIO on {op:?} of {path}")),
        FaultKind::Torn(_) | FaultKind::Die => {
            io::Error::other(format!("simulated death at {op:?} of {path}"))
        }
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no file {}", path.display()),
    )
}

impl Disk for SimDisk {
    fn create_dir_all(&mut self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.run(path, DiskOp::Write, bytes.len(), |files, keep| {
            let file = files.entry(path.to_path_buf()).or_default();
            file.extend_from_slice(&bytes[..keep]);
            Ok(())
        })
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        self.run(path, DiskOp::Sync, 0, |files, _| {
            files
                .contains_key(path)
                .then_some(())
                .ok_or_else(|| not_found(path))
        })
    }

    fn write_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.run(path, DiskOp::Write, bytes.len(), |files, keep| {
            files.insert(path.to_path_buf(), bytes[..keep].to_vec());
            Ok(())
        })
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.run(from, DiskOp::Rename, 0, |files, _| {
            let bytes = files.remove(from).ok_or_else(|| not_found(from))?;
            files.insert(to.to_path_buf(), bytes);
            Ok(())
        })
    }

    fn truncate(&mut self, path: &Path) -> io::Result<()> {
        self.run(path, DiskOp::Truncate, 0, |files, _| {
            files.insert(path.to_path_buf(), Vec::new());
            Ok(())
        })
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let disk = self.0.lock();
        disk.files.get(path).cloned().ok_or_else(|| not_found(path))
    }

    fn handle(&self) -> Box<dyn Disk> {
        Box::new(self.clone())
    }
}
