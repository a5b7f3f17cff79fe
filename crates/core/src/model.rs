//! Domain model of the Policy Service.
//!
//! These are the fact types held in policy memory (the rule engine's working
//! memory) and the request/identifier types exchanged with the Pegasus
//! Transfer Tool. The vocabulary follows Section II of the paper: transfers,
//! resources (staged files with workflow refcounts), cleanups, and host-pair
//! groups.

use crate::name::Name;
use pwm_rules::Fields;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Unique id the Policy Service assigns to each transfer "so that the
/// transfers can be monitored and modified".
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TransferId(pub u64);

/// Unique id assigned to each cleanup operation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct CleanupId(pub u64);

/// Identifies the workflow instance a request belongs to (multiple workflows
/// may share a policy session and staged files).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct WorkflowId(pub u64);

/// Group id shared by transfers with the same (source host, destination
/// host) pair; the transfer client runs a group in one session for
/// efficiency.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct GroupId(pub u64);

/// A Pegasus cluster index (horizontal clustering); input to the balanced
/// allocation policy.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ClusterId(pub u32);

impl fmt::Display for TransferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}
impl fmt::Display for CleanupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}
impl fmt::Display for WorkflowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wf{}", self.0)
    }
}

/// A simplified transfer URL: `scheme://host/path`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Url {
    /// Protocol scheme ("gsiftp", "http", "file", ...).
    pub scheme: Name,
    /// Host name (empty for `file` URLs).
    pub host: Name,
    /// Absolute path on the host.
    pub path: Name,
}

/// Error from [`Url::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlParseError(pub String);

impl fmt::Display for UrlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid URL: {}", self.0)
    }
}
impl std::error::Error for UrlParseError {}

impl Url {
    /// Build a URL from parts. The path is normalized to start with `/`.
    pub fn new(scheme: impl Into<Name>, host: impl Into<Name>, path: impl Into<Name>) -> Url {
        let mut path = path.into();
        if !path.starts_with('/') {
            path = format_args!("/{path}").into();
        }
        Url {
            scheme: scheme.into(),
            host: host.into(),
            path,
        }
    }

    /// Parse `scheme://host/path`.
    pub fn parse(s: &str) -> Result<Url, UrlParseError> {
        let (scheme, rest) = s
            .split_once("://")
            .ok_or_else(|| UrlParseError(format!("missing scheme separator in {s:?}")))?;
        if scheme.is_empty() {
            return Err(UrlParseError(format!("empty scheme in {s:?}")));
        }
        let (host, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if host.is_empty() && scheme != "file" {
            return Err(UrlParseError(format!("empty host in {s:?}")));
        }
        Ok(Url {
            scheme: scheme.into(),
            host: host.into(),
            path: path.into(),
        })
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}{}", self.scheme, self.host, self.path)
    }
}

/// A transfer request as submitted by the Pegasus Transfer Tool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferSpec {
    /// Where the file currently lives.
    pub source: Url,
    /// Where it must be staged to.
    pub dest: Url,
    /// Size hint in bytes (0 = unknown; advice does not depend on it, but
    /// monitoring records it).
    pub bytes: u64,
    /// Streams the client would like; `None` lets policy assign the default.
    pub requested_streams: Option<u32>,
    /// Submitting workflow.
    pub workflow: WorkflowId,
    /// Pegasus cluster the transfer belongs to (balanced allocation input).
    pub cluster: Option<ClusterId>,
    /// Structure-based priority of the consuming job, if the workflow was
    /// annotated (higher = stage earlier).
    pub priority: Option<i32>,
}

/// Lifecycle of a transfer in policy memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferState {
    /// Received, advice being prepared.
    Pending,
    /// Handed back to the PTT for execution.
    InProgress,
    /// Reported complete.
    Completed,
    /// Reported failed.
    Failed,
}

/// A transfer fact in policy memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferFact {
    /// Service-assigned id.
    pub id: TransferId,
    /// The original request.
    pub spec: TransferSpec,
    /// Current lifecycle state.
    pub state: TransferState,
    /// Streams advice (None until the default-assignment rule runs).
    pub streams: Option<u32>,
    /// Streams actually charged against the host-pair ledger (set by the
    /// allocation rules; released on completion/failure).
    pub charged_streams: u32,
    /// Group advice (None until the grouping rule runs).
    pub group: Option<GroupId>,
    /// True while the fact belongs to the batch currently under evaluation.
    pub in_current_batch: bool,
    /// Set when the dedup rules decide this request must not execute.
    pub suppressed: Option<SuppressReason>,
    /// True once the transfer owes no cluster-ledger charge: set by the
    /// balanced release as it returns the charge, and by greedy's enforce
    /// rule as it charges the host pair alone. The balanced release runs
    /// whatever policy is selected, so this guard is what releases a
    /// balanced charge exactly once and a greedy one never (the host-pair
    /// charge is released separately by the Table I completion/failure
    /// rules).
    pub cluster_released: bool,
    /// Staging backend the storage policy family picked (None when the
    /// family is off or no backend profile matches the destination site).
    #[serde(default)]
    pub backend: Option<String>,
    /// Guard so the storage family releases the backend-load charge and
    /// records the `StagedOn` fact exactly once.
    #[serde(default)]
    pub backend_released: bool,
}

/// Field groups of a [`TransferFact`], for rules that read and writers that
/// write only part of it. `id` and `spec` never change after insertion and
/// need no group.
impl TransferFact {
    /// `in_current_batch`.
    pub const BATCH: Fields = Fields::bit(0);
    /// `suppressed`.
    pub const SUPPRESSED: Fields = Fields::bit(1);
    /// `state`.
    pub const STATE: Fields = Fields::bit(2);
    /// `group`.
    pub const GROUP: Fields = Fields::bit(3);
    /// `streams` and `charged_streams`.
    pub const STREAMS: Fields = Fields::bit(4);
    /// `backend`, `backend_released` and `cluster_released`.
    pub const RELEASE: Fields = Fields::bit(5);
}

/// Why a request was removed from the list returned to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuppressReason {
    /// An identical transfer appears earlier in the same batch.
    DuplicateInBatch,
    /// An identical transfer is already in progress.
    AlreadyInProgress,
    /// The file was already staged by this or another workflow.
    AlreadyStaged,
    /// A cleanup for this file is in progress or done (cleanup dedup).
    DuplicateCleanup,
    /// The file is still in use by other workflows (cleanup protection).
    ResourceInUse,
    /// The source replica is quarantined after repeated checksum failures;
    /// the client must re-plan from another replica or re-run the producer.
    SourceQuarantined,
    /// The source host is reported down; retrying against it is pointless
    /// until a `HostUp` health report clears the fact.
    SourceHostDown,
}

/// State of a staged-file resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResourceState {
    /// A transfer that will produce this file is pending or in progress.
    Staging,
    /// The file is present at the destination.
    Staged,
}

/// A staged-file resource: tracks which workflows use a file so duplicate
/// staging is avoided and premature cleanup is suppressed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceFact {
    /// Canonical destination URL of the staged file.
    pub dest: Url,
    /// Where it was staged from.
    pub source: Url,
    /// Workflows currently using the staged file.
    #[serde(with = "workflow_set_serde")]
    pub users: WorkflowSet,
    /// Staging vs staged.
    pub state: ResourceState,
    /// Transfer that is currently producing the file (while `Staging`).
    pub producer: Option<TransferId>,
}

/// A sorted set of workflow ids: the users of a staged file. Nearly every
/// staged file has one user, so one id is held inline and costs no
/// allocation; two or more are a sorted `Vec`. 24 bytes. `Debug` prints
/// the ids as a set, `{WorkflowId(2), WorkflowId(9)}`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct WorkflowSet(Ids);

/// Always the variant of its length: `Many` holds two ids or more.
#[derive(Clone, Default, PartialEq, Eq)]
enum Ids {
    #[default]
    Empty,
    One(WorkflowId),
    Many(Vec<WorkflowId>),
}

impl WorkflowSet {
    /// The empty set.
    pub fn new() -> WorkflowSet {
        WorkflowSet::default()
    }

    /// Add `id`; false if it was already there.
    pub fn insert(&mut self, id: WorkflowId) -> bool {
        match &mut self.0 {
            Ids::Empty => self.0 = Ids::One(id),
            Ids::One(one) => match (*one).cmp(&id) {
                Ordering::Equal => return false,
                Ordering::Less => self.0 = Ids::Many(vec![*one, id]),
                Ordering::Greater => self.0 = Ids::Many(vec![id, *one]),
            },
            Ids::Many(ids) => match ids.binary_search(&id) {
                Ok(_) => return false,
                Err(at) => ids.insert(at, id),
            },
        }
        true
    }

    /// Take `id` out; false if it was not there.
    pub fn remove(&mut self, id: &WorkflowId) -> bool {
        match &mut self.0 {
            Ids::One(one) if one == id => self.0 = Ids::Empty,
            Ids::Many(ids) => {
                let Ok(at) = ids.binary_search(id) else {
                    return false;
                };
                ids.remove(at);
                if let [last] = ids[..] {
                    self.0 = Ids::One(last);
                }
            }
            Ids::Empty | Ids::One(_) => return false,
        }
        true
    }

    /// True if `id` is in the set.
    pub fn contains(&self, id: &WorkflowId) -> bool {
        self.as_slice().binary_search(id).is_ok()
    }

    /// True if no workflow uses the file.
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Ids::Empty)
    }

    /// The ids, ascending.
    pub fn iter(&self) -> std::slice::Iter<'_, WorkflowId> {
        self.as_slice().iter()
    }

    fn as_slice(&self) -> &[WorkflowId] {
        match &self.0 {
            Ids::Empty => &[],
            Ids::One(one) => std::slice::from_ref(one),
            Ids::Many(ids) => ids,
        }
    }
}

impl FromIterator<WorkflowId> for WorkflowSet {
    fn from_iter<I: IntoIterator<Item = WorkflowId>>(ids: I) -> WorkflowSet {
        let mut set = WorkflowSet::new();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

impl fmt::Debug for WorkflowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Field groups of a [`ResourceFact`]; `dest` and `source` never change.
impl ResourceFact {
    /// `state` and `producer`.
    pub const STATE: Fields = Fields::bit(0);
    /// `users`.
    pub const USERS: Fields = Fields::bit(1);
}

/// Lifecycle of a cleanup operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CleanupState {
    /// Received, advice being prepared.
    Pending,
    /// Handed back for execution.
    InProgress,
    /// Reported complete.
    Completed,
}

/// A cleanup request as submitted by a Pegasus cleanup job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CleanupSpec {
    /// File to delete (destination URL of a staged resource).
    pub file: Url,
    /// Requesting workflow.
    pub workflow: WorkflowId,
}

/// A cleanup fact in policy memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CleanupFact {
    /// Service-assigned id.
    pub id: CleanupId,
    /// The original request.
    pub spec: CleanupSpec,
    /// Current lifecycle state.
    pub state: CleanupState,
    /// True while part of the batch under evaluation.
    pub in_current_batch: bool,
    /// Set when policy decides the cleanup must not execute.
    pub suppressed: Option<SuppressReason>,
}

/// Field groups of a [`CleanupFact`]; `id` and `spec` never change. Every
/// cleanup rule still watches the whole fact — the groups let a writer tell
/// the indexes (keyed by `id` and by `spec.file`) that it changed neither.
impl CleanupFact {
    /// `in_current_batch`.
    pub const BATCH: Fields = Fields::bit(0);
    /// `suppressed`.
    pub const SUPPRESSED: Fields = Fields::bit(1);
    /// `state`.
    pub const STATE: Fields = Fields::bit(2);
}

/// The per-(source host, destination host) allocation ledger fact used by
/// the greedy and balanced policies ("Generate a unique group ID for a
/// source and destination host pair").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostPairFact {
    /// Source host name.
    pub src_host: Name,
    /// Destination host name.
    pub dst_host: Name,
    /// The group id all transfers on this pair share.
    pub group: GroupId,
    /// Streams currently allocated to in-progress transfers.
    pub allocated: u32,
    /// High-water mark of `allocated` (Table IV reproduces this).
    pub peak_allocated: u32,
}

/// Field groups of a [`HostPairFact`]; the host names and the group never
/// change, so a rule that only looks a ledger up watches [`Fields::NONE`].
impl HostPairFact {
    /// `allocated` and `peak_allocated`.
    pub const ALLOCATED: Fields = Fields::bit(0);
}

/// Per-(host pair, cluster) ledger used by the balanced policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterAllocFact {
    /// The host-pair group this cluster ledger belongs to.
    pub group: GroupId,
    /// Pegasus cluster id.
    pub cluster: ClusterId,
    /// Streams currently allocated to this cluster's transfers.
    pub allocated: u32,
}

/// A storage backend available at a site, as policy memory sees it — the
/// Table-I-style "what exists" fact of the storage family. One fact per
/// backend, inserted from [`crate::PolicyConfig::backends`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendProfileFact {
    /// Performance + cost envelope (shared with the simulator layer).
    pub profile: pwm_storage::BackendSpec,
    /// Destination-site host name the backend serves; a transfer is
    /// eligible for this backend iff its dest URL names this host.
    pub site: Name,
}

/// A file staged onto a specific backend (storage-family bookkeeping,
/// recorded when the producing transfer completes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagedOnFact {
    /// Canonical destination URL of the staged file.
    pub file: Url,
    /// Backend name it landed on.
    pub backend: String,
    /// Size hint from the producing transfer.
    pub bytes: u64,
    /// Workflow that staged it.
    pub workflow: WorkflowId,
}

/// Running per-backend allocation ledger for the storage family: how much
/// in-flight staging the selection rules have already committed to each
/// backend (released when transfers complete or fail).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendLoadFact {
    /// Backend name.
    pub backend: String,
    /// Transfers currently assigned and not yet released.
    pub active: u32,
    /// Bytes assigned and not yet released.
    pub bytes_assigned: f64,
    /// Estimated dollars committed so far (monotone; budget-capped
    /// selection compares this against its cap).
    pub dollars_committed: f64,
}

/// A compute or transfer host currently reported down (recovery family).
/// While present, transfers sourced at the host are suppressed rather than
/// retried, and re-placement rules avoid it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostDownFact {
    /// Host name as it appears in transfer URLs.
    pub host: Name,
}

/// A storage backend currently reported down (recovery family). While
/// present, the storage-selection rules exclude the backend from candidate
/// sets, steering new placements around the outage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendDownFact {
    /// Backend name (matches [`BackendProfileFact::profile`]'s name).
    pub backend: String,
}

/// A replica that failed checksum verification on read (recovery family).
/// Strikes accumulate per `(host, file)`; at the client's quarantine
/// threshold the replica is marked quarantined and transfer requests
/// sourced from it are suppressed so the client re-plans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuspectReplicaFact {
    /// Host serving the suspect replica.
    pub host: Name,
    /// File path of the replica on that host.
    pub file: Name,
    /// Checksum failures observed so far.
    pub strikes: u32,
    /// True once the replica is quarantined (suppression active).
    pub quarantined: bool,
}

/// One health observation reported by an execution environment. Reports are
/// upserts over the recovery facts above: `Down`/`Suspect` events insert or
/// update, `Up`/`Cleared` events retract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HealthEvent {
    /// A host stopped responding (crash, reboot, partition).
    HostDown {
        /// Host name as it appears in transfer URLs.
        host: Name,
    },
    /// A previously down host is serving again.
    HostUp {
        /// Host name as it appears in transfer URLs.
        host: Name,
    },
    /// A storage backend went dark or was administratively drained.
    BackendDown {
        /// Backend name.
        backend: String,
    },
    /// A previously down backend is serving again.
    BackendUp {
        /// Backend name.
        backend: String,
    },
    /// A read of `file` from `host` failed checksum verification. Carries
    /// the reporter's quarantine decision so the threshold stays a client
    /// policy (the service records strikes and suppresses once quarantined).
    SuspectReplica {
        /// Host serving the suspect replica.
        host: Name,
        /// File path of the replica.
        file: Name,
        /// True when the reporter's strike threshold is reached.
        quarantine: bool,
    },
    /// The replica was re-verified or regenerated; clear its suspicion.
    ReplicaCleared {
        /// Host serving the replica.
        host: Name,
        /// File path of the replica.
        file: Name,
    },
}

/// `#[serde(with)]` adapter for [`WorkflowSet`]: the set crosses the wire
/// as a sorted id array.
mod workflow_set_serde {
    use super::{WorkflowId, WorkflowSet};
    use serde::{Deserialize, Reader, Serialize, Writer};

    /// Set → sorted array of raw workflow ids.
    pub fn serialize(set: &WorkflowSet, w: &mut Writer) {
        w.begin_array();
        for id in set.iter() {
            w.element();
            id.0.serialize(w);
        }
        w.end_array();
    }

    /// Array of raw ids → set (duplicates collapse).
    pub fn deserialize(r: &mut Reader<'_>) -> Result<WorkflowSet, serde::Error> {
        Ok(Vec::<u64>::deserialize(r)?
            .into_iter()
            .map(WorkflowId)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parse_roundtrip() {
        let u = Url::parse("gsiftp://gridftp-vm.tacc/data/extra_01.dat").unwrap();
        assert_eq!(u.scheme, "gsiftp");
        assert_eq!(u.host, "gridftp-vm.tacc");
        assert_eq!(u.path, "/data/extra_01.dat");
        assert_eq!(u.to_string(), "gsiftp://gridftp-vm.tacc/data/extra_01.dat");
    }

    #[test]
    fn url_parse_no_path_defaults_to_root() {
        let u = Url::parse("http://apache.isi").unwrap();
        assert_eq!(u.path, "/");
    }

    #[test]
    fn url_parse_rejects_garbage() {
        assert!(Url::parse("not-a-url").is_err());
        assert!(Url::parse("://host/x").is_err());
        assert!(Url::parse("gsiftp:///x").is_err());
    }

    #[test]
    fn file_urls_may_have_empty_host() {
        let u = Url::parse("file:///scratch/f.dat").unwrap();
        assert_eq!(u.scheme, "file");
        assert_eq!(u.host, "");
        assert_eq!(u.path, "/scratch/f.dat");
    }

    #[test]
    fn url_new_normalizes_path() {
        let u = Url::new("http", "h", "data/f");
        assert_eq!(u.path, "/data/f");
        let u2 = Url::new("http", "h", "/data/f");
        assert_eq!(u, u2);
    }

    #[test]
    fn url_ordering_is_lexicographic() {
        // The base rules sort transfers by (source, dest) URL; Url's Ord must
        // be stable and total.
        let a = Url::parse("gsiftp://a/x").unwrap();
        let b = Url::parse("gsiftp://b/x").unwrap();
        let a2 = Url::parse("gsiftp://a/y").unwrap();
        assert!(a < b);
        assert!(a < a2);
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(TransferId(7).to_string(), "t7");
        assert_eq!(CleanupId(3).to_string(), "c3");
        assert_eq!(WorkflowId(1).to_string(), "wf1");
    }

    #[test]
    fn url_serde_roundtrip() {
        let u = Url::parse("gsiftp://host/p/q.dat").unwrap();
        let json = serde_json::to_string(&u).unwrap();
        let back: Url = serde_json::from_str(&json).unwrap();
        assert_eq!(u, back);
    }

    #[test]
    fn transfer_spec_serde_roundtrip() {
        let spec = TransferSpec {
            source: Url::parse("gsiftp://src/a").unwrap(),
            dest: Url::parse("file:///dst/a").unwrap(),
            bytes: 1_000_000,
            requested_streams: Some(8),
            workflow: WorkflowId(2),
            cluster: Some(ClusterId(1)),
            priority: Some(10),
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: TransferSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Display → parse is the identity for any well-formed URL.
        #[test]
        fn url_display_parse_roundtrip(
            scheme in "[a-z]{2,8}",
            host in "[a-z0-9.-]{1,24}",
            path in "/[a-zA-Z0-9._/-]{0,48}",
        ) {
            let url = Url::new(scheme, host, path);
            let back = Url::parse(&url.to_string()).unwrap();
            prop_assert_eq!(url, back);
        }

        /// The parser never panics on arbitrary input.
        #[test]
        fn url_parse_never_panics(s in "\\PC{0,128}") {
            let _ = Url::parse(&s);
        }

        /// Ordering agrees with string ordering of the canonical form for
        /// same-scheme URLs (the Table I sort rule relies on a total order).
        #[test]
        fn url_order_is_total_and_antisymmetric(
            host_a in "[a-z]{1,8}", path_a in "/[a-z]{0,8}",
            host_b in "[a-z]{1,8}", path_b in "/[a-z]{0,8}",
        ) {
            let a = Url::new("gsiftp", host_a, path_a);
            let b = Url::new("gsiftp", host_b, path_b);
            match a.cmp(&b) {
                std::cmp::Ordering::Equal => prop_assert_eq!(&a, &b),
                std::cmp::Ordering::Less => prop_assert!(b > a),
                std::cmp::Ordering::Greater => prop_assert!(a > b),
            }
        }

        /// A `WorkflowSet` is the `BTreeSet<WorkflowId>` it stands for:
        /// every return value, membership, order, emptiness, `Debug`, and
        /// the bytes it crosses the wire as, after every operation. Ids
        /// come from a small range so inserts repeat and removes hit.
        #[test]
        fn workflow_set_matches_a_btree_set(
            ops in proptest::collection::vec((any::<bool>(), 0u64..6), 0..64),
        ) {
            let mut set = WorkflowSet::new();
            let mut oracle = std::collections::BTreeSet::new();
            for (insert, id) in ops {
                let id = WorkflowId(id);
                if insert {
                    prop_assert_eq!(set.insert(id), oracle.insert(id));
                } else {
                    prop_assert_eq!(set.remove(&id), oracle.remove(&id));
                }
                for probe in (0..6).map(WorkflowId) {
                    prop_assert_eq!(set.contains(&probe), oracle.contains(&probe));
                }
                prop_assert!(set.iter().eq(oracle.iter()));
                prop_assert_eq!(set.is_empty(), oracle.is_empty());
                prop_assert_eq!(format!("{set:?}"), format!("{oracle:?}"));
                let mut w = serde::Writer::compact();
                workflow_set_serde::serialize(&set, &mut w);
                let bytes = w.finish();
                let ids: Vec<u64> = oracle.iter().map(|id| id.0).collect();
                prop_assert_eq!(&bytes, &serde_json::to_string(&ids).unwrap());
                let back = workflow_set_serde::deserialize(&mut serde::Reader::new(&bytes));
                prop_assert_eq!(back.unwrap(), set.clone());
            }
        }
    }
}
