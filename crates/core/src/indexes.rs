//! The alpha memories of policy memory: every index the policy rules and
//! the service probe, registered once per session, and the typed positions
//! they probe them by.
//!
//! [`PolicyIndexes::register`] runs before any rule is installed, so every
//! rule family can capture the positions of indexes another family keys
//! (storage selection skips backends the recovery family marked down), and
//! every session a service builds registers them in the same order: a
//! position is the same number in each. Rules capture the struct (it is
//! `Copy`) when they are built; the service keeps one for its own probes by
//! id and by health key. No keyed probe resolves a type at run time.

use crate::keys::{PairKey, UrlKey};
use crate::model::{
    BackendDownFact, BackendLoadFact, BackendProfileFact, CleanupFact, CleanupId, ClusterAllocFact,
    ClusterId, GroupId, HostDownFact, HostPairFact, ResourceFact, StagedOnFact, SuspectReplicaFact,
    TransferFact, TransferId, Url,
};
use crate::name::Name;
use pwm_rules::{FactHandle, Fields, IndexPos, WorkingMemory};

/// Typed positions of every index over policy memory.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PolicyIndexes {
    /// Staged-file resources by destination digest.
    pub(crate) resource_by_dest: IndexPos<ResourceFact, UrlKey>,
    /// Host-pair ledgers by host-pair digest.
    pub(crate) pair_by_hosts: IndexPos<HostPairFact, PairKey>,
    /// Transfers by destination digest (the dedup rules' buckets).
    pub(crate) transfer_by_dest: IndexPos<TransferFact, UrlKey>,
    /// Cleanups by file digest.
    pub(crate) cleanup_by_file: IndexPos<CleanupFact, UrlKey>,
    /// The transfers of the batch under evaluation, all under `true`.
    pub(crate) batch: IndexPos<TransferFact, bool>,
    /// The cleanups of the batch under evaluation, likewise.
    pub(crate) cleanup_batch: IndexPos<CleanupFact, bool>,
    /// Transfers and cleanups by the id the service minted (outcome
    /// reports name their fact by it).
    pub(crate) transfer_by_id: IndexPos<TransferFact, TransferId>,
    pub(crate) cleanup_by_id: IndexPos<CleanupFact, CleanupId>,
    /// Balanced: cluster ledgers by (group, cluster), host-pair ledgers by
    /// the group minted for them.
    pub(crate) cluster_ledger: IndexPos<ClusterAllocFact, (GroupId, ClusterId)>,
    pub(crate) pair_by_group: IndexPos<HostPairFact, GroupId>,
    /// Storage: profiles by destination site, load ledgers by backend name,
    /// staged-on records by file digest.
    pub(crate) profile_by_site: IndexPos<BackendProfileFact, Name>,
    pub(crate) load_by_backend: IndexPos<BackendLoadFact, String>,
    pub(crate) staged_on_by_file: IndexPos<StagedOnFact, UrlKey>,
    /// Recovery: down hosts and backends by name, suspect replicas by
    /// (host, file).
    pub(crate) host_down: IndexPos<HostDownFact, Name>,
    pub(crate) backend_down: IndexPos<BackendDownFact, String>,
    pub(crate) suspect_replica: IndexPos<SuspectReplicaFact, (Name, Name)>,
}

impl PolicyIndexes {
    /// Register every index in `wm`. Every key but the batch flags reads
    /// identity fields only, so no `update_fields` re-keys it; the batch
    /// flags' indexes are partial: only `true` is ever probed, so a transfer
    /// or cleanup that left its batch keeps no posting.
    pub(crate) fn register(wm: &mut WorkingMemory) -> PolicyIndexes {
        let id = Fields::NONE;
        PolicyIndexes {
            resource_by_dest: wm.register_index(id, |r: &ResourceFact| UrlKey::of(&r.dest)),
            pair_by_hosts: wm
                .register_index(id, |p: &HostPairFact| PairKey::of(&p.src_host, &p.dst_host)),
            transfer_by_dest: wm.register_index(id, |t: &TransferFact| UrlKey::of(&t.spec.dest)),
            cleanup_by_file: wm.register_index(id, |c: &CleanupFact| UrlKey::of(&c.spec.file)),
            batch: wm.register_partial_index(TransferFact::BATCH, |t: &TransferFact| {
                t.in_current_batch.then_some(true)
            }),
            cleanup_batch: wm.register_partial_index(CleanupFact::BATCH, |c: &CleanupFact| {
                c.in_current_batch.then_some(true)
            }),
            transfer_by_id: wm.register_index(id, |t: &TransferFact| t.id),
            cleanup_by_id: wm.register_index(id, |c: &CleanupFact| c.id),
            cluster_ledger: wm.register_index(id, |c: &ClusterAllocFact| (c.group, c.cluster)),
            pair_by_group: wm.register_index(id, |p: &HostPairFact| p.group),
            profile_by_site: wm.register_index(id, |b: &BackendProfileFact| b.site.clone()),
            load_by_backend: wm.register_index(id, |l: &BackendLoadFact| l.backend.clone()),
            staged_on_by_file: wm.register_index(id, |s: &StagedOnFact| UrlKey::of(&s.file)),
            host_down: wm.register_index(id, |h: &HostDownFact| h.host.clone()),
            backend_down: wm.register_index(id, |b: &BackendDownFact| b.backend.clone()),
            suspect_replica: wm.register_index(id, |s: &SuspectReplicaFact| {
                (s.host.clone(), s.file.clone())
            }),
        }
    }

    /// The resource tracking the staged file at `dest`, whose digest is
    /// `key`, if any. Resources are unique per destination ("create a
    /// resource" guards on it); bucket hits re-verify the URL, so a digest
    /// collision costs a compare, never a wrong match.
    pub(crate) fn resource_for<'a>(
        &self,
        wm: &'a WorkingMemory,
        key: UrlKey,
        dest: &Url,
    ) -> Option<(FactHandle, &'a ResourceFact)> {
        (wm.iter_by(self.resource_by_dest, &key)).find(|(_, r)| r.dest == *dest)
    }

    /// The digest a live transfer is bucketed under: of its `spec.dest`,
    /// computed once when the fact was inserted. The same key probes the
    /// transfers sharing the destination (the dedup rules, which re-verify
    /// source and destination) and the destination's resource.
    pub(crate) fn dest_key(&self, wm: &WorkingMemory, transfer: FactHandle) -> UrlKey {
        *wm.key_of(self.transfer_by_dest, transfer)
            .expect("live transfer is indexed by destination")
    }

    /// The digest a live cleanup is bucketed under: of its `spec.file`.
    pub(crate) fn file_key(&self, wm: &WorkingMemory, cleanup: FactHandle) -> UrlKey {
        *wm.key_of(self.cleanup_by_file, cleanup)
            .expect("live cleanup is indexed by file")
    }

    /// Only the transfers of the batch currently under evaluation — the
    /// indexed equivalent of `iter::<TransferFact>()` and an
    /// `in_current_batch` filter, O(batch) instead of O(resident transfers).
    pub(crate) fn batch_transfers<'a>(
        &self,
        wm: &'a WorkingMemory,
    ) -> impl Iterator<Item = (FactHandle, &'a TransferFact)> + 'a {
        wm.iter_by(self.batch, &true)
    }

    /// Only the cleanups of the batch currently under evaluation, in
    /// insertion order: [`PolicyIndexes::batch_transfers`] for cleanups.
    pub(crate) fn batch_cleanups<'a>(
        &self,
        wm: &'a WorkingMemory,
    ) -> impl Iterator<Item = (FactHandle, &'a CleanupFact)> + 'a {
        wm.iter_by(self.cleanup_batch, &true)
    }

    /// The allocation ledger for a (source, destination) host pair, if
    /// any. Pairs are unique ("generate a unique group ID" guards). Ledgers
    /// are bucketed by the keyed digest of the two host names — the same
    /// policy as URLs, since a request chooses its hosts — so a probe
    /// borrows them instead of building an owned pair; bucket hits re-verify
    /// the names.
    pub(crate) fn host_pair_for<'a>(
        &self,
        wm: &'a WorkingMemory,
        src_host: &str,
        dst_host: &str,
    ) -> Option<(FactHandle, &'a HostPairFact)> {
        (wm.iter_by(self.pair_by_hosts, &PairKey::of(src_host, dst_host)))
            .find(|(_, p)| p.src_host == src_host && p.dst_host == dst_host)
    }

    /// The stream ledger of one cluster on one host pair's group, if any
    /// ("create the per-cluster ledger" keeps them unique).
    pub(crate) fn cluster_ledger_for<'a>(
        &self,
        wm: &'a WorkingMemory,
        group: GroupId,
        cluster: ClusterId,
    ) -> Option<(FactHandle, &'a ClusterAllocFact)> {
        wm.find_by(self.cluster_ledger, &(group, cluster))
    }
}
