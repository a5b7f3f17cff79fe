//! Site and replica catalogs.
//!
//! Pegasus resolves an abstract workflow against a *site catalog* (where can
//! jobs run, what storage is attached) and a *replica catalog* (where do
//! logical files physically live). Ours are deliberately small: one compute
//! site with attached shared storage, plus any number of external data
//! sources.

use pwm_core::{Name, Url};
use pwm_net::HostId;
use std::collections::BTreeMap;

/// The compute site jobs execute on (the paper's Obelix cluster: 9 nodes of
/// 6 cores, NFS-attached storage on a 1 Gbit LAN).
#[derive(Debug, Clone)]
pub struct ComputeSite {
    /// Site name.
    pub name: Name,
    /// Worker nodes.
    pub nodes: u32,
    /// Cores per node.
    pub cores_per_node: u32,
    /// The shared-storage host (NFS server) files are staged to, as known to
    /// the network simulator.
    pub storage_host: HostId,
    /// Host name of the storage host as it appears in URLs.
    pub storage_host_name: Name,
    /// Scratch directory files are staged into.
    pub scratch_dir: Name,
}

impl ComputeSite {
    /// Total concurrent compute slots.
    pub fn slots(&self) -> u32 {
        self.nodes * self.cores_per_node
    }

    /// Destination URL for staging a logical file to this site's scratch
    /// space for workflow `wf`.
    pub fn scratch_url(&self, wf: &str, file: &str) -> Url {
        Url::new(
            "file",
            self.storage_host_name.clone(),
            format_args!("{}/{}/{}", self.scratch_dir, wf, file),
        )
    }
}

/// One physical location of a logical file.
#[derive(Debug, Clone)]
pub struct Replica {
    /// Where the file can be fetched from.
    pub url: Url,
    /// The network host serving it.
    pub host: HostId,
}

/// Maps logical files to their physical locations.
///
/// A file may have several replicas; planning uses the first registered
/// (the *preferred* replica) and the recovery machinery consults the rest
/// via [`ReplicaCatalog::replicas`] when the preferred copy is lost to a
/// host crash or quarantined after checksum failures.
#[derive(Debug, Clone, Default)]
pub struct ReplicaCatalog {
    entries: BTreeMap<Name, Vec<Replica>>,
}

impl ReplicaCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a physical location of a logical file. Re-registering the
    /// same URL is a no-op; a new URL becomes an additional replica.
    pub fn insert(&mut self, file: impl Into<Name>, url: Url, host: HostId) {
        let list = self.entries.entry(file.into()).or_default();
        if list.iter().all(|r| r.url != url) {
            list.push(Replica { url, host });
        }
    }

    /// Look up a file's preferred (first-registered) replica.
    pub fn lookup(&self, file: &str) -> Option<&Replica> {
        self.entries.get(file).and_then(|l| l.first())
    }

    /// All registered replicas of a file, in registration order.
    pub fn replicas(&self, file: &str) -> &[Replica] {
        self.entries.get(file).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no replicas are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Register many files served from one host under a base path.
    pub fn insert_bulk<'a>(
        &mut self,
        files: impl IntoIterator<Item = &'a str>,
        scheme: &str,
        host_name: &str,
        base_path: &str,
        host: HostId,
    ) {
        for file in files {
            self.insert(
                file,
                Url::new(scheme, host_name, format_args!("{base_path}/{file}")),
                host,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site() -> ComputeSite {
        ComputeSite {
            name: "obelix".into(),
            nodes: 9,
            cores_per_node: 6,
            storage_host: HostId(2),
            storage_host_name: "obelix-nfs".into(),
            scratch_dir: "/scratch".into(),
        }
    }

    #[test]
    fn slots_multiply() {
        assert_eq!(site().slots(), 54);
    }

    #[test]
    fn scratch_url_is_namespaced_by_workflow() {
        let u = site().scratch_url("montage-run-1", "raw_007.fits");
        assert_eq!(
            u.to_string(),
            "file://obelix-nfs/scratch/montage-run-1/raw_007.fits"
        );
    }

    #[test]
    fn replica_lookup() {
        let mut rc = ReplicaCatalog::new();
        rc.insert(
            "raw.fits",
            Url::new("http", "apache-isi", "/montage/raw.fits"),
            HostId(1),
        );
        let r = rc.lookup("raw.fits").unwrap();
        assert_eq!(r.host, HostId(1));
        assert_eq!(r.url.scheme, "http");
        assert!(rc.lookup("missing").is_none());
    }

    #[test]
    fn multiple_replicas_accumulate_and_dedup_by_url() {
        let mut rc = ReplicaCatalog::new();
        rc.insert(
            "raw.fits",
            Url::new("gsiftp", "gridftp-vm", "/data/raw.fits"),
            HostId(0),
        );
        rc.insert(
            "raw.fits",
            Url::new("http", "apache-isi", "/montage/raw.fits"),
            HostId(1),
        );
        // Same URL again: no duplicate replica.
        rc.insert(
            "raw.fits",
            Url::new("gsiftp", "gridftp-vm", "/data/raw.fits"),
            HostId(0),
        );
        assert_eq!(rc.replicas("raw.fits").len(), 2);
        // Preferred replica is the first registered.
        assert_eq!(rc.lookup("raw.fits").unwrap().host, HostId(0));
        assert_eq!(rc.replicas("raw.fits")[1].host, HostId(1));
        assert!(rc.replicas("missing").is_empty());
    }

    #[test]
    fn bulk_insert_builds_urls() {
        let mut rc = ReplicaCatalog::new();
        rc.insert_bulk(
            ["a.dat", "b.dat"],
            "gsiftp",
            "gridftp-vm",
            "/data",
            HostId(0),
        );
        assert_eq!(rc.len(), 2);
        assert_eq!(
            rc.lookup("b.dat").unwrap().url.to_string(),
            "gsiftp://gridftp-vm/data/b.dat"
        );
    }
}
