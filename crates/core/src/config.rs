//! Policy Service configuration.
//!
//! "Prior to each test, the policy service was configured to use a specified
//! default number of streams per transfer and a maximum number of allowable
//! streams between two hosts" — these are the two central knobs, plus the
//! selection of the allocation policy and the transfer-ordering policy.

use crate::name::Name;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which stream-allocation policy the rule session enforces (Section III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AllocationPolicy {
    /// No allocation control: every transfer gets its requested/default
    /// streams (the paper's "default Pegasus, no policy" comparator still
    /// goes through dedup/grouping if it talks to the service at all).
    #[default]
    Unlimited,
    /// Greedy allocation against the host-pair threshold (Table II).
    Greedy,
    /// Balanced allocation: the threshold is divided evenly among the
    /// workflow's clusters (Table III).
    Balanced,
}

/// Which storage-backend selection policy the storage rule family applies
/// to transfers whose destination site has registered backend profiles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum StoragePolicy {
    /// The family is disabled: no backend advice, byte-identical behavior
    /// to a service built before the storage layer existed.
    #[default]
    Off,
    /// Pick the backend with the lowest estimated dollar cost for the
    /// transfer (requests + residency estimate + egress), ties broken by
    /// name.
    GreedyCheapest,
    /// Cheapest backend whose envelope meets a performance floor; when
    /// none qualifies, the fastest (highest effective bandwidth) wins.
    LatencyFloor {
        /// Maximum acceptable fixed setup (request overhead), seconds.
        max_setup_s: f64,
        /// Minimum acceptable effective bandwidth, bytes/second.
        min_bandwidth_bps: f64,
    },
    /// Greedy-cheapest on performance-first order: fastest backend whose
    /// projected cumulative committed spend stays within the budget;
    /// falls back to the cheapest backend once the budget is exhausted.
    BudgetCapped {
        /// Total dollars the selection rules may commit across the run.
        budget_dollars: f64,
    },
}

/// One storage backend made visible to policy memory: the envelope plus the
/// destination-site host it serves (mirrored into a `BackendProfileFact`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendProfileCfg {
    /// Performance + cost envelope (shared with the simulator layer).
    pub profile: pwm_storage::BackendSpec,
    /// Host name of the destination site this backend serves.
    pub site: String,
}

/// How the returned transfer list is ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum OrderingPolicy {
    /// "Sort the list of transfers by the source and destination URLs"
    /// (Table I).
    #[default]
    ByUrl,
    /// Structure-based job priorities (Section III.c): higher priority
    /// first, URL order as tie-break.
    ByPriority,
}

/// Full configuration of one policy session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyConfig {
    /// Default parallel streams assigned to a transfer that does not request
    /// a specific number.
    pub default_streams: u32,
    /// Maximum total streams between a source and destination host pair,
    /// unless overridden per pair.
    pub default_threshold: u32,
    /// Per-(source host, destination host) threshold overrides, as a site /
    /// VO administrator would configure. Serialized as an entry list because
    /// JSON object keys must be strings.
    #[serde(with = "pair_thresholds_serde")]
    pub pair_thresholds: BTreeMap<(Name, Name), u32>,
    /// The allocation policy in force.
    pub allocation: AllocationPolicy,
    /// The ordering policy in force.
    pub ordering: OrderingPolicy,
    /// The workflow clustering factor (balanced allocation input: "the
    /// cluster factor for the workflow is provided as an input to the Policy
    /// Service").
    pub cluster_factor: u32,
    /// Whether duplicate-transfer removal is enabled (Table I). Disabled
    /// only by ablation experiments.
    pub dedup: bool,
    /// Retention of the in-memory audit ring, in records; `None` keeps the
    /// built-in default so configurations from before this field existed
    /// still decode.
    #[serde(default)]
    pub audit_retention: Option<usize>,
    /// Storage backends visible to the storage rule family (empty = none
    /// registered; pre-storage configurations still decode).
    #[serde(default)]
    pub backends: Vec<BackendProfileCfg>,
    /// Storage-backend selection policy in force.
    #[serde(default)]
    pub storage: StoragePolicy,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        // The paper's common experimental configuration: default 4 streams
        // per transfer and a 50-stream greedy threshold.
        PolicyConfig {
            default_streams: 4,
            default_threshold: 50,
            pair_thresholds: BTreeMap::new(),
            allocation: AllocationPolicy::Greedy,
            ordering: OrderingPolicy::ByUrl,
            cluster_factor: 1,
            dedup: true,
            audit_retention: None,
            backends: Vec::new(),
            storage: StoragePolicy::Off,
        }
    }
}

/// Default audit-ring retention when [`PolicyConfig::audit_retention`] is
/// unset.
pub const DEFAULT_AUDIT_RETENTION: usize = 4096;

impl PolicyConfig {
    /// Threshold in force for a specific host pair.
    pub fn threshold_for(&self, src_host: &str, dst_host: &str) -> u32 {
        self.pair_thresholds
            .get(&(src_host.into(), dst_host.into()))
            .copied()
            .unwrap_or(self.default_threshold)
    }

    /// Per-cluster share under the balanced policy: the pair threshold
    /// divided evenly among clusters (integer division, floor ≥ 1).
    pub fn cluster_share(&self, src_host: &str, dst_host: &str) -> u32 {
        let total = self.threshold_for(src_host, dst_host);
        (total / self.cluster_factor.max(1)).max(1)
    }

    /// Builder-style: set the default streams.
    pub fn with_default_streams(mut self, n: u32) -> Self {
        self.default_streams = n.max(1);
        self
    }

    /// Builder-style: set the default threshold.
    pub fn with_threshold(mut self, n: u32) -> Self {
        self.default_threshold = n.max(1);
        self
    }

    /// Builder-style: set the allocation policy.
    pub fn with_allocation(mut self, p: AllocationPolicy) -> Self {
        self.allocation = p;
        self
    }

    /// Builder-style: set the ordering policy.
    pub fn with_ordering(mut self, p: OrderingPolicy) -> Self {
        self.ordering = p;
        self
    }

    /// Builder-style: set the clustering factor.
    pub fn with_cluster_factor(mut self, f: u32) -> Self {
        self.cluster_factor = f.max(1);
        self
    }

    /// Audit-ring retention in force (configured or default).
    pub fn audit_retention(&self) -> usize {
        self.audit_retention
            .unwrap_or(DEFAULT_AUDIT_RETENTION)
            .max(1)
    }

    /// Builder-style: bound the audit ring to `n` records.
    pub fn with_audit_retention(mut self, n: usize) -> Self {
        self.audit_retention = Some(n.max(1));
        self
    }

    /// Builder-style: register a storage backend at `site`.
    pub fn with_backend(
        mut self,
        profile: pwm_storage::BackendSpec,
        site: impl Into<String>,
    ) -> Self {
        self.backends.push(BackendProfileCfg {
            profile,
            site: site.into(),
        });
        self
    }

    /// Builder-style: set the storage-backend selection policy.
    pub fn with_storage(mut self, p: StoragePolicy) -> Self {
        self.storage = p;
        self
    }

    /// Builder-style: add a per-pair threshold override.
    pub fn with_pair_threshold(
        mut self,
        src_host: impl Into<Name>,
        dst_host: impl Into<Name>,
        threshold: u32,
    ) -> Self {
        self.pair_thresholds
            .insert((src_host.into(), dst_host.into()), threshold.max(1));
        self
    }
}

mod pair_thresholds_serde {
    use crate::name::Name;
    use serde::{Deserialize, Reader, Serialize, Writer};
    use std::collections::BTreeMap;

    /// Wire form: a list of `{src_host, dst_host, threshold}` entries (tuple
    /// map keys have no JSON encoding).
    #[derive(Serialize, Deserialize)]
    struct Entry {
        src_host: Name,
        dst_host: Name,
        threshold: u32,
    }

    pub fn serialize(map: &BTreeMap<(Name, Name), u32>, w: &mut Writer) {
        let entries: Vec<Entry> = map
            .iter()
            .map(|((s, d), t)| Entry {
                src_host: s.clone(),
                dst_host: d.clone(),
                threshold: *t,
            })
            .collect();
        entries.serialize(w);
    }

    pub fn deserialize(r: &mut Reader<'_>) -> Result<BTreeMap<(Name, Name), u32>, serde::Error> {
        let entries = Vec::<Entry>::deserialize(r)?;
        Ok(entries
            .into_iter()
            .map(|e| ((e.src_host, e.dst_host), e.threshold))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_baseline() {
        let c = PolicyConfig::default();
        assert_eq!(c.default_streams, 4);
        assert_eq!(c.default_threshold, 50);
        assert_eq!(c.allocation, AllocationPolicy::Greedy);
        assert_eq!(c.ordering, OrderingPolicy::ByUrl);
        assert!(c.dedup);
    }

    #[test]
    fn pair_override_beats_default() {
        let c = PolicyConfig::default()
            .with_threshold(100)
            .with_pair_threshold("tacc", "isi", 50);
        assert_eq!(c.threshold_for("tacc", "isi"), 50);
        assert_eq!(c.threshold_for("isi", "tacc"), 100);
        assert_eq!(c.threshold_for("a", "b"), 100);
    }

    #[test]
    fn cluster_share_divides_evenly_with_floor() {
        let c = PolicyConfig::default()
            .with_threshold(50)
            .with_cluster_factor(4);
        assert_eq!(c.cluster_share("a", "b"), 12);
        let c = c.with_cluster_factor(100);
        assert_eq!(c.cluster_share("a", "b"), 1, "share floors at 1 stream");
    }

    #[test]
    fn builders_clamp_degenerate_values() {
        let c = PolicyConfig::default()
            .with_default_streams(0)
            .with_threshold(0)
            .with_cluster_factor(0);
        assert_eq!(c.default_streams, 1);
        assert_eq!(c.default_threshold, 1);
        assert_eq!(c.cluster_factor, 1);
    }

    #[test]
    fn config_serde_roundtrip() {
        let c = PolicyConfig::default()
            .with_pair_threshold("x", "y", 9)
            .with_allocation(AllocationPolicy::Balanced)
            .with_audit_retention(128);
        let json = serde_json::to_string(&c).unwrap();
        let back: PolicyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn audit_retention_defaults_and_clamps() {
        let c = PolicyConfig::default();
        assert_eq!(c.audit_retention(), DEFAULT_AUDIT_RETENTION);
        assert_eq!(c.with_audit_retention(0).audit_retention(), 1);
    }

    #[test]
    fn storage_config_roundtrips_and_defaults_off() {
        assert_eq!(PolicyConfig::default().storage, StoragePolicy::Off);
        let c = PolicyConfig::default()
            .with_backend(pwm_storage::ec2_trio().remove(0), "obelix-nfs")
            .with_storage(StoragePolicy::BudgetCapped {
                budget_dollars: 2.5,
            });
        let json = serde_json::to_string(&c).unwrap();
        let back: PolicyConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn config_without_storage_fields_still_decodes() {
        // A pre-storage config on the wire must keep decoding (both fields
        // carry #[serde(default)]).
        let json = serde_json::to_string(&PolicyConfig::default()).unwrap();
        let stripped = json
            .replace(",\"backends\":[]", "")
            .replace(",\"storage\":\"Off\"", "");
        assert!(!stripped.contains("backends"), "strip failed: {stripped}");
        let back: PolicyConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, PolicyConfig::default());
    }

    #[test]
    fn config_without_audit_field_still_decodes() {
        // A pre-retention config on the wire must keep decoding (the field
        // carries #[serde(default)]).
        let json = serde_json::to_string(&PolicyConfig::default()).unwrap();
        let stripped = json.replace(",\"audit_retention\":null", "");
        assert!(!stripped.contains("audit_retention"));
        let back: PolicyConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, PolicyConfig::default());
    }
}
