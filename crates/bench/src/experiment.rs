//! The experiment runner shared by the `repro` binary, the ablation
//! studies, and the integration tests.
//!
//! One experiment point = the paper's experimental setup (Section V):
//! augmented 1-degree Montage (89 staging jobs) on the paper testbed
//! topology, no clustering, staging-job limit 20, 5 retries, cleanup
//! enabled, with a selectable staging policy — run over ≥ 5 seeds and
//! summarized as mean ± stddev, exactly as the paper's error bars.

use pwm_core::transport::{NoPolicyTransport, PolicyTransport};
use pwm_core::{
    AllocationPolicy, PolicyConfig, PolicyController, PriorityAlgorithm, SharedSimClock,
    WorkflowId, DEFAULT_SESSION,
};
use pwm_montage::{montage_replicas, montage_workflow, MontageConfig};
use pwm_net::{paper_testbed, HostId, LinkId, Network, StreamModel, Topology};
use pwm_obs::Obs;
use pwm_rest::PolicyRestClient;
use pwm_sim::{SimDuration, Summary};
use pwm_workflow::{
    plan, ComputeSite, ExecutablePlan, ExecutorConfig, PlannerConfig, RunStats, WorkflowExecutor,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The paper's testbed (Section V) wired for a run: the TACC→ISI topology,
/// its two data sources, the WAN bottleneck every figure watches, and the
/// Obelix compute site. Every Montage scenario in this crate (figures,
/// chaos, crash, ablations) starts from [`PaperWorld::testbed`].
#[derive(Debug, Clone)]
pub struct PaperWorld {
    /// Testbed topology; hand it to [`Network::with_seed`].
    pub topology: Topology,
    /// GridFTP VM at TACC, source of the WAN-staged extra files.
    pub gridftp: HostId,
    /// Local Apache host serving the ordinary Montage inputs.
    pub apache: HostId,
    /// The 28 Mbit/s TACC→ISI bottleneck link.
    pub wan: LinkId,
    /// Obelix: 9 nodes × 6 cores with NFS scratch.
    pub site: ComputeSite,
}

impl PaperWorld {
    /// The testbed step: topology, WAN link lookup, and the compute site.
    pub fn testbed() -> Self {
        let (topology, gridftp, apache, nfs) = paper_testbed();
        let wan = topology
            .links()
            .find(|(_, l)| l.name == "wan-tacc-isi")
            .map(|(id, _)| id)
            .expect("paper testbed has the WAN link");
        PaperWorld {
            topology,
            gridftp,
            apache,
            wan,
            site: ComputeSite {
                name: "obelix".into(),
                nodes: 9,
                cores_per_node: 6,
                storage_host: nfs,
                storage_host_name: "obelix-nfs".into(),
                scratch_dir: "/scratch".into(),
            },
        }
    }

    /// The Montage step: the augmented 1-degree Montage workflow for `seed`
    /// (89 staging jobs, `extra_file_bytes` of WAN-staged extras each),
    /// inputs on Apache and extras on the GridFTP VM, planned onto the site.
    pub fn plan_montage(
        &self,
        extra_file_bytes: u64,
        seed: u64,
        planner: &PlannerConfig,
    ) -> ExecutablePlan {
        let workflow = montage_workflow(&MontageConfig {
            extra_file_bytes,
            seed,
            ..Default::default()
        });
        let replicas = montage_replicas(
            &workflow,
            ("apache-isi", self.apache),
            ("gridftp-vm", self.gridftp),
        );
        plan(&workflow, &self.site, &replicas, planner).expect("montage plan must succeed")
    }
}

/// Which staging policy governs the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyMode {
    /// Default Pegasus, no policy service: every transfer uses a fixed
    /// number of streams (4 in the paper's no-policy runs) and no callout
    /// latency is paid.
    NoPolicy,
    /// The greedy allocation policy with the given host-pair threshold.
    Greedy {
        /// Maximum streams between a host pair.
        threshold: u32,
    },
    /// The balanced allocation policy.
    Balanced {
        /// Maximum streams between a host pair.
        threshold: u32,
        /// Workflow clustering factor (per-cluster share = threshold / k).
        cluster_factor: u32,
    },
}

impl PolicyMode {
    /// Short label for tables ("no-policy", "greedy-50"...).
    pub fn label(&self) -> String {
        match self {
            PolicyMode::NoPolicy => "no-policy".to_string(),
            PolicyMode::Greedy { threshold } => format!("greedy-{threshold}"),
            PolicyMode::Balanced {
                threshold,
                cluster_factor,
            } => format!("balanced-{threshold}/{cluster_factor}"),
        }
    }
}

/// A full experiment-point description.
#[derive(Debug, Clone)]
pub struct MontageExperiment {
    /// Extra WAN-staged bytes per staging job (the x-family of Fig. 5, the
    /// fixed size of Figs. 6–9).
    pub extra_file_bytes: u64,
    /// Default streams per transfer (the x-axis of every figure).
    pub default_streams: u32,
    /// Policy under test.
    pub mode: PolicyMode,
    /// Pegasus task clustering factor (`None` = the paper's no-clustering
    /// configuration).
    pub clustering_factor: Option<u32>,
    /// Structure-based priority annotation (ablation).
    pub priority: Option<PriorityAlgorithm>,
    /// Injected transfer failure probability (failure-handling ablation).
    pub transfer_failure_prob: f64,
    /// Staging-job limit (paper: 20).
    pub staging_job_limit: usize,
    /// Policy callout round-trip latency (paper notes this overhead).
    pub policy_call_latency: SimDuration,
}

impl MontageExperiment {
    /// The paper's baseline configuration for a given extra-file size,
    /// default streams, and policy.
    pub fn paper_setup(extra_file_bytes: u64, default_streams: u32, mode: PolicyMode) -> Self {
        MontageExperiment {
            extra_file_bytes,
            default_streams,
            mode,
            clustering_factor: None,
            priority: None,
            transfer_failure_prob: 0.0,
            staging_job_limit: 20,
            policy_call_latency: SimDuration::from_millis(75),
        }
    }

    /// Run one seed; returns the run statistics.
    pub fn run_once(&self, seed: u64) -> RunStats {
        self.run_once_detailed(seed).0
    }

    /// Run one seed with full span tracing: the executor, the network, and
    /// the policy service all share one [`Obs`] handle, so the returned
    /// tracer holds the whole run as a nested flame timeline (job spans →
    /// advice RPCs → transfer spans → flow segments → retries). All span
    /// timestamps are sim time, so the same seed exports an identical trace.
    pub fn run_once_traced(&self, seed: u64) -> (RunStats, Obs) {
        let obs = Obs::new();
        let (stats, _, _) = self.run_inner(seed, Some(obs.clone()));
        (stats, obs)
    }

    /// Run one seed, additionally returning the post-run [`Network`] (with a
    /// utilization timeline recorded on the WAN bottleneck) and the WAN link
    /// id.
    pub fn run_once_detailed(&self, seed: u64) -> (RunStats, Network, LinkId) {
        self.run_inner(seed, None)
    }

    fn run_inner(&self, seed: u64, obs: Option<Obs>) -> (RunStats, Network, LinkId) {
        let world = PaperWorld::testbed();
        let executable = world.plan_montage(
            self.extra_file_bytes,
            seed,
            &PlannerConfig {
                clustering_factor: self.clustering_factor,
                priority: self.priority,
                ..PlannerConfig::default()
            },
        );
        let network = Network::with_seed(world.topology, StreamModel::default(), seed);
        let clock = obs.as_ref().map(|_| SharedSimClock::new());
        let base = PolicyConfig::default().with_default_streams(self.default_streams);
        let policy = match self.mode {
            PolicyMode::NoPolicy => None,
            PolicyMode::Greedy { threshold } => Some(
                base.with_threshold(threshold)
                    .with_allocation(AllocationPolicy::Greedy),
            ),
            PolicyMode::Balanced {
                threshold,
                cluster_factor,
            } => Some(
                base.with_threshold(threshold)
                    .with_cluster_factor(cluster_factor)
                    .with_allocation(AllocationPolicy::Balanced),
            ),
        };
        let (transport, latency): (Box<dyn PolicyTransport>, SimDuration) = match policy {
            None => (
                Box::new(NoPolicyTransport::new(self.default_streams)),
                SimDuration::ZERO,
            ),
            Some(config) => {
                let controller = PolicyController::new(config);
                // Traced runs share one Obs across executor, network, and
                // policy service; the shared clock lets the service stamp
                // its evaluation instants with the executor's virtual time.
                if let (Some(obs), Some(clock)) = (&obs, &clock) {
                    controller
                        .attach_obs(DEFAULT_SESSION, obs.clone())
                        .expect("default session exists");
                    controller
                        .set_sim_clock(DEFAULT_SESSION, clock.clone())
                        .expect("default session exists");
                }
                (
                    Box::new(PolicyRestClient::pipe(controller, DEFAULT_SESSION)),
                    self.policy_call_latency,
                )
            }
        };

        let exec_cfg = ExecutorConfig {
            seed,
            staging_job_limit: self.staging_job_limit,
            retries: 5,
            policy_call_latency: latency,
            transfer_failure_prob: self.transfer_failure_prob,
            workflow_id: WorkflowId(seed),
            watch_link: Some(world.wan),
            watch_timeline: true,
            clock,
            obs,
            ..ExecutorConfig::default()
        };
        let executor =
            WorkflowExecutor::new(&executable, &world.site, network, transport, exec_cfg);
        let (stats, network) = executor.run();
        (stats, network, world.wan)
    }

    /// Run several seeds; returns the makespan summary (seconds) and the
    /// individual run stats, ordered like `seeds`. Each run owns its entire
    /// simulated world, so seeds are embarrassingly parallel; instead of one
    /// thread per seed, a bounded pool of `available_parallelism` workers
    /// claims seeds through a shared cursor, keeping large seed sweeps from
    /// oversubscribing the host. Results are identical to a sequential run.
    pub fn run_seeds(&self, seeds: &[u64]) -> (Summary, Vec<RunStats>) {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(seeds.len().max(1));
        let cursor = AtomicUsize::new(0);
        let mut runs: Vec<(usize, RunStats)> = std::thread::scope(|scope| {
            let pool: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&seed) = seeds.get(index) else { break };
                            done.push((index, self.run_once(seed)));
                        }
                        done
                    })
                })
                .collect();
            pool.into_iter()
                .flat_map(|worker| worker.join().expect("seed run panicked"))
                .collect()
        });
        runs.sort_by_key(|(index, _)| *index);
        let runs: Vec<RunStats> = runs.into_iter().map(|(_, stats)| stats).collect();
        let makespans: Vec<f64> = runs.iter().map(|r| r.makespan_secs()).collect();
        (Summary::of(&makespans), runs)
    }
}

/// The default seed set (the paper runs each point "at least 5 times").
pub fn default_seeds(n: usize) -> Vec<u64> {
    (1..=n as u64).collect()
}

/// Megabytes → bytes, for readable experiment tables.
pub const fn mb(n: u64) -> u64 {
    n * 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unaugmented_run_completes() {
        let exp = MontageExperiment::paper_setup(0, 4, PolicyMode::Greedy { threshold: 50 });
        let stats = exp.run_once(1);
        assert!(stats.success);
        assert_eq!(stats.staging_jobs, 89, "the paper's 89 data staging jobs");
        assert_eq!(stats.compute_jobs, 89);
        assert!(stats.cleanup_jobs > 0);
    }

    #[test]
    fn augmented_run_stages_the_extra_bytes() {
        let exp = MontageExperiment::paper_setup(mb(10), 4, PolicyMode::Greedy { threshold: 50 });
        let stats = exp.run_once(1);
        assert!(stats.success);
        // 89 × 10 MB extra + the ordinary Montage inputs.
        assert!(
            stats.bytes_staged > 890.0e6,
            "bytes staged {} below the 890 MB of extras",
            stats.bytes_staged
        );
    }

    #[test]
    fn run_seeds_orders_results_like_the_input_seeds() {
        let exp = MontageExperiment::paper_setup(0, 4, PolicyMode::Greedy { threshold: 50 });
        // More seeds than workers on small runners, so the pool must queue.
        let seeds = [3, 1, 2, 5, 4];
        let (summary, runs) = exp.run_seeds(&seeds);
        assert_eq!(runs.len(), seeds.len());
        for (&seed, run) in seeds.iter().zip(&runs) {
            assert_eq!(*run, exp.run_once(seed), "seed {seed} out of order");
        }
        assert!(summary.mean > 0.0);
    }

    #[test]
    fn no_policy_mode_runs_without_callouts() {
        let exp = MontageExperiment::paper_setup(0, 4, PolicyMode::NoPolicy);
        let stats = exp.run_once(1);
        assert!(stats.success);
        assert_eq!(stats.transfers_skipped, 0);
    }

    #[test]
    fn table_iv_peak_streams_hold_in_simulation() {
        // Threshold 50, default 8: the WAN must never carry more than 63
        // policy-allocated streams (Table IV's cell).
        let exp = MontageExperiment::paper_setup(mb(100), 8, PolicyMode::Greedy { threshold: 50 });
        let stats = exp.run_once(2);
        assert!(stats.success);
        let peak = stats.peak_wan_streams.unwrap();
        assert!(peak <= 63, "WAN peak {peak} exceeded Table IV's 63");
        assert!(peak >= 40, "WAN peak {peak} suspiciously low");
    }

    #[test]
    fn seeds_reproduce_exactly() {
        let exp = MontageExperiment::paper_setup(mb(10), 6, PolicyMode::Greedy { threshold: 50 });
        let a = exp.run_once(3);
        let b = exp.run_once(3);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.policy_calls, b.policy_calls);
    }

    #[test]
    fn traced_run_exports_a_full_flame_timeline() {
        let exp = MontageExperiment::paper_setup(mb(1), 4, PolicyMode::Greedy { threshold: 50 });
        let (stats, obs) = exp.run_once_traced(1);
        assert!(stats.success);
        let trace = obs.tracer.chrome_trace_json();
        let events = pwm_obs::validate_chrome_trace(&trace).expect("valid Chrome trace");
        assert!(events > 100, "a Montage run should export many spans");
        // Every instrumented layer contributes its own category row.
        for cat in [
            "stage_in",
            "compute",
            "cleanup",
            "transfer",
            "net",
            "policy_rpc",
            "policy",
        ] {
            assert!(
                trace.contains(&format!("\"cat\":\"{cat}\"")),
                "missing category {cat}"
            );
        }
        // The shared registry carries policy- and workflow-layer counters.
        let metrics = obs.registry.render_prometheus();
        assert!(metrics.contains("pwm_policy_transfer_requests_total"));
        assert!(metrics.contains("pwm_workflow_jobs_total"));
    }

    #[test]
    fn traced_run_is_deterministic() {
        let exp = MontageExperiment::paper_setup(0, 4, PolicyMode::Greedy { threshold: 50 });
        let mk = || exp.run_once_traced(7).1.tracer.chrome_trace_json();
        assert_eq!(mk(), mk(), "same seed must export an identical trace");
    }

    #[test]
    fn summary_collects_all_seeds() {
        let exp = MontageExperiment::paper_setup(0, 4, PolicyMode::NoPolicy);
        let (summary, runs) = exp.run_seeds(&[1, 2, 3]);
        assert_eq!(summary.n, 3);
        assert_eq!(runs.len(), 3);
        assert!(summary.mean > 0.0);
    }
}
