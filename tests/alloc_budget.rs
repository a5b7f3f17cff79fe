//! What the whole-stack path costs per workflow and per policy call: the
//! `campaign`, `resident` and `durable` sections of the exact-cost ledger
//! (`ledger/mod.rs`), asserted against the committed `scripts/costs.txt`.

#[macro_use]
mod ledger;

use ledger::{alloc_stats, counted, held, Ledger};
use pwm_bench::PaperWorld;
use pwm_core::transport::{InProcessTransport, PolicyTransport};
use pwm_core::{
    AllocationPolicy, CleanupOutcome, CleanupSpec, DurabilityConfig, PolicyConfig,
    PolicyController, PolicyService, TransferAction, TransferOutcome, TransferSpec, Url,
    WorkflowId, DEFAULT_SESSION,
};
use pwm_montage::{montage_replicas, montage_workflow, MontageConfig};
use pwm_net::{Network, StreamModel};
use pwm_rest::{PolicyRestClient, PolicyRestServer};
use pwm_sim::SimDuration;
use pwm_workflow::{merge_plans, plan, ExecutorConfig, PlannerConfig, WorkflowExecutor};

/// File `n` between the hosts of `pair` into `dir`, for `workflow`. A path
/// of at most 22 bytes is held inline by its `Name`; a longer one, like the
/// campaign's, takes one shared allocation.
fn transfer(dir: &str, pair: u64, n: u64, workflow: u64) -> TransferSpec {
    TransferSpec {
        source: Url::new("gsiftp", format!("src-{pair}"), format!("/data/{n:04}.dat")),
        dest: Url::new("file", format!("dst-{pair}"), format!("{dir}/{n:04}.dat")),
        bytes: 1_000_000,
        requested_streams: None,
        workflow: WorkflowId(workflow),
        cluster: None,
        priority: None,
    }
}

const WORKFLOWS: u64 = 2;
const CALLS: u64 = 64;
/// Allocations the server's loop may make per policy call. Not exact: a read
/// takes what has arrived, so its buffers grow a turn more or less.
const SERVER_ALLOCS_PER_CALL: u64 = 10;

fn campaign() -> Ledger {
    let controller = PolicyController::new(
        PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(50)
            .with_allocation(AllocationPolicy::Greedy),
    );
    let server = PolicyRestServer::start(controller.clone()).expect("loopback server");
    let world = PaperWorld::testbed();
    let bytes_before_plans = held().1;
    let (plans, plan_allocs, _) = counted(|| {
        (0..WORKFLOWS)
            .map(|i| {
                let mut config = MontageConfig::default();
                (config.extra_file_bytes, config.seed) = (10_000_000, 1 + i);
                let mut workflow = montage_workflow(&config);
                workflow.name = format!("{}-c{i:02}", workflow.name);
                let replicas = montage_replicas(
                    &workflow,
                    ("apache-isi", world.apache),
                    ("gridftp-vm", world.gridftp),
                );
                plan(&workflow, &world.site, &replicas, &PlannerConfig::default()).expect("plans")
            })
            .collect::<Vec<_>>()
    });
    let (merged, merge, _) = counted(|| merge_plans(&plans.iter().collect::<Vec<_>>(), 1));
    let plan_bytes = held().1 - bytes_before_plans;

    let network = Network::with_seed(world.topology, StreamModel::default(), 1);
    let client = PolicyRestClient::new(server.addr(), DEFAULT_SESSION);
    let config = ExecutorConfig {
        seed: 1,
        policy_call_latency: SimDuration::from_millis(75),
        ..ExecutorConfig::default()
    };
    let (executor, new_allocs, _) =
        counted(|| WorkflowExecutor::new(&merged, &world.site, network, Box::new(client), config));
    let ((stats, network), run_allocs, server_allocs) = counted(|| executor.run());
    assert!(stats.success, "the ledger reads a clean run");
    let memory = controller.snapshot(DEFAULT_SESSION).unwrap();
    assert_eq!(memory.staged_files, 0, "cleanup removed every staged file");

    let mut l = Ledger("campaign", String::new());
    let calls = stats.policy_calls;
    l.row("policy_calls", calls);
    // The benchmark's `workflow.policy_calls_per_wf`; the total above is exact.
    l.row("workflow.policy_calls_per_wf", calls / WORKFLOWS);
    l.row("transfers", stats.transfers.len());
    l.row("transfers_skipped", stats.transfers_skipped);
    l.row("transfer_retries", stats.transfer_retries);
    l.row("makespan_sim_us", stats.makespan.as_micros());
    fields! { l, "service.", controller.stats(DEFAULT_SESSION).unwrap(); transfer_requests,
    transfers_executed, transfers_suppressed, transfers_completed, transfers_failed,
    cleanup_requests, cleanups_executed, cleanups_suppressed, rule_firings }
    for rule in controller.rule_stats(DEFAULT_SESSION).unwrap() {
        // "greedy: enforce the ..." → `rule.greedy.enforce_the_...`
        let name = rule.name.replace(": ", ".").replace(' ', "_");
        fields! { l, format_args!("rule.{name}."), &rule; evaluations, matches, firings }
    }
    alloc_stats(&mut l, &network);
    let per_wf = format!("per_{WORKFLOWS}_wf");
    l.row(format_args!("plan.allocs_{per_wf}"), plan_allocs);
    l.row(format_args!("merge_plans.allocs_{per_wf}"), merge);
    let run = new_allocs + run_allocs;
    l.row(format_args!("executor.new_run.allocs_{per_wf}"), run);
    l.row(format_args!("plans.bytes_held_{per_wf}"), plan_bytes);
    l.1 += "# not exact: a server read takes what has arrived, so the loop's buffers\n\
            # grow a turn more or less (7 863-7 887 allocations over 1 148 calls)\n";
    let bound = if server_allocs <= SERVER_ALLOCS_PER_CALL * calls {
        format!("<={SERVER_ALLOCS_PER_CALL}")
    } else {
        format!("{server_allocs}/{calls}")
    };
    l.row("server.allocs_per_policy_call", bound);

    // The client half of each kind of call, alone: a report carries nothing
    // back, and a one-transfer evaluate carries one advice entry.
    let mut client = PolicyRestClient::new(server.addr(), DEFAULT_SESSION);
    let warm = vec![transfer("/scratch/budget/budget", 0, CALLS, 9)];
    client.evaluate_transfers(warm).expect("warm");
    let (mut allocs, workflow) = ([0; 4], WorkflowId(9));
    for n in 0..CALLS {
        let specs = vec![transfer("/scratch/budget/budget", 0, n, 9)];
        let (advice, evaluate, _) = counted(|| client.evaluate_transfers(specs).expect("advice"));
        let (id, file) = (advice[0].id, advice[0].dest.clone());
        let outcomes = vec![TransferOutcome { id, success: true }];
        let (_, report, _) = counted(|| client.report_transfers(outcomes).expect("ack"));
        let specs = vec![CleanupSpec { file, workflow }];
        let (advice, cleanup, _) = counted(|| client.evaluate_cleanups(specs).expect("advice"));
        let id = advice[0].id;
        let outcomes = vec![CleanupOutcome { id, success: true }];
        let (_, done, _) = counted(|| client.report_cleanups(outcomes).expect("ack"));
        for (total, n) in allocs.iter_mut().zip([evaluate, report, cleanup, done]) {
            *total += n;
        }
    }
    let [evaluate, report, cleanup, done] = allocs;
    let per = format!("allocs_per_{CALLS}_calls");
    l.row(format_args!("client.evaluate_transfers.{per}"), evaluate);
    l.row(format_args!("client.report_transfers.{per}"), report);
    l.row(format_args!("client.evaluate_cleanups.{per}"), cleanup);
    l.row(format_args!("client.report_cleanups.{per}"), done);
    l
}

/// (blocks, bytes) this thread holds after staging `files` files through a
/// fresh 4-shard in-process session over 16 host pairs, counted from before
/// the session was created.
fn resident_session(files: u64) -> (i64, i64) {
    let (blocks, bytes) = held();
    let controller = PolicyController::new(PolicyConfig::default());
    controller.create_sharded_session("resident", PolicyConfig::default(), 4);
    let mut transport = InProcessTransport::new(controller.clone(), "resident");
    let specs: Vec<_> = (0..files).map(|j| transfer("/s", j % 16, j, j)).collect();
    for chunk in specs.chunks(16) {
        let advice = transport.evaluate_transfers(chunk.to_vec()).unwrap();
        let done = advice
            .iter()
            .map(|a| a.id)
            .map(|id| TransferOutcome { id, success: true });
        transport.report_transfers(done.collect()).expect("ack");
    }
    drop(specs);
    let memory = controller.snapshot("resident").expect("session");
    assert_eq!(memory.staged_files, files as usize);
    assert_eq!(memory.in_progress_transfers, 0);
    drop(memory);
    let after = held();
    (after.0 - blocks, after.1 - bytes)
}

/// What resident staged files hold: the difference between a 6 000-file and
/// a 2 000-file session, so the fixed cost of a session cancels.
fn resident() -> Ledger {
    let (few_blocks, few_bytes) = resident_session(2_000);
    let (many_blocks, many_bytes) = resident_session(6_000);
    let mut l = Ledger("resident", String::new());
    l.row("blocks_per_4000_files", many_blocks - few_blocks);
    l.row("bytes_per_4000_files", many_bytes - few_bytes);
    l
}

/// Forty rounds, each: evaluate four transfers (the first a file the round
/// before asked for), report those executed (every fifth id fails), and from
/// the third round on evaluate and report cleanups of the files asked for
/// two rounds before.
fn durable() -> Ledger {
    let dir = std::env::temp_dir().join(format!("pwm-costs-durable-{}", std::process::id()));
    let mut service = PolicyService::new(PolicyConfig::default());
    let config = DurabilityConfig::new(&dir);
    service.enable_durability(config).expect("durable");
    let mut calls = 0;
    for round in 0..40u64 {
        let batch = (0..4).map(|k| transfer("/s", 0, round * 3 + k, round % 3));
        let outcomes: Vec<_> = (service.evaluate_transfers(batch.collect()).iter())
            .filter(|a| a.action == TransferAction::Execute)
            .map(|a| (a.id, a.id.0 % 5 != 0))
            .map(|(id, success)| TransferOutcome { id, success })
            .collect();
        service.report_transfers(outcomes);
        calls += 2;
        if round >= 2 {
            let workflow = WorkflowId(round % 3);
            let files = (0..3).map(|k| transfer("/s", 0, (round - 2) * 3 + k, 0).dest);
            let batch = files.map(|file| CleanupSpec { file, workflow });
            let advice = service.evaluate_cleanups(batch.collect());
            let done = advice
                .iter()
                .map(|a| a.id)
                .map(|id| CleanupOutcome { id, success: true });
            service.report_cleanups(done.collect());
            calls += 2;
        }
    }
    let written = service.durability_counts().expect("durable");
    let recovered = PolicyService::recover_from(&dir).expect("recovery");
    // A recovered service does not log, so it stamps no applied sequence.
    let mut live = service.durable_state();
    live.applied_seq = 0;
    assert_eq!(recovered.durable_state(), live);
    assert_eq!(recovered.snapshot(), service.snapshot());
    std::fs::remove_dir_all(&dir).ok();
    let mut l = Ledger("durable", String::new());
    l.row("calls", calls);
    l.row("wal_records", written.appends);
    fields! { l, "", written; fsyncs, snapshots, bytes_written }
    l
}

#[test]
fn allocations_per_workflow_and_per_policy_call_stay_under_budget() {
    ledger::assert_committed(&[campaign, resident, durable]);
}
