//! What the whole-stack path costs per workflow and per policy call: the
//! `campaign`, `sharded`, `resident` and `durable` sections of the
//! exact-cost ledger (`ledger/mod.rs`), asserted against the committed
//! `scripts/costs.txt`.

#[macro_use]
mod ledger;

use ledger::{alloc_stats, counted, held, Ledger};
use pwm_bench::PaperWorld;
use pwm_core::transport::PolicyTransport;
use pwm_core::{
    AllocationPolicy, CleanupOutcome, CleanupSpec, DurabilityConfig, PolicyConfig,
    PolicyController, PolicyService, SimDisk, TransferAction, TransferOutcome, TransferSpec, Url,
    WorkflowId, DEFAULT_SESSION,
};
use pwm_montage::{montage_replicas, montage_workflow, MontageConfig};
use pwm_net::{Network, StreamModel};
use pwm_rest::http::{render_request, try_parse_response};
use pwm_rest::{
    CleanupCompletionEnvelope, CleanupRequestEnvelope, CleanupResponseEnvelope, Method,
    PolicyRestClient, PolicyRestServer, TransferCompletionEnvelope, TransferRequestEnvelope,
    TransferResponseEnvelope, WireFormat,
};
use pwm_sim::SimDuration;
use pwm_workflow::{merge_plans, plan, ExecutorConfig, PlannerConfig, WorkflowExecutor};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Mutex;

/// Held by a workload while a REST server of its own answers calls: the
/// ledger counts every thread that is no workload's (a server loop) in one
/// total, so two servers must not answer at the same time.
static SERVING: Mutex<()> = Mutex::new(());

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
/// What the server may allocate answering the campaign's 1 148 calls (see
/// the row's comment for why it is a ceiling).
const SERVER_ALLOCS_PER_CAMPAIGN: u64 = 2256;

fn campaign() -> Ledger {
    let _serving = SERVING.lock().unwrap_or_else(|e| e.into_inner());
    let controller = PolicyController::new(
        PolicyConfig::default()
            .with_default_streams(8)
            .with_threshold(50)
            .with_allocation(AllocationPolicy::Greedy),
    );
    let server = PolicyRestServer::start(controller.clone()).expect("loopback server");
    // The loop thread makes its counters and buffers as it starts: one
    // answered call puts that behind us before anything is counted.
    assert!(PolicyRestClient::new(server.addr(), DEFAULT_SESSION).health());
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
    let walked = controller.facts_walked(DEFAULT_SESSION).unwrap();
    let ((stats, network), run_allocs, server_allocs) = counted(|| executor.run());
    assert!(stats.success, "the ledger reads a clean run");
    let walked = controller.facts_walked(DEFAULT_SESSION).unwrap() - walked;
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
    l.1 += "# the loop's buffers are made when it starts, a connection's when it is\n\
            # accepted. What remains makes state the session keeps: a Name for each path\n\
            # longer than 22 bytes (a transfer's source and destination, a cleanup's file;\n\
            # ~1 400), the metric series its first calls publish (~640), and its tables\n\
            # growing to their peak. Not exact, by one table growth or so: the URL indexes\n\
            # hash a per-process keyed digest, so which removals leave tombstones, and so\n\
            # when a table that churns must grow, differs from run to run (2 248-2 249)\n";
    let bound = SERVER_ALLOCS_PER_CAMPAIGN;
    let measured = match server_allocs {
        n if n <= bound => format!("<={bound}"),
        n => n.to_string(),
    };
    l.row(format_args!("server.allocs_per_{calls}_calls"), measured);
    l.1 += "# exact: facts the session's whole-type walks yield, all of them the full\n\
            # scans of `when_each` rules whose match cache was never computed or whose\n\
            # type's change log no longer reaches back to it; the batch-scoped rules walk\n\
            # their batch index and gauges are read when scraped\n";
    l.row(
        format_args!("server.facts_walked_per_{calls}_calls"),
        walked,
    );

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

/// Host pairs the sharded cycles spread over: every cycle stages one file
/// on each, so the warm-up cycle creates every pair's ledger.
const PAIRS: u64 = 16;
/// Request groups of one pipelined window, as in `advice_hot`.
const WINDOW: u64 = 8;
/// Cycles counted after the warm-up cycle.
const CYCLES: u64 = 10;

/// File `k` of group `g` of cycle `cycle`: its host pair and a path of the
/// length `advice_hot`'s take, past what a `Name` holds inline.
fn cycle_file(cycle: u64, g: u64, k: u64, workflow: u64) -> TransferSpec {
    let pair = (2 * g + k) % PAIRS;
    let file = format!(
        "c{cycle}/{g}-{k}-{:06x}.dat",
        (cycle * 31 + g * 7 + k) * 2_654_435
    );
    TransferSpec {
        source: Url::new("gsiftp", format!("gridftp-{pair}"), format!("/data/{file}")),
        dest: Url::new(
            "file",
            format!("scratch-{pair}"),
            format!("/scratch/{file}"),
        ),
        bytes: 1_000_000 + g,
        requested_streams: None,
        workflow: WorkflowId(workflow),
        cluster: None,
        priority: None,
    }
}

/// One keep-alive connection to the sharded server, as `advice_hot`'s
/// callers drive it: each exchange is one write, then its answers.
struct Caller {
    stream: TcpStream,
    rbuf: Vec<u8>,
}

impl Caller {
    fn post(wire: &mut Vec<u8>, route: &str, body: Vec<u8>) {
        let path = format!("/sessions/sharded/{route}");
        wire.extend(render_request(
            WireFormat::Json,
            Method::Post,
            &path,
            &body,
            true,
        ));
    }

    /// Send `wire` in one write; the bodies of its `responses` answers.
    fn exchange(&mut self, wire: &[u8], responses: usize) -> Vec<Vec<u8>> {
        self.stream.write_all(wire).expect("send");
        let mut bodies = Vec::new();
        let mut chunk = [0u8; 16 << 10];
        while bodies.len() < responses {
            match try_parse_response(&self.rbuf).expect("a response") {
                Some((200, body, len)) => {
                    bodies.push(body);
                    self.rbuf.drain(..len);
                }
                Some((status, body, _)) => panic!("{status}: {}", String::from_utf8_lossy(&body)),
                None => {
                    let n = self.stream.read(&mut chunk).expect("receive");
                    assert!(n > 0, "the server closed the connection");
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
            }
        }
        bodies
    }
}

/// `advice_hot`'s path over loopback, one caller: a 4-shard session, then
/// cycles of a pipelined window of 8 three-spec groups (two new files for
/// one workflow, then the first again for a second: one cross-workflow
/// duplicate each), the completion report, each workflow's cleanups and
/// the cleanup report. One warm-up cycle makes every buffer and ledger the
/// cycles use; the server's allocations in the cycles after it are counted,
/// per kind of exchange.
fn sharded() -> Ledger {
    let _serving = SERVING.lock().unwrap_or_else(|e| e.into_inner());
    let controller = PolicyController::new(PolicyConfig::default());
    let config = PolicyConfig::default().with_default_streams(4);
    controller.create_sharded_session("sharded", config, 4);
    let server = PolicyRestServer::start(controller.clone()).expect("loopback server");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut caller = Caller {
        stream,
        rbuf: Vec::new(),
    };
    // [window, report, first cleanups, second cleanups, cleanup report]
    let mut counts = [0u64; 5];
    let (mut executed, mut suppressed, mut walked) = (0, 0, 0);
    for cycle in 0..=CYCLES {
        if cycle == 1 {
            walked = controller.facts_walked("sharded").unwrap();
        }
        let (staging, sharing) = (2 * cycle, 2 * cycle + 1);
        let mut window = Vec::new();
        let (mut first, mut second) = (Vec::new(), Vec::new());
        for g in 0..WINDOW {
            let mut transfers: Vec<_> = (0..2).map(|k| cycle_file(cycle, g, k, staging)).collect();
            let mut shared = transfers[0].clone();
            shared.workflow = WorkflowId(sharing);
            first.extend(transfers.iter().map(|t| CleanupSpec {
                file: t.dest.clone(),
                workflow: t.workflow,
            }));
            second.push(CleanupSpec {
                file: shared.dest.clone(),
                workflow: shared.workflow,
            });
            transfers.push(shared);
            Caller::post(
                &mut window,
                "transfers",
                serde_json::to_vec(&TransferRequestEnvelope { transfers }).unwrap(),
            );
        }
        let mut calls = [0u64; 5];
        let (answers, _, server) = counted(|| caller.exchange(&window, WINDOW as usize));
        calls[0] = server;
        let mut outcomes = Vec::new();
        for body in answers {
            let advice = serde_json::from_slice::<TransferResponseEnvelope>(&body).unwrap();
            for a in advice.advice {
                if a.should_execute() {
                    outcomes.push(TransferOutcome {
                        id: a.id,
                        success: true,
                    });
                } else {
                    suppressed += 1;
                }
            }
        }
        executed += outcomes.len() as u64;
        let mut wire = Vec::new();
        Caller::post(
            &mut wire,
            "transfers/complete",
            serde_json::to_vec(&TransferCompletionEnvelope { outcomes }).unwrap(),
        );
        (_, _, calls[1]) = counted(|| caller.exchange(&wire, 1));
        let mut done = Vec::new();
        for (i, cleanups) in [first, second].into_iter().enumerate() {
            let mut wire = Vec::new();
            Caller::post(
                &mut wire,
                "cleanups",
                serde_json::to_vec(&CleanupRequestEnvelope { cleanups }).unwrap(),
            );
            let (answer, _, server) = counted(|| caller.exchange(&wire, 1));
            calls[2 + i] = server;
            let advice = serde_json::from_slice::<CleanupResponseEnvelope>(&answer[0]).unwrap();
            let executed = advice.advice.iter().filter(|a| a.should_execute());
            done.extend(executed.map(|a| CleanupOutcome {
                id: a.id,
                success: true,
            }));
        }
        assert_eq!(done.len() as u64, 2 * WINDOW, "every file is deleted once");
        let mut wire = Vec::new();
        Caller::post(
            &mut wire,
            "cleanups/complete",
            serde_json::to_vec(&CleanupCompletionEnvelope { outcomes: done }).unwrap(),
        );
        (_, _, calls[4]) = counted(|| caller.exchange(&wire, 1));
        if cycle > 0 {
            for (total, n) in counts.iter_mut().zip(calls) {
                *total += n;
            }
        }
    }
    assert_eq!(
        (executed, suppressed),
        (2 * WINDOW * (CYCLES + 1), WINDOW * (CYCLES + 1))
    );
    let walked = controller.facts_walked("sharded").unwrap() - walked;
    let memory = controller.snapshot("sharded").unwrap();
    assert_eq!((memory.staged_files, memory.in_progress_transfers), (0, 0));
    let mut l = Ledger("sharded", String::new());
    let [window, report, first, second, done] = counts;
    let requests = CYCLES * (WINDOW + 4);
    l.1 += "# exact. What remains makes state the session keeps: a Name for each path a\n\
            # cycle names (48 in its window, 24 in its cleanups), the second user of each\n\
            # shared file's resource (8 a window), and the first cycles' growth of the\n\
            # shards' tables to their peak (the rest)\n";
    l.row(
        format_args!("server.allocs_per_{requests}_requests"),
        counts.iter().sum::<u64>(),
    );
    l.row(
        format_args!("server.facts_walked_per_{requests}_requests"),
        walked,
    );
    l.1 += "# exact: a record for each firing whose first fact has not moved since\n";
    l.row(
        "server.refraction_records_held",
        controller.refraction_records("sharded").unwrap(),
    );
    l.row(
        format_args!("server.window.allocs_per_{CYCLES}_windows"),
        window,
    );
    l.row(
        format_args!("server.report_transfers.allocs_per_{CYCLES}_calls"),
        report,
    );
    let cleanups = 2 * CYCLES;
    l.row(
        format_args!("server.evaluate_cleanups.allocs_per_{cleanups}_calls"),
        first + second,
    );
    l.row(
        format_args!("server.report_cleanups.allocs_per_{CYCLES}_calls"),
        done,
    );
    l
}

/// (blocks, bytes) this thread holds after staging `files` files through a
/// fresh 4-shard session over 16 host pairs, called directly (what a session
/// holds, not what a transport does), counted from before the session was
/// created.
fn resident_session(files: u64) -> (i64, i64) {
    let (blocks, bytes) = held();
    let controller = PolicyController::new(PolicyConfig::default());
    controller.create_sharded_session("resident", PolicyConfig::default(), 4);
    let specs: Vec<_> = (0..files).map(|j| transfer("/s", j % 16, j, j)).collect();
    for chunk in specs.chunks(16) {
        let advice = controller
            .evaluate_transfers("resident", chunk.to_vec())
            .unwrap();
        let done = advice
            .iter()
            .map(|a| a.id)
            .map(|id| TransferOutcome { id, success: true });
        controller
            .report_transfers("resident", done.collect())
            .expect("ack");
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
    let (disk, dir) = (SimDisk::new(), Path::new("durable"));
    let mut service = PolicyService::new(PolicyConfig::default());
    let config = DurabilityConfig::on(disk.clone(), dir);
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
    let recovered = PolicyService::recover_from(&disk, dir).expect("recovery");
    // A recovered service does not log, so it stamps no applied sequence.
    let mut live = service.durable_state();
    live.applied_seq = 0;
    assert_eq!(recovered.durable_state(), live);
    assert_eq!(recovered.snapshot(), service.snapshot());
    let mut l = Ledger("durable", String::new());
    l.row("calls", calls);
    l.row("wal_records", written.appends);
    fields! { l, "", written; fsyncs, snapshots, bytes_written }
    l
}

#[test]
fn allocations_per_workflow_and_per_policy_call_stay_under_budget() {
    ledger::assert_committed(&[campaign, sharded, resident, durable]);
}
