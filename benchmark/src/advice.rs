//! `advice_hot` and `advice_durable` — the Policy Service front end under
//! batched concurrent callers: no simulator, no executor. A 4-shard session
//! holds 10 000 staged files as warm policy memory; two callers, one
//! keep-alive connection each, run closed-loop cycles of the real lifecycle
//! (see [`crate::gen::Cycle`]): files churn through policy memory and the
//! resident set stays at the warm level. One generator thread drives both
//! connections in step — it sends on every connection, then reads every
//! connection's answers — so the server always has both callers' requests
//! before it, and every repetition replays the same exchange in the same
//! order. `advice_durable` is the same traffic with
//! `create_sharded_durable_session` (fsync on every append, a snapshot every
//! 64 appends per shard): the WAL does most of the work there and none in
//! `advice_hot`, so the pair separates write-path cost from read/dedup cost
//! on one service.

use crate::env;
use crate::gen::{self, Cycle, REQUESTS_PER_CYCLE, SESSION, WINDOW};
use crate::harness::{Check, CpuWindow, EndToEnd, Marks, Outcome, RepLoop, RepTiming, RunArgs};
use crate::replay::{self, Call};
use crate::stats::median;
use crate::trace::{Recorder, SpanId};
use pwm_core::{
    CleanupOutcome, CleanupSpec, DurabilityConfig, MemorySnapshot, PolicyConfig, PolicyController,
    PolicyTransport, ServiceStats, TransferOutcome,
};
use pwm_rest::{
    http, CleanupCompletionEnvelope, CleanupResponseEnvelope, PolicyRestClient, PolicyRestServer,
    TransferCompletionEnvelope, TransferResponseEnvelope,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Instant;

const SHARDS: u16 = 4;
/// Resident staged files at full size.
const WARM_FILES: usize = 10_000;
/// Cycles per caller and repetition at full size: with two callers, 1 056
/// requests per repetition — the shortest repetition whose p99 still has
/// its ten samples beyond it. A slice here is a whole exchange, as long as
/// 2 ms, and seldom quiet when the host is busy: the estimate needs every
/// repetition a run can make.
const CYCLES_PER_REP: usize = 44;
/// Transfers per warm-up request. Advice for one request costs more than
/// linear in its length, so short requests make the set-up cheap and cut it
/// into fine slices; but every request of a durable session is an fsync per
/// shard, and there longer ones are cheaper.
fn warm_batch(durable: bool) -> usize {
    if durable {
        64
    } else {
        16
    }
}

fn policy_config() -> PolicyConfig {
    PolicyConfig::default().with_default_streams(4)
}

/// Concurrent callers: keep-alive connections with a request outstanding on
/// each. Two callers are the workload (the central service sees connections
/// compete); they spend their time waiting for the server, not computing,
/// so one generator thread serves both.
const CALLERS: usize = 2;

/// Stage the warm working set through `transport` and report it complete.
fn warm(
    transport: &mut dyn PolicyTransport,
    seed: u64,
    files: usize,
    batch: usize,
    marks: &mut Marks,
) {
    let specs: Vec<_> = (0..files as u64).map(|j| gen::warm_spec(seed, j)).collect();
    for chunk in specs.chunks(batch) {
        let advice = transport
            .evaluate_transfers(chunk.to_vec())
            .expect("warm-up advice");
        let outcomes = advice
            .iter()
            .filter(|a| a.should_execute())
            .map(|a| TransferOutcome {
                id: a.id,
                success: true,
            })
            .collect();
        transport
            .report_transfers(outcomes)
            .expect("warm-up completion report");
        marks.mark();
    }
}

/// One caller's keep-alive connection.
struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// When the requests now outstanding were sent.
    sent: Instant,
    /// Tracing only: this caller's spans and, while they are being kept for
    /// the replays, its calls.
    recorder: Option<Recorder>,
    calls: Option<Vec<Call>>,
}

impl Conn {
    fn open(server: &PolicyRestServer) -> Conn {
        let stream = TcpStream::connect(server.addr()).expect("connect to loopback server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Conn {
            stream,
            rbuf: Vec::with_capacity(64 * 1024),
            sent: Instant::now(),
            recorder: None,
            calls: None,
        }
    }

    fn send(&mut self, wire: &[u8]) -> std::io::Result<()> {
        self.sent = Instant::now();
        self.stream.write_all(wire)
    }

    /// Read `responses` responses; each one's latency runs from the send of
    /// its window to the complete read of that response. Returns the bodies
    /// of the 200s.
    fn receive(&mut self, responses: usize, tally: &mut Tally) -> std::io::Result<Vec<Vec<u8>>> {
        let mut bodies = Vec::with_capacity(responses);
        let mut chunk = [0u8; 16 * 1024];
        let mut answered = 0;
        while answered < responses {
            match http::try_parse_response(&self.rbuf) {
                Ok(Some((status, body, consumed))) => {
                    tally
                        .latencies_ns
                        .push(self.sent.elapsed().as_nanos() as u64);
                    self.rbuf.drain(..consumed);
                    answered += 1;
                    if status == 200 {
                        bodies.push(body);
                    } else {
                        tally.failed += 1;
                    }
                }
                Ok(None) => {
                    let n = self.stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(std::io::ErrorKind::UnexpectedEof.into());
                    }
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) => return Err(std::io::Error::other(e.to_string())),
            }
        }
        Ok(bodies)
    }

    fn open_span(&mut self, name: &'static str, parent: Option<SpanId>, id: u64) -> Option<SpanId> {
        self.recorder.as_mut().map(|r| r.open(name, parent, id))
    }

    fn close_span(&mut self, span: Option<SpanId>) {
        if let (Some(r), Some(s)) = (self.recorder.as_mut(), span) {
            r.close(s);
        }
    }
}

/// What the generator counted in one repetition.
#[derive(Default)]
struct Tally {
    /// One sample per response, in the order they were read; that order is
    /// the same in every repetition.
    latencies_ns: Vec<u64>,
    /// When each exchange was over: the marks that cut the repetition into
    /// slices. Inside an exchange the server may answer the callers one by
    /// one or together, and what it saves one it costs the other; at its
    /// end both have their answers whichever way it went.
    exchanged_at: Vec<Instant>,
    requests: u64,
    /// Requests not answered 200, undecodable answers, transport errors.
    failed: u64,
    executed: u64,
    suppressed: u64,
    deleted: u64,
    cleanups_refused: u64,
}

/// One request on every connection, then every connection's answers.
/// `None` once a connection has failed or answered short.
fn exchange(
    conns: &mut [Conn],
    cycles: &[&Cycle],
    parents: &[Option<SpanId>],
    name: &'static str,
    wires: &[&[u8]],
    responses: usize,
    tally: &mut Tally,
) -> Option<Vec<Vec<Vec<u8>>>> {
    let mut spans = Vec::with_capacity(conns.len());
    for (((conn, cycle), parent), wire) in conns.iter_mut().zip(cycles).zip(parents).zip(wires) {
        spans.push(conn.open_span(name, *parent, cycle.id));
        conn.send(wire).ok()?;
    }
    let mut answers = Vec::with_capacity(conns.len());
    for (conn, span) in conns.iter_mut().zip(spans) {
        let bodies = conn.receive(responses, tally).ok()?;
        conn.close_span(span);
        if bodies.len() != responses {
            return None;
        }
        answers.push(bodies);
    }
    tally.exchanged_at.push(Instant::now());
    Some(answers)
}

/// The cleanups of one of a cycle's two workflows — the staging one first,
/// then the one that shares its files — and their bytes on the wire.
fn cleanups_of(cycle: &Cycle, first: bool) -> (&[CleanupSpec], &[u8]) {
    if first {
        (&cycle.cleanups_first, &cycle.cleanups_first_wire)
    } else {
        (&cycle.cleanups_second, &cycle.cleanups_second_wire)
    }
}

/// One cycle of every caller, closed loop: every request waits for its
/// reply, and the callers move through the cycle's five exchanges together.
fn one_round(conns: &mut [Conn], cycles: &[&Cycle], tally: &mut Tally) -> Option<()> {
    let cycle_spans: Vec<Option<SpanId>> = conns
        .iter_mut()
        .zip(cycles)
        .map(|(conn, cycle)| conn.open_span("cycle", None, cycle.id))
        .collect();

    let wires: Vec<&[u8]> = cycles.iter().map(|c| &c.window_wire[..]).collect();
    let answers = exchange(
        conns,
        cycles,
        &cycle_spans,
        "rtt.window",
        &wires,
        WINDOW,
        tally,
    )?;
    let mut outcomes: Vec<Vec<TransferOutcome>> = Vec::with_capacity(conns.len());
    for ((conn, cycle), bodies) in conns.iter_mut().zip(cycles).zip(&answers) {
        let mut executed = Vec::with_capacity(Cycle::EXECUTED as usize);
        for (group, body) in cycle.groups.iter().zip(bodies) {
            let advice = serde_json::from_slice::<TransferResponseEnvelope>(body)
                .ok()?
                .advice;
            for a in &advice {
                if a.should_execute() {
                    tally.executed += 1;
                    executed.push(TransferOutcome {
                        id: a.id,
                        success: true,
                    });
                } else {
                    tally.suppressed += 1;
                }
            }
            if let Some(calls) = &mut conn.calls {
                calls.push(Call::Transfers(group.clone(), advice));
            }
        }
        outcomes.push(executed);
    }

    let rendered: Vec<Vec<u8>> = outcomes
        .iter()
        .map(|o| {
            gen::render_post(
                "transfers/complete",
                &TransferCompletionEnvelope {
                    outcomes: o.clone(),
                },
            )
        })
        .collect();
    let wires: Vec<&[u8]> = rendered.iter().map(|w| &w[..]).collect();
    exchange(
        conns,
        cycles,
        &cycle_spans,
        "rtt.transfers_complete",
        &wires,
        1,
        tally,
    )?;
    for (conn, done) in conns.iter_mut().zip(outcomes) {
        if let Some(calls) = &mut conn.calls {
            calls.push(Call::TransfersDone(done));
        }
    }

    let mut deletions: Vec<Vec<CleanupOutcome>> = vec![Vec::new(); conns.len()];
    for first in [true, false] {
        let wires: Vec<&[u8]> = cycles.iter().map(|c| cleanups_of(c, first).1).collect();
        let answers = exchange(
            conns,
            cycles,
            &cycle_spans,
            "rtt.cleanups",
            &wires,
            1,
            tally,
        )?;
        for (((conn, cycle), bodies), deleted) in conns
            .iter_mut()
            .zip(cycles)
            .zip(&answers)
            .zip(&mut deletions)
        {
            let advice = serde_json::from_slice::<CleanupResponseEnvelope>(&bodies[0])
                .ok()?
                .advice;
            for a in &advice {
                if a.should_execute() {
                    deleted.push(CleanupOutcome {
                        id: a.id,
                        success: true,
                    });
                } else {
                    tally.cleanups_refused += 1;
                }
            }
            if let Some(calls) = &mut conn.calls {
                calls.push(Call::Cleanups(cleanups_of(cycle, first).0.to_vec(), advice));
            }
        }
    }
    tally.deleted += deletions.iter().map(|d| d.len() as u64).sum::<u64>();

    let rendered: Vec<Vec<u8>> = deletions
        .iter()
        .map(|d| {
            gen::render_post(
                "cleanups/complete",
                &CleanupCompletionEnvelope {
                    outcomes: d.clone(),
                },
            )
        })
        .collect();
    let wires: Vec<&[u8]> = rendered.iter().map(|w| &w[..]).collect();
    exchange(
        conns,
        cycles,
        &cycle_spans,
        "rtt.cleanups_complete",
        &wires,
        1,
        tally,
    )?;
    for ((conn, done), span) in conns.iter_mut().zip(deletions).zip(cycle_spans) {
        if let Some(calls) = &mut conn.calls {
            calls.push(Call::CleanupsDone(done));
        }
        conn.close_span(span);
    }
    Some(())
}

/// One repetition, all callers together.
struct Rep {
    wall_s: f64,
    requests: u64,
    /// One slice per exchange and one latency sample per response, in the
    /// order the generator read them; the last slice runs to the end of the
    /// repetition.
    timing: RepTiming,
    generator_cpu_secs: f64,
}

pub struct Advice {
    durable: bool,
    seed: u64,
    controller: PolicyController,
    server: PolicyRestServer,
    conns: Vec<Conn>,
    wal_dir: PathBuf,
    warm_files: usize,
    /// The cycles every repetition replays, per caller. Their files leave
    /// policy memory again at the end of each cycle, so the service meets
    /// them anew every time.
    cycles: Vec<Vec<Cycle>>,
    /// Service counters at the end of set-up.
    warm_stats: ServiceStats,
    /// Cycles run since then, all callers and repetitions.
    cycles_run: u64,
}

/// Tracing state of one repetition: the main recorder the callers' spans are
/// absorbed into, and whether to keep the calls for the replays.
struct Tracing<'a> {
    recorder: &'a mut Recorder,
    keep: Option<&'a mut Vec<Call>>,
}

impl Advice {
    /// Everything up to and including one discarded warm-up repetition.
    pub fn setup(args: &RunArgs, durable: bool, marks: &mut Marks) -> Advice {
        let config = policy_config();
        let controller = PolicyController::new(config.clone());
        let wal_dir = args.out_dir.join(format!("wal-{}", std::process::id()));
        if durable {
            // Left over from an earlier set-up of this run.
            let _ = std::fs::remove_dir_all(&wal_dir);
            controller
                .create_sharded_durable_session(
                    SESSION,
                    config,
                    SHARDS,
                    DurabilityConfig::new(&wal_dir),
                )
                .expect("create the WAL directory");
        } else {
            controller.create_sharded_session(SESSION, config, SHARDS);
        }
        let server = PolicyRestServer::start(controller.clone()).expect("bind loopback");
        let warm_files = args.scaled(WARM_FILES, 64);
        marks.mark();
        warm(
            &mut PolicyRestClient::new(server.addr(), SESSION),
            args.seed,
            warm_files,
            warm_batch(durable),
            marks,
        );
        let warm_stats = controller.stats(SESSION).expect("session");
        let conns = (0..CALLERS).map(|_| Conn::open(&server)).collect();
        // Inputs are generated from the seed before any clock starts.
        let cycles = (0..CALLERS as u64)
            .map(|c| {
                (0..args.scaled(CYCLES_PER_REP, 2) as u64)
                    .map(|i| gen::cycle(args.seed, c, i))
                    .collect()
            })
            .collect();
        let mut advice = Advice {
            durable,
            seed: args.seed,
            controller,
            server,
            conns,
            wal_dir,
            warm_files,
            cycles,
            warm_stats,
            cycles_run: 0,
        };
        marks.mark();
        // The discarded warm-up repetition.
        marks.warm_up(&advice.rep(None).0.timing.slices_ns);
        advice.cycles_run = 0;
        advice.warm_stats = advice.controller.stats(SESSION).expect("session");
        advice
    }

    fn rep(&mut self, mut tracing: Option<Tracing<'_>>) -> (Rep, Vec<Check>) {
        for (c, conn) in self.conns.iter_mut().enumerate() {
            conn.recorder = tracing.as_ref().map(|t| t.recorder.fork(c as u32 + 1));
            conn.calls = tracing
                .as_ref()
                .and_then(|t| t.keep.as_ref().map(|_| Vec::new()));
        }
        let rounds = self.cycles[0].len();
        let n = (self.conns.len() * rounds) as u64;
        let mut tally = Tally {
            requests: n * REQUESTS_PER_CYCLE as u64,
            ..Tally::default()
        };

        let rep_span: Option<SpanId> = tracing.as_mut().map(|t| t.recorder.open("rep", None, 0));
        let cpu0 = env::thread_cpu_secs();
        let t0 = Instant::now();
        for round in 0..rounds {
            let cycles: Vec<&Cycle> = self.cycles.iter().map(|c| &c[round]).collect();
            if one_round(&mut self.conns, &cycles, &mut tally).is_none() {
                // A connection is no longer in step; count what is left of
                // the repetition as failed and stop.
                tally.failed += ((rounds - round) * self.conns.len() * REQUESTS_PER_CYCLE) as u64;
                break;
            }
        }
        let end = Instant::now();
        let generator_cpu_secs = env::thread_cpu_secs() - cpu0;
        if let (Some(t), Some(s)) = (tracing.as_mut(), rep_span) {
            t.recorder.close(s);
        }

        let mut kept_calls = Vec::new();
        for conn in &mut self.conns {
            if let (Some(t), Some(r)) = (tracing.as_mut(), conn.recorder.take()) {
                t.recorder.absorb(r, rep_span);
            }
            kept_calls.append(&mut conn.calls.take().unwrap_or_default());
        }
        if let Some(keep) = tracing.and_then(|t| t.keep) {
            *keep = kept_calls;
        }
        self.cycles_run += n;
        let checks = vec![
            Check::eq("every response is 200", tally.failed, 0),
            Check::eq(
                "suppressed transfers = generated duplicates",
                tally.suppressed,
                n * Cycle::DUPLICATES,
            ),
            Check::eq(
                "approved transfers = generated new files",
                tally.executed,
                n * Cycle::EXECUTED,
            ),
            Check::eq(
                "every churned file is deleted by its last user",
                (tally.deleted, tally.cleanups_refused),
                (n * Cycle::EXECUTED, n * Cycle::DUPLICATES),
            ),
        ];
        let marks = || std::iter::once(t0).chain(tally.exchanged_at.iter().copied());
        // Five exchanges a round: the window, then four single requests,
        // on every connection; what follows the last one has no sample.
        let per_round = [WINDOW, 1, 1, 1, 1].map(|n| (n * self.conns.len()) as u32);
        let rep = Rep {
            wall_s: (end - t0).as_secs_f64(),
            requests: tally.requests,
            timing: RepTiming {
                slices_ns: marks()
                    .zip(marks().skip(1).chain([end]))
                    .map(|(from, to)| (to - from).as_nanos() as u64)
                    .collect(),
                samples_in_slice: per_round
                    .iter()
                    .copied()
                    .cycle()
                    .take(tally.exchanged_at.len())
                    .chain([0])
                    .collect(),
                latencies_ns: tally.latencies_ns,
            },
            generator_cpu_secs,
        };
        (rep, checks)
    }

    fn checked_rep(&mut self, tracing: Option<Tracing<'_>>, out: &mut Outcome) -> Rep {
        let (rep, checks) = self.rep(tracing);
        out.attempted += rep.requests;
        if checks.iter().any(|c| !c.ok) {
            out.failed += rep.requests;
        }
        out.checks.extend(checks);
        rep
    }

    fn snapshot(&self) -> MemorySnapshot {
        self.controller.snapshot(SESSION).expect("session")
    }

    /// End-of-run checks on the service's own books, the recovery check of
    /// the durable variant, the scrape; stops the server. Returns the time
    /// recovery took, in milliseconds (0 when not durable).
    fn finish(mut self, out: &mut Outcome) -> f64 {
        let stats = self.controller.stats(SESSION).expect("session");
        let live = self.snapshot();
        out.checks.push(Check::eq(
            "service counted exactly the generated duplicates",
            stats.transfers_suppressed - self.warm_stats.transfers_suppressed,
            self.cycles_run * Cycle::DUPLICATES,
        ));
        out.checks.push(Check::eq(
            "resident staged files back at the warm level",
            live.staged_files,
            self.warm_files,
        ));
        out.checks.push(Check::eq(
            "ledger at zero, nothing in progress",
            (
                live.host_pairs.iter().map(|p| p.allocated).sum::<u32>(),
                live.in_progress_transfers + live.staging_files + live.in_progress_cleanups,
            ),
            (0, 0),
        ));
        out.metrics_text = Some(self.controller.render_metrics());
        out.exact = vec![
            ("requests_per_cycle", REQUESTS_PER_CYCLE as f64),
            ("resident_staged_files", live.staged_files as f64),
            (
                "rule_firings_per_cycle",
                (stats.rule_firings - self.warm_stats.rule_firings) as f64 / self.cycles_run as f64,
            ),
            (
                "transfers_suppressed_per_cycle",
                (stats.transfers_suppressed - self.warm_stats.transfers_suppressed) as f64
                    / self.cycles_run as f64,
            ),
            (
                "cleanups_suppressed_per_cycle",
                (stats.cleanups_suppressed - self.warm_stats.cleanups_suppressed) as f64
                    / self.cycles_run as f64,
            ),
        ];
        self.conns.clear();
        self.server.shutdown();
        let mut recover_ms = 0.0;
        if self.durable {
            // Acknowledged writes survive: what the WAL directory recovers
            // to must be what the live service holds.
            let recovered = PolicyController::new(policy_config());
            let t0 = Instant::now();
            let result = recovered.recover_sharded_session(SESSION, SHARDS, &self.wal_dir);
            recover_ms = t0.elapsed().as_secs_f64() * 1e3;
            out.checks.push(Check::new(
                "WAL recovery reproduces the live service",
                result.is_ok() && recovered.snapshot(SESSION).ok().as_ref() == Some(&live),
                format!("recover: {result:?}"),
            ));
            out.notes.push(("wal_fs_type", env::fs_type(&self.wal_dir)));
            let _ = std::fs::remove_dir_all(&self.wal_dir);
        }
        recover_ms
    }

    /// Tracing off: the end-to-end metrics.
    pub fn measure(mut self, args: &RunArgs) -> Outcome {
        let mut out = Outcome::default();
        let requests_per_rep =
            (self.conns.len() * self.cycles[0].len() * REQUESTS_PER_CYCLE) as u64;
        let mut timings = EndToEnd::new(requests_per_rep);
        let mut reps = RepLoop::start(args.budget);
        while reps.next() {
            timings.absorb(self.checked_rep(None, &mut out).timing);
        }
        timings.finish(&mut out);
        out.notes.push((
            "load",
            format!(
                "{} keep-alive connections driven in step by one generator thread, closed loop, window {WINDOW}",
                self.conns.len()
            ),
        ));
        self.finish(&mut out);
        out
    }

    /// Tracing on: spans, replays from outside, the per-layer metrics.
    pub fn measure_traced(mut self, args: &RunArgs) -> Outcome {
        let mut out = Outcome::default();
        let mut recorder = Recorder::new(Instant::now(), 0);
        let mut calls: Vec<Call> = Vec::new();
        let (mut traced_wall, mut plain_wall) = (Vec::new(), Vec::new());
        let mut generator_cpu = 0.0;
        let mut live_requests = 0u64;
        let cpu = CpuWindow::open();
        let scrape0 = replay::scrape(&self.controller.render_metrics());
        let stats0 = self.controller.stats(SESSION).expect("session");
        // Traced and untraced repetitions alternate, so the tracing overhead
        // is measured inside one process on one machine state.
        let mut reps = RepLoop::start(args.budget);
        while reps.next() {
            let first = calls.is_empty();
            let rep = self.checked_rep(
                Some(Tracing {
                    recorder: &mut recorder,
                    keep: first.then_some(&mut calls),
                }),
                &mut out,
            );
            let plain = self.checked_rep(None, &mut out);
            traced_wall.push(rep.wall_s);
            plain_wall.push(plain.wall_s);
            generator_cpu += rep.generator_cpu_secs + plain.generator_cpu_secs;
            live_requests += rep.requests + plain.requests;
        }
        let scrape1 = replay::scrape(&self.controller.render_metrics());
        let stats1 = self.controller.stats(SESSION).expect("session");
        cpu.close(&mut out, generator_cpu);
        // Every repetition ran the same cycles; the replays run them once.
        let cycles = self.cycles.concat();

        out.checks.push(Check::new(
            "spans nest inside their parents",
            recorder.validate().is_ok(),
            recorder.validate().err().unwrap_or_default(),
        ));
        let totals = recorder.totals();
        let rep_total = totals.get("rep").copied().unwrap_or_default();
        let traced_requests =
            (totals.get("cycle").map_or(0, |t| t.count) * REQUESTS_PER_CYCLE as u64) as f64;
        out.count(
            "trace.attributed_ratio",
            (rep_total.total_ns - rep_total.self_ns) as f64 / rep_total.total_ns.max(1) as f64,
        );
        out.count(
            "trace.overhead_ratio",
            median(&traced_wall) / median(&plain_wall) - 1.0,
        );

        // Replays from outside, each into a fresh controller warmed like
        // the live one: one shard, the live shard count, and (durable
        // variant) the live shard count with the WAL on.
        let seed = self.seed;
        let warm_files = self.warm_files;
        let batch = warm_batch(self.durable);
        let warmed = |c: &PolicyController| {
            warm(
                &mut pwm_core::InProcessTransport::new(c.clone(), SESSION),
                seed,
                warm_files,
                batch,
                &mut Marks::start(),
            )
        };
        let one_shard = replay::lifecycle(&cycles, |c| {
            c.create_sharded_session(SESSION, policy_config(), 1);
            warmed(c);
        });
        let sharded = replay::lifecycle(&cycles, |c| {
            c.create_sharded_session(SESSION, policy_config(), SHARDS);
            warmed(c);
        });
        let mut replays = vec![("1 shard", one_shard), ("4 shards", sharded)];
        let (mut wal_us, mut wal_bytes, mut wal_syscalls) = (0.0, 0.0, 0.0);
        if self.durable {
            let dir = self.wal_dir.with_extension("replay");
            let _ = std::fs::remove_dir_all(&dir);
            let mut io0 = (0, 0);
            let durable = replay::lifecycle(&cycles, |c| {
                c.create_sharded_durable_session(
                    SESSION,
                    policy_config(),
                    SHARDS,
                    DurabilityConfig::new(&dir),
                )
                .expect("create the replay WAL directory");
                warmed(c);
                io0 = env::write_io();
            });
            let io1 = env::write_io();
            let _ = std::fs::remove_dir_all(&dir);
            let n = durable.requests.max(1) as f64;
            wal_us = durable.mean_us - sharded.mean_us;
            wal_bytes = (io1.0 - io0.0) as f64 / n;
            wal_syscalls = (io1.1 - io0.1) as f64 / n;
            replays.push(("4 shards + WAL", durable));
        }
        for (what, r) in &replays {
            out.checks.push(Check::new(
                "replayed lifecycle meets every known outcome",
                r.mismatches == 0 && r.requests as usize == cycles.len() * REQUESTS_PER_CYCLE,
                format!(
                    "{what}: {} mismatches in {} requests",
                    r.mismatches, r.requests
                ),
            ));
        }
        let codec = replay::codec(&calls);
        let (route_ns, fanout) = replay::route(&calls, SHARDS);
        codec.push_metrics(&mut out);
        // One server thread answers every client, so a request's share of
        // the wall clock is the repetition's wall time over its requests;
        // what the replayed server-side stages leave of it is the residual
        // (syscalls, poll wake-ups, hand-off, and waiting for a client).
        let wall_us_per_req = rep_total.total_ns as f64 / 1e3 / traced_requests.max(1.0);
        out.count(
            "rest.residual_us_per_req",
            wall_us_per_req
                - (codec.http_parse_ns + codec.json_decode_ns + codec.json_encode_ns) / 1e3
                - sharded.mean_us
                - wal_us,
        );
        let served = (scrape1.requests - scrape0.requests).max(1.0);
        out.count(
            "rest.wakeups_per_req",
            (scrape1.wakeups - scrape0.wakeups) / served,
        );
        out.count(
            "rest.batch_ratio",
            (scrape1.batched - scrape0.batched) / served,
        );
        out.count("core.service_us_per_req", sharded.mean_us);
        out.count("core.service_p99_us", sharded.p99_us);
        let live = live_requests.max(1) as f64;
        out.count(
            "core.rule_firings_per_req",
            (stats1.rule_firings - stats0.rule_firings) as f64 / live,
        );
        out.count(
            "core.suppressed_ratio",
            (stats1.transfers_suppressed - stats0.transfers_suppressed) as f64
                / (stats1.transfer_requests - stats0.transfer_requests).max(1) as f64,
        );
        out.count(
            "core.shard_overhead_us_per_req",
            sharded.mean_us - one_shard.mean_us,
        );
        out.count("core.route_ns_per_spec", route_ns);
        out.count("core.shard_fanout", fanout);
        out.count("core.wal_us_per_req", wal_us);
        out.count("core.wal_write_bytes_per_req", wal_bytes);
        out.count("core.wal_write_syscalls_per_req", wal_syscalls);
        out.count("rules.eval_us_per_req", sharded.rules_us);
        out.count("rules.evaluations_per_req", sharded.rule_evaluations);
        out.count(
            "rules.firing_yield",
            sharded.rule_firings / sharded.rule_evaluations.max(1e-9),
        );
        out.count(
            "rules.share_of_service",
            sharded.rules_us / sharded.mean_us.max(1e-9),
        );
        out.notes.push((
            "traced_repetitions",
            format!(
                "{} traced + {} untraced, {} spans, {} cycles replayed",
                traced_wall.len(),
                plain_wall.len(),
                recorder.spans().len(),
                cycles.len()
            ),
        ));
        out.recorder = Some(recorder);
        let recover_ms = self.finish(&mut out);
        out.count("core.recover_ms", recover_ms);
        out
    }
}

/// The steady-state invariant of the generator, on a live server: after any
/// number of cycles the resident set is back at the warm level and every
/// request was answered as generated.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Budget;

    fn args(dir: &std::path::Path) -> RunArgs {
        RunArgs {
            seed: 5,
            budget: Budget::Reps(1),
            trace: false,
            scale: 0.05,
            setups: Some(1),
            out_dir: dir.to_path_buf(),
        }
    }

    #[test]
    fn two_hundred_requests_leave_the_service_at_the_warm_level() {
        let dir = std::env::temp_dir();
        let mut advice = Advice::setup(&args(&dir), false, &mut Marks::start());
        // 3 cycles per client and repetition at this scale: run until at
        // least 200 requests were made.
        let mut requests = 0;
        while requests < 200 {
            let (rep, checks) = advice.rep(None);
            for c in &checks {
                assert!(c.ok, "{}: {}", c.name, c.detail);
            }
            requests += rep.requests;
            let live = advice.snapshot();
            assert_eq!(live.staged_files, advice.warm_files);
            assert_eq!(live.in_progress_transfers + live.in_progress_cleanups, 0);
        }
        let mut out = Outcome::default();
        advice.finish(&mut out);
        for c in &out.checks {
            assert!(c.ok, "{}: {}", c.name, c.detail);
        }
    }
}
