//! Replays from outside. A client sees only the round trip; to split it,
//! requests recorded in a traced run are pushed again through the public
//! functions the server is built from — the HTTP and JSON codecs, the shard
//! ring, and an identically configured `PolicyController` called in
//! process — and each stage is timed on its own. What the stages do not
//! account for is the residual: syscalls, poll wake-ups, thread hand-off.

use crate::gen::{Cycle, SESSION, WINDOW};
use crate::harness::Outcome;
use crate::stats::percentile_in_place;
use pwm_core::{
    CleanupAdvice, CleanupOutcome, CleanupSpec, HashRing, PolicyController, RuleCounters,
    TransferAdvice, TransferOutcome, TransferSpec,
};
use pwm_rest::{
    fastjson, http, AckEnvelope, CleanupCompletionEnvelope, CleanupRequestEnvelope,
    CleanupResponseEnvelope, Method, Response, TransferCompletionEnvelope, TransferRequestEnvelope,
    TransferResponseEnvelope, WireFormat,
};
use std::time::Instant;

/// One policy call as the client made it, with the answer it got.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    Transfers(Vec<TransferSpec>, Vec<TransferAdvice>),
    TransfersDone(Vec<TransferOutcome>),
    Cleanups(Vec<CleanupSpec>, Vec<CleanupAdvice>),
    CleanupsDone(Vec<CleanupOutcome>),
}

impl Call {
    fn path(&self) -> &'static str {
        match self {
            Call::Transfers(..) => "transfers",
            Call::TransfersDone(_) => "transfers/complete",
            Call::Cleanups(..) => "cleanups",
            Call::CleanupsDone(_) => "cleanups/complete",
        }
    }

    /// The request as the client's envelope type, built ahead of the clock
    /// (the client moves its arguments into the envelope, it does not copy).
    fn request_envelope(&self) -> RequestEnvelope {
        match self.clone() {
            Call::Transfers(transfers, _) => {
                RequestEnvelope::Transfers(TransferRequestEnvelope { transfers })
            }
            Call::TransfersDone(outcomes) => {
                RequestEnvelope::TransfersDone(TransferCompletionEnvelope { outcomes })
            }
            Call::Cleanups(cleanups, _) => {
                RequestEnvelope::Cleanups(CleanupRequestEnvelope { cleanups })
            }
            Call::CleanupsDone(outcomes) => {
                RequestEnvelope::CleanupsDone(CleanupCompletionEnvelope { outcomes })
            }
        }
    }
}

enum RequestEnvelope {
    Transfers(TransferRequestEnvelope),
    TransfersDone(TransferCompletionEnvelope),
    Cleanups(CleanupRequestEnvelope),
    CleanupsDone(CleanupCompletionEnvelope),
}

impl RequestEnvelope {
    fn encode(&self) -> Vec<u8> {
        match self {
            RequestEnvelope::Transfers(e) => serde_json::to_vec(e),
            RequestEnvelope::TransfersDone(e) => serde_json::to_vec(e),
            RequestEnvelope::Cleanups(e) => serde_json::to_vec(e),
            RequestEnvelope::CleanupsDone(e) => serde_json::to_vec(e),
        }
        .expect("wire envelopes always encode")
    }
}

// ----------------------------------------------------------------- codec

/// Mean cost per request of each codec stage, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecReplay {
    /// Client side: encode and frame the request, parse and decode the
    /// response.
    pub client_codec_ns: f64,
    pub http_parse_ns: f64,
    pub json_decode_ns: f64,
    /// Encode the response body and frame it.
    pub json_encode_ns: f64,
    /// Transfer requests the fast codec refused (serde fallback).
    pub fallback_ratio: f64,
}

impl CodecReplay {
    pub fn total_ns_per_req(&self) -> f64 {
        self.client_codec_ns + self.http_parse_ns + self.json_decode_ns + self.json_encode_ns
    }

    pub fn push_metrics(&self, out: &mut Outcome) {
        out.count("rest.client_codec_ns_per_req", self.client_codec_ns);
        out.count("rest.http_parse_ns_per_req", self.http_parse_ns);
        out.count("rest.json_decode_ns_per_req", self.json_decode_ns);
        out.count("rest.json_encode_ns_per_resp", self.json_encode_ns);
        out.count("rest.fastjson_fallback_ratio", self.fallback_ratio);
    }
}

/// Push every recorded call through the codec stages. Each stage is one
/// pass over all calls under one clock reading, so the clock costs nothing
/// per call.
pub fn codec(calls: &[Call]) -> CodecReplay {
    if calls.is_empty() {
        return CodecReplay::default();
    }
    let n = calls.len() as f64;
    let timed = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as f64 / n
    };

    let envelopes: Vec<RequestEnvelope> = calls.iter().map(Call::request_envelope).collect();
    let mut wires: Vec<Vec<u8>> = Vec::with_capacity(calls.len());
    let client_encode = timed(&mut || {
        for (c, envelope) in calls.iter().zip(&envelopes) {
            wires.push(http::render_request(
                WireFormat::Json,
                Method::Post,
                &format!("/sessions/{SESSION}/{}", c.path()),
                &envelope.encode(),
                true,
            ));
        }
    });

    let mut requests = Vec::with_capacity(calls.len());
    let http_parse_ns = timed(&mut || {
        for w in &wires {
            let (request, consumed) = http::try_parse_request(w, 16 << 20)
                .expect("rendered requests parse")
                .expect("rendered requests are complete");
            assert_eq!(consumed, w.len());
            requests.push(request);
        }
    });

    let mut fallbacks = 0u64;
    let mut transfer_requests = 0u64;
    let json_decode_ns = timed(&mut || {
        for (c, r) in calls.iter().zip(&requests) {
            // The same decoders, in the same order, as the server's routes.
            match c {
                Call::Transfers(..) => {
                    transfer_requests += 1;
                    if let Some(t) = fastjson::parse_transfer_request(&r.body) {
                        std::hint::black_box(t);
                    } else {
                        fallbacks += 1;
                        std::hint::black_box(
                            serde_json::from_slice::<TransferRequestEnvelope>(&r.body)
                                .expect("decodes"),
                        );
                    }
                }
                Call::TransfersDone(_) => {
                    std::hint::black_box(
                        serde_json::from_slice::<TransferCompletionEnvelope>(&r.body)
                            .expect("decodes"),
                    );
                }
                Call::Cleanups(..) => {
                    std::hint::black_box(
                        serde_json::from_slice::<CleanupRequestEnvelope>(&r.body).expect("decodes"),
                    );
                }
                Call::CleanupsDone(_) => {
                    std::hint::black_box(
                        serde_json::from_slice::<CleanupCompletionEnvelope>(&r.body)
                            .expect("decodes"),
                    );
                }
            }
        }
    });

    let cleanup_answers: Vec<Option<CleanupResponseEnvelope>> = calls
        .iter()
        .map(|c| match c {
            Call::Cleanups(_, advice) => Some(CleanupResponseEnvelope {
                advice: advice.clone(),
            }),
            _ => None,
        })
        .collect();
    let mut responses: Vec<Vec<u8>> = Vec::with_capacity(calls.len());
    let json_encode_ns = timed(&mut || {
        for (c, cleanup_answer) in calls.iter().zip(&cleanup_answers) {
            let body = match (c, cleanup_answer) {
                (Call::Transfers(_, advice), _) => fastjson::render_transfer_response(advice),
                (_, Some(envelope)) => serde_json::to_vec(envelope).expect("encodes"),
                _ => serde_json::to_vec(&AckEnvelope::ok()).expect("encodes"),
            };
            responses.push(http::render_response(&Response::ok_json(body), true));
        }
    });

    let client_decode = timed(&mut || {
        for (c, w) in calls.iter().zip(&responses) {
            let (status, body, _) = http::try_parse_response(w)
                .expect("rendered responses parse")
                .expect("rendered responses are complete");
            assert_eq!(status, 200);
            match c {
                Call::Transfers(_, advice) => {
                    let env: TransferResponseEnvelope =
                        serde_json::from_slice(&body).expect("decodes");
                    assert_eq!(&env.advice, advice, "codec round trip changed the advice");
                }
                Call::Cleanups(..) => {
                    std::hint::black_box(
                        serde_json::from_slice::<CleanupResponseEnvelope>(&body).expect("decodes"),
                    );
                }
                Call::TransfersDone(_) | Call::CleanupsDone(_) => {
                    std::hint::black_box(
                        serde_json::from_slice::<AckEnvelope>(&body).expect("decodes"),
                    );
                }
            }
        }
    });

    CodecReplay {
        client_codec_ns: client_encode + client_decode,
        http_parse_ns,
        json_decode_ns,
        json_encode_ns,
        fallback_ratio: fallbacks as f64 / transfer_requests.max(1) as f64,
    }
}

// ----------------------------------------------------------------- route

/// Cost of routing one transfer spec on a ring of `shards`, and the mean
/// number of distinct shards one transfer request touches.
pub fn route(calls: &[Call], shards: u16) -> (f64, f64) {
    let ring = HashRing::new(shards);
    let requests: Vec<&Vec<TransferSpec>> = calls
        .iter()
        .filter_map(|c| match c {
            Call::Transfers(t, _) => Some(t),
            _ => None,
        })
        .collect();
    let specs: usize = requests.iter().map(|r| r.len()).sum();
    if specs == 0 {
        return (0.0, 0.0);
    }
    let mut touched = 0u64;
    let t0 = Instant::now();
    for r in &requests {
        let mut mask = 0u64;
        for s in r.iter() {
            mask |= 1 << (ring.shard_for_pair(&s.source.host, &s.dest.host) % 64);
        }
        touched += u64::from(mask.count_ones());
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (ns / specs as f64, touched as f64 / requests.len() as f64)
}

// --------------------------------------------------------------- service

/// What an in-process replay into a fresh controller measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceReplay {
    /// Mean and p99 service time per HTTP request, microseconds.
    pub mean_us: f64,
    pub p99_us: f64,
    /// Inside the replayed service, per request: rule-matcher time, matcher
    /// evaluations, action firings.
    pub rules_us: f64,
    pub rule_evaluations: f64,
    pub rule_firings: f64,
    /// Requests replayed.
    pub requests: u64,
    /// Answers that differ from what the live service gave.
    pub mismatches: u64,
}

/// (matcher nanoseconds, evaluations, firings) summed over all rules.
fn rule_sums(controller: &PolicyController) -> [u64; 3] {
    let rules: Vec<RuleCounters> = controller.rule_stats(SESSION).expect("replay session");
    rules.iter().fold([0; 3], |[ns, evals, firings], r| {
        [
            ns + r.eval_nanos,
            evals + r.evaluations,
            firings + r.firings,
        ]
    })
}

/// `before` is [`rule_sums`] as the timed replay started (warming a session
/// evaluates rules too).
fn summarize(
    controller: &PolicyController,
    before: [u64; 3],
    per_request_ns: &mut [u64],
    mismatches: u64,
) -> ServiceReplay {
    let requests = per_request_ns.len() as f64;
    let after = rule_sums(controller);
    let per_request = |i: usize| (after[i] - before[i]) as f64 / requests.max(1.0);
    ServiceReplay {
        mean_us: per_request_ns.iter().sum::<u64>() as f64 / 1e3 / requests.max(1.0),
        p99_us: if per_request_ns.is_empty() {
            0.0
        } else {
            percentile_in_place(per_request_ns, 0.99) as f64 / 1e3
        },
        rules_us: per_request(0) / 1e3,
        rule_evaluations: per_request(1),
        rule_firings: per_request(2),
        requests: per_request_ns.len() as u64,
        mismatches,
    }
}

/// Replay recorded calls verbatim into a controller `prepare` has given an
/// identically configured [`SESSION`]. Ids are service-assigned and
/// deterministic, so the recorded completion reports apply unchanged and
/// every answer must equal the recorded one.
pub fn service(calls: &[Call], prepare: impl FnOnce(&PolicyController)) -> ServiceReplay {
    let controller = PolicyController::new(Default::default());
    prepare(&controller);
    let before = rule_sums(&controller);
    let mut ns = Vec::with_capacity(calls.len());
    let mut mismatches = 0u64;
    for c in calls {
        // The controller takes its input by value, as it does from the
        // server's decoder: the copy is made before the clock starts.
        let input = c.clone();
        let t0 = Instant::now();
        let same = match input {
            Call::Transfers(t, advice) => controller.evaluate_transfers(SESSION, t) == Ok(advice),
            Call::TransfersDone(o) => controller.report_transfers(SESSION, o).is_ok(),
            Call::Cleanups(c, advice) => controller.evaluate_cleanups(SESSION, c) == Ok(advice),
            Call::CleanupsDone(o) => controller.report_cleanups(SESSION, o).is_ok(),
        };
        ns.push(t0.elapsed().as_nanos() as u64);
        mismatches += !same as u64;
    }
    summarize(&controller, before, &mut ns, mismatches)
}

/// Replay advice cycles into a controller `prepare` has given a warm
/// [`SESSION`]: the same five controller calls per cycle the REST server
/// makes for the cycle's twelve requests. Completion reports quote the ids
/// this replay's own advice assigned, because ids differ between shard
/// counts. A mismatch is an answer that breaks the cycle's known outcome.
pub fn lifecycle(cycles: &[Cycle], prepare: impl FnOnce(&PolicyController)) -> ServiceReplay {
    let controller = PolicyController::new(Default::default());
    prepare(&controller);
    let before = rule_sums(&controller);
    let mut ns: Vec<u64> = Vec::with_capacity(cycles.len() * crate::gen::REQUESTS_PER_CYCLE);
    let mut mismatches = 0u64;
    // Inputs are copied before the clock starts: the controller takes them
    // by value, as it does from the server's decoder.
    let mut timed = |requests: usize, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        let each = t0.elapsed().as_nanos() as u64 / requests as u64;
        ns.extend(std::iter::repeat_n(each, requests));
    };
    for cycle in cycles {
        let mut groups = Some(cycle.groups.clone());
        let mut advice = Vec::new();
        timed(WINDOW, &mut || {
            advice = controller
                .evaluate_transfer_groups(SESSION, groups.take().expect("called once"))
                .expect("replay session");
        });
        let executed: Vec<TransferOutcome> = advice
            .iter()
            .flatten()
            .filter(|a| a.should_execute())
            .map(|a| TransferOutcome {
                id: a.id,
                success: true,
            })
            .collect();
        mismatches += (executed.len() as u64 != Cycle::EXECUTED) as u64;
        let mut outcomes = Some(executed);
        timed(1, &mut || {
            controller
                .report_transfers(SESSION, outcomes.take().expect("called once"))
                .expect("replay session");
        });
        let mut deleted = Vec::new();
        for cleanups in [&cycle.cleanups_first, &cycle.cleanups_second] {
            let mut cleanups = Some(cleanups.clone());
            let mut advice = Vec::new();
            timed(1, &mut || {
                advice = controller
                    .evaluate_cleanups(SESSION, cleanups.take().expect("called once"))
                    .expect("replay session");
            });
            deleted.extend(
                advice
                    .iter()
                    .filter(|a| a.should_execute())
                    .map(|a| CleanupOutcome {
                        id: a.id,
                        success: true,
                    }),
            );
        }
        mismatches += (deleted.len() as u64 != Cycle::EXECUTED) as u64;
        let mut outcomes = Some(deleted);
        timed(1, &mut || {
            controller
                .report_cleanups(SESSION, outcomes.take().expect("called once"))
                .expect("replay session");
        });
    }
    summarize(&controller, before, &mut ns, mismatches)
}

// ---------------------------------------------------------------- scrape

/// The event-loop counters of a `/metrics` exposition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Scrape {
    pub wakeups: f64,
    pub requests: f64,
    pub batched: f64,
}

pub fn scrape(metrics_text: &str) -> Scrape {
    let value = |name: &str| {
        metrics_text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Scrape {
        wakeups: value("pwm_rest_event_loop_wakeups_total"),
        requests: value("pwm_rest_requests_total"),
        batched: value("pwm_rest_batched_requests_total"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use pwm_core::PolicyConfig;

    #[test]
    fn scrape_reads_the_event_loop_counters() {
        let text = "# HELP pwm_rest_requests_total x\n# TYPE pwm_rest_requests_total counter\n\
                    pwm_rest_requests_total 120\npwm_rest_event_loop_wakeups_total 40\n";
        let s = scrape(text);
        assert_eq!((s.requests, s.wakeups, s.batched), (120.0, 40.0, 0.0));
    }

    #[test]
    fn lifecycle_replay_meets_every_known_outcome_on_one_and_four_shards() {
        let cycles: Vec<Cycle> = (0..3).map(|i| gen::cycle(11, 0, i)).collect();
        for shards in [1u16, 4] {
            let r = lifecycle(&cycles, |c| {
                c.create_sharded_session(SESSION, PolicyConfig::default(), shards)
            });
            assert_eq!(r.mismatches, 0, "{shards} shards");
            assert_eq!(r.requests as usize, 3 * gen::REQUESTS_PER_CYCLE);
            assert!(r.mean_us > 0.0 && r.p99_us >= r.mean_us / 2.0);
        }
    }

    #[test]
    fn verbatim_replay_reproduces_recorded_answers_and_flags_others() {
        // Record one small lifecycle against a live controller.
        let live = PolicyController::new(PolicyConfig::default());
        live.create_session(SESSION, PolicyConfig::default());
        let cycle = gen::cycle(3, 0, 0);
        let mut calls = Vec::new();
        let mut outcomes = Vec::new();
        for g in &cycle.groups {
            let advice = live.evaluate_transfers(SESSION, g.clone()).unwrap();
            outcomes.extend(advice.iter().filter(|a| a.should_execute()).map(|a| {
                TransferOutcome {
                    id: a.id,
                    success: true,
                }
            }));
            calls.push(Call::Transfers(g.clone(), advice));
        }
        live.report_transfers(SESSION, outcomes.clone()).unwrap();
        calls.push(Call::TransfersDone(outcomes));
        let advice = live
            .evaluate_cleanups(SESSION, cycle.cleanups_first.clone())
            .unwrap();
        calls.push(Call::Cleanups(cycle.cleanups_first.clone(), advice));

        let prepare = |c: &PolicyController| c.create_session(SESSION, PolicyConfig::default());
        let r = service(&calls, prepare);
        assert_eq!((r.mismatches, r.requests), (0, calls.len() as u64));

        // A recorded answer the service would not give is a mismatch.
        if let Call::Transfers(_, advice) = &mut calls[0] {
            advice[0].streams += 1;
        }
        assert_eq!(service(&calls, prepare).mismatches, 1);

        let c = codec(&calls);
        assert_eq!(c.fallback_ratio, 0.0);
        assert!(c.total_ns_per_req() > 0.0);
        let (ns, fanout) = route(&calls, 4);
        assert!(ns > 0.0 && (1.0..=2.0).contains(&fanout));
    }
}
