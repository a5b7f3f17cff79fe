//! JSON wire envelopes exchanged over the RESTful interface.
//!
//! The paper: "A RESTful Web Interface allows access to the policy service
//! over the web using XML or JSON data structures." We implement the JSON
//! form with explicit envelope types so the wire format is versionable and
//! testable independently of the in-memory types. Every envelope is
//! encoded and decoded by the derived codec (`third_party/serde*`); the
//! golden bytes in `tests/codec_conformance.rs` pin what it writes.

use pwm_core::{
    CleanupAdvice, CleanupOutcome, CleanupSpec, HealthEvent, MemorySnapshot, Name, RuleCounters,
    ServiceStats, TransferAdvice, TransferOutcome, TransferSpec,
};
use serde::{Deserialize, Serialize};

/// POST `/sessions/{name}/transfers` request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferRequestEnvelope {
    /// The transfers the client wants to perform.
    pub transfers: Vec<TransferSpec>,
}

impl TransferRequestEnvelope {
    /// The encoding of an envelope holding `transfers`, written from the
    /// borrow onto the end of `out`: a pipelining client encodes many groups
    /// it goes on owning.
    pub(crate) fn encode_borrowed(transfers: &[TransferSpec], out: &mut String) {
        serde_json::to_string_onto(&OneMember("\"transfers\":", transfers), out);
    }
}

impl TransferResponseEnvelope {
    /// [`TransferRequestEnvelope::encode_borrowed`] for advice.
    pub(crate) fn encode_borrowed(advice: &[TransferAdvice], out: &mut String) {
        serde_json::to_string_onto(&OneMember("\"advice\":", advice), out);
    }
}

/// A one-member envelope around a borrowed value, keyed by its member
/// literal. The derive has no lifetime support, so this mirrors by hand the
/// one-field object it generates (`borrowed_encoding_matches` below, and
/// `golden_transfer_response_every_action` in `tests/codec_conformance.rs`).
struct OneMember<'a, T: ?Sized>(&'static str, &'a T);

impl<T: Serialize + ?Sized> Serialize for OneMember<'_, T> {
    fn serialize(&self, w: &mut serde::Writer) {
        w.begin_object();
        w.member(self.0);
        self.1.serialize(w);
        w.end_object();
    }
}

/// POST `/sessions/{name}/transfers` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferResponseEnvelope {
    /// The modified list, in advised execution order.
    pub advice: Vec<TransferAdvice>,
}

/// POST `/sessions/{name}/transfers/complete` request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferCompletionEnvelope {
    /// Outcomes of executed transfers.
    pub outcomes: Vec<TransferOutcome>,
}

/// POST `/sessions/{name}/cleanups` request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CleanupRequestEnvelope {
    /// The files the cleanup job wants to delete.
    pub cleanups: Vec<CleanupSpec>,
}

/// POST `/sessions/{name}/cleanups` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CleanupResponseEnvelope {
    /// The modified cleanup list.
    pub advice: Vec<CleanupAdvice>,
}

/// POST `/sessions/{name}/cleanups/complete` request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CleanupCompletionEnvelope {
    /// Outcomes of executed cleanups.
    pub outcomes: Vec<CleanupOutcome>,
}

/// POST `/sessions/{name}/health` request body (JSON only: the recovery
/// family has no XML schema).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReportEnvelope {
    /// Infrastructure health observations, in the order they were made.
    pub events: Vec<HealthEvent>,
}

/// GET `/sessions/{name}/status` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusEnvelope {
    /// Policy memory snapshot.
    pub snapshot: MemorySnapshot,
    /// Service counters.
    pub stats: ServiceStats,
    /// Per-rule engine counters (evaluations, matches, firings, eval time).
    /// `default` keeps old clients' payloads parseable.
    #[serde(default)]
    pub rules: Vec<RuleCounters>,
}

/// Generic acknowledgement for report endpoints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AckEnvelope {
    /// Always "ok" on success.
    pub status: Name,
}

impl AckEnvelope {
    /// The canonical success acknowledgement.
    pub fn ok() -> Self {
        AckEnvelope {
            status: "ok".into(),
        }
    }
}

/// Error payload returned with 4xx/5xx statuses.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorEnvelope {
    /// Human-readable description.
    pub error: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwm_core::{Url, WorkflowId};

    #[test]
    fn transfer_envelope_roundtrip() {
        let env = TransferRequestEnvelope {
            transfers: vec![TransferSpec {
                source: Url::parse("gsiftp://src/a").unwrap(),
                dest: Url::parse("file:///dst/a").unwrap(),
                bytes: 42,
                requested_streams: None,
                workflow: WorkflowId(7),
                cluster: None,
                priority: None,
            }],
        };
        let json = serde_json::to_string(&env).unwrap();
        let back: TransferRequestEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(env, back);
    }

    #[test]
    fn borrowed_encoding_matches() {
        let spec = TransferSpec {
            source: Url::parse("gsiftp://src/a \"b\"").unwrap(),
            dest: Url::parse("file:///dst/a").unwrap(),
            bytes: 42,
            requested_streams: Some(2),
            workflow: WorkflowId(7),
            cluster: None,
            priority: Some(-1),
        };
        for transfers in [vec![], vec![spec.clone()], vec![spec.clone(), spec]] {
            let mut borrowed = String::new();
            TransferRequestEnvelope::encode_borrowed(&transfers, &mut borrowed);
            let owned = serde_json::to_string(&TransferRequestEnvelope { transfers }).unwrap();
            assert_eq!(borrowed, owned);
        }
    }

    #[test]
    fn ack_is_ok() {
        let json = serde_json::to_string(&AckEnvelope::ok()).unwrap();
        assert_eq!(json, r#"{"status":"ok"}"#);
    }

    #[test]
    fn error_envelope_roundtrip() {
        let e = ErrorEnvelope {
            error: "no such policy session: x".into(),
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: ErrorEnvelope = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn malformed_json_is_an_error() {
        let r: Result<TransferRequestEnvelope, _> = serde_json::from_str("{not json");
        assert!(r.is_err());
        let r: Result<TransferRequestEnvelope, _> = serde_json::from_str(r#"{"wrong":[]}"#);
        assert!(r.is_err());
    }
}
