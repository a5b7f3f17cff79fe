//! The wire envelopes of the RESTful interface, and the one place a body's
//! [`WireFormat`] is decided.
//!
//! The paper: "A RESTful Web Interface allows access to the policy service
//! over the web using XML or JSON data structures." Each body is an envelope
//! type, versionable and testable apart from the in-memory types. JSON goes
//! through the derived codec (`third_party/serde*`), whose bytes
//! `tests/codec_conformance.rs` pins; the staging envelopes, the ack and the
//! error envelope also have an XML form in [`crate::xml`]. `Codec` picks
//! one for a body's format, for the server and the client alike.

use crate::http::WireFormat;
use crate::xml::{self, XmlError};
use pwm_core::{
    CleanupAdvice, CleanupOutcome, CleanupSpec, HealthEvent, MemorySnapshot, Name, PolicyConfig,
    RuleCounters, ServiceStats, TransferAdvice, TransferOutcome, TransferSpec,
};
use serde::{Deserialize, Serialize};

/// POST `/sessions/{name}/transfers` request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferRequestEnvelope {
    /// The transfers the client wants to perform.
    pub transfers: Vec<TransferSpec>,
}

/// POST `/sessions/{name}/transfers` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferResponseEnvelope {
    /// The modified list, in advised execution order.
    pub advice: Vec<TransferAdvice>,
}

impl TransferResponseEnvelope {
    /// The JSON encoding of an envelope holding `advice`, written from the
    /// borrow onto the end of `out`.
    pub(crate) fn encode_borrowed(advice: &[TransferAdvice], out: &mut String) {
        serde_json::to_string_onto(&OneMember("\"advice\":", advice), out);
    }

    /// [`Codec::encode`] of an envelope holding `advice`, from the borrow.
    pub(crate) fn encode_advice(
        advice: &[TransferAdvice],
        format: WireFormat,
        out: &mut String,
    ) -> WireFormat {
        if format == WireFormat::Xml {
            out.push_str(&xml::transfer_response_to_xml(advice));
            return WireFormat::Xml;
        }
        Self::encode_borrowed(advice, out);
        WireFormat::Json
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

impl CleanupResponseEnvelope {
    /// [`Codec::encode`] of an envelope holding `advice`, from the borrow.
    pub(crate) fn encode_advice(
        advice: &[CleanupAdvice],
        format: WireFormat,
        out: &mut String,
    ) -> WireFormat {
        if format == WireFormat::Xml {
            out.push_str(&xml::cleanup_response_to_xml(advice));
            return WireFormat::Xml;
        }
        serde_json::to_string_onto(&OneMember("\"advice\":", advice), out);
        WireFormat::Json
    }
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

/// A body of the API in either wire format. JSON is the derived codec's;
/// an envelope with an [`XmlForm`] is XML when the format says so, and
/// `WireFormat::Text` reads and writes as JSON.
pub(crate) trait Codec: Serialize + Deserialize {
    /// The XML form; `None` for a body that is JSON whatever the format.
    const XML: Option<XmlForm<Self>> = None;

    /// Write `self` in `format` onto the end of `out`; the format written.
    fn encode(&self, format: WireFormat, out: &mut String) -> WireFormat {
        match (format, Self::XML) {
            (WireFormat::Xml, Some(form)) => {
                out.push_str(&(form.write)(self));
                WireFormat::Xml
            }
            _ => {
                serde_json::to_string_onto(self, out);
                WireFormat::Json
            }
        }
    }

    /// Read a body in `format`; the error is what a 400 answer says.
    fn decode(format: WireFormat, body: &[u8]) -> Result<Self, String> {
        match (format, Self::XML) {
            (WireFormat::Xml, Some(form)) => {
                let text =
                    std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
                (form.read)(text).map_err(|e| e.to_string())
            }
            _ => serde_json::from_slice(body).map_err(|e| format!("bad json: {e}")),
        }
    }

    /// [`Codec::decode`] into `place`: JSON is read in place, so a handler
    /// decoding one request after another into the same envelope keeps its
    /// buffers; XML replaces it. Refuses what `decode` refuses, with the
    /// same message.
    fn decode_into(format: WireFormat, body: &[u8], place: &mut Self) -> Result<(), String> {
        match (format, Self::XML) {
            (WireFormat::Xml, Some(_)) => Self::decode(format, body).map(|value| *place = value),
            _ => serde_json::from_slice_into(body, place).map_err(|e| format!("bad json: {e}")),
        }
    }
}

/// An envelope's XML writer and reader (see [`crate::xml`]).
pub(crate) struct XmlForm<T> {
    write: fn(&T) -> String,
    read: fn(&str) -> Result<T, XmlError>,
}

/// The [`Codec`] of one-field envelopes whose XML form `xml::$write`
/// writes from the field and `xml::$read` reads back into it.
macro_rules! xml_form {
    ($($envelope:ident.$field:ident: $write:ident, $read:ident;)*) => {$(
        impl Codec for $envelope {
            const XML: Option<XmlForm<Self>> = Some(XmlForm {
                write: |env| xml::$write(&env.$field),
                read: |text| xml::$read(text).map(|$field| Self { $field }),
            });
        }
    )*};
}

xml_form! {
    TransferRequestEnvelope.transfers: transfer_request_to_xml, transfer_request_from_xml;
    TransferResponseEnvelope.advice: transfer_response_to_xml, transfer_response_from_xml;
    TransferCompletionEnvelope.outcomes: transfer_completion_to_xml, transfer_completion_from_xml;
    CleanupRequestEnvelope.cleanups: cleanup_request_to_xml, cleanup_request_from_xml;
    CleanupResponseEnvelope.advice: cleanup_response_to_xml, cleanup_response_from_xml;
    CleanupCompletionEnvelope.outcomes: cleanup_completion_to_xml, cleanup_completion_from_xml;
    ErrorEnvelope.error: error_xml, error_from_xml;
}

impl Codec for AckEnvelope {
    const XML: Option<XmlForm<Self>> = Some(XmlForm {
        write: |_| xml::ack_xml(),
        read: |text| xml::ack_from_xml(text).map(|status| Self { status }),
    });
}

impl Codec for HealthReportEnvelope {}
impl Codec for PolicyConfig {}

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
        let advice = pwm_core::TransferAdvice {
            id: pwm_core::TransferId(9),
            source: Url::parse("gsiftp://src/a \"b\"").unwrap(),
            dest: Url::parse("file:///dst/a").unwrap(),
            action: pwm_core::TransferAction::Execute,
            streams: 2,
            group: pwm_core::GroupId(1),
            order: 0,
            backend: None,
        };
        for advice in [vec![], vec![advice.clone()], vec![advice.clone(), advice]] {
            let mut borrowed = String::new();
            TransferResponseEnvelope::encode_borrowed(&advice, &mut borrowed);
            let owned = serde_json::to_string(&TransferResponseEnvelope { advice }).unwrap();
            assert_eq!(borrowed, owned);
        }
    }

    /// `value` reads back what it writes in each format: XML where it has
    /// an XML form, JSON otherwise.
    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        for format in [WireFormat::Json, WireFormat::Xml, WireFormat::Text] {
            let mut out = String::new();
            let written = value.encode(format, &mut out);
            let xml = format == WireFormat::Xml && T::XML.is_some();
            assert_eq!(
                (written == WireFormat::Xml, out.starts_with('<')),
                (xml, xml)
            );
            assert_eq!(T::decode(format, out.as_bytes()).as_ref(), Ok(&value));
        }
    }

    /// `decode_into` a reused envelope answers what `decode` answers, for
    /// bodies that decode and bodies that do not, in either format.
    #[test]
    fn decoding_in_place_is_decoding() {
        let spec = |n: u32| TransferSpec {
            source: Url::parse(&format!("gsiftp://src/a{n}")).unwrap(),
            dest: Url::parse(&format!("file:///dst/a{n}")).unwrap(),
            bytes: 42,
            requested_streams: Some(n),
            workflow: WorkflowId(7),
            cluster: None,
            priority: None,
        };
        let envelope = |n| TransferRequestEnvelope {
            transfers: (0..n).map(spec).collect(),
        };
        let mut bodies: Vec<(WireFormat, Vec<u8>)> = Vec::new();
        for n in [3, 0, 5, 1] {
            for format in [WireFormat::Json, WireFormat::Xml] {
                let mut out = String::new();
                envelope(n).encode(format, &mut out);
                bodies.push((format, out.into_bytes()));
            }
        }
        for bad in [
            &b"{"[..],
            b"{\"transfers\":[{}]}",
            b"{\"other\":1}",
            b"[]",
            b"\xff",
        ] {
            bodies.push((WireFormat::Json, bad.to_vec()));
            bodies.push((WireFormat::Xml, bad.to_vec()));
        }
        let mut place = envelope(2);
        for (format, body) in &bodies {
            let fresh = TransferRequestEnvelope::decode(*format, body);
            let into = TransferRequestEnvelope::decode_into(*format, body, &mut place);
            match fresh {
                Ok(fresh) => assert_eq!((into, &place), (Ok(()), &fresh)),
                Err(message) => assert_eq!(into, Err(message)),
            }
        }
    }

    #[test]
    fn ack_is_ok() {
        let json = serde_json::to_string(&AckEnvelope::ok()).unwrap();
        assert_eq!(json, r#"{"status":"ok"}"#);
        round_trip(AckEnvelope::ok());
        round_trip(HealthReportEnvelope { events: vec![] });
    }

    #[test]
    fn error_envelope_roundtrip() {
        round_trip(ErrorEnvelope {
            error: "no such \"session\" <x>".into(),
        });
    }

    #[test]
    fn malformed_json_is_an_error() {
        let r: Result<TransferRequestEnvelope, _> = serde_json::from_str("{not json");
        assert!(r.is_err());
        let r: Result<TransferRequestEnvelope, _> = serde_json::from_str(r#"{"wrong":[]}"#);
        assert!(r.is_err());
        let refused = TransferRequestEnvelope::decode(WireFormat::Text, b"{");
        assert!(refused.unwrap_err().starts_with("bad json: "));
        let refused = TransferRequestEnvelope::decode(WireFormat::Xml, &[0xff]);
        assert_eq!(refused, Err("body is not utf-8".to_string()));
    }
}
