//! # pwm-rest — the RESTful web interface of the Policy Service
//!
//! The paper's Fig. 1 puts the Policy Service behind "an Apache Tomcat
//! Container ... \[and\] a RESTful Web Interface \[that\] allows access to the
//! policy service over the web using XML or JSON data structures". This
//! crate is that layer, built from scratch on `std::net`:
//!
//! * [`wire`] — the envelopes of the API and the one place a body's format
//!   is decided: JSON through the derived codec (`third_party/serde*`), or
//!   XML, per request by the Content-Type header,
//! * [`fastjson`] — two wrappers over that codec kept for the names
//!   `benchmark/src` calls,
//! * [`xml`] — the XML half of the wire encoding (the paper: "XML or
//!   JSON"),
//! * [`http`] — minimal HTTP/1.1 framing: one byte-level head scanner for
//!   requests and responses, renderers over byte buffers, for keep-alive
//!   pipelining (the Tomcat substitute),
//! * [`poller`] — the `poll(2)` readiness shim and self-pipe waker behind
//!   the event loop,
//! * [`server`] — [`PolicyRestServer`], a nonblocking event-driven loopback
//!   TCP server delegating to a `pwm_core::PolicyController`; pipelined
//!   same-session transfer requests, JSON or XML, collapse into one batched
//!   rules pass,
//! * [`client`] — [`PolicyRestClient`], the blocking keep-alive client the
//!   modified Pegasus Transfer Tool uses; it implements
//!   `pwm_core::transport::PolicyTransport` so the workflow substrate can
//!   switch between in-process and over-the-wire callouts.
//!
//! ```
//! use pwm_core::{PolicyConfig, PolicyController, PolicyTransport, DEFAULT_SESSION};
//! use pwm_rest::{PolicyRestClient, PolicyRestServer};
//!
//! let controller = PolicyController::new(PolicyConfig::default());
//! let server = PolicyRestServer::start(controller).unwrap();
//! let client = PolicyRestClient::new(server.addr(), DEFAULT_SESSION);
//! assert!(client.health());
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod fastjson;
pub mod http;
pub mod poller;
pub mod server;
pub mod wire;
pub mod xml;

pub use client::PolicyRestClient;
pub use http::HttpError;
pub use http::{Method, Request, Response, WireFormat};
pub use server::{PolicyRestServer, ServerLimits};
pub use wire::{
    AckEnvelope, CleanupCompletionEnvelope, CleanupRequestEnvelope, CleanupResponseEnvelope,
    ErrorEnvelope, HealthReportEnvelope, StatusEnvelope, TransferCompletionEnvelope,
    TransferRequestEnvelope, TransferResponseEnvelope,
};
