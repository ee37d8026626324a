//! The consolidation control plane: a long-lived placement daemon over
//! the fleet-scale [`OnlineCluster`](bursty_placement::OnlineCluster)
//! engine.
//!
//! The paper's §IV-E frames consolidation as an *online* process — a
//! stream of single and batched arrivals, departures, and periodic
//! probability recalibrations. This crate turns the PR-8 engine into a
//! service: a std-only HTTP/1.1 listener (the vendor tree has no
//! axum/tokio/hyper) and a worker pool in which the thread that read a
//! request parses, validates, applies it under the one engine lock that
//! guards all state, and writes the reply.
//!
//! # The transport-equivalence contract
//!
//! The daemon is a *transport*, not a second engine. Given an op
//! sequence (fixed across concurrent clients by optional `seq`
//! numbers), its end-state digest equals that of replaying the same
//! ops on a bare `OnlineCluster`. The [`replay`] module is the shared
//! harness that pins this, from the integration suite to the CI smoke
//! job.
//!
//! # Quick start
//!
//! ```
//! use bursty_server::{spawn, Client, Json, ServerConfig};
//! use bursty_workload::PmSpec;
//!
//! let pms: Vec<PmSpec> = (0..8).map(|j| PmSpec::new(j, 100.0)).collect();
//! let handle = spawn(ServerConfig::new(pms, 16, 0.01, 0.09, 0.01)).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let resp = client
//!     .post(
//!         "/v1/admit",
//!         &Json::parse(br#"{"id":1,"p_on":0.01,"p_off":0.09,"r_b":10,"r_e":5}"#).unwrap(),
//!     )
//!     .unwrap();
//! assert_eq!(resp.status, 200);
//! drop(client);
//! handle.shutdown();
//! ```

mod client;
mod error;
pub mod http;
mod listener;
pub mod replay;
mod routes;
pub mod state;

pub use bursty_obs::json::{Json, JsonError};
pub use client::{Client, Response};
pub use error::ServeError;
pub use listener::{spawn, RestoreReport, ServerConfig, ServerHandle};
pub use replay::{
    apply_engine, build_program, drive_http, fetch_digest, op_request, HttpReplayOutcome, Lcg,
    Program,
};
pub use routes::{route, vm_to_json, Action};
pub use state::{
    apply_op, restore_newest, snapshot_name, Applied, ClusterState, Op, RestoreOutcome,
    RestoreReason, RestoredState, SeqError, SeqWindow,
};
