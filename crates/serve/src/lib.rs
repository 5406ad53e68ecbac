//! `cord-serve`: detection as a long-running service.
//!
//! A detector in `cord-core` depends only on the observer callbacks, not
//! on the simulator, so it can check a reified
//! [`StreamEvent`](cord_obs::StreamEvent) stream from *any* producer.
//! This crate is a daemon that ingests event streams over a Unix domain
//! socket, runs the detector the stream's header names, and answers
//! queries about what it has seen, all with the same wire format
//! (`cord_obs::wire`) a capture file uses.
//!
//! The load-bearing contract: **replaying a captured stream through the
//! daemon produces a race report bit-identical to inline detection.**
//! A session feeds each event to the detector's callbacks through
//! [`apply_stream_event`](cord_core::apply_stream_event), the same
//! callbacks a `Machine` calls inline, so the daemon and the simulator
//! execute the same detector code on the same event sequence; the
//! cord-fuzz oracle and the CI smoke hold the two byte streams against
//! each other.
//!
//! Architecture (one session = one ingesting connection = one thread):
//!
//! * the accept loop gives each connection a thread of its own and keeps
//!   no handle to it, so a finished session's thread is released at
//!   once; shutdown still waits for every session to end;
//! * the session thread **owns the detector**: it reads a
//!   length-prefixed frame, rejects events whose thread or core lies
//!   outside the header's geometry, applies the batch in order, and
//!   answers `drain` itself. Detection is sequential: CORD's thread
//!   clocks are global state, which is the paper's whole point, so a
//!   second thread per stream would gain nothing;
//! * **backpressure** comes from the socket: the thread reads the next
//!   frame only after applying the last, so when the detector falls
//!   behind the socket buffer fills and the producer's writes block,
//!   with nothing buffered beyond the frame in hand;
//! * periodic **snapshots** land as durable `cord-json` documents
//!   (sealed, crash-atomic, previous-generation rotation); abnormal
//!   recoveries at startup surface as structured
//!   [`RecoveryEvent`](cord_json::durable::RecoveryEvent)s in `status`
//!   responses instead of stderr noise.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::ServeClient;
pub use protocol::{Query, ServeError, FRAME_QUERY, FRAME_RESPONSE};
pub use server::{Daemon, DaemonConfig};
