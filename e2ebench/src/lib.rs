//! `rbs-e2e`: the closed-loop end-to-end benchmark of `rbs-netd`.
//!
//! One process drives a spawned daemon over two connections from two
//! threads, each connection keeping four requests outstanding: a closed
//! loop, because every admission client (a partitioner, an online
//! monitor, a delta chain) waits for a verdict before it sends the next
//! request. Five seeded traffic mixes ([`workload::Kind`]) stress
//! different layers; every response is checked. With `--trace 1` the
//! same requests are replayed in-process through the public entry point
//! of each layer with a span around every call ([`replay`]), which gives
//! the per-layer metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod replay;
pub mod run;
pub mod trace;
pub mod workload;
