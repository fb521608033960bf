//! Lock-free observability for the decode pipeline.
//!
//! The decode service's hot path is a per-shard single-threaded loop
//! over lock-free SPSC rings; instrumentation must not reintroduce the
//! locks and allocations that path was built to avoid. Everything here
//! is therefore built from plain atomics with `Relaxed` ordering on the
//! record side:
//!
//! - [`Counter`] / [`Gauge`] — single-word monotonic and last-value
//!   cells (gauges also track a high-water mark via `fetch_max`).
//! - [`LogHistogram`] — a fixed array of 64 log2-width buckets
//!   (HDR-style) recording nanosecond durations wait-free with **zero
//!   heap allocation**; snapshots merge associatively so per-shard
//!   histograms aggregate into fleet views.
//! - [`Stage`] / [`StageSpans`] — the five hot-path pipeline stages
//!   (SPSC ingest → L1 predecode → window extraction → solver →
//!   commit) plus a whole-window roll-up, each backed by one
//!   histogram. [`Sampler`] throttles span timestamping to 1-in-N so
//!   instrumentation overhead stays under the ~1 % budget at full rate.
//! - [`Registry`] / [`ShardMetrics`] — one `Arc<ShardMetrics>` per
//!   decode shard; writers clone the `Arc` once at registration and
//!   never contend afterwards.
//! - Exposition: [`RegistrySnapshot::render_prometheus`] (text format
//!   0.0.4, served live by [`MetricsServer`] — the one route counters
//!   and histograms leave the process by; in-process readers call
//!   [`Registry::snapshot`] directly).
//!
//! - [`TraceBuf`] — the causal flight recorder: a wait-free
//!   seqlock-slot ring of `(tenant, seq, window_idx, kind, arg)` events
//!   per shard, with a plain-text postmortem dump format
//!   ([`render_dump`] / [`parse_dump`]) and a Chrome-trace/Perfetto
//!   JSON exporter ([`render_chrome_trace`]). Dump files are the one
//!   route traces leave the process by.
//!
//! Timestamps come from [`clock::now`] — raw TSC cycles on x86_64,
//! calibrated against `Instant` once per process — so taking a span
//! costs two register reads plus one multiply, not a syscall.
//!
//! The crate is std-only and dependency-free; nothing here may pull a
//! lock or an allocation into `record`.

mod clock;
mod metrics;
mod registry;
mod server;
mod stage;
mod trace;

pub use clock::{now, since_ns};
pub use metrics::{Counter, Gauge, HistogramSnapshot, LogHistogram, NUM_BUCKETS};
pub use registry::{Registry, RegistrySnapshot, ShardMetrics, ShardSnapshot};
pub use server::MetricsServer;
pub use stage::{Sampler, Stage, StageSpans};
pub use trace::{
    parse_dump, render_chrome_trace, render_dump, TraceBuf, TraceDump, TraceEvent, TraceKind,
    TraceShard, TraceSnapshot, SHARD_TENANT,
};
