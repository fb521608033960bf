//! What the benchmark measures, frozen: the four workloads with every
//! constant that shapes their traffic, and the metric names and units
//! `BENCHMARK.json` declares (the smoke test holds the two to each other).

use ler::DecoderKind;
use realtime::{Datapath, PredecodeMode};

/// Every workload decodes with the paper's headline configuration.
pub const DECODER: DecoderKind = DecoderKind::PromatchParAg;
/// The L1 batch predecoder runs ahead of the solver on every workload.
pub const PREDECODE: PredecodeMode = PredecodeMode::Batch;
/// Every workload moves syndromes on the packed datapath.
pub const DATAPATH: Datapath = Datapath::Packed;

/// Modeled syndrome round period, ns (the paper's 1 µs cadence).
pub const ROUND_NS: f64 = 1000.0;

/// `--seconds` when the command line gives none: the `run_seconds`
/// `BENCHMARK.json` declares (the smoke test holds the two together).
pub const DEFAULT_SECONDS: f64 = 26.0;

/// Fewest measured slices a run will report from, however short its
/// `--seconds`.
pub const MIN_SLICES: usize = 3;

/// Cold set-ups per run, at least; `setup_s` is the fastest of them.
pub const SETUP_REPEATS: usize = 5;

/// Set-up keeps repeating past [`SETUP_REPEATS`] until this many seconds
/// have gone into it (or [`SETUP_REPEATS_MAX`] repeats): a 35 ms service
/// set-up needs far more than five tries before its fastest one stops
/// moving, and can afford them.
pub const SETUP_BUDGET_S: f64 = 2.0;

/// Upper limit on set-up repeats.
pub const SETUP_REPEATS_MAX: usize = 40;

/// Shots the engine workloads decode during set-up, so the recurring
/// window ranges are built and cached before the first slice.
pub const ENGINE_SETUP_FILL_SHOTS: usize = 64;

/// How a workload's shots reach the decoder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Drive {
    /// Closed loop on one thread, straight into
    /// `SlidingWindowDecoder::decode_shot_packed_into`.
    Engine,
    /// Open loop over loopback TCP into a `DecodeServer`: one frame at a
    /// time, evenly spaced, round-robin over tenants.
    Paced,
    /// Open loop over loopback TCP: every tenant's frame at the same
    /// instant, one instant per `tenants / rate` seconds.
    Burst,
}

/// One workload and every constant that shapes its traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: the layers it exercises and bypasses.
    pub why: &'static str,
    /// How shots reach the decoder.
    pub drive: Drive,
    /// Surface-code distance (SD6 noise, memory-Z).
    pub distance: u32,
    /// Syndrome-extraction rounds per shot.
    pub rounds: u32,
    /// Physical error rate.
    pub p: f64,
    /// Sliding-window size, round layers.
    pub window: u32,
    /// Layers committed per window step.
    pub commit: u32,
    /// Tenants (logical qubits); 1 for the engine workloads.
    pub tenants: u32,
    /// Pre-generated shots per tenant.
    pub pool_shots: usize,
    /// Times a slice replays the pool (service slices replay it once).
    pub passes: usize,
    /// Open-loop submission rate, shots per second over all tenants
    /// (unused by the engine workloads).
    pub shots_per_s: f64,
    /// The wall-clock limit a commit must arrive within to count towards
    /// `within_limit_fraction`, µs (≈5× the p99 measured when the
    /// workload was sized).
    pub limit_us: f64,
}

impl Workload {
    /// Shots one slice attempts.
    pub fn shots_per_slice(&self) -> usize {
        self.tenants as usize * self.pool_shots * self.passes
    }

    /// Shots per tenant whose first decode is part of set-up. An engine
    /// set-up decodes enough to fill the window cache. A service set-up
    /// ends with every tenant's first commit: each further shot would
    /// add one loopback round trip, whose cost on a VM swings threefold
    /// with how deeply the idle vCPU sleeps and would bury the set-up
    /// work the metric is there to watch; the discarded warm-up slice
    /// fills the cache instead.
    pub fn setup_fill_shots(&self) -> usize {
        match self.drive {
            Drive::Engine => ENGINE_SETUP_FILL_SHOTS,
            Drive::Paced | Drive::Burst => 1,
        }
    }

    /// The same workload cut down until a debug build runs it in about a
    /// second: small code, tiny pools, the service rate kept but its
    /// slice shortened to a blink.
    pub fn smoke(mut self) -> Workload {
        if self.drive == Drive::Engine {
            self.distance = 5;
            self.rounds = 7;
            self.pool_shots = 96;
            self.passes = 1;
        } else {
            self.tenants = 4;
            self.pool_shots = 48;
        }
        self.limit_us = 1e6;
        self
    }
}

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "engine-sparse-d13",
        why: "the paper's operating point (d=13, p=1e-4): windows are empty or L1-trivial, so packed ingest, WordSpan extraction, the L1 predecoder and window bookkeeping do the work, the solvers almost none",
        drive: Drive::Engine,
        distance: 13,
        rounds: 13,
        p: 1e-4,
        window: 6,
        commit: 3,
        tenants: 1,
        pool_shots: 32_768,
        passes: 2,
        shots_per_s: 0.0,
        limit_us: 800.0,
    },
    Workload {
        name: "engine-dense-d13",
        why: "the regime the paper exists for (d=13, p=1e-3): 59% of windows escalate, so L1's complex-batch verification and the Promatch||Astrea-G solve of the residuals do the work; extraction is noise",
        drive: Drive::Engine,
        distance: 13,
        rounds: 13,
        p: 1e-3,
        window: 6,
        commit: 3,
        tenants: 1,
        pool_shots: 896,
        passes: 1,
        shots_per_s: 0.0,
        limit_us: 20_000.0,
    },
    Workload {
        name: "svc-paced-d5",
        why: "a trickle into the decode service (16 d=5 tenants, one frame per 125 us): decode is ~2 us of a shot's life; codec, two TCP hops, router, SPSC, shard park/wake and writer are the rest, paid per frame",
        drive: Drive::Paced,
        distance: 5,
        rounds: 5,
        p: 1e-3,
        window: 4,
        commit: 2,
        tenants: 16,
        pool_shots: 320,
        passes: 1,
        shots_per_s: 8000.0,
        limit_us: 2000.0,
    },
    Workload {
        name: "svc-burst-d5",
        why: "same service, tenants, pool and mean rate, but all 16 tenants submit at one instant every 2 ms (a QPU's shared cadence): one wake drains 16 slots, and a frame queues behind its siblings",
        drive: Drive::Burst,
        distance: 5,
        rounds: 5,
        p: 1e-3,
        window: 4,
        commit: 2,
        tenants: 16,
        pool_shots: 320,
        passes: 1,
        shots_per_s: 8000.0,
        limit_us: 12_000.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The end-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
/// `model_*`/`_cycles` are on the modeled decoder-hardware clock;
/// `_us`/`_s` are measured software wall or CPU time.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("rounds_per_s", "rounds/s"),
    ("commit_latency_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("within_limit_fraction", "ratio"),
    ("delivered_fraction", "ratio"),
    ("logical_success_fraction", "ratio"),
    ("model_reaction_p99_cycles", "cycles"),
    ("model_deadline_met_fraction", "ratio"),
];

/// The per-layer metrics of a traced run, `(name, unit)`, in
/// `BENCHMARK.json` order. Every workload emits every one; a metric of a
/// layer the workload never enters (the service rows on an engine
/// workload) reads 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("ler.context_build_s", "s"),
    ("decoding_graph.window_cache_build_s", "s"),
    ("decoding_graph.window_cache_builds", "count"),
    ("qsim.sample_ns_per_shot", "ns"),
    ("qsim.transpose_ns_per_shot", "ns"),
    ("inputs.pool_hw_mean", "count"),
    ("inputs.pool_hw_p99", "count"),
    ("realtime.decode_ns_per_shot", "ns"),
    ("realtime.windows_per_shot", "count"),
    ("realtime.predecode_ns_per_window", "ns"),
    ("realtime.extract_ns_per_window", "ns"),
    ("realtime.solve_ns_per_window", "ns"),
    ("realtime.commit_ns_per_window", "ns"),
    ("realtime.window_total_ns_per_window", "ns"),
    ("realtime.self_ns_per_window", "ns"),
    ("realtime.unattributed_fraction", "ratio"),
    ("decoding_graph.extract_ns_per_call", "ns"),
    ("decoding_graph.popcount_ns_per_shot", "ns"),
    ("predecoders.l1_ns_per_window", "ns"),
    ("predecoders.cancel_rounds_ns_per_window", "ns"),
    ("predecoders.l1_resolved_round_fraction", "ratio"),
    ("predecoders.escalated_window_fraction", "ratio"),
    ("promatch.predecode_ns_per_window", "ns"),
    ("promatch.hw_removed_fraction", "ratio"),
    ("solver.promatch-par-ag.ns_per_window", "ns"),
    ("solver.astrea-g.ns_per_window", "ns"),
    ("solver.mwpm.ns_per_window", "ns"),
    ("solver.union-find.ns_per_window", "ns"),
    ("solver.hw_mean", "count"),
    ("solver.hw_p99", "count"),
    ("service.protocol.encode_submit_ns", "ns"),
    ("service.protocol.decode_submit_ns", "ns"),
    ("service.protocol.encode_commit_ns", "ns"),
    ("service.protocol.decode_commit_ns", "ns"),
    ("service.protocol.bytes_per_round", "bytes"),
    ("service.transport.tcp_rtt_us_p50", "us"),
    ("service.transport.channel_rtt_us_p50", "us"),
    ("service.spsc.push_pop_ns", "ns"),
    ("service.spsc.wake_latency_us_p50", "us"),
    ("service.admission.gate_ns", "ns"),
    ("service.admission.simulate_ns_per_window", "ns"),
    ("service.shard.ingest_wait_us_mean", "us"),
    ("service.shard.parks_per_kshot", "count"),
    ("service.shard.wakes_per_kshot", "count"),
    ("service.shard.ring_depth_max", "count"),
    ("service.shard.busy_fraction", "ratio"),
    ("service.sheds", "count"),
    ("service.rtt_us_mean", "us"),
    ("service.unattributed_us_per_shot", "us"),
    ("service.closed_loop_rounds_per_s", "rounds/s"),
    ("loadgen.send_lateness_us_p99", "us"),
    ("loadgen.cpu_fraction", "ratio"),
    ("telemetry.now_ns", "ns"),
    ("telemetry.histogram_record_ns", "ns"),
    ("telemetry.trace_record_ns", "ns"),
    ("trace.overhead_fraction", "ratio"),
    // Measured end to end like the nine above, on every workload, but
    // unable to repeat within any allowed bound on this box (NOISE.md):
    // kept under their own names, ungated.
    ("commit_latency_p99_us", "us"),
    ("cpu_us_per_round", "us"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit.len() <= 16);
            assert!(unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
        }
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
    }

    #[test]
    fn service_workloads_share_everything_but_the_schedule() {
        let (paced, burst) = (
            workload("svc-paced-d5").unwrap(),
            workload("svc-burst-d5").unwrap(),
        );
        assert_eq!(
            Workload {
                name: "",
                why: "",
                drive: Drive::Engine,
                limit_us: 0.0,
                ..paced
            },
            Workload {
                name: "",
                why: "",
                drive: Drive::Engine,
                limit_us: 0.0,
                ..burst
            }
        );
        // A slice is 0.64 s of traffic at the frozen rate, and leaves
        // at least 50 samples beyond its p99.
        assert_eq!(paced.shots_per_slice() as f64 / paced.shots_per_s, 0.64);
        assert!(paced.shots_per_slice() / 100 > 50);
    }

    #[test]
    fn smoke_keeps_the_drive_and_shrinks_the_work() {
        for w in WORKLOADS {
            let s = w.smoke();
            assert_eq!((s.name, s.drive), (w.name, w.drive));
            assert!(s.shots_per_slice() <= 256);
            assert!(s.window <= s.rounds + 1, "window fits the shot's layers");
        }
    }
}
