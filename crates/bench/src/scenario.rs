//! Named evaluation scenarios: noise model × distance × rounds ×
//! decoder set.
//!
//! A [`Scenario`] pins down everything needed to reproduce one accuracy
//! or performance trajectory — the workload axis the paper varies in
//! §6 — and the [`ScenarioRegistry`] names the configurations the
//! `repro` CLI exposes (`repro ler --scenario sd6-d11`,
//! `repro realtime --scenario biased-z-d5`). Every result row carries
//! its scenario name, so runs from different commits compare
//! like-for-like per workload.

use decoding_graph::{SeamPolicy, WindowCache};
use ler::{run_eq1, wilson_interval, DecoderKind, Eq1Config, ExperimentContext};
use realtime::{
    run_stream, BacklogConfig, Instruments, PredecodeMode, StreamRunConfig, WindowConfig,
};
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};
use surface_code::{MemoryBasis, NoiseModel};

/// The noise-model family of a scenario, instantiated at the scenario's
/// physical error rate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NoiseSpec {
    /// Data depolarization only, perfect circuit.
    CodeCapacity,
    /// Data depolarization plus measurement flips.
    Phenomenological,
    /// The paper's uniform circuit-level model (§5.3).
    CircuitUniform,
    /// SD6-style standard circuit-level model: uniform plus depolarizing
    /// idle errors during readout.
    Sd6,
    /// SD6 with the idle channel biased toward Z by `eta`.
    BiasedZ {
        /// Bias factor `pz / (px + py)` of the idle channel.
        eta: f64,
    },
}

impl NoiseSpec {
    /// Instantiates the family at physical error rate `p`.
    pub fn model(&self, p: f64) -> NoiseModel {
        match self {
            NoiseSpec::CodeCapacity => NoiseModel::code_capacity(p),
            NoiseSpec::Phenomenological => NoiseModel::phenomenological(p),
            NoiseSpec::CircuitUniform => NoiseModel::uniform(p),
            NoiseSpec::Sd6 => NoiseModel::sd6(p),
            NoiseSpec::BiasedZ { eta } => NoiseModel::biased_z(p, *eta),
        }
    }

    /// Human-readable family label.
    pub fn label(&self) -> String {
        match self {
            NoiseSpec::CodeCapacity => "code-capacity".into(),
            NoiseSpec::Phenomenological => "phenomenological".into(),
            NoiseSpec::CircuitUniform => "circuit-uniform".into(),
            NoiseSpec::Sd6 => "sd6".into(),
            NoiseSpec::BiasedZ { eta } => format!("biased-z(eta={eta})"),
        }
    }
}

/// One named evaluation configuration.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Registry key, e.g. `sd6-d11`.
    pub name: &'static str,
    /// One-line description for `repro scenarios`.
    pub description: &'static str,
    /// Noise-model family.
    pub noise: NoiseSpec,
    /// Code distance.
    pub distance: u32,
    /// Syndrome-extraction rounds.
    pub rounds: u32,
    /// Physical error rate the family is instantiated at.
    pub p: f64,
    /// Decoder configurations evaluated under this scenario.
    pub decoders: Vec<DecoderKind>,
    /// Default maximum injected mechanism count for LER studies.
    pub k_max: usize,
    /// Default injection samples per `k`.
    pub shots_per_k: usize,
    /// Default sliding-window size (round layers) for `repro realtime`.
    pub rt_window: u32,
    /// Default committed layers per window step for `repro realtime`.
    pub rt_commit: u32,
}

/// Process-wide cache of built scenario contexts (see
/// [`Scenario::shared_context`]).
static CONTEXT_CACHE: OnceLock<Mutex<HashMap<String, Arc<ExperimentContext>>>> = OnceLock::new();

impl Scenario {
    /// Builds the experiment context (circuit, DEM, graph, paths) for
    /// this scenario, from scratch. Prefer [`Scenario::shared_context`]
    /// unless a private mutable copy is genuinely needed.
    pub fn context(&self) -> ExperimentContext {
        ExperimentContext::with_noise(
            MemoryBasis::Z,
            self.distance,
            self.rounds,
            &self.noise.model(self.p),
            self.p,
        )
    }

    /// The scenario's experiment context behind a process-wide `Arc`
    /// cache: the first call per configuration builds (circuit, DEM,
    /// graph, the path table's rows as they fill), every later call — a second
    /// subcommand in the same process, another test, or the Q-th tenant
    /// registering with the decode service — reuses that immutable state
    /// instead of rebuilding it. The cache key covers every field that
    /// shapes the context, so ad-hoc `Scenario` values with a reused
    /// name cannot collide.
    pub fn shared_context(&self) -> Arc<ExperimentContext> {
        let key = format!(
            "{}|d{}|r{}|p{:016x}|{}",
            self.name,
            self.distance,
            self.rounds,
            self.p.to_bits(),
            self.noise.label()
        );
        let cache = CONTEXT_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = cache.lock().expect("context cache poisoned");
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(self.context())))
    }
}

/// The named scenarios known to the `repro` CLI.
#[derive(Clone, Debug)]
pub struct ScenarioRegistry {
    scenarios: Vec<Scenario>,
}

impl ScenarioRegistry {
    /// The built-in registry. Names follow `<family>-d<distance>`.
    pub fn builtin() -> Self {
        let table2 = DecoderKind::table2().to_vec();
        let baselines = vec![DecoderKind::Mwpm, DecoderKind::UnionFind];
        let scenarios = vec![
            Scenario {
                name: "cc-d3",
                description: "code-capacity smoke test, d=3, 1 round, p=1e-2",
                noise: NoiseSpec::CodeCapacity,
                distance: 3,
                rounds: 1,
                p: 1e-2,
                decoders: baselines.clone(),
                k_max: 8,
                shots_per_k: 500,
                // One-layer windows over the 2-layer experiment: the CI
                // smoke artifact exercises window advance (two windows
                // per shot), not just the degenerate whole-shot window.
                rt_window: 1,
                rt_commit: 1,
            },
            Scenario {
                name: "phenom-d5",
                description: "phenomenological noise, d=5, 5 rounds, p=5e-3",
                noise: NoiseSpec::Phenomenological,
                distance: 5,
                rounds: 5,
                p: 5e-3,
                decoders: baselines,
                k_max: 12,
                shots_per_k: 400,
                rt_window: 4,
                rt_commit: 2,
            },
            Scenario {
                name: "uniform-d5",
                description: "paper's uniform circuit-level model, d=5, p=1e-3",
                noise: NoiseSpec::CircuitUniform,
                distance: 5,
                rounds: 5,
                p: 1e-3,
                decoders: table2.clone(),
                k_max: 16,
                shots_per_k: 300,
                rt_window: 4,
                rt_commit: 2,
            },
            Scenario {
                name: "sd6-d5",
                description: "SD6 circuit-level model, d=5, p=1e-3",
                noise: NoiseSpec::Sd6,
                distance: 5,
                rounds: 5,
                p: 1e-3,
                decoders: table2.clone(),
                k_max: 16,
                shots_per_k: 300,
                rt_window: 4,
                rt_commit: 2,
            },
            Scenario {
                name: "sd6-d7",
                description: "SD6 circuit-level model, d=7, p=1e-3",
                noise: NoiseSpec::Sd6,
                distance: 7,
                rounds: 7,
                p: 1e-3,
                decoders: table2.clone(),
                k_max: 20,
                shots_per_k: 200,
                rt_window: 4,
                rt_commit: 2,
            },
            Scenario {
                name: "sd6-d11",
                description: "SD6 circuit-level model at the paper's d=11, p=1e-4",
                noise: NoiseSpec::Sd6,
                distance: 11,
                rounds: 11,
                p: 1e-4,
                decoders: table2,
                k_max: 20,
                shots_per_k: 150,
                rt_window: 6,
                rt_commit: 3,
            },
            Scenario {
                name: "biased-z-d5",
                description: "Z-biased idling (eta=10) over SD6 gates, d=5, p=1e-3",
                noise: NoiseSpec::BiasedZ { eta: 10.0 },
                distance: 5,
                rounds: 5,
                p: 1e-3,
                decoders: vec![
                    DecoderKind::Mwpm,
                    DecoderKind::PromatchParAg,
                    DecoderKind::AstreaG,
                    DecoderKind::UnionFind,
                ],
                k_max: 16,
                shots_per_k: 300,
                rt_window: 4,
                rt_commit: 2,
            },
        ];
        ScenarioRegistry { scenarios }
    }

    /// Looks up a scenario by name.
    pub fn get(&self, name: &str) -> Option<&Scenario> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// All registered scenarios, in definition order.
    pub fn iter(&self) -> impl Iterator<Item = &Scenario> {
        self.scenarios.iter()
    }

    /// Registered scenario names.
    pub fn names(&self) -> Vec<&'static str> {
        self.scenarios.iter().map(|s| s.name).collect()
    }
}

/// One `(scenario, decoder)` logical-error-rate point with 95 % Wilson
/// bounds.
#[derive(Clone, Debug)]
pub struct LerPoint {
    /// Scenario name the point was measured under.
    pub scenario: String,
    /// Paper-style decoder label.
    pub decoder: &'static str,
    /// Code distance.
    pub d: u32,
    /// Syndrome-extraction rounds.
    pub rounds: u32,
    /// Physical error rate.
    pub p: f64,
    /// Maximum injected mechanism count of the Equation-1 study.
    pub k_max: usize,
    /// Injection samples per `k`.
    pub shots_per_k: usize,
    /// Predecode mode label (`off` or `batch`).
    pub predecode: &'static str,
    /// Equation-1 LER estimate.
    pub ler: f64,
    /// Lower 95 % Wilson bound.
    pub low: f64,
    /// Upper 95 % Wilson bound.
    pub high: f64,
}

/// Configuration of a `repro ler --scenario` run. `None` fields fall
/// back to the scenario's own defaults.
#[derive(Clone, Debug)]
pub struct LerRunConfig {
    /// Injection samples per `k` (default: scenario's).
    pub shots_per_k: Option<usize>,
    /// Maximum injected mechanism count (default: scenario's).
    pub k_max: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Batch-predecoder (L1) mode. `Off` runs the Equation-1 injection
    /// study; `Batch` runs a streamed sliding-window Monte-Carlo study
    /// so the predecoder's round cancellation actually participates
    /// (Equation-1 decodes whole shots, which has no window seams for
    /// the L1 tier to respect).
    pub predecode: PredecodeMode,
    /// Worker threads (0 = `PROMATCH_THREADS` / available parallelism).
    pub threads: usize,
}

impl Default for LerRunConfig {
    fn default() -> Self {
        LerRunConfig {
            shots_per_k: None,
            k_max: None,
            seed: 2024,
            predecode: PredecodeMode::Off,
            threads: 0,
        }
    }
}

impl LerRunConfig {
    /// Parses `key=value` overrides (`shots=`, `kmax=`, `seed=`,
    /// `predecode=`, `threads=`).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown keys or unparsable values.
    pub fn apply_overrides(&mut self, args: &[String]) -> Result<(), String> {
        for arg in args {
            let Some((key, value)) = arg.split_once('=') else {
                return Err(format!("expected key=value, got '{arg}'"));
            };
            match key {
                "shots" => {
                    self.shots_per_k = Some(value.parse().map_err(|e| format!("shots: {e}"))?);
                }
                "kmax" => self.k_max = Some(value.parse().map_err(|e| format!("kmax: {e}"))?),
                "seed" => self.seed = value.parse().map_err(|e| format!("seed: {e}"))?,
                "predecode" => {
                    self.predecode =
                        PredecodeMode::parse(value).map_err(|e| format!("predecode: {e}"))?;
                }
                "threads" => self.threads = crate::scale::parse_threads(value)?,
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        Ok(())
    }
}

/// Runs the streamed sliding-window Monte-Carlo LER study of one
/// scenario with the batch predecoder enabled: every decoder streams the
/// same `shots_per_k × k_max` seeded shots round-by-round through
/// L1 + escalation, and the logical error rate comes straight from the
/// committed observable flips with a 95 % Wilson interval.
fn run_scenario_ler_windowed(
    scenario: &Scenario,
    cfg: &LerRunConfig,
    w: &mut dyn Write,
) -> std::io::Result<Vec<LerPoint>> {
    let shots_per_k = cfg.shots_per_k.unwrap_or(scenario.shots_per_k);
    let k_max = cfg.k_max.unwrap_or(scenario.k_max);
    let shots = shots_per_k * k_max.max(1);
    let wc = WindowConfig::new(scenario.rt_window, scenario.rt_commit)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    writeln!(w, "# building context...")?;
    let ctx = scenario.shared_context();
    writeln!(
        w,
        "# windowed Monte-Carlo LER: predecode={}, window={}, commit={}, shots={shots}",
        cfg.predecode.label(),
        wc.window,
        wc.commit
    )?;
    let run_cfg = StreamRunConfig {
        shots,
        seed: cfg.seed,
        window: wc,
        backlog: BacklogConfig::with_commit_deadline(1000.0, wc.commit),
        predecode: cfg.predecode,
    };
    let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
    let mut points = Vec::new();
    writeln!(
        w,
        "{:<24} {:>10}  {:>22} {:>6}",
        "decoder", "LER", "95% Wilson", "L1%"
    )?;
    for kind in &scenario.decoders {
        let run = run_stream(
            &ctx.graph,
            &ctx.circuit,
            *kind,
            &run_cfg,
            &cache,
            Instruments::default(),
        );
        let iv = wilson_interval(run.failures, run.shots as u64, 1.96);
        writeln!(
            w,
            "{:<24} {:>10}  [{}, {}] {:>5.1}%",
            kind.label(),
            crate::fmt_rate(iv.estimate),
            crate::fmt_rate(iv.low),
            crate::fmt_rate(iv.high),
            100.0 * run.l1_rounds_fraction(),
        )?;
        points.push(LerPoint {
            scenario: scenario.name.to_string(),
            decoder: kind.label(),
            d: scenario.distance,
            rounds: scenario.rounds,
            p: scenario.p,
            k_max,
            shots_per_k,
            predecode: cfg.predecode.label(),
            ler: iv.estimate,
            low: iv.low,
            high: iv.high,
        });
    }
    Ok(points)
}

/// Runs the Equation-1 LER study of one scenario, printing the table to
/// `w` and returning the per-decoder points (with 95 % Wilson bounds).
pub fn run_scenario_ler(
    scenario: &Scenario,
    cfg: &LerRunConfig,
    w: &mut dyn Write,
) -> std::io::Result<Vec<LerPoint>> {
    let shots_per_k = cfg.shots_per_k.unwrap_or(scenario.shots_per_k);
    let k_max = cfg.k_max.unwrap_or(scenario.k_max);
    writeln!(
        w,
        "# scenario {}: {} noise, d={}, rounds={}, p={:.0e}",
        scenario.name,
        scenario.noise.label(),
        scenario.distance,
        scenario.rounds,
        scenario.p
    )?;
    if cfg.predecode != PredecodeMode::Off {
        return run_scenario_ler_windowed(scenario, cfg, w);
    }
    writeln!(w, "# building context...")?;
    let ctx = scenario.shared_context();
    // Injection draws k distinct mechanisms; a small model (cc-d3 has 7)
    // caps k below the scenario's or the caller's k_max.
    let k_max = k_max.min(ctx.dem.errors.len());
    writeln!(
        w,
        "# {} detectors, {} mechanisms; eq1 with k_max={k_max}, shots/k={shots_per_k}",
        ctx.dem.num_detectors,
        ctx.dem.errors.len()
    )?;
    let eq1 = Eq1Config {
        k_max,
        shots_per_k,
        seed: cfg.seed,
        threads: cfg.threads,
    };
    let report = run_eq1(&ctx, &scenario.decoders, &eq1);
    let mut points = Vec::new();
    writeln!(w, "{:<24} {:>10}  {:>22}", "decoder", "LER", "95% Wilson")?;
    for kind in &scenario.decoders {
        let iv = report
            .ler_interval_of(*kind)
            .expect("decoder was part of the run");
        writeln!(
            w,
            "{:<24} {:>10}  [{}, {}]",
            kind.label(),
            crate::fmt_rate(iv.estimate),
            crate::fmt_rate(iv.low),
            crate::fmt_rate(iv.high),
        )?;
        points.push(LerPoint {
            scenario: scenario.name.to_string(),
            decoder: kind.label(),
            d: scenario.distance,
            rounds: scenario.rounds,
            p: scenario.p,
            k_max,
            shots_per_k,
            predecode: cfg.predecode.label(),
            ler: iv.estimate,
            low: iv.low,
            high: iv.high,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        use std::collections::HashSet;
        let reg = ScenarioRegistry::builtin();
        let names = reg.names();
        let set: HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        for name in &names {
            assert!(reg.get(name).is_some());
        }
        assert!(reg.get("sd6-d11").is_some());
        assert!(reg.get("bogus").is_none());
    }

    #[test]
    fn every_scenario_has_decoders_and_valid_noise() {
        for sc in ScenarioRegistry::builtin().iter() {
            assert!(!sc.decoders.is_empty(), "{}", sc.name);
            sc.noise.model(sc.p).validate().unwrap();
            assert!(sc.rounds >= 1 && sc.distance >= 3, "{}", sc.name);
        }
    }

    #[test]
    fn circuit_level_flag_matches_family() {
        // One definition of "circuit-level" (NoiseModel's, field-based)
        // classifies the instantiated families as expected.
        assert!(!NoiseSpec::CodeCapacity.model(1e-3).is_circuit_level());
        assert!(!NoiseSpec::Phenomenological.model(1e-3).is_circuit_level());
        assert!(NoiseSpec::Sd6.model(1e-3).is_circuit_level());
        assert!(NoiseSpec::BiasedZ { eta: 10.0 }
            .model(1e-3)
            .is_circuit_level());
    }

    #[test]
    fn ler_overrides_parse_and_reject() {
        let mut cfg = LerRunConfig::default();
        cfg.apply_overrides(&[
            "shots=50".into(),
            "kmax=6".into(),
            "seed=7".into(),
            "predecode=batch".into(),
            "threads=2".into(),
        ])
        .unwrap();
        assert_eq!(cfg.shots_per_k, Some(50));
        assert_eq!(cfg.k_max, Some(6));
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.predecode, PredecodeMode::Batch);
        assert_eq!(cfg.threads, 2);
        assert!(cfg.apply_overrides(&["nope=1".into()]).is_err());
        assert!(cfg.apply_overrides(&["out=x.json".into()]).is_err());
        assert!(cfg.apply_overrides(&["predecode=pinball".into()]).is_err());
    }

    #[test]
    fn ler_study_writes_scenario_tagged_schema() {
        let reg = ScenarioRegistry::builtin();
        let sc = reg.get("cc-d3").unwrap();
        let cfg = LerRunConfig {
            shots_per_k: Some(30),
            k_max: Some(2),
            seed: 3,
            predecode: PredecodeMode::Off,
            threads: 1,
        };
        let mut sink = Vec::new();
        let points = run_scenario_ler(sc, &cfg, &mut sink).unwrap();
        for (pt, kind) in points.iter().zip(&sc.decoders) {
            assert_eq!(pt.scenario, "cc-d3");
            assert_eq!(pt.decoder, kind.label());
            assert_eq!((pt.d, pt.rounds, pt.p), (sc.distance, sc.rounds, sc.p));
            assert_eq!((pt.k_max, pt.shots_per_k), (2, 30));
            assert_eq!(pt.predecode, "off");
        }
        // The table names the scenario and carries one row per decoder.
        let log = String::from_utf8(sink).unwrap();
        assert!(
            log.contains("# scenario cc-d3: code-capacity noise"),
            "{log}"
        );
        assert!(log.contains("k_max=2, shots/k=30"), "{log}");
        for kind in &sc.decoders {
            assert!(log.contains(kind.label()), "{log}");
        }
    }

    #[test]
    fn windowed_ler_path_runs_with_batch_predecoding() {
        let reg = ScenarioRegistry::builtin();
        let sc = reg.get("cc-d3").unwrap();
        let cfg = LerRunConfig {
            shots_per_k: Some(20),
            k_max: Some(2),
            seed: 9,
            predecode: PredecodeMode::Batch,
            threads: 1,
        };
        let mut sink = Vec::new();
        let points = run_scenario_ler(sc, &cfg, &mut sink).unwrap();
        assert_eq!(points.len(), sc.decoders.len());
        for pt in &points {
            assert_eq!(pt.predecode, "batch");
            assert!(pt.low <= pt.ler && pt.ler <= pt.high);
        }
        let log = String::from_utf8(sink).unwrap();
        assert!(log.contains("windowed Monte-Carlo LER"), "{log}");
    }

    #[test]
    fn oversized_kmax_is_clamped_not_panicked() {
        // cc-d3's code-capacity DEM has only a handful of mechanisms; a
        // k_max above that count must not trip the injection sampler's
        // assert (the registry default for cc-d3 is itself one too many).
        let reg = ScenarioRegistry::builtin();
        let sc = reg.get("cc-d3").unwrap();
        let mechanisms = sc.shared_context().dem.errors.len();
        let cfg = LerRunConfig {
            shots_per_k: Some(10),
            k_max: Some(1000),
            threads: 1,
            ..LerRunConfig::default()
        };
        let points = run_scenario_ler(sc, &cfg, &mut Vec::new()).unwrap();
        assert!(points.iter().all(|pt| pt.k_max == mechanisms));
    }

    #[test]
    fn small_scenario_ler_runs_end_to_end() {
        let reg = ScenarioRegistry::builtin();
        let sc = reg.get("cc-d3").unwrap();
        let cfg = LerRunConfig {
            shots_per_k: Some(40),
            k_max: Some(3),
            seed: 11,
            predecode: PredecodeMode::Off,
            threads: 1,
        };
        let mut sink = Vec::new();
        let points = run_scenario_ler(sc, &cfg, &mut sink).unwrap();
        assert_eq!(points.len(), sc.decoders.len());
        for pt in &points {
            assert_eq!(pt.scenario, "cc-d3");
            assert!(pt.low <= pt.ler && pt.ler <= pt.high);
        }
    }
}
