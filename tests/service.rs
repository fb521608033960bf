//! Umbrella-level decode-service integration: the multi-tenant server
//! must reproduce the single-tenant realtime harness exactly.
//!
//! `repro serve` drives tenant q with stream seed `qubit_seed(base, q)`
//! (a SplitMix64 mix of `base + q`); `repro realtime` drives its single
//! stream with seed `base`. For the same (window, commit) split and
//! decoder, tenant q's commit stream must therefore match a `run_stream`
//! invocation seeded `qubit_seed(base, q)` — same failure count, same
//! windows — which is the acceptance criterion tying the service layer
//! back to PR 4's streaming runtime.

use promatch_repro::ler::{DecoderKind, ExperimentContext};
use promatch_repro::realtime::{
    run_stream, BacklogConfig, Datapath, Instruments, PredecodeMode, StreamRunConfig, WindowConfig,
};
use promatch_repro::service::{
    channel_pair, qubit_seed, run_loadgen, DecodeServer, LoadgenConfig, ScenarioContext,
    ServiceConfig,
};
use std::sync::Arc;

#[test]
fn multi_tenant_service_matches_single_tenant_realtime_runs() {
    let ctx = Arc::new(ExperimentContext::with_rounds(3, 5, 2e-3));
    let base_seed = 2024u64;
    let (window, commit) = (4u32, 2u32);
    let shots = 40u64;
    let kind = DecoderKind::AstreaG;
    let scenario = ScenarioContext::new("acc", Arc::clone(&ctx)).unwrap();
    let server = DecodeServer::new(
        ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        },
        vec![scenario.clone()],
    )
    .unwrap();
    let (client, server_end) = channel_pair();
    let cfg = LoadgenConfig {
        scenario: "acc".into(),
        qubits: 6,
        shots_per_qubit: shots,
        seed: base_seed,
        decoder: kind,
        window,
        commit,
        inflight: 3,
        predecode: PredecodeMode::Off,
        datapath: Datapath::Packed,
    };
    let report = std::thread::scope(|scope| {
        scope.spawn(|| server.serve(vec![server_end]));
        run_loadgen(client, &ctx, scenario.layers(), &cfg).unwrap()
    });
    for (tenant, stats) in report.tenants.iter().zip(&report.stats) {
        // The single-tenant path `repro realtime` runs, at this tenant's
        // seed.
        let single = run_stream(
            &ctx.graph,
            &ctx.circuit,
            kind,
            &StreamRunConfig {
                shots: shots as usize,
                seed: qubit_seed(base_seed, tenant.qubit),
                window: WindowConfig::new(window, commit).unwrap(),
                backlog: BacklogConfig::with_commit_deadline(1000.0, commit),
                predecode: PredecodeMode::Off,
                datapath: Datapath::Packed,
            },
            scenario.window_cache(),
            Instruments::default(),
        );
        assert_eq!(
            tenant.failures, single.failures,
            "qubit {} diverged from the single-tenant run",
            tenant.qubit
        );
        // Same stream, same windows: the service decoded exactly the
        // windows the single-tenant harness timed.
        assert_eq!(stats.windows as usize, single.backlog.windows);
        assert_eq!(tenant.commits.len() as u64, shots);
    }
}
