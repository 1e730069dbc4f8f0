//! Serving-run reuse contracts: a reused `SimContext` reproduces a
//! fresh-allocation run bit for bit, and the memoized deployment cache
//! is shared, concurrency-safe and hit by repeated sweeps.

use dnn::CompileOptions;
use gpu_spec::GpuModel;
use sgdrc_core::serving::{run_in_context, Scenario, SimContext};
use std::sync::Arc;
use workload::runner::{cell_trace, Deployment, EndToEndConfig, Load, SystemKind};

/// A reused `SimContext` (and a reused policy instance) must produce
/// `RunStats` bit-identical to a fresh-allocation run, for every system.
/// The context is deliberately "dirtied" by runs of *other* scenarios
/// between comparisons so leftover state would be caught.
#[test]
fn reused_context_matches_fresh_allocation_for_every_system() {
    let gpu = GpuModel::RtxA2000;
    let dep = Deployment::cached(gpu);
    let mut cfg = EndToEndConfig::new(gpu, Load::Heavy);
    cfg.horizon_us = if cfg!(debug_assertions) { 8e4 } else { 2e5 };
    let trace = cell_trace(&dep, &cfg);
    let scenario_for = |be: usize| Scenario {
        spec: dep.spec.clone(),
        ls: Arc::clone(&dep.ls_tasks),
        be: dep.be_singleton(be),
        ls_instances: cfg.ls_instances,
        arrivals: Arc::clone(&trace),
        horizon_us: cfg.horizon_us,
    };

    for system in SystemKind::all() {
        if !system.supported_on(&dep.spec) {
            continue;
        }
        // One context and one policy instance reused across all three BE
        // scenarios, twice over.
        let mut ctx = SimContext::new();
        let mut reused_policy = system.make(&dep.spec);
        for round in 0..2 {
            for be in 0..dep.be_tasks.len() {
                let scenario = scenario_for(be);
                let reused = run_in_context(reused_policy.as_mut(), &scenario, &mut ctx);
                let mut fresh_policy = system.make(&dep.spec);
                let fresh = sgdrc_core::serving::run(fresh_policy.as_mut(), &scenario);
                assert_eq!(
                    fresh,
                    reused,
                    "context reuse diverged for {} (round {round}, BE {be})",
                    system.name()
                );
                ctx.recycle(reused);
            }
        }
    }
}

/// `Deployment::cached_with_options` is safe under concurrent access:
/// every thread racing the same key ends up with the same shared
/// deployment (the documented loser-adopts-winner behaviour).
#[test]
fn deployment_cache_is_concurrency_safe() {
    let opts = CompileOptions {
        coloring: false,
        ..Default::default()
    };
    let deps: Vec<Arc<Deployment>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(move || Deployment::cached_with_options(GpuModel::RtxA2000, opts)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    for d in &deps[1..] {
        assert!(
            Arc::ptr_eq(&deps[0], d),
            "concurrent callers must share one deployment"
        );
    }
}

/// Two sweeps over the same (GpuModel, CompileOptions) hit the memoized
/// entry: the per-key build counter stays at 1 — asserted structurally,
/// not via wall-clock.
#[test]
fn second_sweep_hits_the_deployment_memo() {
    use workload::sweep::{run_sweep, SweepGrid, SweepOptions};
    // A key no other test uses, so parallel tests cannot interfere.
    let opts = CompileOptions {
        fuse: false,
        coloring: false,
        ..Default::default()
    };
    let grid = SweepGrid {
        gpus: vec![GpuModel::Gtx1080],
        loads: vec![Load::Heavy],
        systems: vec![SystemKind::Sgdrc, SystemKind::Orion],
        be_indices: vec![0],
        replications: 1,
        horizon_us: 4e3,
        ls_instances: 4,
        base_seed: 0xCAFE,
        trace: workload::trace::TraceConfig::apollo_like(),
    };
    let cells = grid.cells();
    let sweep_opts = SweepOptions {
        compile: opts,
        ..Default::default()
    };
    let first = run_sweep(&cells, &sweep_opts);
    assert_eq!(
        Deployment::cached_build_count(GpuModel::Gtx1080, opts),
        1,
        "first sweep builds the deployment exactly once"
    );
    let second = run_sweep(&cells, &sweep_opts);
    assert_eq!(
        Deployment::cached_build_count(GpuModel::Gtx1080, opts),
        1,
        "second sweep must hit the memoized entry, not rebuild"
    );
    assert_eq!(first, second, "identical sweeps produce identical results");
}

#[test]
fn deployment_cache_returns_shared_instance() {
    let a = Deployment::cached(GpuModel::RtxA2000);
    let b = Deployment::cached(GpuModel::RtxA2000);
    assert!(Arc::ptr_eq(&a, &b), "cache hit must be an Arc bump");
    // Scenario building blocks are shared, not copied.
    assert!(Arc::ptr_eq(&a.ls_tasks, &b.ls_tasks));
    assert_eq!(a.be_singleton(0).len(), 1);
}
