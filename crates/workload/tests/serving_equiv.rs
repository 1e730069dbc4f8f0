//! Serving-run reuse contracts: a reused `SimContext` reproduces a
//! fresh-allocation run bit for bit, a reconfigured `Sgdrc` reproduces a
//! fresh instance on every GPU, and the memoized deployment cache is
//! shared and concurrency-safe.

use dnn::CompileOptions;
use gpu_spec::GpuModel;
use sgdrc_core::serving::{run_in_context, Scenario, SimContext};
use sgdrc_core::{Sgdrc, SgdrcConfig};
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

/// One `Sgdrc` instance (and one `SimContext`), dirtied by a run on one
/// GPU and then retargeted with [`Sgdrc::reconfigure`] onto every other
/// GPU model, must run bit-identically to a freshly built instance there
/// — for both the dynamic and the static-partition variant.
#[test]
fn reconfigured_sgdrc_matches_a_fresh_instance_on_every_gpu() {
    let horizon_us = if cfg!(debug_assertions) { 4e4 } else { 1e5 };
    let scenario_on = |gpu: GpuModel| {
        let dep = Deployment::cached(gpu);
        let mut cfg = EndToEndConfig::new(gpu, Load::Heavy);
        cfg.horizon_us = horizon_us;
        Scenario {
            spec: dep.spec.clone(),
            ls: Arc::clone(&dep.ls_tasks),
            be: dep.be_singleton(0),
            ls_instances: cfg.ls_instances,
            arrivals: cell_trace(&dep, &cfg),
            horizon_us,
        }
    };
    let [first, rest @ ..] = GpuModel::all();
    for static_partition in [false, true] {
        let cfg = SgdrcConfig {
            static_partition,
            ..Default::default()
        };
        let mut ctx = SimContext::new();
        let warm = scenario_on(first);
        let mut policy = Sgdrc::new(&warm.spec, cfg.clone());
        let dirty = run_in_context(&mut policy, &warm, &mut ctx);
        ctx.recycle(dirty);
        for gpu in rest {
            let scenario = scenario_on(gpu);
            policy.reconfigure(&scenario.spec, cfg.clone());
            let reused = run_in_context(&mut policy, &scenario, &mut ctx);
            let fresh =
                sgdrc_core::serving::run(&mut Sgdrc::new(&scenario.spec, cfg.clone()), &scenario);
            assert_eq!(
                fresh, reused,
                "reconfigure onto {gpu:?} diverged (static_partition {static_partition})"
            );
            ctx.recycle(reused);
        }
    }
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
