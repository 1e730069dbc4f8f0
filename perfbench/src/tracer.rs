//! The traced run's recorders: spans around calls into each layer's
//! public functions, and aggregating wrappers for boundaries crossed
//! too often for one span each (policy dispatch, routing).
//!
//! Spans stay in memory and are written out once, when the run ends.

use crate::host;
use dnn::zoo::ModelId;
use dnn::CompileOptions;
use gpu_spec::GpuModel;
use sgdrc_core::serving::{Policy, ServingState, Task};
use std::fmt::Write as _;
use std::time::Instant;
use workload::{ReplicaView, RoutingPolicy};

/// One closed span: wall and on-CPU interval plus the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_s: f64,
}

/// Records nested spans; `Tracer::span` is the only way to open one, so
/// every span is closed and properly nested.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer whose spans record nothing, for the measured runs.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            cpu_s: 0.0,
        });
        self.open.push(idx);
        let cpu0 = host::cpu_s();
        let out = f(self);
        let cpu = host::cpu_s() - cpu0;
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx));
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.cpu_s = cpu;
        out
    }

    /// On-CPU seconds summed over every span called `name`.
    pub fn cpu_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.cpu_s)
            .sum()
    }

    /// The spans as a JSON array, in opening order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"cpu_s\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.cpu_s,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }

    /// Writes the spans to `<package>/out/<stem>.spans.json`, returning the path.
    pub fn write(&self, stem: &str) -> std::io::Result<String> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/{stem}.spans.json");
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// A GPU model's zoo compiled and profiled model by model, as
/// `Deployment::new` does, with a `dnn.compile` and a `profiler.profile`
/// span around each model's calls.
pub struct TracedDeployment {
    pub ls: Vec<Task>,
    pub be: Vec<Task>,
    /// Kernels across every compiled model.
    pub kernels: u64,
}

pub fn deploy_traced(gpu: GpuModel, t: &mut Tracer) -> TracedDeployment {
    let spec = gpu.spec();
    let mut kernels = 0u64;
    let mut deploy = |ids: &[ModelId], t: &mut Tracer| -> Vec<Task> {
        ids.iter()
            .map(|&id| {
                let model = t.span("dnn.compile", |_| {
                    dnn::compile(dnn::zoo::build(id), &spec, CompileOptions::default())
                });
                kernels += model.kernels.len() as u64;
                t.span("profiler.profile", |_| Task::new(model, &spec))
            })
            .collect()
    };
    let ls = deploy(&ModelId::ls_models(), t);
    let be = deploy(&ModelId::be_models(), t);
    TracedDeployment { ls, be, kernels }
}

/// Delegates every [`Policy`] method to the wrapped policy, counting and
/// timing `dispatch`.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    pub dispatches: u64,
    pub dispatch_ns: u64,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn Policy>) -> TimedPolicy {
        TimedPolicy {
            inner,
            dispatches: 0,
            dispatch_ns: 0,
        }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dispatch(&mut self, st: &mut ServingState) {
        let t = Instant::now();
        self.inner.dispatch(st);
        self.dispatch_ns += t.elapsed().as_nanos() as u64;
        self.dispatches += 1;
    }

    fn on_ls_arrival(&mut self, st: &mut ServingState) {
        self.inner.on_ls_arrival(st);
    }

    fn next_timer(&self) -> Option<f64> {
        self.inner.next_timer()
    }

    fn has_timers(&self) -> bool {
        self.inner.has_timers()
    }

    fn on_run_start(&mut self, st: &mut ServingState) {
        self.inner.on_run_start(st);
    }
}

/// Delegates every [`RoutingPolicy`] method to the wrapped router,
/// counting and timing both routing entry points.
pub struct TimedRouter {
    inner: Box<dyn RoutingPolicy>,
    pub routes: u64,
    pub route_ns: u64,
}

impl TimedRouter {
    pub fn new(inner: Box<dyn RoutingPolicy>) -> TimedRouter {
        TimedRouter {
            inner,
            routes: 0,
            route_ns: 0,
        }
    }
}

impl RoutingPolicy for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, views: &[ReplicaView], task: usize, at_us: f64) -> usize {
        let t = Instant::now();
        let r = self.inner.route(views, task, at_us);
        self.route_ns += t.elapsed().as_nanos() as u64;
        self.routes += 1;
        r
    }

    fn route_with_tier(
        &mut self,
        views: &[ReplicaView],
        task: usize,
        tier_rank: u32,
        at_us: f64,
    ) -> usize {
        let t = Instant::now();
        let r = self.inner.route_with_tier(views, task, tier_rank, at_us);
        self.route_ns += t.elapsed().as_nanos() as u64;
        self.routes += 1;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum() {
        let mut t = Tracer::new();
        let v = t.span("outer", |t| t.span("inner", |_| 1) + t.span("inner", |_| 2));
        assert_eq!(v, 3);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(t.cpu_s("outer") >= t.cpu_s("inner"));
        assert_eq!(t.cpu_s("missing"), 0.0);
        let json = t.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"name\"").count(), 3);
    }
}
