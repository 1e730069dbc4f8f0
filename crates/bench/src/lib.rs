//! # sgdrc-bench — figure/table regeneration and micro-benchmarks
//!
//! One binary per paper artefact (`fig*`, `tab*`, `sec*`, `ablation_*`,
//! `headline`), plus the sweep and fleet harnesses (`bench_sweep`,
//! `bench_cluster`): `cargo run --release -p sgdrc-bench --bin <target>`.
//! Criterion micro-benchmarks live in `benches/`.
//!
//! Machine-readable outputs (`fig17_results.json`, `BENCH_sweep.json`,
//! `BENCH_cluster.json`) are emitted through the dependency-free
//! [`json`] writer — the build environment has no network access, so
//! serde is not available.

pub mod json;
pub mod trace_export;

/// Prints a section header in a uniform style.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Worker-thread attribution shared by every bench JSON: the detected
/// CPU count, the effective rayon worker count (the `SGDRC_THREADS`
/// override when set) and the raw env value — so a scaling curve
/// collected by sweeping the override is attributable from the JSON
/// alone.
pub struct ThreadAttribution {
    pub detected_cpus: usize,
    pub worker_threads: usize,
    pub env: Option<String>,
}

impl ThreadAttribution {
    pub fn capture() -> Self {
        Self {
            detected_cpus: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            worker_threads: rayon::current_num_threads(),
            env: std::env::var(rayon::THREADS_ENV).ok(),
        }
    }

    /// Did an override make the worker count differ from the hardware?
    pub fn overridden(&self) -> bool {
        self.worker_threads != self.detected_cpus
    }

    /// The raw `SGDRC_THREADS` value as a JSON field (null when unset).
    pub fn env_json(&self) -> json::Json {
        match &self.env {
            Some(v) => json::Json::Str(v.clone()),
            None => json::Json::Null,
        }
    }
}
