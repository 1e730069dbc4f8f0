//! # sgdrc-bench — figure/table regeneration and micro-benchmarks
//!
//! One binary per paper artefact (`fig*`, `tab*`, `sec*`, `ablation_*`),
//! plus the fleet harness (`bench_cluster`):
//! `cargo run --release -p sgdrc-bench --bin <target>`. The paper's
//! headline numbers close `fig17_endtoend`'s output, computed from its
//! own runs. Criterion micro-benchmarks live in `benches/`.
//!
//! Machine-readable outputs (`fig17_results.json`, `BENCH_cluster.json`)
//! are emitted through the dependency-free [`json`] writer — the build
//! environment has no network access, so serde is not available.

pub mod json;
pub mod trace_export;

/// Prints a section header in a uniform style.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}
