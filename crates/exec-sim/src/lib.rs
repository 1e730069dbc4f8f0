//! # exec-sim — kernel-grain discrete-event GPU execution engine
//!
//! Executes kernel streams on a simulated GPU with the mechanisms SGDRC
//! and its baselines manipulate:
//!
//! * **TPC masking** ([`TpcMask`]) — the TMD/libsmctrl interface (§7.1);
//! * **VRAM channel sets** ([`ChannelSet`]) — which channels a kernel's
//!   tensors map to (§6);
//! * **eviction-flag preemption** — REEF-style reset preemption of BE
//!   kernels with µs-scale polling latency (§7.1);
//! * **MPS thread fractions** — thread-level partitioning that leaves
//!   intra-SM and channel conflicts in place;
//! * a **contention model** ([`contention`]) reproducing Fig. 3a/3b.
//!
//! Progress integrates piecewise-constant rates: whenever the running set
//! changes, every kernel's instantaneous duration is re-evaluated.

pub mod contention;
pub mod engine;
pub mod types;

pub use contention::{
    compute_rates, compute_rates_into, max_relative_divergence, per_channel_demand, KernelRate,
    PreparedKernel, RunningCtx, RATE_EQUIVALENCE_TOL,
};
pub use engine::{Engine, LaunchConfig};
pub use types::{BitIter, ChannelSet, EngineEvent, LaunchId, TpcMask};
