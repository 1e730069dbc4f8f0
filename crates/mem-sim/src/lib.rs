//! # mem-sim — address-level GPU memory-hierarchy simulator
//!
//! The black-box device the reverse-engineering pipeline (paper §5) probes.
//! Models the observable memory behaviour of an NVIDIA GPU at per-access
//! granularity:
//!
//! * per-channel **L2 slices** (set-associative, noisy replacement — the
//!   black-box cache policy that defeats FGPU's approach, §3.2);
//! * per-channel **DRAM banks** with open-row buffers (bank conflicts
//!   serialize, §2.2);
//! * a **4 KiB-page MMU** with randomized physical backing and parsable
//!   page-table entries (§5.1);
//! * **P-chase** timing utilities and threshold calibration (ref \[30\]).
//!
//! The kernel-grain engine (`sgdrc-exec-sim`) is a separate, coarser model;
//! its contention coefficients are calibrated against micro-benchmarks run
//! on this simulator (see `crates/bench`).

pub mod device;
pub mod dram;
pub mod l2;
pub mod pchase;

pub use device::{AccessStats, GpuDevice};
pub use dram::{DramChannel, RowOutcome};
pub use l2::{L2Outcome, L2Slice};
pub use pchase::{build_chain, calibrate_thresholds, refresh_via_scan, run_chain, Thresholds};
