//! # dnn — model zoo, kernel descriptors and compiler passes
//!
//! The DNN side of the SGDRC reproduction (paper Tab. 3 and the §4 offline
//! phase):
//!
//! * [`kernel`] — kernel-level resource profiles (FLOPs, DRAM bytes,
//!   thread blocks, roofline classification);
//! * [`perf`] — the shared performance model: roofline runtime under a
//!   TPC mask, bandwidth share and intra-SM interference;
//! * [`build`] — the layer-to-kernel lowering builder;
//! * [`zoo`] — the 11 Tab. 3 models (8 LS + 3 BE) with realistic
//!   parameter counts, kernel counts and bound-ness mixtures;
//! * [`compiler`] — fusion, persistent-thread transformation, memory-bound
//!   classification and the §6 coloring transform.

pub mod build;
pub mod compiler;
pub mod kernel;
pub mod perf;
pub mod zoo;

pub use compiler::{compile, CompileOptions};
pub use kernel::{kernel_id, KernelDesc, KernelKind};
pub use perf::{
    isolated_runtime_us, runtime_us, KernelPerfInvariants, ResourceCtx, LAUNCH_OVERHEAD_US,
};
pub use zoo::{build as build_model, build_with_batch, full_zoo, Model, ModelId};
