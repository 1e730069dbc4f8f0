//! # sgdrc-core — the SGDRC control plane
//!
//! The paper's primary contribution (§4, §7): offline profiling, the
//! serving substrate, and the SGDRC scheduling policy.
//!
//! * [`profiler`] — per-kernel `SM_LS` binary search (§7.1) and the
//!   operational memory-bound probe (§7.2);
//! * [`serving`] — the online architecture of Fig. 6: LS request queues
//!   with per-model instances, closed-loop BE tasks, round-robin kernel
//!   queues, and the policy-driven serving loop;
//! * [`sgdrc`] — tidal SM masking with eviction-flag preemption plus the
//!   bimodal-tensor channel state machine; also provides the
//!   SGDRC (Static) baseline variant.

pub mod profiler;
pub mod serving;
pub mod sgdrc;

pub use profiler::{
    is_memory_bound_probe, min_tpcs_for, profile_kernel, profile_model, KernelProfile, ModelProfile,
};
pub use serving::{
    run, run_in_context, CompletedRequest, Policy, RunStats, Scenario, ServingState, SimContext,
    Task,
};
pub use sgdrc::{Sgdrc, SgdrcConfig};
