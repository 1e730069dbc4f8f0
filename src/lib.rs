//! # sgdrc-repro — facade for the SGDRC (PPoPP '25) reproduction workspace
//!
//! Re-exports every workspace crate under one roof so the examples and
//! integration tests can address the whole system uniformly:
//!
//! * [`gpu_spec`] — GPU hardware model, address bits, channel hash oracles
//! * [`mem_sim`] — address-level memory-hierarchy simulator
//! * [`reveng`] — VRAM channel reverse engineering (paper §5)
//! * [`coloring`] — shadow page tables, cache coloring, bimodal tensors (§6, §7.2)
//! * [`dnn`] — DNN model zoo and kernel compiler passes (Tab. 3)
//! * [`exec_sim`] — kernel-grain discrete-event GPU engine
//! * [`core`] — the SGDRC control plane (§4, §7)
//! * [`baselines`] — Multi-streaming, TGS, MPS, Orion, SGDRC(Static), FGPU
//! * [`workload`] — traces, clients, SLO metrics, experiment runner (§9)
//! * [`bench`](mod@bench) — JSON writer, trace exporters, figure regeneration helpers

pub use baselines;
pub use coloring;
pub use dnn;
pub use exec_sim;
pub use gpu_spec;
pub use mem_sim;
pub use reveng;
pub use sgdrc_bench as bench;
pub use sgdrc_core as core;
pub use workload;
