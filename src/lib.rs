//! # OASIS: object-aware page management for multi-GPU systems
//!
//! A full Rust reproduction of *OASIS: Object-Aware Page Management for
//! Multi-GPU Systems* (HPCA 2025): a trace-driven, event-driven multi-GPU
//! memory-system simulator (UVM driver, TLB hierarchy, NVLink/PCIe fabric),
//! the three uniform page-management policies plus the hypothetical Ideal
//! configuration, the OASIS object-aware policy controller and its
//! software-only OASIS-InMem variant, the GRIT per-page baseline, and
//! pattern-faithful generators for the paper's eleven applications.
//!
//! This facade crate re-exports every component crate; depend on it to get
//! the whole stack, or on the individual `oasis-*` crates for pieces.
//!
//! ## Quickstart
//!
//! ```
//! use oasis::mgpu::{simulate, Policy, SystemConfig};
//! use oasis::workloads::{generate, App, WorkloadParams};
//!
//! // Matrix Transpose on the paper's 4-GPU platform, small input.
//! let trace = generate(App::Mt, &WorkloadParams::small(App::Mt, 4));
//! let baseline = simulate(&SystemConfig::default(), Policy::OnTouch, &trace);
//! let oasis = simulate(&SystemConfig::default(), Policy::oasis(), &trace);
//! assert!(oasis.speedup_over(&baseline) >= 1.0);
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`engine`] | `oasis-engine` | discrete-event kernel: time, event queue, bandwidth channels |
//! | [`mem`] | `oasis-mem` | TLBs, caches, page tables, frames, address space |
//! | [`interconnect`] | `oasis-interconnect` | NVLink/PCIe fabric |
//! | [`uvm`] | `oasis-uvm` | UVM driver, fault mechanics, uniform policies |
//! | [`core`] | `oasis-core` | **OASIS**: Object Tracker, O-Table, OP-Controller, InMem |
//! | [`grit`] | `oasis-grit` | GRIT per-page baseline |
//! | [`workloads`] | `oasis-workloads` | the 11 application trace generators |
//! | [`mgpu`] | `oasis-mgpu` | system assembly, simulation loop, characterization |
//! | [`fuzz`] | `oasis-fuzz` | scenario fuzzer: generator, differential oracle, shrinker, corpus |

pub use oasis_core as core;
pub use oasis_engine as engine;
pub use oasis_fuzz as fuzz;
pub use oasis_grit as grit;
pub use oasis_interconnect as interconnect;
pub use oasis_mem as mem;
pub use oasis_mgpu as mgpu;
pub use oasis_uvm as uvm;
pub use oasis_workloads as workloads;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use oasis_core::controller::{OasisConfig, OasisController};
    pub use oasis_core::inmem::OasisInMem;
    pub use oasis_grit::{GritConfig, GritEngine};
    pub use oasis_mem::types::{AccessKind, DeviceId, GpuId, ObjectId, PageSize, Va, Vpn};
    pub use oasis_mgpu::{simulate, Placement, Policy, RunReport, System, SystemConfig};
    pub use oasis_workloads::{generate, App, Trace, TraceBuilder, WorkloadParams, ALL_APPS};
}
