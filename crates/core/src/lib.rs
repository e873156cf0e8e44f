//! The MCH flow facade: ready-to-use ASIC and FPGA mapping flows built on the
//! mixed-structural-choices operator, plus the configurations and reporting
//! helpers used by the experiment harness.
//!
//! This crate is the intended entry point for downstream users: it re-exports
//! the building blocks (networks, choices, mappers, optimization, benchmarks,
//! technology libraries) and wires them into the flows evaluated in the paper.
//!
//! # Example
//!
//! ```
//! use mch_core::{asic_flow_baseline, asic_flow_mch, MchConfig};
//! use mch_core::mapper::MappingObjective;
//! use mch_core::techlib::asap7_lite;
//! use mch_core::benchmarks::demo_adder_gt;
//!
//! let circuit = demo_adder_gt();
//! let library = asap7_lite();
//! let baseline = asic_flow_baseline(&circuit, &library, MappingObjective::Balanced);
//! let mch = asic_flow_mch(&circuit, &library, &MchConfig::balanced());
//! assert!(baseline.verified && mch.verified);
//! // MCH evaluates heterogeneous candidates, so it never loses on both axes.
//! assert!(mch.area <= baseline.area + 1e-9 || mch.delay <= baseline.delay + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod budget;
mod config;
mod error;
mod flow;
mod prepared;
mod report;
pub mod service;

pub use budget::{DegradationReport, DegradationStep, FlowBudget, StrategyClass};
pub use config::MchConfig;
pub use error::{validate_library, validate_lut_library, validate_network, FlowError};
pub use prepared::{PreparedFlow, PreparedFlowCache};
pub use flow::{
    asic_flow_baseline, asic_flow_dch, asic_flow_mch, lut_flow_baseline, lut_flow_mch,
    prepare_input, try_asic_flow_baseline, try_asic_flow_dch, try_asic_flow_mch,
    try_asic_flow_mch_with_budget, try_build_mch, try_lut_flow_baseline, try_lut_flow_mch,
    try_lut_flow_mch_fused, try_lut_flow_mch_with_budget, AsicFlowResult, LutFlowResult,
};
pub use report::{geometric_mean, improvement_percent, FlowMetrics};
pub use service::{Job, JobKind, JobOutput, JobReport, MappingService, ServiceStats};

pub use mch_benchmarks as benchmarks;
pub use mch_choice as choice;
pub use mch_cut as cut;
pub use mch_logic as logic;
pub use mch_mapper as mapper;
pub use mch_opt as opt;
pub use mch_techlib as techlib;

// Convenience re-exports of the most frequently used types.
pub use mch_choice::{build_mch, ChoiceNetwork, MchParams};
pub use mch_cut::CutCost;
pub use mch_logic::{Network, NetworkKind};
pub use mch_mapper::{FusionMode, MappingObjective};
