//! Workspace facade for the MCH (Mixed Structural Choices) reproduction.
//!
//! This crate simply re-exports the member crates so that the root-level
//! `examples/` and `tests/` can exercise the whole public API through a single
//! dependency. See [`mch_core`] for the high-level flows.
//!
//! # Example
//!
//! ```
//! use mch::core::{MchConfig, MappingObjective};
//!
//! let config = MchConfig::balanced();
//! assert_eq!(config.objective, MappingObjective::Balanced);
//! ```

#![forbid(unsafe_code)]

pub use mch_benchmarks as benchmarks;
pub use mch_choice as choice;
pub use mch_core as core;
pub use mch_cut as cut;
pub use mch_io as io;
pub use mch_logic as logic;
pub use mch_mapper as mapper;
pub use mch_opt as opt;
pub use mch_techlib as techlib;
