//! Cut-based technology mappers (ASIC standard cells and FPGA K-LUTs) with
//! structural-choice support.
//!
//! Both mappers accept a [`mch_choice::ChoiceNetwork`]; a plain network is the
//! degenerate case with zero choices (see [`map_asic_network`] /
//! [`map_lut_network`]). Choice-node cuts are transferred to their
//! representative nodes before the dynamic-programming passes (Algorithm 3 of
//! the MCH paper), so heterogeneous candidate structures are evaluated with
//! real technology costs.
//!
//! Both mappers delegate their covering loop (delay pass, required-time
//! propagation, memoised area recovery) to the shared [`engine`]; the
//! target-specific parts — candidate enumeration, cost model, netlist
//! emission — are supplied through the [`CoverTarget`] trait.
//!
//! # Example
//!
//! ```
//! use mch_logic::{Network, NetworkKind};
//! use mch_mapper::{map_asic_network, map_lut_network, AsicMapParams, LutMapParams};
//! use mch_techlib::{asap7_lite, LutLibrary};
//!
//! let mut aig = Network::new(NetworkKind::Aig);
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let c = aig.add_input();
//! let f = aig.and2(a, b);
//! let g = aig.or(f, c);
//! aig.add_output(g);
//!
//! let lib = asap7_lite();
//! let asic = map_asic_network(&aig, &lib, &AsicMapParams::default());
//! assert!(asic.area(&lib) > 0.0);
//!
//! let fpga = map_lut_network(&aig, &LutLibrary::k6(), &LutMapParams::default());
//! assert_eq!(fpga.lut_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asic;
pub mod engine;
pub mod fusion;
mod lut;
mod mapping;
mod netlist;
mod prepared;

pub use asic::{
    library_cost_model, map_asic, map_asic_network, AsicMapParams, AsicTarget, MatchCandidate,
};
pub use engine::{
    CoverProblem, CoverSelection, CoverSkeleton, CoverTarget, EngineParams, SLACK_EPS,
};
pub use fusion::{
    map_lut_fused, map_lut_fused_network, map_lut_fused_prepared, prepare_fusion_guide, FusionMode,
};
pub use lut::{map_lut, map_lut_network, LutCandidate, LutMapParams, LutTarget};
pub use mapping::{live_nodes, prepare_cuts, MappingObjective, DEFAULT_CUT_LIMIT};
pub use prepared::{
    map_asic_prepared, map_lut_prepared, prepare_asic_cover, prepare_lut_cover, PreparedCover,
};
pub use mch_cut::{CutCost, CutCostModel, CutCosts};
pub use netlist::{CellNetlist, LutNetlist, MappedCell, MappedLut, NetRef};
