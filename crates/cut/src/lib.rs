//! Priority-cut enumeration for logic networks.
//!
//! A *cut* of node `n` is a set of leaf nodes such that every path from the
//! primary inputs to `n` crosses a leaf. Cut-based technology mapping
//! (both ASIC and K-LUT) evaluates covering the cone between a node and a
//! cut's leaves with one library cell or LUT; the quality of mapping therefore
//! depends directly on which cuts are enumerated. This crate implements the
//! classical priority-cut algorithm (Mishchenko et al., ICCAD'07) with
//! per-node cut limits and on-the-fly truth-table computation, which is the
//! machinery required by Algorithms 1 and 3 of the MCH paper.
//!
//! # Example
//!
//! ```
//! use mch_cut::{enumerate_cuts, CutParams};
//! use mch_logic::{Network, NetworkKind};
//!
//! let mut aig = Network::new(NetworkKind::Aig);
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let c = aig.add_input();
//! let ab = aig.and2(a, b);
//! let abc = aig.and2(ab, c);
//! aig.add_output(abc);
//!
//! let cuts = enumerate_cuts(&aig, &CutParams::new(4, 8));
//! // The 3-input AND cone is found as a single cut of the output node.
//! let best = cuts.of(abc.node());
//! assert!(best.iter().any(|cut| cut.leaves().len() == 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cut;
mod enumeration;
pub mod legacy;
pub mod parallel;

pub use cut::{Cut, CutCost, CutCostModel, CutCosts, CutSet, LeafBuf, MAX_CUT_SIZE};
pub use enumeration::{enumerate_cuts, enumerate_cuts_with_model, CutParams, NetworkCuts};
pub use legacy::{legacy_enumerate_cuts, LegacyNetworkCuts};
pub use parallel::{default_threads, enumerate_cuts_threaded, level_parallel, WorkerPool};
