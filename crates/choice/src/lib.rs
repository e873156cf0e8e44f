//! Structural choices: choice networks, the DCH baseline and the MCH
//! (mixed structural choices) operator — the primary contribution of the
//! reproduced paper.
//!
//! * [`ChoiceNetwork`] — a mixed network with representative/choice classes;
//! * [`build_mch`] / [`MchParams`] — Algorithms 1 and 2: one-to-one mapping of
//!   heterogeneous representations plus path-classified multi-strategy
//!   resynthesis;
//! * [`dch_from_snapshots`] — the traditional choice operator derived from
//!   technology-independent optimization snapshots (the baseline of Table I);
//! * resynthesis strategies: [`isop`]/[`emit_factored`] (SOP factoring),
//!   [`decompose`]/[`emit_decomposed`] (DSD/Shannon), cached per NPN class in
//!   [`NpnDatabase`].
//!
//! Construction is one serial pass over the input in node-id order; only its
//! cut enumeration fans out over threads
//! ([`mch_cut::WorkerPool`]), so builds are byte-identical at every
//! [`MchParams::threads`].
//!
//! # Example
//!
//! ```
//! use mch_choice::{build_mch, MchParams};
//! use mch_logic::{Network, NetworkKind};
//!
//! let mut aig = Network::new(NetworkKind::Aig);
//! let xs = aig.add_inputs(4);
//! let s01 = aig.xor(xs[0], xs[1]);
//! let s23 = aig.xor(xs[2], xs[3]);
//! let f = aig.and(s01, s23);
//! aig.add_output(f);
//!
//! let mch = build_mch(&aig, &MchParams::area_oriented());
//! assert!(mch.choice_count() > 0);
//! assert!(mch.verify(16, 0).is_empty());
//! ```

#![forbid(unsafe_code)]

mod choice_network;
mod dch;
mod dsd;
mod mch;
mod npn_db;
mod sop;
mod strategies;

pub use choice_network::ChoiceNetwork;
pub use dch::{add_snapshot_choices, add_snapshot_views, dch_from_snapshots};
pub use dsd::{decompose, emit_decomposed, Decomposition};
pub use mch::{build_mch, build_mch_with_stats, build_mch_with_stats_shared, MchParams, MchStats};
pub use npn_db::{NpnDatabase, SharedNpnCache};
pub use sop::{cover_implements, emit_factored, isop, literal_count, Cube};
pub use strategies::{
    import_subnetwork, synthesize, StrategyEntry, StrategyLibrary, SynthesisStrategy,
};
