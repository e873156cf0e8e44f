//! Multi-representation logic networks for the MCH reproduction.
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`Network`] — an append-only, structurally hashed DAG supporting AND,
//!   XOR and MAJ primitives, covering AIG, XAG, MIG, XMG and mixed networks;
//! * [`TruthTable`] and NPN classification ([`npn_canonical`]);
//! * traversal helpers (fanouts, TFI/TFO, [`mffc`], [`critical_path_nodes`],
//!   topological [`levelize`] grouping);
//! * one word-parallel simulation kernel ([`simulate_gates`], over a flat
//!   node × words arena) under whole-network simulation, equivalence
//!   checking ([`cec`]) and cone functions ([`ConeEvaluator`]);
//! * one-to-one conversion between representations ([`convert`]);
//! * [`FastMap`] / [`FastSet`], the fixed fast hasher every map keyed by
//!   the program's own data uses.
//!
//! # Example
//!
//! ```
//! use mch_logic::{cec, convert, Network, NetworkKind};
//!
//! // Build a 2-bit comparator as an AIG…
//! let mut aig = Network::new(NetworkKind::Aig);
//! let a = aig.add_inputs(2);
//! let b = aig.add_inputs(2);
//! let hi = aig.and(a[1], !b[1]);
//! let eq_hi = aig.xnor(a[1], b[1]);
//! let lo = aig.and(a[0], !b[0]);
//! let lo_win = aig.and(eq_hi, lo);
//! let gt = aig.or(hi, lo_win);
//! aig.add_output(gt);
//!
//! // …and view the very same function as an XMG.
//! let xmg = convert(&aig, NetworkKind::Xmg);
//! assert!(cec(&aig, &xmg).holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "fault-injection")]
pub mod failpoint;

mod convert;
mod fingerprint;
mod gate;
mod hash;
mod network;
mod npn;
mod rng;
mod signal;
mod simulate;
mod stats;
mod traversal;
mod truth;

pub use convert::{convert, convert_to_all};
pub use fingerprint::{fingerprint_signal, Fingerprinter};
pub use gate::{GateKind, NetworkKind, Node};
pub use hash::{FastHasher, FastMap, FastSet};
pub use network::Network;
pub use npn::{npn_apply_inverse, npn_canonical, npn_semi_canonical, NpnCanonical, NpnTransform};
pub use rng::Prng;
pub use signal::{NodeId, Signal};
pub use simulate::{
    cec, equivalent_exhaustive, equivalent_random, output_truth_tables, simulate, simulate_gates,
    simulate_nodes, ConeEvaluator, Equivalence, NodeValues,
};
pub use stats::NetworkStats;
pub use traversal::{
    critical_path_nodes, levelize, mffc, transitive_fanin, transitive_fanout, Fanouts, Levels,
    Mffc,
};
pub use truth::TruthTable;

/// Mark a named fault-injection site.
///
/// With the `fault-injection` feature enabled in the **invoking** crate the
/// macro calls `failpoint::hit`, which may panic according to the armed
/// schedule; without it the macro expands to nothing, so production builds
/// pay zero cost. Crates hosting failpoints must forward their own
/// `fault-injection` feature to `mch_logic/fault-injection`.
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {{
        #[cfg(feature = "fault-injection")]
        $crate::failpoint::hit($name);
    }};
}
