//! Technology-independent optimization and mapping-based (graph) optimization.
//!
//! The crate provides the optimization substrate the experiments rely on:
//!
//! * [`balance`], [`rewrite`], [`refactor`] and the [`compress2rs_like`]
//!   script — the stand-ins for ABC's technology-independent flow used to
//!   prepare the Table-I inputs;
//! * [`graph_map`] / [`graph_map_with_choices`] — mapping-based conversion and
//!   optimization between representations (Fig. 5), and [`graph_map_all`],
//!   which emits one cover in several representations;
//! * [`iterate_graph_map`] / [`iterate_graph_map_mch`] — the Fig. 6
//!   experiment: iterating graph mapping to a local optimum, with MCH helping
//!   escape it.
//!
//! # Example
//!
//! ```
//! use mch_logic::{cec, Network, NetworkKind};
//! use mch_mapper::MappingObjective;
//! use mch_opt::{compress2rs_like, graph_map};
//!
//! let mut aig = Network::new(NetworkKind::Aig);
//! let xs = aig.add_inputs(4);
//! let t1 = aig.and2(xs[0], xs[2]);
//! let t2 = aig.and2(xs[0], xs[3]);
//! let t3 = aig.and2(xs[1], xs[2]);
//! let t4 = aig.and2(xs[1], xs[3]);
//! let o = aig.or_reduce(&[t1, t2, t3, t4]);
//! aig.add_output(o);
//!
//! let optimized = compress2rs_like(&aig, 3);
//! let as_mig = graph_map(&optimized, NetworkKind::Mig, MappingObjective::Area);
//! assert!(cec(&aig, &as_mig).holds());
//! ```

#![forbid(unsafe_code)]

mod balance;
mod compress;
mod graph_map;
mod mch_opt;
mod rewrite;

pub use balance::balance;
pub use compress::{compress2rs_like, compress_round};
pub use graph_map::{graph_map, graph_map_all, graph_map_with_choices};
pub use mch_opt::{iterate_graph_map, iterate_graph_map_mch, GraphOptResult};
pub use rewrite::{refactor, rewrite};
