//! File-format support for the MCH workspace.
//!
//! * [`read_aiger`] / [`write_aiger`] — the ASCII AIGER (`aag`) exchange
//!   format used by the EPFL benchmark distribution and ABC;
//! * [`read_blif`] / [`write_blif`] — BLIF input/output of logic networks
//!   (for exchange with other synthesis tools);
//! * [`write_lut_blif`] — BLIF output of mapped K-LUT netlists;
//! * [`read_verilog`] / [`write_verilog`] — structural Verilog of mapped
//!   standard-cell netlists.
//!
//! All readers consume **untrusted** text: malformed input of any shape —
//! including random mutations of valid files — returns the format's
//! structured error and never panics or makes an attacker-sized
//! allocation (`tests/parser_robustness.rs` fuzzes this property).
//!
//! # Example
//!
//! ```
//! use mch_io::{read_aiger, write_aiger};
//! use mch_logic::{cec, Network, NetworkKind};
//!
//! let mut aig = Network::new(NetworkKind::Aig);
//! let a = aig.add_input();
//! let b = aig.add_input();
//! let f = aig.and2(a, b);
//! aig.add_output(!f);
//!
//! let text = write_aiger(&aig);
//! let back = read_aiger(&text)?;
//! assert!(cec(&aig, &back).holds());
//! # Ok::<(), mch_io::ParseAigerError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod aiger;
mod blif;
mod verilog;

pub use aiger::{read_aiger, write_aiger, ParseAigerError};
pub use blif::{read_blif, write_blif, write_lut_blif, ParseBlifError};
pub use verilog::{read_verilog, write_verilog, ParseVerilogError};
