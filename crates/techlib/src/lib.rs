//! Standard-cell technology libraries for ASIC mapping and the LUT model for
//! FPGA mapping.
//!
//! The crate provides:
//!
//! * [`Cell`] and [`Library`] — the gate library consumed by the ASIC mapper,
//!   with a Boolean-matching index over all pin permutations and polarities;
//! * a small genlib-style text format ([`parse_genlib`]) plus a Boolean
//!   expression parser;
//! * [`asap7_lite`] — an ASAP7-magnitude cell set used throughout the
//!   experiments (see the README, "Substitutions");
//! * [`LutLibrary`] — the K-LUT cost model for FPGA mapping.
//!
//! # Example
//!
//! ```
//! use mch_techlib::asap7_lite;
//! use mch_logic::TruthTable;
//!
//! let lib = asap7_lite();
//! let a = TruthTable::var(2, 0);
//! let b = TruthTable::var(2, 1);
//! // NAND is matched directly; the index reports zero extra inverters.
//! let matches = lib.matches(&a.and(&b).not());
//! assert!(matches.iter().any(|m| m.inverter_count() == 0));
//! ```

#![forbid(unsafe_code)]

mod boolexpr;
mod cell;
mod genlib;
mod library;
mod lut;

pub use boolexpr::{parse_expression, ParseExprError};
pub use cell::{Cell, CellId};
pub use genlib::{parse_genlib, ParseGenlibError};
pub use library::{asap7_lite, CellMatch, Library};
pub use lut::LutLibrary;
