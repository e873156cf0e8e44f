//! EPFL-like combinational benchmark circuit generators.
//!
//! The MCH paper evaluates on the EPFL combinational benchmark suite. The
//! original suite is distributed as files; this crate instead *generates*
//! functionally-equivalent-in-spirit circuits (same functional families, same
//! structural character, reduced bit-widths) so the whole evaluation is
//! self-contained and deterministic. The README's "Substitutions" list gives
//! the rationale and says where the exact widths live.
//!
//! # Example
//!
//! ```
//! use mch_benchmarks::{benchmark, epfl_suite};
//!
//! let adder = benchmark("adder").expect("known benchmark");
//! assert_eq!(adder.input_count(), 64);
//!
//! let suite = epfl_suite();
//! assert_eq!(suite.len(), 20);
//! ```

#![forbid(unsafe_code)]

mod arithmetic;
mod control;
mod random_logic;
mod suite;
pub mod words;

pub use arithmetic::{
    adder, barrel_shifter, divider, hypotenuse, log2_approx, max_of_four, multiplier, sine_approx,
    square, square_root,
};
pub use control::{
    cavlc, ctrl, decoder, i2c, int2float, mem_ctrl, priority, round_robin_arbiter, router, voter,
};
pub use random_logic::random_logic;
pub use suite::{
    arithmetic_names, benchmark, control_names, demo_adder_gt, epfl_suite, epfl_suite_small,
    Benchmark, Category,
};
