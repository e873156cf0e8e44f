//! Experiment harness: the code that regenerates every table and figure of
//! the MCH paper's evaluation section.
//!
//! Each `run_*` function produces the rows of one table/figure; the binaries
//! in `src/bin/` print them and the Criterion benches in `benches/` time the
//! underlying flows. See the README, "Substitutions", for what stands in for
//! the paper's tools, library and benchmarks.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod printing;

pub use experiments::{
    run_fig1, run_fig2, run_fig6, run_table1, run_table2, Fig1Row, Fig2Report, Fig2Row, Fig6Row,
    Table1Row, Table2Row,
};
