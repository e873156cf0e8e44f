//! Structured flow errors and the preflight validation pass.
//!
//! Every fallible flow entry point (`try_asic_flow_*`, `try_lut_flow_*`,
//! [`try_build_mch`](crate::try_build_mch)) funnels its failures into
//! [`FlowError`]: malformed inputs are rejected up front by the `validate_*`
//! functions, and any panic escaping a flow phase — including panics on
//! fan-out helpers — is caught at the flow boundary and surfaced as
//! [`FlowError::WorkerPanic`] with the original payload message. See
//! `docs/RELIABILITY.md` for the full taxonomy.

use mch_logic::{Network, TruthTable};
use mch_techlib::{Library, LutLibrary};
use std::fmt;

/// Why a mapping flow could not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowError {
    /// The input network failed preflight validation (empty outputs,
    /// dangling or forward fanin references).
    InvalidNetwork {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// The technology library failed preflight validation (empty, missing
    /// inverter, non-finite costs, or a non-monotone per-input-count cost
    /// model).
    InvalidLibrary {
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A flow phase panicked — on the calling thread or on a fan-out helper —
    /// and the panic was contained at the flow boundary.
    WorkerPanic {
        /// The original panic payload, rendered as text.
        message: String,
    },
    /// A service job was malformed before any flow ran (an empty sweep, a
    /// nested sweep).
    InvalidJob {
        /// Human-readable description of the defect.
        reason: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::InvalidNetwork { reason } => write!(f, "invalid network: {reason}"),
            FlowError::InvalidLibrary { reason } => write!(f, "invalid library: {reason}"),
            FlowError::WorkerPanic { message } => {
                write!(f, "flow phase panicked: {message}")
            }
            FlowError::InvalidJob { reason } => write!(f, "invalid job: {reason}"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Renders a caught panic payload as text: `&str` and `String` payloads (the
/// overwhelmingly common cases, including every injected fault) keep their
/// message, anything else gets a placeholder.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Preflight validation of an input network: rejects the malformed shapes a
/// hostile or buggy AIGER/BLIF/Verilog source could produce, so flows fail
/// with a structured error instead of panicking mid-phase.
///
/// Checks: at least one output; every gate fanin and every output points at
/// an existing node; every gate fanin points *backwards* (strictly smaller
/// node id), which in this append-only representation is exactly
/// acyclicity.
pub fn validate_network(network: &Network) -> Result<(), FlowError> {
    let invalid = |reason: String| Err(FlowError::InvalidNetwork { reason });
    if network.output_count() == 0 {
        return invalid("network has no outputs".to_string());
    }
    let len = network.len();
    for id in network.gate_ids() {
        for (slot, fanin) in network.node(id).fanins().iter().enumerate() {
            let target = fanin.node().index();
            if target >= len {
                return invalid(format!(
                    "gate {} fanin {slot} points at node {target}, but the network has only {len} nodes",
                    id.index()
                ));
            }
            if target >= id.index() {
                return invalid(format!(
                    "gate {} fanin {slot} points forward at node {target} (cycle or dangling reference)",
                    id.index()
                ));
            }
        }
    }
    for (i, output) in network.outputs().iter().enumerate() {
        let target = output.node().index();
        if target >= len {
            return invalid(format!(
                "output {i} points at node {target}, but the network has only {len} nodes"
            ));
        }
    }
    Ok(())
}

/// Preflight validation of a standard-cell library.
///
/// Checks: non-empty; contains an inverter (the mappers' phase-repair
/// fallback — [`Library::inverter`] panics without one); every cell cost is
/// finite and non-negative; and the per-input-count cost model is monotone —
/// the cheapest cell at a larger input count is no faster and no smaller
/// than the cheapest cell at a smaller count, which the cut rankings assume.
pub fn validate_library(library: &Library) -> Result<(), FlowError> {
    let invalid = |reason: String| Err(FlowError::InvalidLibrary { reason });
    if library.is_empty() {
        return invalid("library has no cells".to_string());
    }
    let not1 = TruthTable::var(1, 0).not();
    if !library
        .cells()
        .iter()
        .any(|c| c.num_inputs() == 1 && c.function() == &not1)
    {
        return invalid("library has no inverter cell".to_string());
    }
    let mut min_delay = vec![f64::INFINITY; library.max_inputs() + 1];
    let mut min_area = vec![f64::INFINITY; library.max_inputs() + 1];
    for cell in library.cells() {
        if !cell.area().is_finite() || cell.area() < 0.0 {
            return invalid(format!("cell {} has invalid area {}", cell.name(), cell.area()));
        }
        if !cell.delay().is_finite() || cell.delay() < 0.0 {
            return invalid(format!(
                "cell {} has invalid delay {}",
                cell.name(),
                cell.delay()
            ));
        }
        let k = cell.num_inputs();
        min_delay[k] = min_delay[k].min(cell.delay());
        min_area[k] = min_area[k].min(cell.area());
    }
    let mut last: Option<(usize, f64, f64)> = None;
    for k in 0..min_delay.len() {
        if !min_delay[k].is_finite() {
            continue;
        }
        if let Some((prev_k, prev_delay, prev_area)) = last {
            if min_delay[k] < prev_delay || min_area[k] < prev_area {
                return invalid(format!(
                    "cost model is not monotone: best {k}-input cell (delay {}, area {}) undercuts best {prev_k}-input cell (delay {prev_delay}, area {prev_area})",
                    min_delay[k], min_area[k]
                ));
            }
        }
        last = Some((k, min_delay[k], min_area[k]));
    }
    Ok(())
}

/// Preflight validation of a LUT library: the LUT size must fit the cut
/// enumerator and the unit costs must be finite and positive.
pub fn validate_lut_library(lut: &LutLibrary) -> Result<(), FlowError> {
    let invalid = |reason: String| Err(FlowError::InvalidLibrary { reason });
    if !(2..=mch_cut::MAX_CUT_SIZE).contains(&lut.k()) {
        return invalid(format!(
            "LUT size {} outside the supported 2..={} range",
            lut.k(),
            mch_cut::MAX_CUT_SIZE
        ));
    }
    if !lut.area().is_finite() || lut.area() <= 0.0 {
        return invalid(format!("LUT area {} must be finite and positive", lut.area()));
    }
    if !lut.delay().is_finite() || lut.delay() <= 0.0 {
        return invalid(format!(
            "LUT delay {} must be finite and positive",
            lut.delay()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::NetworkKind;
    use mch_techlib::{asap7_lite, Cell};

    #[test]
    fn valid_inputs_pass() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let f = n.and2(a, b);
        n.add_output(f);
        assert_eq!(validate_network(&n), Ok(()));
        assert_eq!(validate_library(&asap7_lite()), Ok(()));
        assert_eq!(validate_lut_library(&LutLibrary::k6()), Ok(()));
        assert_eq!(validate_lut_library(&LutLibrary::k4()), Ok(()));
    }

    #[test]
    fn outputless_network_is_rejected() {
        let mut n = Network::new(NetworkKind::Aig);
        let _ = n.add_input();
        let err = validate_network(&n).expect_err("no outputs");
        assert!(matches!(err, FlowError::InvalidNetwork { .. }));
    }

    #[test]
    fn empty_and_inverterless_libraries_are_rejected() {
        let empty = Library::new("empty");
        assert!(matches!(
            validate_library(&empty),
            Err(FlowError::InvalidLibrary { .. })
        ));
        let mut no_inv = Library::new("no-inverter");
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        no_inv.add_cell(Cell::new("AND2", a.and(&b), 1.0, 10.0));
        assert!(matches!(
            validate_library(&no_inv),
            Err(FlowError::InvalidLibrary { .. })
        ));
    }

    #[test]
    fn non_monotone_library_is_rejected() {
        // A 3-input cell both faster and smaller than the best 1-input cell:
        // the per-input-count cost model is inverted.
        let mut lib = Library::new("inverted-costs");
        lib.add_cell(Cell::new("INV", TruthTable::var(1, 0).not(), 5.0, 50.0));
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        lib.add_cell(Cell::new("AND3", a.and(&b).and(&c), 1.0, 10.0));
        let err = validate_library(&lib).expect_err("non-monotone");
        assert!(matches!(err, FlowError::InvalidLibrary { .. }));
    }

    #[test]
    fn errors_render_their_context() {
        let e = FlowError::WorkerPanic {
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "flow phase panicked: boom");
    }
}
