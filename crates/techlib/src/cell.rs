//! Standard-cell descriptions.

use mch_logic::TruthTable;
use std::fmt;

/// Index of a cell inside a [`crate::Library`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// The raw index of the cell in its library.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// A single combinational standard cell.
///
/// The timing model is deliberately simple — one pin-to-output delay shared by
/// all pins — because the mapper experiments only rely on *relative* cell
/// costs (see the README, "Substitutions").
#[derive(Clone, PartialEq, Debug)]
pub struct Cell {
    name: String,
    function: TruthTable,
    area: f64,
    delay: f64,
}

impl Cell {
    /// Creates a cell from its name, single-output function, area (µm²) and
    /// pin-to-output delay (ps).
    ///
    /// # Panics
    ///
    /// Panics if `area` or `delay` is negative or not finite.
    pub fn new(name: impl Into<String>, function: TruthTable, area: f64, delay: f64) -> Self {
        assert!(area.is_finite() && area >= 0.0, "cell area must be non-negative");
        assert!(delay.is_finite() && delay >= 0.0, "cell delay must be non-negative");
        Cell {
            name: name.into(),
            function,
            area,
            delay,
        }
    }

    /// The cell name (e.g. `NAND2x1`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell's Boolean function over its input pins.
    pub fn function(&self) -> &TruthTable {
        &self.function
    }

    /// Number of input pins.
    pub fn num_inputs(&self) -> usize {
        self.function.num_vars()
    }

    /// Cell area in µm².
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Pin-to-output delay in ps.
    pub fn delay(&self) -> f64 {
        self.delay
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} inputs, {:.3} um^2, {:.1} ps)",
            self.name,
            self.num_inputs(),
            self.area,
            self.delay
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_accessors() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let c = Cell::new("AND2x1", a.and(&b), 0.108, 20.0);
        assert_eq!(c.name(), "AND2x1");
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.area(), 0.108);
        assert_eq!(c.delay(), 20.0);
        assert!(c.to_string().contains("AND2x1"));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_area_rejected() {
        let _ = Cell::new("BAD", TruthTable::var(1, 0), -1.0, 1.0);
    }
}
