//! The cell library and its Boolean-matching index.

use crate::{parse_expression, Cell, CellId};
use mch_logic::{FastMap, TruthTable};
use std::sync::Arc;

/// One way of implementing a cut function with a library cell.
///
/// Semantics: cut leaf `i` drives cell pin `perm[i]`, through an inverter when
/// bit `i` of `input_neg` is set; when `output_neg` is set the cell output is
/// inverted. The ASIC mapper accounts for the extra inverters in both area and
/// delay.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellMatch {
    cell: CellId,
    perm: Vec<usize>,
    input_neg: u32,
    output_neg: bool,
}

impl CellMatch {
    /// The matched cell.
    pub fn cell(&self) -> CellId {
        self.cell
    }

    /// Pin placement: leaf `i` drives cell pin `perm[i]`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Bit mask of leaves that need an inverter before the cell pin.
    pub fn input_neg(&self) -> u32 {
        self.input_neg
    }

    /// Whether the cell output must be inverted.
    pub fn output_neg(&self) -> bool {
        self.output_neg
    }

    /// Total number of inverters this match requires.
    pub fn inverter_count(&self) -> usize {
        self.input_neg.count_ones() as usize + self.output_neg as usize
    }
}

/// A standard-cell library with a precomputed Boolean-matching index.
///
/// The index enumerates, for every cell, every input permutation, input
/// polarity and output polarity, and maps the resulting truth table to the
/// corresponding [`CellMatch`]. ASIC mapping then matches a cut by a single
/// hash lookup of its (support-reduced) function, and reads that function's
/// best-area and best-delay matches, chosen once when the index was built
/// ([`best_matches`](Library::best_matches)).
///
/// Cloning is cheap: a clone copies the cell list and shares the index,
/// which holds more than a thousand functions for [`asap7_lite`]. The first
/// [`add_cell`](Library::add_cell) on a clone copies the index before
/// writing to it, so neither library ever sees the other's cells.
#[derive(Clone, Debug, Default)]
pub struct Library {
    name: String,
    cells: Vec<Cell>,
    index: Arc<FastMap<TruthTable, MatchBucket>>,
    inverter: Option<CellId>,
    max_inputs: usize,
}

/// Two libraries are equal when their name and cell lists agree; the
/// matching index, designated inverter and input bound are pure functions of
/// the cells, so comparing them again would be redundant work.
impl PartialEq for Library {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.cells == other.cells
    }
}

impl Library {
    /// Creates an empty library.
    pub fn new(name: impl Into<String>) -> Self {
        Library {
            name: name.into(),
            cells: Vec::new(),
            index: Arc::default(),
            inverter: None,
            max_inputs: 0,
        }
    }

    /// The library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cells of the library.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The cell behind `id`.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Looks a cell up by name.
    pub fn find_cell(&self, name: &str) -> Option<CellId> {
        self.cells
            .iter()
            .position(|c| c.name() == name)
            .map(|i| CellId(i as u32))
    }

    /// Iterates over all cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cells.len()).map(|i| CellId(i as u32))
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the library holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Largest cell input count; the ASIC mapper limits cut sizes to this.
    pub fn max_inputs(&self) -> usize {
        self.max_inputs
    }

    /// The designated inverter cell (smallest single-input complement cell).
    ///
    /// # Panics
    ///
    /// Panics if the library contains no inverter.
    pub fn inverter(&self) -> CellId {
        self.inverter.expect("library must contain an inverter cell")
    }

    /// Area of the inverter cell.
    pub fn inverter_area(&self) -> f64 {
        self.cell(self.inverter()).area()
    }

    /// Delay of the inverter cell.
    pub fn inverter_delay(&self) -> f64 {
        self.cell(self.inverter()).delay()
    }

    /// Adds a cell and indexes every NPN variant of its function. The index
    /// is copied first when another clone of this library shares it.
    pub fn add_cell(&mut self, cell: Cell) -> CellId {
        let id = CellId(self.cells.len() as u32);
        let n = cell.num_inputs();
        self.max_inputs = self.max_inputs.max(n);
        // Track the cheapest inverter.
        let new_inverter = n == 1
            && cell.function() == &TruthTable::var(1, 0).not()
            && self
                .inverter
                .is_none_or(|existing| cell.area() < self.cell(existing).area());
        let function = cell.function().clone();
        self.cells.push(cell);
        if new_inverter {
            self.inverter = Some(id);
        }
        let cost = MatchCost::new(&self.cells, self.inverter);
        let index = Arc::make_mut(&mut self.index);
        for perm in permutations(n) {
            for input_neg in 0..(1u32 << n) {
                for output_neg in [false, true] {
                    let variant = function.transform(&perm, input_neg, output_neg);
                    let entry = CellMatch {
                        cell: id,
                        perm: perm.clone(),
                        input_neg,
                        output_neg,
                    };
                    let bucket = index.entry(variant).or_default();
                    if !bucket.matches.contains(&entry) {
                        bucket.push(entry, &cost);
                    }
                }
            }
        }
        if new_inverter {
            // Every inverter-using match changed cost: choose again.
            for bucket in index.values_mut() {
                bucket.choose(&cost);
            }
        }
        id
    }

    /// Returns every way of implementing `function` with one library cell
    /// (plus inverters). The function must be expressed over its support only.
    pub fn matches(&self, function: &TruthTable) -> &[CellMatch] {
        self.index
            .get(function)
            .map(|bucket| bucket.matches.as_slice())
            .unwrap_or(&[])
    }

    /// The cheapest-area and the lowest-delay match of `function`, inverters
    /// counted (each adds its area; any adds one inverter delay), the first
    /// of [`matches`](Library::matches) winning a tie. Both are chosen once
    /// per function when the index is built, so a lookup costs one hash
    /// probe. `None` when no cell implements `function`.
    pub fn best_matches(&self, function: &TruthTable) -> Option<(&CellMatch, &CellMatch)> {
        let bucket = self.index.get(function)?;
        Some((
            &bucket.matches[bucket.best_area],
            &bucket.matches[bucket.best_delay],
        ))
    }

    /// Returns the cheapest-area match for `function`, counting the inverters
    /// each match requires.
    pub fn best_area_match(&self, function: &TruthTable) -> Option<(&CellMatch, f64)> {
        let (best, _) = self.best_matches(function)?;
        Some((
            best,
            MatchCost::new(&self.cells, Some(self.inverter())).area(best),
        ))
    }

    /// Returns the lowest-delay match for `function`.
    pub fn best_delay_match(&self, function: &TruthTable) -> Option<(&CellMatch, f64)> {
        let (_, best) = self.best_matches(function)?;
        Some((
            best,
            MatchCost::new(&self.cells, Some(self.inverter())).delay(best),
        ))
    }
}

/// The cost of implementing a function through a [`CellMatch`]: the cell's
/// area plus one inverter's per inverted pin or output, and the cell's delay
/// plus one inverter delay when the match needs any inverter.
struct MatchCost<'a> {
    cells: &'a [Cell],
    inv_area: f64,
    inv_delay: f64,
}

impl<'a> MatchCost<'a> {
    /// Costs over `cells` with `inverter` as the inverter cell; inverters
    /// are free while a library has none yet (adding one re-chooses every
    /// bucket).
    fn new(cells: &'a [Cell], inverter: Option<CellId>) -> Self {
        let inverter = inverter.map(|id| &cells[id.index()]);
        MatchCost {
            cells,
            inv_area: inverter.map_or(0.0, Cell::area),
            inv_delay: inverter.map_or(0.0, Cell::delay),
        }
    }

    fn area(&self, m: &CellMatch) -> f64 {
        self.cells[m.cell.index()].area() + m.inverter_count() as f64 * self.inv_area
    }

    fn delay(&self, m: &CellMatch) -> f64 {
        let extra = if m.inverter_count() > 0 {
            self.inv_delay
        } else {
            0.0
        };
        self.cells[m.cell.index()].delay() + extra
    }
}

/// Every match of one indexed function, with the positions of its
/// best-area and best-delay matches under [`MatchCost`]: the first match,
/// replaced only by a strictly cheaper one.
#[derive(Clone, Debug, Default)]
struct MatchBucket {
    matches: Vec<CellMatch>,
    best_area: usize,
    best_delay: usize,
}

impl MatchBucket {
    /// Appends a match, keeping both choices current.
    fn push(&mut self, m: CellMatch, cost: &MatchCost<'_>) {
        let i = self.matches.len();
        if i > 0 {
            if cost.area(&m) < cost.area(&self.matches[self.best_area]) {
                self.best_area = i;
            }
            if cost.delay(&m) < cost.delay(&self.matches[self.best_delay]) {
                self.best_delay = i;
            }
        }
        self.matches.push(m);
    }

    /// Chooses both matches again from scratch.
    fn choose(&mut self, cost: &MatchCost<'_>) {
        let matches = std::mem::take(&mut self.matches);
        *self = MatchBucket::default();
        for m in matches {
            self.push(m, cost);
        }
    }
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k == items.len() {
            out.push(items.clone());
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            rec(items, k + 1, out);
            items.swap(k, i);
        }
    }
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    rec(&mut items, 0, &mut out);
    out
}

/// Builds the ASAP7-magnitude cell library used by the experiments.
///
/// The set mirrors the combinational sub-set of a 7 nm standard-cell offering:
/// inverters/buffers, NAND/NOR/AND/OR up to four inputs, XOR/XNOR, AOI/OAI
/// complex gates, multiplexers and a three-input majority gate. Areas are in
/// µm² and delays in ps with magnitudes comparable to ASAP7 typical corners;
/// the README's "Substitutions" list says why only the relative costs matter
/// for reproduction.
pub fn asap7_lite() -> Library {
    let mut lib = Library::new("asap7-lite");
    let cells: &[(&str, usize, &str, f64, f64)] = &[
        ("INVx1", 1, "!a", 0.054, 12.0),
        ("BUFx2", 1, "a", 0.081, 18.0),
        ("NAND2x1", 2, "!(a & b)", 0.081, 15.0),
        ("NAND3x1", 3, "!(a & b & c)", 0.108, 21.0),
        ("NAND4x1", 4, "!(a & b & c & d)", 0.135, 27.0),
        ("NOR2x1", 2, "!(a | b)", 0.081, 17.0),
        ("NOR3x1", 3, "!(a | b | c)", 0.108, 24.0),
        ("NOR4x1", 4, "!(a | b | c | d)", 0.135, 31.0),
        ("AND2x2", 2, "a & b", 0.108, 20.0),
        ("AND3x2", 3, "a & b & c", 0.135, 25.0),
        ("AND4x2", 4, "a & b & c & d", 0.162, 30.0),
        ("OR2x2", 2, "a | b", 0.108, 22.0),
        ("OR3x2", 3, "a | b | c", 0.135, 27.0),
        ("OR4x2", 4, "a | b | c | d", 0.162, 33.0),
        ("XOR2x1", 2, "a ^ b", 0.162, 28.0),
        ("XNOR2x1", 2, "!(a ^ b)", 0.162, 28.0),
        ("AOI21x1", 3, "!((a & b) | c)", 0.108, 20.0),
        ("AOI22x1", 4, "!((a & b) | (c & d))", 0.135, 24.0),
        ("AOI211x1", 4, "!((a & b) | c | d)", 0.135, 27.0),
        ("OAI21x1", 3, "!((a | b) & c)", 0.108, 21.0),
        ("OAI22x1", 4, "!((a | b) & (c | d))", 0.135, 25.0),
        ("OAI211x1", 4, "!((a | b) & c & d)", 0.135, 28.0),
        ("AO21x1", 3, "(a & b) | c", 0.135, 25.0),
        ("AO22x1", 4, "(a & b) | (c & d)", 0.162, 29.0),
        ("OA21x1", 3, "(a | b) & c", 0.135, 26.0),
        ("OA22x1", 4, "(a | b) & (c | d)", 0.162, 30.0),
        ("MUX2x1", 3, "(a & b) | (!a & c)", 0.162, 26.0),
        ("MXI2x1", 3, "!((a & b) | (!a & c))", 0.148, 24.0),
        ("MAJ3x1", 3, "(a & b) | (a & c) | (b & c)", 0.189, 30.0),
        ("MAJI3x1", 3, "!((a & b) | (a & c) | (b & c))", 0.175, 28.0),
        ("XOR3x1", 3, "a ^ b ^ c", 0.243, 41.0),
        ("AOI31x1", 4, "!((a & b & c) | d)", 0.135, 26.0),
        ("OAI31x1", 4, "!((a | b | c) & d)", 0.135, 27.0),
        ("AOI221x1", 5, "!((a & b) | (c & d) | e)", 0.162, 30.0),
        ("OAI221x1", 5, "!((a | b) & (c | d) & e)", 0.162, 31.0),
        ("NAND2_B1x1", 2, "!(!a & b)", 0.095, 17.0),
        ("NOR2_B1x1", 2, "!(!a | b)", 0.095, 19.0),
    ];
    for &(name, inputs, expr, area, delay) in cells {
        let f = parse_expression(expr, inputs).expect("library expression parses");
        lib.add_cell(Cell::new(name, f, area, delay));
    }
    lib
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asap7_lite_has_inverter_and_index() {
        let lib = asap7_lite();
        assert!(lib.len() > 30);
        assert_eq!(lib.cell(lib.inverter()).name(), "INVx1");
        assert_eq!(lib.max_inputs(), 5);
    }

    #[test]
    fn matches_and_function() {
        let lib = asap7_lite();
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let and = a.and(&b);
        let matches = lib.matches(&and);
        assert!(!matches.is_empty());
        // Direct AND cell exists, so the best area match needs no inverter.
        let (best, _) = lib.best_area_match(&and).unwrap();
        assert_eq!(best.inverter_count(), 0);
    }

    #[test]
    fn matches_cover_inverted_inputs() {
        let lib = asap7_lite();
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        // a & !b is not a library cell but is matched via NAND2_B1 / polarity variants.
        let f = a.and(&b.not());
        assert!(!lib.matches(&f).is_empty());
    }

    #[test]
    fn aoi_matches_without_inverters() {
        let lib = asap7_lite();
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let aoi = a.and(&b).or(&c).not();
        let (best, cost) = lib.best_area_match(&aoi).unwrap();
        assert_eq!(lib.cell(best.cell()).name(), "AOI21x1");
        assert!((cost - 0.108).abs() < 1e-9);
    }

    #[test]
    fn delay_match_prefers_fast_cells() {
        let lib = asap7_lite();
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let nand = a.and(&b).not();
        let (best, delay) = lib.best_delay_match(&nand).unwrap();
        assert_eq!(lib.cell(best.cell()).name(), "NAND2x1");
        assert!((delay - 15.0).abs() < 1e-9);
    }

    /// The per-cut scan the ASIC mapper ran before the index chose each
    /// function's matches, kept as the reference for the stored choice.
    fn best_matches_reference<'a>(
        library: &'a Library,
        function: &TruthTable,
    ) -> Option<(&'a CellMatch, &'a CellMatch)> {
        let inv_area = library.inverter_area();
        let inv_delay = library.inverter_delay();
        let mut best_area: Option<&CellMatch> = None;
        let mut best_delay: Option<&CellMatch> = None;
        for m in library.matches(function) {
            let area = library.cell(m.cell()).area() + m.inverter_count() as f64 * inv_area;
            let delay = library.cell(m.cell()).delay()
                + if m.inverter_count() > 0 {
                    inv_delay
                } else {
                    0.0
                };
            if best_area.is_none_or(|b| {
                area < library.cell(b.cell()).area() + b.inverter_count() as f64 * inv_area
            }) {
                best_area = Some(m);
            }
            if best_delay.is_none_or(|b| {
                delay
                    < library.cell(b.cell()).delay()
                        + if b.inverter_count() > 0 {
                            inv_delay
                        } else {
                            0.0
                        }
            }) {
                best_delay = Some(m);
            }
        }
        Some((best_area?, best_delay?))
    }

    #[test]
    fn stored_best_matches_equal_the_reference_scan_for_every_indexed_function() {
        let lib = asap7_lite();
        assert!(lib.index.len() > 1000);
        for function in lib.index.keys() {
            let (area, delay) = lib.best_matches(function).expect("indexed");
            let (ref_area, ref_delay) = best_matches_reference(&lib, function).expect("indexed");
            // Pointer identity: the same entry of the bucket, not merely an
            // equal-cost one.
            assert!(std::ptr::eq(area, ref_area), "best area of {function:?}");
            assert!(std::ptr::eq(delay, ref_delay), "best delay of {function:?}");
            assert_eq!(
                lib.best_area_match(function).map(|(m, _)| m),
                Some(ref_area)
            );
            assert_eq!(
                lib.best_delay_match(function).map(|(m, _)| m),
                Some(ref_delay)
            );
        }
    }

    #[test]
    fn a_later_cheaper_inverter_rechooses_every_bucket() {
        // The inverter arrives after the cells whose matches need it, and a
        // cheaper one replaces it: the stored choices must follow both.
        let mut lib = Library::new("late-inverter");
        for (name, inputs, expr, area, delay) in [
            ("NAND2", 2, "!(a & b)", 1.0, 10.0),
            ("AND2", 2, "a & b", 1.3, 12.0),
            ("INV_BIG", 1, "!a", 0.5, 3.0),
            ("INV_SMALL", 1, "!a", 0.1, 4.0),
        ] {
            let f = parse_expression(expr, inputs).expect("expression parses");
            lib.add_cell(Cell::new(name, f, area, delay));
            if lib.inverter.is_some() {
                for function in lib.index.keys() {
                    let (area, delay) = lib.best_matches(function).expect("indexed");
                    let (ref_area, ref_delay) =
                        best_matches_reference(&lib, function).expect("indexed");
                    assert!(std::ptr::eq(area, ref_area), "{name}: area of {function:?}");
                    assert!(
                        std::ptr::eq(delay, ref_delay),
                        "{name}: delay of {function:?}"
                    );
                }
            }
        }
        assert_eq!(lib.cell(lib.inverter()).name(), "INV_SMALL");
    }

    type CellSpec = (&'static str, usize, &'static str, f64, f64);

    const BASE_CELLS: [CellSpec; 3] = [
        ("NAND2", 2, "!(a & b)", 1.0, 10.0),
        ("AND2", 2, "a & b", 1.3, 12.0),
        ("INV_BIG", 1, "!a", 0.5, 3.0),
    ];

    /// A cheaper inverter (every bucket chooses again) and a wider cell.
    const EXTRA_CELLS: [CellSpec; 2] = [
        ("INV_SMALL", 1, "!a", 0.1, 4.0),
        ("AOI21", 3, "!((a & b) | c)", 0.9, 9.0),
    ];

    fn add_cells(lib: &mut Library, cells: &[CellSpec]) {
        for &(name, inputs, expr, area, delay) in cells {
            let f = parse_expression(expr, inputs).expect("expression parses");
            lib.add_cell(Cell::new(name, f, area, delay));
        }
    }

    /// Everything a lookup can answer, per indexed function, in a stable
    /// order.
    fn answers(lib: &Library) -> Vec<(TruthTable, Vec<CellMatch>, CellMatch, CellMatch)> {
        let mut out: Vec<_> = lib
            .index
            .keys()
            .map(|f| {
                let (area, delay) = lib.best_matches(f).expect("indexed");
                (
                    f.clone(),
                    lib.matches(f).to_vec(),
                    area.clone(),
                    delay.clone(),
                )
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    #[test]
    fn a_clone_shares_the_match_index() {
        let lib = asap7_lite();
        let copy = lib.clone();
        assert!(Arc::ptr_eq(&lib.index, &copy.index));
        assert_eq!(copy, lib);
    }

    #[test]
    fn adding_a_cell_to_a_clone_copies_the_index_on_write() {
        let mut original = Library::new("cow");
        add_cells(&mut original, &BASE_CELLS);
        let before = answers(&original);
        let mut copy = original.clone();
        add_cells(&mut copy, &EXTRA_CELLS);
        assert!(!Arc::ptr_eq(&original.index, &copy.index));

        // The original answers exactly what it answered before.
        assert_eq!(answers(&original), before);
        assert_eq!(original.max_inputs(), 2);
        assert_eq!(original.cell(original.inverter()).name(), "INV_BIG");

        // The clone answers what a freshly built library answers.
        let mut fresh = Library::new("cow");
        add_cells(&mut fresh, &BASE_CELLS);
        add_cells(&mut fresh, &EXTRA_CELLS);
        assert_eq!(answers(&copy), answers(&fresh));
        assert_eq!(copy.max_inputs(), 3);
        assert_eq!(copy.inverter(), fresh.inverter());
        assert_eq!(copy.cell(copy.inverter()).name(), "INV_SMALL");

        // Equality still compares names and cell lists.
        assert_eq!(copy, fresh);
        assert_ne!(copy, original);
        let mut renamed = Library::new("other");
        add_cells(&mut renamed, &BASE_CELLS);
        assert_ne!(renamed, original);
    }

    #[test]
    fn unknown_function_has_no_match() {
        let lib = asap7_lite();
        // A 5-input XOR-ish function that no cell implements.
        let mut f = TruthTable::var(5, 0);
        for v in 1..5 {
            f = f.xor(&TruthTable::var(5, v));
        }
        assert!(lib.matches(&f).is_empty());
    }

    #[test]
    fn match_semantics_reconstruct_function() {
        let lib = asap7_lite();
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let f = a.or(&b.not()).and(&c).not();
        for m in lib.matches(&f) {
            let redone = lib
                .cell(m.cell())
                .function()
                .transform(m.perm(), m.input_neg(), m.output_neg());
            assert_eq!(redone, f);
        }
        assert!(!lib.matches(&f).is_empty());
    }
}
