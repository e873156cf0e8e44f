//! Mapped-netlist data structures: standard-cell netlists (ASIC) and K-LUT
//! netlists (FPGA), with area/delay reporting and export back to a logic
//! network for verification.

use mch_choice::emit_decomposed;
use mch_logic::{Network, NetworkKind, Signal, TruthTable};
use mch_techlib::{CellId, Library};
use std::fmt;

/// Word-parallel evaluation of a truth table: `inputs[i]` carries 64 stimulus
/// bits of variable `i`, the result carries the corresponding output bits.
/// Sum-of-minterms over the table's ON-set — fine for the ≤ 6-input functions
/// mapped netlists are built from.
fn eval_table(table: &TruthTable, inputs: &[u64]) -> u64 {
    debug_assert_eq!(table.num_vars(), inputs.len());
    let mut out = 0u64;
    for m in 0..table.num_bits() {
        if table.bit(m) {
            let mut term = !0u64;
            for (i, &w) in inputs.iter().enumerate() {
                term &= if (m >> i) & 1 == 1 { w } else { !w };
            }
            out |= term;
        }
    }
    out
}

/// Logic depth of a netlist whose gates, in topological order, have the
/// given fanins: the one body behind both netlist types' `level_count`.
fn level_count<'a>(gates: impl Iterator<Item = &'a [NetRef]>, outputs: &[NetRef]) -> u32 {
    let mut levels: Vec<u32> = Vec::new();
    let level = |r: &NetRef, levels: &[u32]| match r {
        NetRef::Gate(i) => levels[*i],
        _ => 0,
    };
    for fanins in gates {
        let fanin_level = fanins.iter().map(|f| level(f, &levels)).max();
        levels.push(1 + fanin_level.unwrap_or(0));
    }
    outputs.iter().map(|o| level(o, &levels)).max().unwrap_or(0)
}

/// Rebuilds a logic network from `(function, fanins)` pairs in topological
/// order: the one body behind both netlist types' `to_network`.
fn to_network<'a>(
    name: &str,
    inputs: usize,
    gates: impl Iterator<Item = (&'a TruthTable, &'a [NetRef])>,
    outputs: &[NetRef],
) -> Network {
    let mut net = Network::with_name(NetworkKind::Mixed, name.to_string());
    let pis = net.add_inputs(inputs);
    let mut signals: Vec<Signal> = Vec::new();
    let resolve = |r: &NetRef, signals: &[Signal]| match r {
        NetRef::Const(v) => Signal::CONST0.xor_complement(*v),
        NetRef::Input(i) => pis[*i],
        NetRef::Gate(i) => signals[*i],
    };
    for (function, fanins) in gates {
        let leaves: Vec<Signal> = fanins.iter().map(|f| resolve(f, &signals)).collect();
        signals.push(emit_decomposed(&mut net, function, &leaves));
    }
    for o in outputs {
        net.add_output(resolve(o, &signals));
    }
    net
}

/// Simulates `(function, fanins)` pairs in topological order with
/// [`eval_table`], one flat row of words per gate: the one body behind both
/// netlist types' `simulate`. A zero-input netlist is simulated on one word,
/// as [`mch_logic::simulate`] does, so the results stay comparable.
fn simulate<'a>(
    inputs: usize,
    gates: impl Iterator<Item = (&'a TruthTable, &'a [NetRef])>,
    outputs: &[NetRef],
    patterns: &[Vec<u64>],
) -> Vec<Vec<u64>> {
    assert_eq!(patterns.len(), inputs, "one pattern row per input");
    let words = patterns.first().map_or(1, Vec::len);
    for row in patterns {
        assert_eq!(row.len(), words, "inconsistent pattern widths");
    }
    let word = |r: &NetRef, values: &[u64], w: usize| match r {
        NetRef::Const(true) => !0,
        NetRef::Const(false) => 0,
        NetRef::Input(i) => patterns[*i][w],
        NetRef::Gate(i) => values[i * words + w],
    };
    let mut values: Vec<u64> = Vec::new();
    let mut ins: Vec<u64> = Vec::new();
    for (function, fanins) in gates {
        for w in 0..words {
            ins.clear();
            ins.extend(fanins.iter().map(|f| word(f, &values, w)));
            values.push(eval_table(function, &ins));
        }
    }
    outputs
        .iter()
        .map(|o| (0..words).map(|w| word(o, &values, w)).collect())
        .collect()
}

/// Reference to a driver inside a mapped netlist.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum NetRef {
    /// A constant value.
    Const(bool),
    /// The `i`-th primary input.
    Input(usize),
    /// The output of the `i`-th mapped gate/LUT.
    Gate(usize),
}

/// What each node of `net` drives in a netlist under construction, indexed by
/// node id: the constant node and the primary inputs from the start, gates
/// once an emitter has placed them.
pub(crate) fn source_refs(net: &Network) -> Vec<Option<NetRef>> {
    let mut refs = vec![None; net.len()];
    refs[0] = Some(NetRef::Const(false));
    for (i, &n) in net.inputs().iter().enumerate() {
        refs[n.index()] = Some(NetRef::Input(i));
    }
    refs
}

/// One instantiated standard cell.
#[derive(Clone, PartialEq, Debug)]
pub struct MappedCell {
    /// Which library cell is instantiated.
    pub cell: CellId,
    /// Drivers of the cell's input pins, in pin order.
    pub fanins: Vec<NetRef>,
}

/// A standard-cell netlist produced by ASIC mapping.
///
/// Equality is structural (same cells, pins and outputs in the same order) —
/// the parallel-mapping determinism tests rely on it.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CellNetlist {
    name: String,
    inputs: usize,
    gates: Vec<MappedCell>,
    outputs: Vec<NetRef>,
}

impl CellNetlist {
    /// Creates an empty netlist with the given number of primary inputs.
    pub fn new(name: impl Into<String>, inputs: usize) -> Self {
        CellNetlist {
            name: name.into(),
            inputs,
            gates: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The mapped gates, in topological order.
    pub fn gates(&self) -> &[MappedCell] {
        &self.gates
    }

    /// Number of mapped gates (including inverters/buffers).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The primary outputs.
    pub fn outputs(&self) -> &[NetRef] {
        &self.outputs
    }

    /// Appends a gate and returns its reference.
    ///
    /// # Panics
    ///
    /// Panics if a fanin references a gate that does not exist yet (the
    /// netlist is built in topological order).
    pub fn push_gate(&mut self, cell: CellId, fanins: Vec<NetRef>) -> NetRef {
        for f in &fanins {
            if let NetRef::Gate(i) = f {
                assert!(*i < self.gates.len(), "fanin must precede the gate");
            }
        }
        self.gates.push(MappedCell { cell, fanins });
        NetRef::Gate(self.gates.len() - 1)
    }

    /// Declares a primary output.
    pub fn push_output(&mut self, driver: NetRef) {
        self.outputs.push(driver);
    }

    /// Total cell area in µm².
    pub fn area(&self, library: &Library) -> f64 {
        self.gates.iter().map(|g| library.cell(g.cell).area()).sum()
    }

    /// Critical-path delay in ps under the per-cell pin-to-output model.
    pub fn delay(&self, library: &Library) -> f64 {
        let arrivals = self.arrival_times(library);
        self.outputs
            .iter()
            .map(|o| match o {
                NetRef::Gate(i) => arrivals[*i],
                _ => 0.0,
            })
            .fold(0.0, f64::max)
    }

    /// Arrival time of every gate output.
    pub fn arrival_times(&self, library: &Library) -> Vec<f64> {
        let mut arrivals = vec![0.0f64; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            let input_arrival = g
                .fanins
                .iter()
                .map(|f| match f {
                    NetRef::Gate(j) => arrivals[*j],
                    _ => 0.0,
                })
                .fold(0.0, f64::max);
            arrivals[i] = input_arrival + library.cell(g.cell).delay();
        }
        arrivals
    }

    /// Logic depth in cell levels.
    pub fn level_count(&self) -> u32 {
        level_count(
            self.gates.iter().map(|g| g.fanins.as_slice()),
            &self.outputs,
        )
    }

    /// Rebuilds a logic network implementing the netlist, for equivalence
    /// checking against the pre-mapping network.
    pub fn to_network(&self, library: &Library) -> Network {
        to_network(
            &self.name,
            self.inputs,
            self.functions(library),
            &self.outputs,
        )
    }

    /// Simulates the netlist on word-parallel input patterns.
    ///
    /// `patterns[i]` holds the stimulus words of primary input `i` (64
    /// patterns per word, matching [`mch_logic::simulate`]); cell functions
    /// are evaluated from the library's truth tables. Returns one vector of
    /// words per primary output, directly comparable against
    /// [`mch_logic::simulate`] of the pre-mapping network.
    ///
    /// # Panics
    ///
    /// Panics if the number of pattern rows differs from the input count or
    /// the rows have inconsistent lengths.
    pub fn simulate(&self, library: &Library, patterns: &[Vec<u64>]) -> Vec<Vec<u64>> {
        simulate(
            self.inputs,
            self.functions(library),
            &self.outputs,
            patterns,
        )
    }

    /// Each gate's cell function and fanins, in topological order.
    fn functions<'a>(
        &'a self,
        library: &'a Library,
    ) -> impl Iterator<Item = (&'a TruthTable, &'a [NetRef])> {
        self.gates
            .iter()
            .map(move |g| (library.cell(g.cell).function(), g.fanins.as_slice()))
    }
}

impl fmt::Display for CellNetlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell netlist '{}': {} gates, {} inputs, {} outputs",
            self.name,
            self.gates.len(),
            self.inputs,
            self.outputs.len()
        )
    }
}

/// One K-input lookup table.
#[derive(Clone, PartialEq, Debug)]
pub struct MappedLut {
    /// The LUT's function over its fanins.
    pub function: TruthTable,
    /// Drivers of the LUT inputs (variable `i` of the function reads fanin `i`).
    pub fanins: Vec<NetRef>,
}

/// A K-LUT netlist produced by FPGA mapping.
///
/// Equality is structural (same LUT masks, fanins and outputs in the same
/// order) — the parallel-mapping determinism tests rely on it.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct LutNetlist {
    name: String,
    inputs: usize,
    luts: Vec<MappedLut>,
    outputs: Vec<NetRef>,
}

impl LutNetlist {
    /// Creates an empty LUT netlist with the given number of primary inputs.
    pub fn new(name: impl Into<String>, inputs: usize) -> Self {
        LutNetlist {
            name: name.into(),
            inputs,
            luts: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs
    }

    /// The LUTs, in topological order.
    pub fn luts(&self) -> &[MappedLut] {
        &self.luts
    }

    /// Number of LUTs (the EPFL challenge metric).
    pub fn lut_count(&self) -> usize {
        self.luts.len()
    }

    /// The primary outputs.
    pub fn outputs(&self) -> &[NetRef] {
        &self.outputs
    }

    /// Appends a LUT and returns its reference.
    ///
    /// # Panics
    ///
    /// Panics if a fanin references a LUT that does not exist yet.
    pub fn push_lut(&mut self, function: TruthTable, fanins: Vec<NetRef>) -> NetRef {
        assert_eq!(function.num_vars(), fanins.len(), "one fanin per LUT variable");
        for f in &fanins {
            if let NetRef::Gate(i) = f {
                assert!(*i < self.luts.len(), "fanin must precede the LUT");
            }
        }
        self.luts.push(MappedLut { function, fanins });
        NetRef::Gate(self.luts.len() - 1)
    }

    /// Declares a primary output.
    pub fn push_output(&mut self, driver: NetRef) {
        self.outputs.push(driver);
    }

    /// Logic depth in LUT levels (the EPFL challenge's second metric).
    pub fn level_count(&self) -> u32 {
        level_count(self.luts.iter().map(|l| l.fanins.as_slice()), &self.outputs)
    }

    /// Rebuilds a logic network implementing the netlist, for equivalence
    /// checking against the pre-mapping network.
    pub fn to_network(&self) -> Network {
        to_network(&self.name, self.inputs, self.functions(), &self.outputs)
    }

    /// Simulates the netlist on word-parallel input patterns.
    ///
    /// `patterns[i]` holds the stimulus words of primary input `i` (64
    /// patterns per word, matching [`mch_logic::simulate`]); each LUT is
    /// evaluated from its mask. Returns one vector of words per primary
    /// output, directly comparable against [`mch_logic::simulate`] of the
    /// pre-mapping network.
    ///
    /// # Panics
    ///
    /// Panics if the number of pattern rows differs from the input count or
    /// the rows have inconsistent lengths.
    pub fn simulate(&self, patterns: &[Vec<u64>]) -> Vec<Vec<u64>> {
        simulate(self.inputs, self.functions(), &self.outputs, patterns)
    }

    /// Each LUT's function and fanins, in topological order.
    fn functions(&self) -> impl Iterator<Item = (&TruthTable, &[NetRef])> {
        self.luts.iter().map(|l| (&l.function, l.fanins.as_slice()))
    }
}

impl fmt::Display for LutNetlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LUT netlist '{}': {} LUTs, {} levels",
            self.name,
            self.lut_count(),
            self.level_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::cec;
    use mch_techlib::asap7_lite;

    #[test]
    fn cell_netlist_metrics() {
        let lib = asap7_lite();
        let nand = lib.find_cell("NAND2x1").unwrap();
        let inv = lib.inverter();
        let mut nl = CellNetlist::new("t", 2);
        let g0 = nl.push_gate(nand, vec![NetRef::Input(0), NetRef::Input(1)]);
        let g1 = nl.push_gate(inv, vec![g0]);
        nl.push_output(g1);
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.level_count(), 2);
        let area = nl.area(&lib);
        assert!((area - (0.081 + 0.054)).abs() < 1e-9);
        let delay = nl.delay(&lib);
        assert!((delay - (15.0 + 12.0)).abs() < 1e-9);
    }

    #[test]
    fn cell_netlist_to_network_is_and() {
        let lib = asap7_lite();
        let nand = lib.find_cell("NAND2x1").unwrap();
        let inv = lib.inverter();
        let mut nl = CellNetlist::new("t", 2);
        let g0 = nl.push_gate(nand, vec![NetRef::Input(0), NetRef::Input(1)]);
        let g1 = nl.push_gate(inv, vec![g0]);
        nl.push_output(g1);
        let net = nl.to_network(&lib);
        let mut expect = Network::new(NetworkKind::Aig);
        let a = expect.add_input();
        let b = expect.add_input();
        let f = expect.and2(a, b);
        expect.add_output(f);
        assert!(cec(&net, &expect).holds());
    }

    #[test]
    fn lut_netlist_metrics_and_export() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let mut nl = LutNetlist::new("t", 3);
        let l0 = nl.push_lut(a.xor(&b), vec![NetRef::Input(0), NetRef::Input(1)]);
        let l1 = nl.push_lut(a.and(&b), vec![l0, NetRef::Input(2)]);
        nl.push_output(l1);
        assert_eq!(nl.lut_count(), 2);
        assert_eq!(nl.level_count(), 2);
        let net = nl.to_network();
        let mut expect = Network::new(NetworkKind::Xag);
        let xs = expect.add_inputs(3);
        let x = expect.xor2(xs[0], xs[1]);
        let f = expect.and2(x, xs[2]);
        expect.add_output(f);
        assert!(cec(&net, &expect).holds());
    }

    #[test]
    #[should_panic(expected = "precede")]
    fn forward_references_are_rejected() {
        let mut nl = LutNetlist::new("t", 1);
        let _ = nl.push_lut(TruthTable::var(1, 0), vec![NetRef::Gate(3)]);
    }

    #[test]
    fn lut_netlist_simulation_matches_exported_network() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let mut nl = LutNetlist::new("t", 3);
        let l0 = nl.push_lut(a.xor(&b), vec![NetRef::Input(0), NetRef::Input(1)]);
        let l1 = nl.push_lut(a.and(&b).not(), vec![l0, NetRef::Input(2)]);
        nl.push_output(l1);
        nl.push_output(NetRef::Const(true));
        let patterns = vec![vec![0xDEAD_BEEF_0123_4567], vec![0x0F0F_F0F0_AAAA_5555], vec![0x00FF_FF00_CCCC_3333]];
        let direct = nl.simulate(&patterns);
        let via_network = mch_logic::simulate(&nl.to_network(), &patterns);
        assert_eq!(direct, via_network);
        assert_eq!(direct[1], vec![!0u64]);

        // Without inputs, both sides simulate one word.
        let mut constants = LutNetlist::new("c", 0);
        let one = constants.push_lut(TruthTable::constant(0, true), vec![]);
        constants.push_output(one);
        constants.push_output(NetRef::Const(false));
        let direct = constants.simulate(&[]);
        assert_eq!(direct, mch_logic::simulate(&constants.to_network(), &[]));
        assert_eq!(direct, [vec![!0u64], vec![0]]);
    }

    #[test]
    fn cell_netlist_simulation_matches_exported_network() {
        let lib = asap7_lite();
        let nand = lib.find_cell("NAND2x1").unwrap();
        let inv = lib.inverter();
        let mut nl = CellNetlist::new("t", 2);
        let g0 = nl.push_gate(nand, vec![NetRef::Input(0), NetRef::Input(1)]);
        let g1 = nl.push_gate(inv, vec![g0]);
        nl.push_output(g1);
        nl.push_output(g0);
        let patterns = vec![vec![0xFFFF_0000_F0F0_CCCC], vec![0xAAAA_AAAA_5555_5555]];
        let direct = nl.simulate(&lib, &patterns);
        let via_network = mch_logic::simulate(&nl.to_network(&lib), &patterns);
        assert_eq!(direct, via_network);
        // g1 is the AND of the two inputs.
        assert_eq!(direct[0][0], patterns[0][0] & patterns[1][0]);

        // Without inputs, both sides simulate one word.
        let mut constants = CellNetlist::new("c", 0);
        let low = constants.push_gate(inv, vec![NetRef::Const(true)]);
        constants.push_output(low);
        constants.push_output(NetRef::Const(true));
        let direct = constants.simulate(&lib, &[]);
        assert_eq!(
            direct,
            mch_logic::simulate(&constants.to_network(&lib), &[])
        );
        assert_eq!(direct, [vec![0u64], vec![!0]]);
    }

    #[test]
    fn constant_outputs_are_allowed() {
        let lib = asap7_lite();
        let mut nl = CellNetlist::new("t", 0);
        nl.push_output(NetRef::Const(true));
        assert_eq!(nl.delay(&lib), 0.0);
        assert_eq!(nl.area(&lib), 0.0);
        let net = nl.to_network(&lib);
        assert_eq!(net.output_count(), 1);
    }
}
