//! The independent output check.
//!
//! Correctness here does not rest on the program's own `cec`: the input
//! network is simulated gate by gate through `Network::node`, and the mapped
//! netlist through its public accessors — LUT masks via `TruthTable::bit`,
//! cell functions via `Library::cell(id).function()`. Networks with at most
//! [`EXHAUSTIVE_MAX_INPUTS`] primary inputs are checked on every input
//! pattern; wider ones on [`RANDOM_WORDS`] × 64 seeded random patterns.

use crate::stats::SplitMix64;
use mch_core::logic::{GateKind, Network, TruthTable};
use mch_core::mapper::{CellNetlist, LutNetlist, NetRef};
use mch_core::techlib::Library;

pub const EXHAUSTIVE_MAX_INPUTS: usize = 14;
pub const RANDOM_WORDS: usize = 64;

/// A mapped netlist of either target. Equality is the netlists' own
/// structural equality: name, interface, every LUT or cell with its fanins,
/// and the outputs.
#[derive(PartialEq)]
pub enum Netlist {
    Lut(LutNetlist),
    Cells(CellNetlist),
}

/// Whether `netlist` computes the same outputs as `input` on the check's
/// stimuli (see the module docs); `seed` draws the random patterns.
pub fn matches(input: &Network, netlist: &Netlist, library: &Library, seed: u64) -> bool {
    let patterns = stimuli(input.input_count(), seed);
    let want = simulate_network(input, &patterns);
    let got = match netlist {
        Netlist::Lut(n) => {
            if n.input_count() != input.input_count() {
                return false;
            }
            let gates = n.luts().iter().map(|l| (&l.function, l.fanins.as_slice()));
            simulate_gates(gates, n.outputs(), &patterns)
        }
        Netlist::Cells(n) => {
            if n.input_count() != input.input_count() {
                return false;
            }
            let gates = n
                .gates()
                .iter()
                .map(|g| (library.cell(g.cell).function(), g.fanins.as_slice()));
            simulate_gates(gates, n.outputs(), &patterns)
        }
    };
    got == Some(want)
}

/// One row of 64-pattern words per primary input: every pattern at most
/// [`EXHAUSTIVE_MAX_INPUTS`] inputs (pattern `p` sets input `i` to bit `i`
/// of `p`, repeated to fill a word), seeded random words above.
fn stimuli(inputs: usize, seed: u64) -> Vec<Vec<u64>> {
    if inputs > EXHAUSTIVE_MAX_INPUTS {
        let mut rng = SplitMix64::new(seed);
        return (0..inputs)
            .map(|_| (0..RANDOM_WORDS).map(|_| rng.next_u64()).collect())
            .collect();
    }
    let words = (1usize << inputs).div_ceil(64);
    let mask = (1usize << inputs) - 1;
    (0..inputs)
        .map(|i| {
            (0..words)
                .map(|w| {
                    (0..64).fold(0u64, |word, b| {
                        let pattern = (w * 64 + b) & mask;
                        word | (((pattern >> i) & 1) as u64) << b
                    })
                })
                .collect()
        })
        .collect()
}

/// Output words of the input network, evaluated node by node.
fn simulate_network(net: &Network, patterns: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let words = patterns.first().map_or(1, Vec::len);
    let mut input_pos = vec![usize::MAX; net.len()];
    for (i, pi) in net.inputs().iter().enumerate() {
        input_pos[pi.index()] = i;
    }
    let mut values: Vec<Vec<u64>> = Vec::with_capacity(net.len());
    for id in net.node_ids() {
        let node = net.node(id);
        let fanin = |k: usize, w: usize, values: &[Vec<u64>]| {
            let s = node.fanins()[k];
            let v = values[s.node().index()][w];
            if s.is_complement() {
                !v
            } else {
                v
            }
        };
        let row = (0..words)
            .map(|w| match node.kind() {
                GateKind::Const => 0,
                GateKind::Input => patterns[input_pos[id.index()]][w],
                GateKind::And2 => fanin(0, w, &values) & fanin(1, w, &values),
                GateKind::Xor2 => fanin(0, w, &values) ^ fanin(1, w, &values),
                GateKind::Maj3 => {
                    let (a, b, c) = (
                        fanin(0, w, &values),
                        fanin(1, w, &values),
                        fanin(2, w, &values),
                    );
                    (a & b) | (a & c) | (b & c)
                }
            })
            .collect();
        values.push(row);
    }
    net.outputs()
        .iter()
        .map(|s| {
            let row = &values[s.node().index()];
            row.iter()
                .map(|&v| if s.is_complement() { !v } else { v })
                .collect()
        })
        .collect()
}

/// Output words of a mapped netlist given as `(function, fanins)` gates in
/// topological order; `None` when a gate's function does not fit its fanins.
fn simulate_gates<'a>(
    gates: impl Iterator<Item = (&'a TruthTable, &'a [NetRef])>,
    outputs: &[NetRef],
    patterns: &[Vec<u64>],
) -> Option<Vec<Vec<u64>>> {
    let words = patterns.first().map_or(1, Vec::len);
    let mut values: Vec<Vec<u64>> = Vec::new();
    let mut ins: Vec<u64> = Vec::new();
    let word = |r: &NetRef, w: usize, values: &[Vec<u64>]| -> Option<u64> {
        match *r {
            NetRef::Const(b) => Some(if b { !0 } else { 0 }),
            NetRef::Input(i) => patterns.get(i).map(|row| row[w]),
            NetRef::Gate(i) => values.get(i).map(|row| row[w]),
        }
    };
    for (function, fanins) in gates {
        if function.num_vars() != fanins.len() {
            return None;
        }
        let chunks = table_chunks(function);
        let mut row = Vec::with_capacity(words);
        for w in 0..words {
            ins.clear();
            for f in fanins {
                ins.push(word(f, w, &values)?);
            }
            row.push(eval_chunks(&chunks, &ins));
        }
        values.push(row);
    }
    outputs
        .iter()
        .map(|o| (0..words).map(|w| word(o, w, &values)).collect())
        .collect()
}

/// The table's bits in 64-minterm chunks, read through `TruthTable::bit`.
fn table_chunks(table: &TruthTable) -> Vec<u64> {
    let bits = 1usize << table.num_vars();
    (0..bits.div_ceil(64))
        .map(|c| {
            (0..64.min(bits))
                .filter(|&b| table.bit(c * 64 + b))
                .fold(0u64, |chunk, b| chunk | 1 << b)
        })
        .collect()
}

/// Evaluates a function given as minterm chunks on word-parallel inputs by
/// Shannon expansion on the highest variable.
fn eval_chunks(chunks: &[u64], inputs: &[u64]) -> u64 {
    let k = inputs.len();
    if k > 6 {
        let half = chunks.len() / 2;
        let lo = eval_chunks(&chunks[..half], &inputs[..k - 1]);
        let hi = eval_chunks(&chunks[half..], &inputs[..k - 1]);
        return (inputs[k - 1] & hi) | (!inputs[k - 1] & lo);
    }
    eval_mask(chunks[0], inputs)
}

fn eval_mask(mask: u64, inputs: &[u64]) -> u64 {
    let k = inputs.len();
    if k == 0 {
        return if mask & 1 == 1 { !0 } else { 0 };
    }
    let half = 1u32 << (k - 1);
    let lo = mask & ((1u64 << half) - 1);
    let hi = (mask >> half) & ((1u64 << half) - 1);
    let x = inputs[k - 1];
    let lo_v = eval_mask(lo, &inputs[..k - 1]);
    if lo == hi {
        return lo_v;
    }
    let hi_v = eval_mask(hi, &inputs[..k - 1]);
    (x & hi_v) | (!x & lo_v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_evaluation_matches_the_truth_table() {
        // f(a, b, c) = a ^ (b & c): minterms 1, 3, 5, 6.
        let mut t = TruthTable::zeros(3);
        for m in [1, 3, 5, 6] {
            t.set_bit(m, true);
        }
        let ins = [0b1010_1010u64, 0b1100_1100, 0b1111_0000];
        let want = ins[0] ^ (ins[1] & ins[2]);
        assert_eq!(eval_chunks(&table_chunks(&t), &ins) & 0xFF, want & 0xFF);
    }

    #[test]
    fn exhaustive_stimuli_enumerate_every_pattern() {
        let rows = stimuli(3, 0);
        for b in 0..64 {
            let p: usize = (0..3)
                .map(|i| (((rows[i][0] >> b) & 1) as usize) << i)
                .sum();
            assert_eq!(p, b & 7);
        }
        assert_eq!(stimuli(14, 0)[0].len(), 256);
        assert_eq!(stimuli(15, 0)[0].len(), RANDOM_WORDS);
    }

    /// The gate behind the first gate-fed output, which every mutation below
    /// changes.
    fn first_output_gate(outputs: &[NetRef]) -> usize {
        outputs
            .iter()
            .find_map(|o| match *o {
                NetRef::Gate(i) => Some(i),
                _ => None,
            })
            .expect("an output driven by a gate")
    }

    #[test]
    fn a_complemented_lut_is_caught() {
        let net = mch_core::benchmarks::demo_adder_gt();
        let config = mch_core::MchConfig::lut_area().with_threads(1);
        let lut = mch_core::techlib::LutLibrary::k6();
        let mapped = mch_core::try_lut_flow_mch(&net, &lut, &config)
            .expect("flow")
            .netlist;
        let cells = mch_core::techlib::asap7_lite();
        assert!(matches(&net, &Netlist::Lut(mapped.clone()), &cells, 1));

        let target = first_output_gate(mapped.outputs());
        let mut mutant = LutNetlist::new(mapped.name(), mapped.input_count());
        for (i, l) in mapped.luts().iter().enumerate() {
            let function = if i == target {
                l.function.not()
            } else {
                l.function.clone()
            };
            mutant.push_lut(function, l.fanins.clone());
        }
        for &o in mapped.outputs() {
            mutant.push_output(o);
        }
        assert!(!matches(&net, &Netlist::Lut(mutant), &cells, 1));
    }

    #[test]
    fn a_swapped_cell_is_caught() {
        let net = mch_core::benchmarks::demo_adder_gt();
        let config = mch_core::MchConfig::delay_oriented().with_threads(1);
        let cells = mch_core::techlib::asap7_lite();
        let mapped = mch_core::try_asic_flow_mch(&net, &cells, &config)
            .expect("flow")
            .netlist;
        assert!(matches(&net, &Netlist::Cells(mapped.clone()), &cells, 1));

        let target = first_output_gate(mapped.outputs());
        let original = mapped.gates()[target].cell;
        let arity = cells.cell(original).num_inputs();
        let other = cells
            .cell_ids()
            .find(|&id| {
                cells.cell(id).num_inputs() == arity
                    && cells.cell(id).function() != cells.cell(original).function()
            })
            .expect("another cell of the same arity");
        let mut mutant = CellNetlist::new(mapped.name(), mapped.input_count());
        for (i, g) in mapped.gates().iter().enumerate() {
            let cell = if i == target { other } else { g.cell };
            mutant.push_gate(cell, g.fanins.clone());
        }
        for &o in mapped.outputs() {
            mutant.push_output(o);
        }
        assert!(!matches(&net, &Netlist::Cells(mutant), &cells, 1));
    }
}
