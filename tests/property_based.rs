//! Property-based tests over randomly generated networks: every major
//! transformation in the workspace must preserve the Boolean function of every
//! primary output, and every enumerated cut must carry the correct function.
//!
//! The workspace is dependency-free, so instead of an external property
//! framework the tests drive a deterministic seeded generator through a fixed
//! number of cases; failures print the offending generator parameters so a
//! case can be replayed as a unit test.

use mch::benchmarks::random_logic;
use mch::choice::{build_mch, ChoiceNetwork, MchParams};
use mch::cut::{enumerate_cuts, legacy_enumerate_cuts, CutCost, CutParams};
use mch::logic::{cec, convert, simulate_nodes, Network, NetworkKind, NodeId, Prng};
use mch::mapper::{
    map_asic, map_lut, map_lut_network, AsicMapParams, LutMapParams, MappingObjective,
};
use mch::opt::{balance, compress2rs_like, graph_map, refactor, rewrite};
use mch::techlib::{asap7_lite, LutLibrary};

const CASES: usize = 24;

/// Generates the `i`-th random test network, mirroring the parameter ranges
/// the previous proptest strategy drew from.
fn arbitrary_network(i: usize) -> Network {
    let mut rng = Prng::seed_from_u64(0xA11C_E000 + i as u64);
    let inputs = rng.gen_range(2..9);
    let outputs = rng.gen_range(1..6);
    let gates = rng.gen_range(10..120);
    let seed = rng.next_u64();
    random_logic("prop", inputs, outputs, gates, seed)
}

fn for_each_case(mut f: impl FnMut(usize, Network)) {
    for i in 0..CASES {
        f(i, arbitrary_network(i));
    }
}

#[test]
fn conversion_preserves_function() {
    for_each_case(|i, net| {
        let target = NetworkKind::homogeneous()[i % 4];
        let converted = convert(&net, target);
        assert!(cec(&net, &converted).holds(), "case {i} → {target:?}");
    });
}

#[test]
fn optimization_passes_preserve_function() {
    for_each_case(|i, net| {
        assert!(cec(&net, &balance(&net)).holds(), "balance, case {i}");
        assert!(cec(&net, &rewrite(&net)).holds(), "rewrite, case {i}");
        assert!(cec(&net, &refactor(&net)).holds(), "refactor, case {i}");
        assert!(
            cec(&net, &compress2rs_like(&net, 2)).holds(),
            "compress2rs, case {i}"
        );
    });
}

#[test]
fn mch_choices_are_functionally_consistent() {
    for_each_case(|i, net| {
        let mch = build_mch(&net, &MchParams::area_oriented());
        assert!(mch.verify(16, 7).is_empty(), "case {i}");
        assert!(cec(&net, &mch.network().cleanup()).holds(), "case {i}");
    });
}

#[test]
fn lut_mapping_preserves_function() {
    for_each_case(|i, net| {
        let mapped = map_lut(
            &ChoiceNetwork::from_network(&net),
            &LutLibrary::k6(),
            &LutMapParams::new(MappingObjective::Area),
        );
        assert!(cec(&net, &mapped.to_network()).holds(), "case {i}");
    });
}

#[test]
fn choice_aware_asic_mapping_preserves_function() {
    for_each_case(|i, net| {
        let library = asap7_lite();
        let mch = build_mch(&net, &MchParams::balanced());
        let mapped = map_asic(&mch, &library, &AsicMapParams::new(MappingObjective::Balanced));
        assert!(cec(&net, &mapped.to_network(&library)).holds(), "case {i}");
    });
}

#[test]
fn graph_mapping_preserves_function() {
    for_each_case(|i, net| {
        let target = NetworkKind::homogeneous()[i % 4];
        let mapped = graph_map(&net, target, MappingObjective::Area);
        assert!(cec(&net, &mapped).holds(), "case {i}");
    });
}

#[test]
fn hybrid_ranking_never_maps_deeper_than_structural() {
    // The hybrid cut ranking keeps the unit-delay-best cuts at every node, so
    // at the same cut limit the mapped LUT depth must never exceed what the
    // static (size, leaves) ordering achieves — and the mapping must of
    // course stay functionally correct.
    use mch::techlib::LutLibrary;
    for kind in [NetworkKind::Aig, NetworkKind::Xag, NetworkKind::Mig] {
        for i in 0..CASES {
            let net = convert(&arbitrary_network(i), kind);
            let lut = LutLibrary::k6();
            let base = LutMapParams::new(MappingObjective::Balanced);
            let structural =
                map_lut_network(&net, &lut, &base.with_ranking(CutCost::Structural));
            let hybrid = map_lut_network(&net, &lut, &base.with_ranking(CutCost::Hybrid));
            assert!(cec(&net, &hybrid.to_network()).holds(), "case {i} ({kind:?})");
            assert!(
                hybrid.level_count() <= structural.level_count(),
                "case {i} ({kind:?}): hybrid depth {} > structural depth {}",
                hybrid.level_count(),
                structural.level_count()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Cut-enumeration properties (inline representation vs. reference semantics).
// ---------------------------------------------------------------------------

/// Simulates the network once per node with exhaustive patterns over its cut
/// leaves and checks that the stored cut function agrees with the simulated
/// cone function for every minterm.
fn check_cut_functions(net: &Network, params: &CutParams, label: &str) {
    let cuts = enumerate_cuts(net, params);
    // One word of exhaustive patterns per input is enough because every test
    // network has < 2^6-ish inputs only at the cut level; instead simulate
    // node values with random patterns and evaluate the cut function on the
    // leaves' simulated values, which must reproduce the root's values.
    let mut rng = Prng::seed_from_u64(0xC0DE);
    let words = 4usize;
    let patterns: Vec<Vec<u64>> = (0..net.input_count())
        .map(|_| (0..words).map(|_| rng.next_u64()).collect())
        .collect();
    let values = simulate_nodes(net, &patterns);
    for id in net.gate_ids() {
        for cut in cuts.of(id).iter() {
            assert_eq!(cut.root(), id, "{label}: cut rooted elsewhere");
            assert!(cut.size() <= params.cut_size, "{label}: oversized cut");
            let leaves: Vec<NodeId> = cut.leaves().to_vec();
            assert!(
                leaves.windows(2).all(|w| w[0] < w[1]),
                "{label}: unsorted leaves at {id}"
            );
            // Evaluate the cut function bit-parallel over the simulated leaf
            // values; must equal the root's simulated values.
            for (w, &root_word) in values.row(id).iter().enumerate() {
                for b in 0..64 {
                    let mut minterm = 0usize;
                    for (v, &leaf) in leaves.iter().enumerate() {
                        if values.row(leaf)[w] >> b & 1 == 1 {
                            minterm |= 1 << v;
                        }
                    }
                    let expect = root_word >> b & 1 == 1;
                    assert_eq!(
                        cut.function().bit(minterm),
                        expect,
                        "{label}: wrong function at node {id}, cut {cut}"
                    );
                }
            }
        }
    }
}

#[test]
fn cut_functions_match_simulation_on_random_networks() {
    for kind in [NetworkKind::Aig, NetworkKind::Xag, NetworkKind::Mig] {
        for i in 0..8 {
            let net = convert(&arbitrary_network(i), kind);
            check_cut_functions(&net, &CutParams::new(4, 8), &format!("{kind:?}/k4"));
            check_cut_functions(&net, &CutParams::new(6, 8), &format!("{kind:?}/k6"));
        }
    }
}

#[test]
fn inline_enumeration_matches_legacy_semantics() {
    // k = 7 exercises the heap-table (`Big`) representation alongside the
    // default single-word k = 6 configuration. XMGs mix XOR and majority
    // nodes, as choice networks do, so the word-level composition meets
    // both operators on one cone.
    let configs = [CutParams::new(6, 8), CutParams::new(7, 4)];
    for kind in [
        NetworkKind::Aig,
        NetworkKind::Xag,
        NetworkKind::Mig,
        NetworkKind::Xmg,
    ] {
        for i in 0..8 {
            let net = convert(&arbitrary_network(i), kind);
            let params = configs[i % configs.len()];
            let new = enumerate_cuts(&net, &params);
            let old = legacy_enumerate_cuts(&net, &params);
            for id in net.node_ids() {
                let a = new.of(id);
                let b = old.of(id);
                assert_eq!(a.len(), b.len(), "cut count differs at {id} ({kind:?})");
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.leaves(), y.leaves(), "leaves differ at {id}");
                    assert_eq!(
                        x.function().words(),
                        y.function().words(),
                        "function differs at {id}"
                    );
                }
            }
        }
    }
}

#[test]
fn structural_fingerprints_match_reconstructions_and_separate_mutants() {
    // The warm-start cache indexes prepared flows by
    // `Network::structural_fingerprint`. Two properties carry it: equal
    // networks (rebuilds, clones) hash equal, and any structural mutation —
    // output polarity, output rewiring, an extra gate — changes the hash.
    for_each_case(|i, net| {
        let mut rng = Prng::seed_from_u64(0xF19E_4100 + i as u64);
        let base = net.structural_fingerprint();

        // Same seeded construction and a clone: equal networks, equal hash.
        assert_eq!(
            arbitrary_network(i).structural_fingerprint(),
            base,
            "case {i}: rebuilding the same network changed the fingerprint"
        );
        assert_eq!(net.clone().structural_fingerprint(), base, "case {i}: clone");

        // Output polarity flip.
        let oi = rng.gen_range(0..net.output_count());
        let mut flipped = net.clone();
        let o = flipped.output(oi);
        flipped.replace_output(oi, !o);
        assert_ne!(
            flipped.structural_fingerprint(),
            base,
            "case {i}: complementing output {oi} left the fingerprint unchanged"
        );

        // Output rewired to a (guaranteed different) signal.
        let mut rewired = net.clone();
        let replacement = rewired.input(rng.gen_range(0..rewired.input_count()));
        let target = if rewired.output(oi) == replacement {
            !replacement
        } else {
            replacement
        };
        rewired.replace_output(oi, target);
        assert_ne!(
            rewired.structural_fingerprint(),
            base,
            "case {i}: rewiring output {oi} left the fingerprint unchanged"
        );

        // An extra gate feeding an extra output.
        let mut grown = net.clone();
        let a = grown.input(rng.gen_range(0..grown.input_count()));
        let b = grown.input(rng.gen_range(0..grown.input_count()));
        let g = grown.and2(a, !b);
        grown.add_output(g);
        assert_ne!(
            grown.structural_fingerprint(),
            base,
            "case {i}: growing the network left the fingerprint unchanged"
        );
    });
}

#[test]
fn permuted_but_identical_constructions_fingerprint_equal() {
    // Strashing canonicalises commutative fanins, so building the same
    // random AND chain with every gate's operands swapped yields the same
    // node vector — and must yield the same fingerprint (this is what lets
    // the warm-start cache hit across independently constructed circuits).
    for i in 0..CASES {
        let mut rng = Prng::seed_from_u64(0x9E23_7700 + i as u64);
        let n_inputs = rng.gen_range(3..8);
        let n_gates = rng.gen_range(5..40);
        // Pre-draw the construction plan so both builds share it.
        let mut plan: Vec<(usize, usize, bool)> = Vec::with_capacity(n_gates);
        for g in 0..n_gates {
            let pool = n_inputs + g;
            plan.push((rng.gen_range(0..pool), rng.gen_range(0..pool), rng.next_u64() & 1 == 1));
        }
        let build = |swap: bool| {
            let mut n = Network::with_name(NetworkKind::Aig, "fp-perm");
            let mut signals: Vec<_> = (0..n_inputs).map(|_| n.add_input()).collect();
            for &(ai, bi, neg) in &plan {
                let (a, b) = (signals[ai], if neg { !signals[bi] } else { signals[bi] });
                let g = if swap { n.and2(b, a) } else { n.and2(a, b) };
                signals.push(g);
            }
            let last = *signals.last().expect("at least one signal");
            n.add_output(last);
            n
        };
        let forward = build(false);
        let swapped = build(true);
        assert_eq!(forward, swapped, "case {i}: swapped construction diverged");
        assert_eq!(
            forward.structural_fingerprint(),
            swapped.structural_fingerprint(),
            "case {i}: equal networks fingerprinted differently"
        );
    }
}
