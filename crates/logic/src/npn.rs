//! NPN classification of small Boolean functions.
//!
//! Two functions belong to the same NPN class when one can be obtained from
//! the other by Negating inputs, Permuting inputs and/or Negating the output.
//! The MCH resynthesis strategies use the canonical representative as the key
//! of their candidate-structure caches so that every function of a class is
//! synthesised only once.

use std::sync::OnceLock;

use crate::truth::{flip_u64, mask_for, remap_u64};
use crate::TruthTable;

/// The transformation that maps a function onto its NPN canonical form.
///
/// Applying `perm`, then `input_neg`, then `output_neg` to the original
/// function yields the canonical function (see [`TruthTable::transform`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NpnTransform {
    /// New variable `i` reads old variable `perm[i]`.
    pub perm: Vec<usize>,
    /// Bit `i` set means canonical input `i` is the complement of the source.
    pub input_neg: u32,
    /// Whether the output is complemented.
    pub output_neg: bool,
}

impl NpnTransform {
    /// The identity transformation over `num_vars` variables.
    pub fn identity(num_vars: usize) -> Self {
        NpnTransform {
            perm: (0..num_vars).collect(),
            input_neg: 0,
            output_neg: false,
        }
    }
}

/// Result of canonicalising a function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NpnCanonical {
    /// The canonical representative of the NPN class.
    pub representative: TruthTable,
    /// The transformation such that `function.transform(...) == representative`.
    pub transform: NpnTransform,
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

/// Largest variable count [`npn_canonical`] accepts.
const MAX_EXACT_VARS: usize = 5;

/// A permutation (`perm[new] = old`) and its inverse, the placement
/// [`remap_u64`] takes to apply it (`placement[old] = new`).
type PermutationEntry = (Vec<usize>, Vec<usize>);

/// Every permutation of `0..n` for `n <= 5`, in [`permutations`] order, each
/// paired with its placement. Built once per process.
fn permutation_table(n: usize) -> &'static [PermutationEntry] {
    static TABLE: OnceLock<Vec<Vec<PermutationEntry>>> = OnceLock::new();
    &TABLE.get_or_init(|| {
        (0..=MAX_EXACT_VARS)
            .map(|n| {
                permutations(n)
                    .into_iter()
                    .map(|perm| {
                        let mut placement = vec![0; n];
                        for (new_var, &old_var) in perm.iter().enumerate() {
                            placement[old_var] = new_var;
                        }
                        (perm, placement)
                    })
                    .collect()
            })
            .collect()
    })[n]
}

/// Computes the exact NPN canonical form of a function with at most five
/// variables by exhaustive search over all transformations.
///
/// The canonical representative is the smallest truth table reachable within
/// the NPN class, compared as the single inline word (which is
/// [`TruthTable`]'s order for equal variable counts).
///
/// # Tie-break contract
///
/// When several transformations reach the representative, the returned
/// transform is the *first* one in this order: permutations in the fixed
/// order of the recursive swap enumeration (the identity first), then
/// `input_neg` ascending, then `output_neg` `false` before `true`. The
/// resynthesis layers replay a class's structure through this transform, so
/// the choice networks and graph-mapped views they emit depend on it byte for
/// byte; a search that returns another transform of the same representative
/// changes their output.
///
/// The search runs on the inline word: each permutation is applied once with
/// the word-level remap, its `2^n` input-negation variants are derived in
/// ascending mask order with one variable flip each, and the output
/// complement is a masked `!`.
///
/// # Panics
///
/// Panics if the function has more than five variables (the search space grows
/// as `2 * n! * 2^n`; use [`npn_semi_canonical`] for larger functions).
pub fn npn_canonical(function: &TruthTable) -> NpnCanonical {
    let n = function.num_vars();
    assert!(
        n <= MAX_EXACT_VARS,
        "exact NPN canonicalisation supports at most {MAX_EXACT_VARS} variables"
    );
    let word = function.as_u64();
    let mask = mask_for(n);
    let table = permutation_table(n);
    // `variants[m]` is the permuted word with the inputs in mask `m` negated.
    let mut variants = [0u64; 1 << MAX_EXACT_VARS];
    // (word, permutation index, input_neg, output_neg). Every candidate fits
    // in 32 bits, so the first one always replaces the sentinel, and the
    // strict `<` keeps the first minimum in search order.
    let mut best = (u64::MAX, 0, 0, false);
    for (index, (_, placement)) in table.iter().enumerate() {
        variants[0] = remap_u64(word, placement, n);
        for var in 0..n {
            let half = 1 << var;
            for m in 0..half {
                variants[half + m] = flip_u64(variants[m], var);
            }
        }
        for (input_neg, &v) in variants[..1 << n].iter().enumerate() {
            for (output_neg, candidate) in [(false, v), (true, !v & mask)] {
                if candidate < best.0 {
                    best = (candidate, index, input_neg, output_neg);
                }
            }
        }
    }
    let (representative, index, input_neg, output_neg) = best;
    NpnCanonical {
        representative: TruthTable::from_u64(n, representative),
        transform: NpnTransform {
            perm: table[index].0.clone(),
            input_neg: input_neg as u32,
            output_neg,
        },
    }
}

/// Computes a semi-canonical NPN form for functions of any supported size.
///
/// The result is canonical only with respect to output polarity and a
/// cofactor-count-based variable ordering heuristic, so two functions of one
/// NPN class may land in different buckets. That is sufficient for use as a
/// cache key: functions that share a bucket share the representative exactly,
/// and `function.transform(perm, input_neg, output_neg)` reproduces it, so a
/// structure synthesised for the representative replays correctly through
/// the inverse transform without any further check.
pub fn npn_semi_canonical(function: &TruthTable) -> NpnCanonical {
    let n = function.num_vars();
    if n <= 5 {
        return npn_canonical(function);
    }
    // Output polarity: make the off-set at least as large as the on-set.
    let ones = function.count_ones() as usize;
    let output_neg = ones > function.num_bits() / 2;
    let mut t = if output_neg { function.not() } else { function.clone() };
    // Input polarity: prefer the polarity whose positive cofactor has fewer ones.
    let mut input_neg_original = 0u32;
    for v in 0..n {
        let c1 = t.cofactor1(v).count_ones();
        let c0 = t.cofactor0(v).count_ones();
        if c1 > c0 {
            input_neg_original |= 1 << v;
            t = t.flip_var(v);
        }
    }
    // Variable order: sort by (cofactor-one count, index) for stability.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| (t.cofactor1(v).count_ones(), v));
    // Express the result through `TruthTable::transform` semantics (permute,
    // then flip variables *in the permuted domain*, then complement the
    // output), so that `function.transform(perm, input_neg, output_neg)`
    // reproduces the representative exactly.
    let mut input_neg = 0u32;
    for (new_var, &old_var) in order.iter().enumerate() {
        if input_neg_original & (1 << old_var) != 0 {
            input_neg |= 1 << new_var;
        }
    }
    let transform = NpnTransform {
        perm: order,
        input_neg,
        output_neg,
    };
    let representative = function.transform(&transform.perm, transform.input_neg, transform.output_neg);
    NpnCanonical {
        representative,
        transform,
    }
}

/// Applies the inverse of `transform` to `table`.
///
/// If `canonical = function.transform(perm, neg, out)`, then
/// `npn_apply_inverse(&canonical, &transform) == function`.
pub fn npn_apply_inverse(table: &TruthTable, transform: &NpnTransform) -> TruthTable {
    let n = table.num_vars();
    let mut t = if transform.output_neg { table.not() } else { table.clone() };
    for v in 0..n {
        if transform.input_neg & (1 << v) != 0 {
            t = t.flip_var(v);
        }
    }
    // Invert the permutation: canonical var i reads original var perm[i], so the
    // original var perm[i] must read canonical var i.
    let mut inverse = vec![0usize; n];
    for (i, &p) in transform.perm.iter().enumerate() {
        inverse[p] = i;
    }
    t.permute(&inverse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    /// The retired exhaustive search over heap-built truth-table transforms,
    /// kept as the reference for the word-level [`npn_canonical`]: the
    /// first minimum in (permutation, `input_neg`, `output_neg`) order.
    fn npn_canonical_reference(function: &TruthTable) -> NpnCanonical {
        let n = function.num_vars();
        assert!(n <= 5, "exact NPN canonicalisation supports at most 5 variables");
        let mut best: Option<NpnCanonical> = None;
        for perm in permutations(n) {
            for input_neg in 0..(1u32 << n) {
                for output_neg in [false, true] {
                    let candidate = function.transform(&perm, input_neg, output_neg);
                    let better = match &best {
                        None => true,
                        Some(b) => candidate < b.representative,
                    };
                    if better {
                        best = Some(NpnCanonical {
                            representative: candidate,
                            transform: NpnTransform {
                                perm: perm.clone(),
                                input_neg,
                                output_neg,
                            },
                        });
                    }
                }
            }
        }
        best.expect("at least the identity transformation was evaluated")
    }

    fn assert_matches_reference(f: &TruthTable) {
        assert_eq!(npn_canonical(f), npn_canonical_reference(f), "{f:?}");
    }

    #[test]
    fn matches_reference_on_every_function_of_up_to_three_inputs() {
        for n in 0..=3usize {
            for bits in 0..1u64 << (1 << n) {
                assert_matches_reference(&TruthTable::from_u64(n, bits));
            }
        }
    }

    #[test]
    fn matches_reference_on_sampled_four_and_five_input_functions() {
        let mut rng = Prng::seed_from_u64(0x4E50_4E00);
        for _ in 0..1000 {
            assert_matches_reference(&TruthTable::from_u64(4, rng.next_u64()));
        }
        for _ in 0..50 {
            assert_matches_reference(&TruthTable::from_u64(5, rng.next_u64()));
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive; release only")]
    fn matches_reference_on_every_four_input_function() {
        for bits in 0..1u64 << 16 {
            assert_matches_reference(&TruthTable::from_u64(4, bits));
        }
    }

    #[test]
    fn and_class_members_share_representative() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let and = a.and(&b);
        let or = a.or(&b);
        let nand = and.not();
        let r1 = npn_canonical(&and).representative;
        let r2 = npn_canonical(&or).representative;
        let r3 = npn_canonical(&nand).representative;
        assert_eq!(r1, r2);
        assert_eq!(r1, r3);
    }

    #[test]
    fn xor_is_in_its_own_class() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let xor = a.xor(&b);
        let and = a.and(&b);
        assert_ne!(
            npn_canonical(&xor).representative,
            npn_canonical(&and).representative
        );
        assert_eq!(
            npn_canonical(&xor).representative,
            npn_canonical(&xor.not()).representative
        );
    }

    #[test]
    fn transform_reproduces_representative() {
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        let f = a.and(&b).or(&c.xor(&d));
        let canon = npn_canonical(&f);
        let redone = f.transform(
            &canon.transform.perm,
            canon.transform.input_neg,
            canon.transform.output_neg,
        );
        assert_eq!(redone, canon.representative);
    }

    #[test]
    fn inverse_round_trips() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let f = TruthTable::maj(&a, &b, &c).xor(&a);
        let canon = npn_canonical(&f);
        let back = npn_apply_inverse(&canon.representative, &canon.transform);
        assert_eq!(back, f);
    }

    #[test]
    fn count_of_npn_classes() {
        // There are exactly 4 NPN classes of 2-variable functions
        // (constants, single variable, AND-like, XOR-like), 14 of
        // 3-variable functions and 222 of 4-variable functions.
        for (n, classes) in [(2usize, 4usize), (3, 14), (4, 222)] {
            let reps: crate::FastSet<TruthTable> = (0..1u64 << (1 << n))
                .map(|bits| npn_canonical(&TruthTable::from_u64(n, bits)).representative)
                .collect();
            assert_eq!(reps.len(), classes, "{n} variables");
        }
    }

    #[test]
    fn semi_canonical_consistent_for_equal_functions() {
        let a = TruthTable::var(7, 0);
        let b = TruthTable::var(7, 5);
        let f = a.and(&b);
        let g = b.and(&a);
        assert_eq!(
            npn_semi_canonical(&f).representative,
            npn_semi_canonical(&g).representative
        );
    }

    #[test]
    fn semi_canonical_transform_invariant_holds() {
        // The representative must equal function.transform(perm, neg, out) and
        // the inverse must round-trip, including for functions above the
        // exact-canonicalisation limit (> 5 variables).
        for seed in 0..20u64 {
            let n = 6 + (seed as usize % 3);
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(3);
            let mut f = TruthTable::zeros(n);
            for i in 0..f.num_bits() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                f.set_bit(i, state & 1 == 1);
            }
            let canon = npn_semi_canonical(&f);
            let redone = f.transform(
                &canon.transform.perm,
                canon.transform.input_neg,
                canon.transform.output_neg,
            );
            assert_eq!(redone, canon.representative, "seed {seed}");
            let back = npn_apply_inverse(&canon.representative, &canon.transform);
            assert_eq!(back, f, "inverse round-trip, seed {seed}");
        }
    }
}
