//! Generators for the arithmetic half of the EPFL-like benchmark suite.
//!
//! Every generator reproduces the functional family of the corresponding EPFL
//! circuit (carry chains, shifter trees, multiplier arrays, digit-recurrence
//! dividers/square roots, …) at a reduced bit-width so that the complete
//! experiment table runs in CI time; the widths used by the default suite are
//! set in `benchmark` (`suite.rs`; see the README, "Substitutions").

use crate::words::{
    barrel_shift_left, constant_word, greater_than, multiply, mux_word, ripple_add, ripple_sub,
    shift_left_fixed, zero_extend, Word,
};
use mch_logic::{Network, NetworkKind, Signal};

/// `adder`: a `width`-bit ripple-carry adder (sum plus carry-out).
pub fn adder(width: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "adder");
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    let zero = n.constant(false);
    let (sum, carry) = ripple_add(&mut n, &a, &b, zero);
    for s in sum {
        n.add_output(s);
    }
    n.add_output(carry);
    n
}

/// `bar`: a logarithmic barrel shifter over `width` data bits.
pub fn barrel_shifter(width: usize) -> Network {
    assert!(width.is_power_of_two(), "barrel shifter width must be a power of two");
    let mut n = Network::with_name(NetworkKind::Aig, "bar");
    let data = n.add_inputs(width);
    let shift = n.add_inputs(width.trailing_zeros() as usize);
    let out = barrel_shift_left(&mut n, &data, &shift);
    for s in out {
        n.add_output(s);
    }
    n
}

/// `div`: a restoring divider producing quotient and remainder.
pub fn divider(width: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "div");
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    let rem_width = width + 1;
    let mut rem: Word = constant_word(&n, rem_width, 0);
    let b_ext = zero_extend(&n, &b, rem_width);
    let mut quotient = vec![n.constant(false); width];
    for i in (0..width).rev() {
        // rem = (rem << 1) | a[i]
        let mut shifted = shift_left_fixed(&n, &rem, 1);
        shifted[0] = a[i];
        let (diff, borrow) = ripple_sub(&mut n, &shifted, &b_ext);
        let take = !borrow;
        rem = mux_word(&mut n, take, &diff, &shifted);
        quotient[i] = take;
    }
    for q in quotient {
        n.add_output(q);
    }
    for r in rem.into_iter().take(width) {
        n.add_output(r);
    }
    n
}

/// Builds the square-root datapath over an existing word (digit recurrence).
fn sqrt_word(n: &mut Network, a: &[Signal]) -> Word {
    let width = a.len();
    let half = width.div_ceil(2);
    let rem_width = width + 2;
    let mut rem: Word = constant_word(n, rem_width, 0);
    let mut root: Word = constant_word(n, half, 0);
    for i in (0..half).rev() {
        // Bring down the next two bits of the radicand.
        let mut shifted = shift_left_fixed(n, &rem, 2);
        if 2 * i + 1 < width {
            shifted[1] = a[2 * i + 1];
        }
        if 2 * i < width {
            shifted[0] = a[2 * i];
        }
        // trial = (root << 2) | 1
        let mut trial = zero_extend(n, &shift_left_fixed(n, &root, 2), rem_width);
        trial[0] = n.constant(true);
        let (diff, borrow) = ripple_sub(n, &shifted, &trial);
        let take = !borrow;
        rem = mux_word(n, take, &diff, &shifted);
        // root = (root << 1) | take
        let mut new_root = shift_left_fixed(n, &root, 1);
        new_root[0] = take;
        root = new_root;
    }
    root
}

/// `sqrt`: integer square root by digit recurrence.
pub fn square_root(width: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "sqrt");
    let a = n.add_inputs(width);
    let root = sqrt_word(&mut n, &a);
    for r in root {
        n.add_output(r);
    }
    n
}

/// `hyp`: the hypotenuse `sqrt(a² + b²)`.
pub fn hypotenuse(width: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "hyp");
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    let aa = multiply(&mut n, &a, &a);
    let bb = multiply(&mut n, &b, &b);
    let ext = 2 * width + 1;
    let aa_ext = zero_extend(&n, &aa, ext);
    let bb_ext = zero_extend(&n, &bb, ext);
    let zero = n.constant(false);
    let (sum, carry) = ripple_add(&mut n, &aa_ext, &bb_ext, zero);
    let mut radicand = sum;
    radicand.push(carry);
    let root = sqrt_word(&mut n, &radicand);
    for r in root {
        n.add_output(r);
    }
    n
}

/// Priority encoder over `bits` (MSB wins); returns the index word and a
/// "some bit set" flag.
pub(crate) fn priority_encode(n: &mut Network, bits: &[Signal]) -> (Word, Signal) {
    let width = bits.len();
    let index_width = usize::BITS as usize - (width - 1).leading_zeros() as usize;
    let mut index = constant_word(n, index_width.max(1), 0);
    let mut found = n.constant(false);
    // Scan from LSB to MSB so the highest set bit wins last.
    for (i, &bit) in bits.iter().enumerate() {
        let this_index = constant_word(n, index.len(), i as u64);
        index = mux_word(n, bit, &this_index, &index);
        found = n.or(found, bit);
    }
    (index, found)
}

/// `log2`: integer+fractional base-2 logarithm approximation.
///
/// The exponent is the position of the most significant set bit; the fraction
/// is the normalised mantissa (input shifted left so its MSB is aligned),
/// mirroring the leading-one-detect + normalise + table structure of the EPFL
/// circuit.
pub fn log2_approx(width: usize) -> Network {
    assert!(width.is_power_of_two(), "log2 width must be a power of two");
    let mut n = Network::with_name(NetworkKind::Aig, "log2");
    let a = n.add_inputs(width);
    let (msb_index, valid) = priority_encode(&mut n, &a);
    // Normalise: shift left by (width-1 - msb_index).
    let max_index = constant_word(&n, msb_index.len(), (width - 1) as u64);
    let (shift_amount, _) = ripple_sub(&mut n, &max_index, &msb_index);
    let normalised = barrel_shift_left(&mut n, &a, &shift_amount);
    for bit in &msb_index {
        n.add_output(*bit);
    }
    n.add_output(valid);
    // The fraction: the bits just below the leading one.
    for bit in normalised.iter().rev().skip(1).take(width / 2) {
        n.add_output(*bit);
    }
    n
}

/// `max`: the maximum of four `width`-bit words plus the index of the winner.
pub fn max_of_four(width: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "max");
    let words: Vec<Word> = (0..4).map(|_| n.add_inputs(width)).collect();
    // Tournament: winners of (0,1) and (2,3), then the final.
    let gt01 = greater_than(&mut n, &words[0], &words[1]);
    let w01 = mux_word(&mut n, gt01, &words[0], &words[1]);
    let gt23 = greater_than(&mut n, &words[2], &words[3]);
    let w23 = mux_word(&mut n, gt23, &words[2], &words[3]);
    let gt_final = greater_than(&mut n, &w01, &w23);
    let winner = mux_word(&mut n, gt_final, &w01, &w23);
    for s in winner {
        n.add_output(s);
    }
    // Two-bit index of the winner.
    let low = n.mux(gt_final, !gt01, !gt23);
    n.add_output(low);
    n.add_output(!gt_final);
    n
}

/// `multiplier`: an array multiplier of two `width`-bit operands.
pub fn multiplier(width: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "multiplier");
    let a = n.add_inputs(width);
    let b = n.add_inputs(width);
    let p = multiply(&mut n, &a, &b);
    for s in p {
        n.add_output(s);
    }
    n
}

/// `square`: the square of a `width`-bit operand.
pub fn square(width: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "square");
    let a = n.add_inputs(width);
    let p = multiply(&mut n, &a.clone(), &a);
    for s in p {
        n.add_output(s);
    }
    n
}

/// `sin`: a fixed-point polynomial approximation `x - x³/8 + x⁵/64`
/// (structurally: two multiplier stages plus shift-and-add post-processing,
/// like the CORDIC/polynomial datapath of the EPFL circuit).
pub fn sine_approx(width: usize) -> Network {
    let mut n = Network::with_name(NetworkKind::Aig, "sin");
    let x = n.add_inputs(width);
    let x2 = multiply(&mut n, &x, &x);
    let x2_top: Word = x2[width..].to_vec();
    let x3 = multiply(&mut n, &x2_top, &x);
    let x3_top: Word = x3[width..].to_vec();
    let x5 = multiply(&mut n, &x3_top, &x2_top);
    let x5_top: Word = x5[width..].to_vec();
    // x - x3/8 + x5/64 over `width` bits.
    let x3_shift = zero_extend(&n, &shift_left_fixed(&n, &x3_top, 0)[3..], width);
    let x5_shift = zero_extend(&n, &shift_left_fixed(&n, &x5_top, 0)[6.min(width - 1)..], width);
    let (tmp, _) = ripple_sub(&mut n, &x, &x3_shift);
    let zero = n.constant(false);
    let (result, _) = ripple_add(&mut n, &tmp, &x5_shift, zero);
    for s in result {
        n.add_output(s);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::simulate;

    fn eval_words(net: &Network, assignments: &[(usize, usize, u64)]) -> Vec<u64> {
        let mut patterns = vec![vec![0u64; 1]; net.input_count()];
        for &(base, width, value) in assignments {
            for b in 0..width {
                if (value >> b) & 1 == 1 {
                    patterns[base + b][0] = u64::MAX;
                }
            }
        }
        simulate(net, &patterns).iter().map(|w| w[0] & 1).collect()
    }

    fn value(bits: &[u64]) -> u64 {
        bits.iter().enumerate().fold(0, |acc, (i, &b)| acc | ((b & 1) << i))
    }

    #[test]
    fn adder_is_functional() {
        let net = adder(10);
        assert_eq!(net.input_count(), 20);
        assert_eq!(net.output_count(), 11);
        let outs = eval_words(&net, &[(0, 10, 700), (10, 10, 500)]);
        assert_eq!(value(&outs), 1200);
    }

    #[test]
    fn divider_divides() {
        let w = 8;
        let net = divider(w);
        for (a, b) in [(200u64, 7u64), (45, 9), (13, 200), (255, 1)] {
            let outs = eval_words(&net, &[(0, w, a), (w, w, b)]);
            let q = value(&outs[..w]);
            let r = value(&outs[w..2 * w]);
            assert_eq!(q, a / b, "{a}/{b}");
            assert_eq!(r, a % b, "{a}%{b}");
        }
    }

    #[test]
    fn square_root_is_exact() {
        let w = 12;
        let net = square_root(w);
        for a in [0u64, 1, 4, 100, 1023, 2047, 3600, 4095] {
            let outs = eval_words(&net, &[(0, w, a)]);
            let r = value(&outs);
            assert_eq!(r, (a as f64).sqrt().floor() as u64, "sqrt({a})");
        }
    }

    #[test]
    fn hypotenuse_matches_reference() {
        let w = 6;
        let net = hypotenuse(w);
        for (a, b) in [(3u64, 4u64), (5, 12), (60, 11), (0, 0), (63, 63)] {
            let outs = eval_words(&net, &[(0, w, a), (w, w, b)]);
            let r = value(&outs);
            let expect = ((a * a + b * b) as f64).sqrt().floor() as u64;
            assert_eq!(r, expect, "hyp({a},{b})");
        }
    }

    #[test]
    fn max_selects_largest() {
        let w = 6;
        let net = max_of_four(w);
        let outs = eval_words(&net, &[(0, w, 12), (w, w, 60), (2 * w, w, 3), (3 * w, w, 59)]);
        assert_eq!(value(&outs[..w]), 60);
    }

    #[test]
    fn multiplier_and_square() {
        let w = 6;
        let m = multiplier(w);
        let outs = eval_words(&m, &[(0, w, 21), (w, w, 13)]);
        assert_eq!(value(&outs), 21 * 13);
        let sq = square(w);
        let outs = eval_words(&sq, &[(0, w, 37)]);
        assert_eq!(value(&outs), 37 * 37);
    }

    #[test]
    fn barrel_shifter_has_expected_interface() {
        let net = barrel_shifter(16);
        assert_eq!(net.input_count(), 16 + 4);
        assert_eq!(net.output_count(), 16);
        let outs = eval_words(&net, &[(0, 16, 0b1011), (16, 4, 2)]);
        assert_eq!(value(&outs), 0b101100);
    }

    #[test]
    fn log2_reports_msb_position() {
        let net = log2_approx(16);
        let outs = eval_words(&net, &[(0, 16, 0b0010_0000_0000)]);
        // First outputs are the exponent bits (index of the MSB = 9).
        assert_eq!(value(&outs[..4]), 9);
        assert_eq!(outs[4] & 1, 1, "valid flag");
    }

    #[test]
    fn sine_is_buildable_and_nontrivial() {
        let net = sine_approx(8);
        assert_eq!(net.output_count(), 8);
        assert!(net.gate_count() > 100);
    }
}
