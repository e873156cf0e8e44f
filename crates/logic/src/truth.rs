//! Dynamic truth tables for small Boolean functions.
//!
//! [`TruthTable`] stores the function of up to 16 variables as a packed bit
//! vector of `u64` words. Tables are used for cut functions, Boolean matching
//! against library cells, NPN classification and the resynthesis strategies of
//! the MCH operator.
//!
//! # Memory layout
//!
//! Tables over **at most six variables** fit in `2^6 = 64` minterms and are
//! stored *inline* as a single `u64` — no heap allocation is performed for
//! construction, cloning or any Boolean operation on them. Tables over 7–16
//! variables fall back to a heap-allocated word vector of `2^(n-6)` words.
//! The representation is canonical: a table is inline **iff** `num_vars <= 6`,
//! so equality, ordering and hashing never have to normalise between the two
//! forms. This invariant is what lets the cut layer (`mch_cut`) enumerate
//! `k <= 6` cuts with zero allocations per cut.
//!
//! Unused high bits of a partially-filled word are always kept at zero so
//! words can be compared directly.

use std::fmt;
use std::hash::{Hash, Hasher};

const MAX_VARS: usize = 16;

/// Number of variables that fit in the single inline word.
pub const INLINE_VARS: usize = 6;

/// Backing storage: one inline word for `num_vars <= 6`, a heap vector
/// otherwise. The variant is fully determined by `num_vars`.
#[derive(Clone)]
enum Repr {
    Small(u64),
    Big(Vec<u64>),
}

/// A complete truth table over `num_vars` input variables.
///
/// Bit `i` stores the function value for the input assignment whose binary
/// encoding is `i` (variable 0 is the least-significant input). For fewer than
/// six variables only the low `2^num_vars` bits of the single word are used;
/// unused bits are always kept at zero so tables can be compared directly.
///
/// # Example
///
/// ```
/// use mch_logic::TruthTable;
///
/// let a = TruthTable::var(2, 0);
/// let b = TruthTable::var(2, 1);
/// let and = a.and(&b);
/// assert_eq!(and.count_ones(), 1);
/// assert!(and.bit(3));
/// assert!(and.is_inline()); // ≤ 6 vars: single u64, no heap allocation
/// ```
#[derive(Clone)]
pub struct TruthTable {
    num_vars: u8,
    repr: Repr,
}

fn words_for(num_vars: usize) -> usize {
    if num_vars <= INLINE_VARS {
        1
    } else {
        1 << (num_vars - INLINE_VARS)
    }
}

pub(crate) fn mask_for(num_vars: usize) -> u64 {
    if num_vars >= INLINE_VARS {
        u64::MAX
    } else {
        (1u64 << (1 << num_vars)) - 1
    }
}

impl TruthTable {
    /// The constant-false function over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 16`.
    pub fn zeros(num_vars: usize) -> Self {
        assert!(num_vars <= MAX_VARS, "at most {MAX_VARS} variables supported");
        let repr = if num_vars <= INLINE_VARS {
            Repr::Small(0)
        } else {
            Repr::Big(vec![0; words_for(num_vars)])
        };
        TruthTable {
            num_vars: num_vars as u8,
            repr,
        }
    }

    /// The constant-true function over `num_vars` variables.
    pub fn ones(num_vars: usize) -> Self {
        let mut t = TruthTable::zeros(num_vars);
        for w in t.words_mut() {
            *w = u64::MAX;
        }
        t.mask();
        t
    }

    /// The constant function of the given value.
    pub fn constant(num_vars: usize, value: bool) -> Self {
        if value {
            TruthTable::ones(num_vars)
        } else {
            TruthTable::zeros(num_vars)
        }
    }

    /// The projection function of variable `var` over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars` or `num_vars > 16`.
    pub fn var(num_vars: usize, var: usize) -> Self {
        assert!(var < num_vars, "variable index out of range");
        let mut t = TruthTable::zeros(num_vars);
        if var < INLINE_VARS {
            let pattern = VAR_PATTERNS[var];
            for w in t.words_mut() {
                *w = pattern;
            }
        } else {
            let period = 1usize << (var - INLINE_VARS);
            for (i, w) in t.words_mut().iter_mut().enumerate() {
                if (i / period) % 2 == 1 {
                    *w = u64::MAX;
                }
            }
        }
        t.mask();
        t
    }

    /// Builds a table from raw words (low bit of word 0 is minterm 0).
    ///
    /// # Panics
    ///
    /// Panics if the number of words does not match `num_vars`.
    pub fn from_words(num_vars: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), words_for(num_vars), "wrong number of words");
        let repr = if num_vars <= INLINE_VARS {
            Repr::Small(words[0])
        } else {
            Repr::Big(words)
        };
        let mut t = TruthTable {
            num_vars: num_vars as u8,
            repr,
        };
        t.mask();
        t
    }

    /// Builds a table over `num_vars <= 6` variables from a single word.
    pub fn from_u64(num_vars: usize, bits: u64) -> Self {
        assert!(
            num_vars <= INLINE_VARS,
            "from_u64 supports at most {INLINE_VARS} variables"
        );
        TruthTable {
            num_vars: num_vars as u8,
            repr: Repr::Small(bits & mask_for(num_vars)),
        }
    }

    /// Returns the single-word value of a table with at most six variables.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than six variables.
    #[inline]
    pub fn as_u64(&self) -> u64 {
        match self.repr {
            Repr::Small(w) => w,
            Repr::Big(_) => panic!("as_u64 requires at most {INLINE_VARS} variables"),
        }
    }

    /// Returns `true` if this table is stored inline (no heap allocation),
    /// which holds exactly when `num_vars <= 6`.
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Small(_))
    }

    /// Heap bytes this table owns: none when inline (the word lives inside
    /// the table itself), the word vector otherwise. For byte accounting of
    /// structures that hold tables.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Small(_) => 0,
            Repr::Big(v) => v.len() * 8,
        }
    }

    /// Number of input variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Number of minterms (`2^num_vars`).
    #[inline]
    pub fn num_bits(&self) -> usize {
        1 << self.num_vars
    }

    /// The raw words backing this table.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Small(w) => std::slice::from_ref(w),
            Repr::Big(v) => v,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Small(w) => std::slice::from_mut(w),
            Repr::Big(v) => v,
        }
    }

    fn mask(&mut self) {
        if let Repr::Small(w) = &mut self.repr {
            *w &= mask_for(self.num_vars as usize);
        }
    }

    /// Value of the function for the minterm `index`.
    #[inline]
    pub fn bit(&self, index: usize) -> bool {
        debug_assert!(index < self.num_bits(), "minterm index out of range");
        match &self.repr {
            Repr::Small(w) => (w >> index) & 1 == 1,
            Repr::Big(v) => (v[index >> 6] >> (index & 63)) & 1 == 1,
        }
    }

    /// Sets the value of the function for the minterm `index`.
    #[inline]
    pub fn set_bit(&mut self, index: usize, value: bool) {
        debug_assert!(index < self.num_bits(), "minterm index out of range");
        let word = &mut self.words_mut()[index >> 6];
        if value {
            *word |= 1u64 << (index & 63);
        } else {
            *word &= !(1u64 << (index & 63));
        }
    }

    /// Number of minterms where the function is true.
    pub fn count_ones(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// Returns `true` if the function is constant false.
    pub fn is_const0(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Returns `true` if the function is constant true.
    pub fn is_const1(&self) -> bool {
        self.count_ones() as usize == self.num_bits()
    }

    /// Bitwise AND of two tables over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if the tables have different numbers of variables.
    pub fn and(&self, other: &TruthTable) -> TruthTable {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR of two tables over the same variables.
    pub fn or(&self, other: &TruthTable) -> TruthTable {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR of two tables over the same variables.
    pub fn xor(&self, other: &TruthTable) -> TruthTable {
        self.zip(other, |a, b| a ^ b)
    }

    /// Complement of the function.
    pub fn not(&self) -> TruthTable {
        let mut t = match &self.repr {
            Repr::Small(w) => TruthTable {
                num_vars: self.num_vars,
                repr: Repr::Small(!w),
            },
            Repr::Big(v) => TruthTable {
                num_vars: self.num_vars,
                repr: Repr::Big(v.iter().map(|w| !w).collect()),
            },
        };
        t.mask();
        t
    }

    /// Three-input majority of three tables over the same variables.
    pub fn maj(a: &TruthTable, b: &TruthTable, c: &TruthTable) -> TruthTable {
        if let (Repr::Small(x), Repr::Small(y), Repr::Small(z)) = (&a.repr, &b.repr, &c.repr) {
            assert_eq!(a.num_vars, b.num_vars, "variable count mismatch");
            assert_eq!(a.num_vars, c.num_vars, "variable count mismatch");
            return TruthTable {
                num_vars: a.num_vars,
                repr: Repr::Small((x & y) | (x & z) | (y & z)),
            };
        }
        let ab = a.and(b);
        let ac = a.and(c);
        let bc = b.and(c);
        ab.or(&ac).or(&bc)
    }

    /// If-then-else of three tables over the same variables.
    pub fn ite(cond: &TruthTable, then: &TruthTable, els: &TruthTable) -> TruthTable {
        cond.and(then).or(&cond.not().and(els))
    }

    fn zip(&self, other: &TruthTable, op: impl Fn(u64, u64) -> u64) -> TruthTable {
        assert_eq!(self.num_vars, other.num_vars, "variable count mismatch");
        let mut t = match (&self.repr, &other.repr) {
            (Repr::Small(a), Repr::Small(b)) => TruthTable {
                num_vars: self.num_vars,
                repr: Repr::Small(op(*a, *b)),
            },
            (a, b) => {
                let (a, b) = (repr_words(a), repr_words(b));
                TruthTable {
                    num_vars: self.num_vars,
                    repr: Repr::Big(a.iter().zip(b).map(|(&x, &y)| op(x, y)).collect()),
                }
            }
        };
        t.mask();
        t
    }

    /// Negative cofactor with respect to `var` (result keeps `num_vars` vars):
    /// the `var = 0` half of the table, copied over the `var = 1` half.
    ///
    /// Runs on whole words: below six the half is masked out of each word
    /// and shifted across by `2^var` bits, from six on whole words are copied
    /// across the variable's block stride.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn cofactor0(&self, var: usize) -> TruthTable {
        self.cofactor(var, false)
    }

    /// Positive cofactor with respect to `var` (result keeps `num_vars` vars):
    /// the `var = 1` half of the table, copied over the `var = 0` half. Runs
    /// on whole words, as [`cofactor0`](TruthTable::cofactor0) does.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn cofactor1(&self, var: usize) -> TruthTable {
        self.cofactor(var, true)
    }

    fn cofactor(&self, var: usize, value: bool) -> TruthTable {
        assert!(var < self.num_vars(), "variable index out of range");
        let mut t = self.clone();
        match &mut t.repr {
            Repr::Small(w) => *w = cofactor_u64(*w, var, value),
            Repr::Big(words) if var < INLINE_VARS => {
                for w in words.iter_mut() {
                    *w = cofactor_u64(*w, var, value);
                }
            }
            Repr::Big(words) => {
                // Word `j` lies in the variable's 1-half iff bit `var - 6` of
                // `j` is set; each block of `stride` words is followed by its
                // 1-half partner.
                let stride = 1 << (var - INLINE_VARS);
                for block in words.chunks_exact_mut(2 * stride) {
                    let (low, high) = block.split_at_mut(stride);
                    if value {
                        low.copy_from_slice(high);
                    } else {
                        high.copy_from_slice(low);
                    }
                }
            }
        }
        t
    }

    /// Returns `true` if the function does not depend on `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn is_independent_of(&self, var: usize) -> bool {
        assert!(var < self.num_vars(), "variable index out of range");
        match &self.repr {
            Repr::Small(w) => independent_u64(*w, var),
            Repr::Big(words) if var < INLINE_VARS => words.iter().all(|&w| independent_u64(w, var)),
            Repr::Big(words) => {
                let stride = 1 << (var - INLINE_VARS);
                words.chunks_exact(2 * stride).all(|block| {
                    let (low, high) = block.split_at(stride);
                    low == high
                })
            }
        }
    }

    /// The set of variables the function actually depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_vars())
            .filter(|&v| !self.is_independent_of(v))
            .collect()
    }

    /// Shrinks the table onto its support, returning the reduced table and the
    /// support variables (in ascending order) it now ranges over.
    ///
    /// An inline table never leaves its word: each support variable moves
    /// down to its packed position by adjacent swaps (the remap's stretch in
    /// reverse — every slot it crosses holds a variable the function ignores),
    /// and the word is masked to the support's `2^m` bits. Wider tables walk
    /// the minterms.
    pub fn shrink_to_support(&self) -> (TruthTable, Vec<usize>) {
        let support = self.support();
        if let Repr::Small(mut w) = self.repr {
            for (new, &old) in support.iter().enumerate() {
                for p in (new..old).rev() {
                    w = swap_adjacent_u64(w, p);
                }
            }
            return (TruthTable::from_u64(support.len(), w), support);
        }
        let mut t = TruthTable::zeros(support.len());
        for i in 0..t.num_bits() {
            let mut full = 0usize;
            for (new, &old) in support.iter().enumerate() {
                if i & (1 << new) != 0 {
                    full |= 1 << old;
                }
            }
            t.set_bit(i, self.bit(full));
        }
        (t, support)
    }

    /// Re-expresses the table over `new_num_vars` variables, mapping old
    /// variable `i` onto new variable `placement[i]`.
    ///
    /// When the result fits in the inline word (`new_num_vars <= 6`) this
    /// runs the mask-doubling "stretch" algorithm — a handful of shifts/ORs
    /// per moved variable instead of a per-minterm loop (see `remap_u64`).
    /// Larger tables fall back to the generic minterm walk.
    ///
    /// # Panics
    ///
    /// Panics if a placement index is out of range or duplicated.
    pub fn remap_vars(&self, new_num_vars: usize, placement: &[usize]) -> TruthTable {
        assert_eq!(placement.len(), self.num_vars());
        let mut seen = 0u32;
        for &p in placement {
            assert!(p < new_num_vars, "placement out of range");
            assert!(seen & (1 << p) == 0, "duplicate placement");
            seen |= 1 << p;
        }
        if new_num_vars <= INLINE_VARS {
            return TruthTable::from_u64(
                new_num_vars,
                remap_u64(self.as_u64(), placement, new_num_vars),
            );
        }
        let mut t = TruthTable::zeros(new_num_vars);
        for i in 0..t.num_bits() {
            let mut old = 0usize;
            for (ov, &nv) in placement.iter().enumerate() {
                if i & (1 << nv) != 0 {
                    old |= 1 << ov;
                }
            }
            t.set_bit(i, self.bit(old));
        }
        t
    }

    /// The word of [`remap_vars`](TruthTable::remap_vars) onto
    /// `new_num_vars <= 6` variables, without building the table: callers
    /// that combine several remapped operands (cut composition) stay on
    /// machine words and build one table at the end with
    /// [`from_u64`](TruthTable::from_u64). Bits above `2^new_num_vars` are
    /// zero.
    ///
    /// The placement is checked only by debug assertions (in range,
    /// distinct), so the caller vouches for it.
    ///
    /// # Panics
    ///
    /// Panics if the table has more than six variables.
    #[inline]
    pub fn remap_word(&self, new_num_vars: usize, placement: &[usize]) -> u64 {
        debug_assert_eq!(placement.len(), self.num_vars());
        debug_assert!(placement.iter().all(|&p| p < new_num_vars));
        debug_assert!(placement
            .iter()
            .enumerate()
            .all(|(i, p)| !placement[..i].contains(p)));
        remap_u64(self.as_u64(), placement, new_num_vars)
    }

    /// Permutes the input variables: new variable `i` reads old variable
    /// `perm[i]`.
    pub fn permute(&self, perm: &[usize]) -> TruthTable {
        assert_eq!(perm.len(), self.num_vars());
        let mut t = TruthTable::zeros(self.num_vars());
        for i in 0..self.num_bits() {
            let mut old = 0usize;
            for (new_var, &old_var) in perm.iter().enumerate() {
                if i & (1 << new_var) != 0 {
                    old |= 1 << old_var;
                }
            }
            t.set_bit(i, self.bit(old));
        }
        t
    }

    /// Complements input variable `var`.
    pub fn flip_var(&self, var: usize) -> TruthTable {
        if let Repr::Small(w) = self.repr {
            let mut t = TruthTable {
                num_vars: self.num_vars,
                repr: Repr::Small(flip_u64(w, var)),
            };
            t.mask();
            return t;
        }
        let mut t = TruthTable::zeros(self.num_vars());
        for i in 0..self.num_bits() {
            t.set_bit(i, self.bit(i ^ (1 << var)));
        }
        t
    }

    /// Applies an input negation mask (bit `i` set means input `i` is
    /// complemented) and optionally complements the output.
    pub fn transform(&self, perm: &[usize], input_neg: u32, output_neg: bool) -> TruthTable {
        let mut t = self.permute(perm);
        for v in 0..self.num_vars() {
            if input_neg & (1 << v) != 0 {
                t = t.flip_var(v);
            }
        }
        if output_neg {
            t = t.not();
        }
        t
    }

    /// Hexadecimal rendering (most-significant minterm first).
    pub fn to_hex(&self) -> String {
        let digits = (self.num_bits().max(4)) / 4;
        let mut s = String::with_capacity(digits);
        for d in (0..digits).rev() {
            let mut nibble = 0u8;
            for b in 0..4 {
                let idx = d * 4 + b;
                if idx < self.num_bits() && self.bit(idx) {
                    nibble |= 1 << b;
                }
            }
            s.push(char::from_digit(nibble as u32, 16).expect("nibble < 16"));
        }
        s
    }
}

/// Projection patterns for the six inline variables: `VAR_PATTERNS[v]` has bit
/// `i` set iff bit `v` of `i` is set.
const VAR_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

fn repr_words(r: &Repr) -> &[u64] {
    match r {
        Repr::Small(w) => std::slice::from_ref(w),
        Repr::Big(v) => v,
    }
}

/// Swaps adjacent variables `v` and `v + 1` of a single-word table.
///
/// Minterms where the two variables agree stay put; minterms with
/// `(v, v+1) = (1, 0)` trade places with their `(0, 1)` counterpart, which
/// sits exactly `2^v` bit positions away. All three groups are selected with
/// masks derived from the projection patterns, so one swap is five bitwise
/// ops — no per-minterm work.
#[inline]
fn swap_adjacent_u64(t: u64, v: usize) -> u64 {
    debug_assert!(v + 1 < INLINE_VARS);
    let pv = VAR_PATTERNS[v];
    let pw = VAR_PATTERNS[v + 1];
    let shift = 1u32 << v;
    (t & !(pv ^ pw)) | ((t & (pv & !pw)) << shift) | ((t & (!pv & pw)) >> shift)
}

/// Complements variable `v` of a single-word table.
///
/// Minterms with `v = 1` trade places with their `v = 0` counterpart, which
/// sits exactly `2^v` bit positions below: two masked shifts, no per-minterm
/// work. A table over more than `v` variables stays inside its `2^num_vars`
/// bits.
#[inline]
pub(crate) fn flip_u64(t: u64, v: usize) -> u64 {
    debug_assert!(v < INLINE_VARS);
    let pv = VAR_PATTERNS[v];
    let shift = 1u32 << v;
    ((t & pv) >> shift) | ((t & !pv) << shift)
}

/// Cofactor of one word with respect to variable `v < 6`: the half with
/// `v = value` is kept and copied onto the other half, which sits exactly
/// `2^v` bit positions away. A table over more than `v` variables stays
/// inside its `2^num_vars` bits.
#[inline]
fn cofactor_u64(t: u64, v: usize, value: bool) -> u64 {
    let pv = VAR_PATTERNS[v];
    let shift = 1u32 << v;
    if value {
        let kept = t & pv;
        kept | (kept >> shift)
    } else {
        let kept = t & !pv;
        kept | (kept << shift)
    }
}

/// Whether one word's two cofactor halves with respect to `v < 6` agree:
/// the `v = 1` half, shifted down by `2^v` bits, equals the `v = 0` half.
#[inline]
fn independent_u64(t: u64, v: usize) -> bool {
    let pv = VAR_PATTERNS[v];
    (t & pv) >> (1u32 << v) == t & !pv
}

/// Remaps a single-word table onto `new_num_vars <= 6` variables, sending old
/// variable `i` to `placement[i]`. Used by the allocation-free cut hot path.
///
/// This is the mask-doubling "stretch" algorithm rather than a per-minterm
/// loop:
///
/// 1. **Stretch** — the `2^k` occupied bits are doubled up to the full word
///    (`t |= t << 2^s` for `s = k..6`), which turns every variable above the
///    current `k` into a don't-care instead of reading as constant zero.
/// 2. **Order** — if `placement` is not already increasing (it always is on
///    the cut hot path, where both leaf lists are sorted), old variables are
///    bubble-sorted by target position; each adjacent transposition is one
///    [`swap_adjacent_u64`] call.
/// 3. **Spread** — variables are moved from their packed slots to their
///    target positions from the top down; the slots crossed on the way up
///    hold only don't-care variables, so each step is again one adjacent
///    swap.
///
/// The result is masked back to `2^new_num_vars` bits. Total cost is a
/// handful of shifts/ORs per variable moved, independent of the number of
/// minterms.
#[inline]
pub(crate) fn remap_u64(table: u64, placement: &[usize], new_num_vars: usize) -> u64 {
    debug_assert!(new_num_vars <= INLINE_VARS);
    debug_assert!(placement.len() <= INLINE_VARS);
    let k = placement.len();
    // 1. Stretch: replicate the occupied span so vars k..6 become don't-care.
    let mut t = table;
    for s in k..INLINE_VARS {
        t |= t << (1u32 << s);
    }
    // 2. Order old variables by target position (no-op for monotone input).
    let mut targets = [0usize; INLINE_VARS];
    targets[..k].copy_from_slice(placement);
    for i in 1..k {
        let mut j = i;
        while j > 0 && targets[j - 1] > targets[j] {
            targets.swap(j - 1, j);
            t = swap_adjacent_u64(t, j - 1);
            j -= 1;
        }
    }
    // 3. Spread top-down: everything between a variable's packed slot and its
    //    target is a don't-care by construction.
    for ov in (0..k).rev() {
        for p in ov..targets[ov] {
            t = swap_adjacent_u64(t, p);
        }
    }
    t & mask_for(new_num_vars)
}

impl PartialEq for TruthTable {
    fn eq(&self, other: &Self) -> bool {
        self.num_vars == other.num_vars && self.words() == other.words()
    }
}

impl Eq for TruthTable {}

impl Hash for TruthTable {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num_vars.hash(state);
        self.words().hash(state);
    }
}

impl PartialOrd for TruthTable {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TruthTable {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.num_vars
            .cmp(&other.num_vars)
            .then_with(|| self.words().cmp(other.words()))
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, 0x{})", self.num_vars, self.to_hex())
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projections_have_expected_patterns() {
        let a = TruthTable::var(3, 0);
        assert_eq!(a.as_u64(), 0xAA);
        let b = TruthTable::var(3, 1);
        assert_eq!(b.as_u64(), 0xCC);
        let c = TruthTable::var(3, 2);
        assert_eq!(c.as_u64(), 0xF0);
    }

    #[test]
    fn basic_boolean_algebra() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        assert_eq!(a.and(&b).as_u64(), 0x8);
        assert_eq!(a.or(&b).as_u64(), 0xE);
        assert_eq!(a.xor(&b).as_u64(), 0x6);
        assert_eq!(a.not().as_u64(), 0x5);
    }

    #[test]
    fn majority_of_projections() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let m = TruthTable::maj(&a, &b, &c);
        assert_eq!(m.as_u64(), 0xE8);
    }

    #[test]
    fn constants_and_counting() {
        assert!(TruthTable::zeros(4).is_const0());
        assert!(TruthTable::ones(4).is_const1());
        assert_eq!(TruthTable::ones(4).count_ones(), 16);
        assert_eq!(TruthTable::var(4, 2).count_ones(), 8);
    }

    #[test]
    fn inline_representation_boundary() {
        assert!(TruthTable::zeros(0).is_inline());
        assert!(TruthTable::zeros(6).is_inline());
        assert!(!TruthTable::zeros(7).is_inline());
        assert_eq!(TruthTable::zeros(7).words().len(), 2);
        // Boolean ops preserve the representation.
        let a = TruthTable::var(6, 5);
        assert!(a.and(&a.not()).is_inline());
        let b = TruthTable::var(7, 6);
        assert!(!b.xor(&b).is_inline());
    }

    #[test]
    fn cofactors_and_support() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let f = a.and(&b);
        assert!(f.is_independent_of(2));
        assert_eq!(f.support(), vec![0, 1]);
        assert_eq!(f.cofactor1(0), b);
        assert!(f.cofactor0(0).is_const0());
    }

    #[test]
    fn independence_matches_cofactor_definition_inline() {
        // Cross-check the inline fast path against the generic definition.
        for seed in 0..50u64 {
            let w = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            for vars in 1..=6 {
                let t = TruthTable::from_u64(vars, w);
                for v in 0..vars {
                    assert_eq!(
                        t.is_independent_of(v),
                        t.cofactor0(v) == t.cofactor1(v),
                        "vars={vars} v={v} w={w:#x}"
                    );
                }
            }
        }
    }

    /// The retired per-minterm cofactors, kept as the reference semantics
    /// for the word-level masks and block copies.
    fn cofactor_reference(t: &TruthTable, var: usize, value: bool) -> TruthTable {
        let mut out = t.clone();
        for i in 0..t.num_bits() {
            if (i & (1 << var) != 0) != value {
                out.set_bit(i, t.bit(i ^ (1 << var)));
            }
        }
        out
    }

    fn assert_cofactors_match_reference(t: &TruthTable) {
        for var in 0..t.num_vars() {
            let c0 = cofactor_reference(t, var, false);
            let c1 = cofactor_reference(t, var, true);
            assert_eq!(t.cofactor0(var), c0, "cofactor0({var}) of {t:?}");
            assert_eq!(t.cofactor1(var), c1, "cofactor1({var}) of {t:?}");
            assert_eq!(t.is_independent_of(var), c0 == c1, "var {var} of {t:?}");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive; release only")]
    fn cofactors_match_reference_on_every_function_up_to_four_inputs() {
        for vars in 0..=4usize {
            for bits in 0..1u64 << (1 << vars) {
                assert_cofactors_match_reference(&TruthTable::from_u64(vars, bits));
            }
        }
    }

    #[test]
    fn cofactors_match_reference_on_sampled_five_and_six_input_functions() {
        let mut rng = crate::Prng::seed_from_u64(0x434F_4641_4354);
        for vars in [5usize, 6] {
            for _ in 0..2000 {
                assert_cofactors_match_reference(&TruthTable::from_u64(vars, rng.next_u64()));
            }
        }
    }

    #[test]
    fn cofactors_match_reference_on_heap_tables() {
        let mut rng = crate::Prng::seed_from_u64(0x4845_4150);
        for vars in 7..=10usize {
            for _ in 0..20 {
                let words = (0..1 << (vars - INLINE_VARS)).map(|_| rng.next_u64());
                let t = TruthTable::from_words(vars, words.collect());
                assert_cofactors_match_reference(&t);
                // Cofactored tables are independent of some variables, so
                // both answers of `is_independent_of` are exercised on
                // variables below and at or above six.
                let half = t.cofactor1(vars - 1).cofactor0(2);
                assert_cofactors_match_reference(&half);
                assert!(half.is_independent_of(vars - 1) && half.is_independent_of(2));
            }
        }
    }

    #[test]
    #[should_panic(expected = "variable index out of range")]
    fn cofactor0_rejects_a_variable_past_the_table() {
        TruthTable::var(3, 0).cofactor0(4);
    }

    #[test]
    #[should_panic(expected = "variable index out of range")]
    fn cofactor1_rejects_a_variable_past_the_table() {
        TruthTable::var(3, 0).cofactor1(4);
    }

    #[test]
    #[should_panic(expected = "variable index out of range")]
    fn independence_rejects_a_variable_past_the_table() {
        // Past the inline word's six projection patterns, too.
        TruthTable::var(3, 0).is_independent_of(6);
    }

    #[test]
    #[should_panic(expected = "variable index out of range")]
    fn heap_cofactors_reject_a_variable_past_the_table() {
        TruthTable::var(8, 0).cofactor1(8);
    }

    #[test]
    fn shrink_to_support_reduces_vars() {
        let a = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 3);
        let f = a.xor(&c);
        let (g, support) = f.shrink_to_support();
        assert_eq!(support, vec![1, 3]);
        assert_eq!(g.num_vars(), 2);
        assert_eq!(g.as_u64(), 0x6);
    }

    /// The retired per-minterm shrink, kept as the reference semantics for
    /// the word-level swaps of the inline path.
    fn shrink_to_support_reference(t: &TruthTable) -> (TruthTable, Vec<usize>) {
        let support = t.support();
        let mut out = TruthTable::zeros(support.len());
        for i in 0..out.num_bits() {
            let mut full = 0usize;
            for (new, &old) in support.iter().enumerate() {
                if i & (1 << new) != 0 {
                    full |= 1 << old;
                }
            }
            out.set_bit(i, t.bit(full));
        }
        (out, support)
    }

    fn assert_shrink_matches_reference(t: &TruthTable) {
        assert_eq!(
            t.shrink_to_support(),
            shrink_to_support_reference(t),
            "shrink of {t:?}"
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "exhaustive; release only")]
    fn shrink_to_support_matches_reference_on_every_function_up_to_four_inputs() {
        for vars in 0..=4usize {
            for bits in 0..1u64 << (1 << vars) {
                assert_shrink_matches_reference(&TruthTable::from_u64(vars, bits));
            }
        }
    }

    #[test]
    fn shrink_to_support_matches_reference_on_sampled_five_and_six_input_functions() {
        let mut rng = crate::Prng::seed_from_u64(0x5348_5249_4E4B);
        for vars in [5usize, 6] {
            for _ in 0..2000 {
                let t = TruthTable::from_u64(vars, rng.next_u64());
                assert_shrink_matches_reference(&t);
                // Sparse supports: cofactor random variables away so the
                // swaps have gaps to close.
                let mut sparse = t.clone();
                for v in 0..vars {
                    if rng.next_u64() & 1 == 0 {
                        sparse = sparse.cofactor0(v);
                    }
                }
                assert_shrink_matches_reference(&sparse);
            }
        }
    }

    #[test]
    fn shrink_of_a_constant_has_no_variables() {
        for vars in 0..=6usize {
            for value in [false, true] {
                let (t, support) = TruthTable::constant(vars, value).shrink_to_support();
                assert!(support.is_empty());
                assert_eq!(t, TruthTable::constant(0, value), "vars={vars}");
            }
        }
    }

    #[test]
    fn permute_and_flip() {
        let a = TruthTable::var(2, 0);
        let permuted = a.permute(&[1, 0]);
        assert_eq!(permuted, TruthTable::var(2, 1));
        let flipped = a.flip_var(0);
        assert_eq!(flipped, a.not());
    }

    #[test]
    fn flip_var_inline_matches_generic() {
        for vars in 1..=6usize {
            let w = 0xDEAD_BEEF_CAFE_F00Du64;
            let t = TruthTable::from_u64(vars, w);
            for v in 0..vars {
                let fast = t.flip_var(v);
                let mut slow = TruthTable::zeros(vars);
                for i in 0..t.num_bits() {
                    slow.set_bit(i, t.bit(i ^ (1 << v)));
                }
                assert_eq!(fast, slow, "vars={vars} v={v}");
            }
        }
    }

    #[test]
    fn remap_extends_variable_count() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let f = a.and(&b);
        let g = f.remap_vars(4, &[0, 3]);
        let a4 = TruthTable::var(4, 0);
        let b4 = TruthTable::var(4, 3);
        assert_eq!(g, a4.and(&b4));
    }

    /// The retired per-minterm remap, kept as the reference semantics for the
    /// mask-doubling stretch implementation.
    fn remap_u64_reference(table: u64, placement: &[usize], new_num_vars: usize) -> u64 {
        let mut out = 0u64;
        for m in 0..(1usize << new_num_vars) {
            let mut old = 0usize;
            for (ov, &nv) in placement.iter().enumerate() {
                old |= (m >> nv & 1) << ov;
            }
            out |= ((table >> old) & 1) << m;
        }
        out
    }

    #[test]
    fn stretch_remap_matches_per_minterm_reference() {
        // Exhaustive placements for small k, pseudo-random tables; covers
        // monotone (the cut hot path), permuted, and spread placements.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for new_vars in 0..=6usize {
            for k in 0..=new_vars {
                // Walk a spread of placements: all increasing ones for small
                // sizes plus permutations thereof.
                let mut combos: Vec<Vec<usize>> = vec![Vec::new()];
                for _ in 0..k {
                    combos = combos
                        .into_iter()
                        .flat_map(|c| {
                            let lo = c.last().map_or(0, |&l| l + 1);
                            (lo..new_vars).map(move |v| {
                                let mut c = c.clone();
                                c.push(v);
                                c
                            })
                        })
                        .collect();
                }
                for c in combos {
                    let mut perms = vec![c.clone()];
                    let mut rev = c.clone();
                    rev.reverse();
                    perms.push(rev);
                    if c.len() >= 3 {
                        let mut rot = c.clone();
                        rot.rotate_left(1);
                        perms.push(rot);
                    }
                    for p in perms {
                        let table = next() & mask_for(k);
                        assert_eq!(
                            remap_u64(table, &p, new_vars),
                            remap_u64_reference(table, &p, new_vars),
                            "table={table:#x} placement={p:?} new_vars={new_vars}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn remap_into_wide_table() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let f = a.xor(&b);
        let g = f.remap_vars(8, &[2, 7]);
        assert_eq!(g, TruthTable::var(8, 2).xor(&TruthTable::var(8, 7)));
    }

    #[test]
    fn large_tables_work() {
        let f = TruthTable::var(8, 7);
        assert_eq!(f.count_ones(), 128);
        assert_eq!(f.words().len(), 4);
        let g = f.xor(&TruthTable::var(8, 0));
        assert_eq!(g.count_ones(), 128);
    }

    #[test]
    fn hex_round_trip_display() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        assert_eq!(a.and(&b).to_hex(), "8");
        assert_eq!(TruthTable::var(3, 2).to_hex(), "f0");
    }

    #[test]
    fn ite_matches_mux_semantics() {
        let s = TruthTable::var(3, 0);
        let t = TruthTable::var(3, 1);
        let e = TruthTable::var(3, 2);
        let f = TruthTable::ite(&s, &t, &e);
        for i in 0..8 {
            let sel = i & 1 != 0;
            let expect = if sel { (i >> 1) & 1 != 0 } else { (i >> 2) & 1 != 0 };
            assert_eq!(f.bit(i), expect);
        }
    }

    #[test]
    fn ordering_is_consistent_across_representations() {
        let small = TruthTable::from_u64(6, 5);
        let big = TruthTable::zeros(7);
        assert!(small < big, "fewer variables order first");
        assert_eq!(small.cmp(&small.clone()), std::cmp::Ordering::Equal);
    }
}
