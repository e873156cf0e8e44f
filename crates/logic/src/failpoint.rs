//! Deterministic, seeded fault injection for chaos testing.
//!
//! This module only exists when the `fault-injection` feature is enabled; in
//! normal builds the [`failpoint!`](crate::failpoint!) macro expands to
//! nothing, so instrumented sites cost zero cycles and zero code size.
//!
//! A *failpoint* is a named site in the pipeline (`"pool::dispatch"`,
//! `"npn::commit"`, …). When the registry is armed, every passage through a
//! site increments that site's hit counter and decides — purely from the
//! `(seed, name, hit index)` triple — whether to panic with a recognisable
//! `fault injected: …` payload. Because the decision depends only on how many
//! times *that* name has fired and not on global interleaving, the **set** of
//! firing `(name, k)` pairs is identical across thread schedules, which is
//! what makes chaos runs reproducible.
//!
//! Two arming modes:
//!
//! * [`arm`] — probabilistic: each `(name, k)` fires when a splitmix-style
//!   hash of the triple falls below `density`.
//! * [`arm_exact`] — surgical: fire exactly at the listed hit indices of one
//!   named site, leaving every other site untouched.

// Text keys from outside: site names arrive as strings from test schedules.
#![allow(clippy::disallowed_types)]

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, PoisonError};

/// The payload prefix of every injected panic; tests and panic hooks use it
/// to distinguish injected faults from genuine bugs.
pub const PANIC_PREFIX: &str = "fault injected";

enum Mode {
    Disarmed,
    /// Fire `(name, k)` when `hash(seed, name, k)` maps below `density`.
    Seeded { seed: u64, density: f64 },
    /// Fire only the listed hit indices (0-based) of one named site.
    Exact { name: String, indices: Vec<u64> },
}

struct Registry {
    mode: Mode,
    hits: HashMap<String, u64>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            mode: Mode::Disarmed,
            hits: HashMap::new(),
        })
    })
}

/// splitmix64 finalizer — a cheap, high-quality bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn triple_hash(seed: u64, name: &str, k: u64) -> u64 {
    let mut h = mix(seed);
    for b in name.as_bytes() {
        h = mix(h ^ u64::from(*b));
    }
    mix(h ^ k)
}

/// Arm every failpoint probabilistically: the `k`-th passage through site
/// `name` panics when `hash(seed, name, k)` falls below `density` (0.0 never,
/// 1.0 always). Resets all hit counters.
pub fn arm(seed: u64, density: f64) {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.mode = Mode::Seeded { seed, density };
    reg.hits.clear();
}

/// Arm exactly the listed 0-based hit indices of one named site; all other
/// sites stay inert. Resets all hit counters.
pub fn arm_exact(name: &str, indices: &[u64]) {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.mode = Mode::Exact {
        name: name.to_string(),
        indices: indices.to_vec(),
    };
    reg.hits.clear();
}

/// Disarm all failpoints and clear hit counters.
pub fn disarm() {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.mode = Mode::Disarmed;
    reg.hits.clear();
}

/// How many times site `name` has been passed since the last (re)arm.
pub fn hit_count(name: &str) -> u64 {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.hits.get(name).copied().unwrap_or(0)
}

/// Record a passage through site `name` and panic if the armed schedule says
/// this `(name, k)` pair fires. The registry lock is released *before* the
/// panic so the registry itself can never be poisoned by its own faults.
pub fn hit(name: &str) {
    let fire = {
        let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
        let k = reg.hits.entry(name.to_string()).or_insert(0);
        let this = *k;
        *k += 1;
        match &reg.mode {
            Mode::Disarmed => None,
            Mode::Seeded { seed, density } => {
                let h = triple_hash(*seed, name, this);
                // Top 53 bits → uniform in [0, 1).
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                (u < *density).then_some(this)
            }
            Mode::Exact {
                name: armed,
                indices,
            } => (armed == name && indices.contains(&this)).then_some(this),
        }
    };
    if let Some(k) = fire {
        panic!("{PANIC_PREFIX}: {name} (hit {k})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedule_is_deterministic() {
        assert_eq!(triple_hash(7, "a", 0), triple_hash(7, "a", 0));
        assert_ne!(triple_hash(7, "a", 0), triple_hash(7, "a", 1));
        assert_ne!(triple_hash(7, "a", 0), triple_hash(8, "a", 0));
        assert_ne!(triple_hash(7, "a", 0), triple_hash(7, "b", 0));
    }
}
