//! Host-speed calibration.
//!
//! The machine this benchmark was built on shares its memory system with
//! other tenants: the same work runs a third faster or slower from one
//! minute to the next, and a run's setup builds slow down with it, while
//! an ALU-only loop stays within a few percent. A fixed loop in this
//! crate that leans on the allocator and a pointer-heavy map, as the
//! simulator does, slows down with the host too. Each repetition times
//! it before and after its work, and the untraced pass reports host
//! seconds scaled to a host on which the loop takes [`REFERENCE_S`]. The
//! loop is not program code, so the scaling cancels the neighbours,
//! never a change to the program.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The calibration loop's host time on the reference host: seconds
/// reported by the untraced pass are seconds of that host.
pub const REFERENCE_S: f64 = 0.07;

/// Map operations per calibration.
const OPS: u64 = 60_000;
/// Key space of the calibration map.
const KEYS: u64 = 4_000_000;

/// Runs the calibration loop once and returns its host seconds.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0usize;
    for i in 0..OPS {
        // xorshift64: a fixed key sequence.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % KEYS, vec![i; (x % 8) as usize + 1]);
        acc += map.get(&((x >> 20) % KEYS)).map_or(0, Vec::len);
        if i % 3 == 0 {
            map.remove(&((x >> 7) % KEYS));
        }
        acc += format!("{i}-{x}").len();
    }
    black_box((acc, map));
    t0.elapsed().as_secs_f64()
}
