//! A fixed reference kernel that measures how fast the host runs, sampled
//! between the program's own steps.
//!
//! A shared host's speed drifts: the clock follows the load of the whole
//! socket and neighbours contend for the core, so the same code takes up
//! to twice as long from one minute to the next, and swings by a tenth
//! within a second. The drift is the same for any code on the core at the
//! time, but not across cores. So the benchmark runs short slices of this
//! kernel on the measuring thread, between the simulation's virtual-time
//! windows, and counts the program's CPU time in slices: that ratio
//! cancels what the two share. On a 2-vCPU VM of a shared Xeon host, the
//! program's and the slices' CPU time per repetition of `steady`
//! correlate at 0.92, and the ratio spreads 0.4 as much as the raw time.
//!
//! The kernel does the kind of work a discrete-event simulator does (an
//! ordered map of small heap objects, a binary-heap event queue, hashing,
//! allocation and frees). It uses only the standard library and no code
//! of the program, so a change to the program cannot move it.

use crate::cpu;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Duration;

/// Kernel operations per slice.
const SLICE_OPS: u64 = 3_000;

/// Keys the kernel draws from; sets its working set (well inside L2).
const KEYS: u64 = 1 << 12;

/// A slice's nominal CPU time, close to what it takes on a 2.1 GHz Xeon
/// (Emerald Rapids) core: program time that equals `n` slices counts as
/// `n` × this on the reference clock.
pub const NOMINAL_SLICE: Duration = Duration::from_micros(1_400);

/// One slice of the kernel; the value only keeps the work observable.
fn kernel() -> u64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut index: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut queue = BinaryHeap::new();
    let mut acc = 0u64;
    for tick in 0..SLICE_OPS {
        let key = next() % KEYS;
        match map.get_mut(&key) {
            Some(v) if v.len() > 6 => {
                acc = acc.wrapping_add(v.iter().map(|&x| x as u64).sum::<u64>());
                map.remove(&key);
                index.remove(&key);
            }
            Some(v) => v.push(tick as u32),
            None => {
                map.insert(key, vec![tick as u32; (key % 5 + 1) as usize]);
                index.insert(key, tick);
            }
        }
        queue.push(std::cmp::Reverse((tick + next() % 64, key)));
        while let Some(std::cmp::Reverse((due, k))) = queue.peek().copied() {
            if due > tick {
                break;
            }
            queue.pop();
            acc ^= index.get(&k).copied().unwrap_or(due);
        }
    }
    acc ^ map.len() as u64
}

/// Kernel slices run during one measured stretch, and their CPU time.
pub struct Slices {
    enabled: bool,
    cpu: Duration,
    count: u32,
}

impl Slices {
    /// Slices that run when asked.
    pub fn new() -> Self {
        Slices {
            enabled: true,
            cpu: Duration::ZERO,
            count: 0,
        }
    }

    /// Slices that never run: drives that are not timed share the code.
    pub fn disabled() -> Self {
        Slices {
            enabled: false,
            ..Slices::new()
        }
    }

    /// Run `n` slices, if enabled.
    pub fn run(&mut self, n: u32) {
        if !self.enabled {
            return;
        }
        for _ in 0..n {
            let (_, cpu) = cpu::timed(|| std::hint::black_box(kernel()));
            self.cpu += cpu;
            self.count += 1;
        }
    }

    /// CPU time the slices took.
    pub fn cpu(&self) -> Duration {
        self.cpu
    }

    /// Mean CPU time of one slice; `None` before any ran.
    pub fn mean(&self) -> Option<Duration> {
        (self.count > 0).then(|| self.cpu / self.count)
    }

    /// `program` CPU time on the reference clock, in seconds: the number
    /// of slices it equals, times [`NOMINAL_SLICE`].
    pub fn reference_seconds(&self, program: Duration) -> f64 {
        let slice = self.mean().expect("slices ran").as_secs_f64();
        program.as_secs_f64() / slice * NOMINAL_SLICE.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn slices_count_their_own_time_only_when_enabled() {
        let mut off = Slices::disabled();
        off.run(3);
        assert_eq!((off.cpu(), off.mean()), (Duration::ZERO, None));

        let mut on = Slices::new();
        on.run(4);
        let slice = on.mean().expect("four slices");
        assert!(slice > Duration::ZERO && on.cpu() >= slice * 4);
        let eight = on.reference_seconds(slice * 8);
        assert!((eight - 8.0 * NOMINAL_SLICE.as_secs_f64()).abs() < 1e-9);
    }
}
