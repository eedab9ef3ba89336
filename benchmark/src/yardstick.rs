//! A fixed kernel that measures how fast the host is right now, so that
//! op latencies can be reported in units of it.
//!
//! On a shared host the same op can take 1.6× longer for seconds or
//! minutes at a time while neighbours contend for the core and the memory
//! system, so the wall-clock median of a 15-second run moved by 15–25 %
//! from one run to the next. Timed just before each op, this kernel
//! (hashing, branches, a sort and random writes over a 16 MiB table) slows
//! down in the same spells, and op latency divided by its time moved by
//! 2–13 % instead (measured on a shared 2-vCPU Xeon VM; timing it only
//! every 50 ms tracked the spells about half as well). Each op therefore
//! starts with caches the kernel has just swept. The kernel belongs to the
//! benchmark, so no change to the program can speed it up.

use std::collections::HashMap;
use std::time::Instant;

/// Table size: well past the per-core L2, like the ops' data.
const WORDS: usize = 1 << 21;
const UPDATES: usize = 50_000;
const KEYS: usize = 20_000;

/// The kernel's time on an uncontended 2-vCPU Xeon VM, which converts
/// yardstick units back to seconds for `setup_s`.
pub const NOMINAL_MS: f64 = 1.5;

pub struct Yardstick {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Yardstick {
    pub fn new() -> Self {
        Yardstick {
            table: vec![1; WORDS],
            samples: Vec::new(),
        }
    }

    /// Bytes the kernel's table keeps resident.
    pub fn resident_mb() -> f64 {
        (WORDS * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Runs the kernel once and returns its time in milliseconds.
    pub fn ms(&mut self) -> f64 {
        let started = Instant::now();
        std::hint::black_box(self.kernel());
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.samples.push(ms);
        ms
    }

    /// The median of `n` kernel times, milliseconds.
    pub fn ms_median(&mut self, n: usize) -> f64 {
        let mut times: Vec<f64> = (0..n).map(|_| self.ms()).collect();
        crate::median(&mut times)
    }

    /// Every kernel time taken so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Hash-map inserts and lookups, data-dependent branches, a sort, and
    /// random read-modify-writes over the table: the kinds of work the
    /// ops do, so that contention for any of them shows in its time.
    fn kernel(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut map = HashMap::with_capacity(KEYS);
        let mut values = Vec::with_capacity(KEYS);
        for i in 0..KEYS {
            let r = next();
            map.insert(r & 0xF_FFFF, i as u64);
            values.push(r % 1000);
        }
        let mut acc = 0u64;
        for v in &values {
            if let Some(y) = map.get(&(next() & 0xF_FFFF)) {
                acc = acc.wrapping_add(*y);
            }
            acc = if v & 1 == 0 {
                acc ^ v
            } else {
                acc.wrapping_mul(3)
            };
        }
        values.sort_unstable();
        let mask = self.table.len() - 1;
        for i in 0..UPDATES {
            let r = next();
            let j = (r as usize) & mask;
            self.table[j] = self.table[j].wrapping_mul(31).wrapping_add(r ^ i as u64);
        }
        acc ^ values[KEYS / 2]
    }
}
