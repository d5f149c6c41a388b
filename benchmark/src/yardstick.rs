//! The yardstick: a fixed computation the benchmark owns, timed right
//! before and right after everything the harness times, so that a host
//! that runs slower for a while does not read as a slower program.
//!
//! This container is a few cores of a shared host. A pure-CPU loop here
//! takes anywhere from 0.65x to 1.4x its median time, in stretches that
//! last tens of seconds to minutes (measured: the quartiles of ten-second
//! medians lay 20 % apart, and neither minima nor low percentiles did
//! better). Every wall time behind an end-to-end metric is therefore
//! multiplied by the host's speed while it was taken,
//! `NOMINAL_CHUNK_S / (mean yardstick chunk before and after)`: it reads
//! as seconds on a host on which a chunk takes [`NOMINAL_CHUNK_S`], which
//! is what it takes on this container on average. The yardstick never
//! changes with the repository's code, so a faster program still reads
//! faster by exactly its gain; the readings are kept in `report.json`
//! (`host_speed`), so the raw seconds can be had back.
//!
//! The mix - floating point over a table that overflows the L2 cache, a
//! binary heap, number formatting - is the simulator's own: forecast
//! tables, event queues, TSV/JSON rendering. It touches no file: file
//! writes on this host vary by a factor of two on their own (see
//! `workloads/resume.rs`) and would make the yardstick the noisier side.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::time::Instant;

/// What one chunk takes on the host the numbers are quoted for: this
/// container's mean over a few thousand chunks taken between repetitions.
pub const NOMINAL_CHUNK_S: f64 = 0.0085;

/// Chunks per reading (about 75 ms): long enough that one preempted
/// chunk does not decide the reading, short enough to cost a repetition
/// of a second less than a tenth.
const CHUNKS: usize = 8;

const TABLE: usize = 1 << 18; // 2 MiB of f64
const HEAP_OPS: usize = 60_000;
const LINES: usize = 12_000;

pub struct Yardstick {
    table: Vec<f64>,
    heap: BinaryHeap<Reverse<u64>>,
    text: String,
    state: u64,
}

impl Yardstick {
    pub fn new() -> Self {
        Yardstick {
            table: (0..TABLE).map(|i| 1.0 + (i % 97) as f64 / 97.0).collect(),
            heap: BinaryHeap::with_capacity(HEAP_OPS),
            text: String::with_capacity(LINES * 24),
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Mean seconds per chunk over one reading.
    pub fn reading(&mut self) -> f64 {
        (0..CHUNKS).map(|_| self.chunk()).sum::<f64>() / CHUNKS as f64
    }

    fn next(&mut self) -> u64 {
        // xorshift64
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Run one chunk; seconds it took.
    fn chunk(&mut self) -> f64 {
        let t0 = Instant::now();

        // Floating point: one streaming pass with a gather, the shape of a
        // forecast-table evolve step.
        let mask = TABLE - 1;
        let mut acc = 0.0f64;
        for i in 0..TABLE {
            let j = (i.wrapping_mul(2_654_435_761)) & mask;
            let v = self.table[i] * 0.999 + self.table[j] * 0.001;
            self.table[i] = v;
            acc += v.sqrt();
        }

        // A timer queue: push two, pop one, then drain.
        for _ in 0..HEAP_OPS {
            let (a, b) = (self.next(), self.next());
            self.heap.push(Reverse(a >> 20));
            self.heap.push(Reverse(b >> 20));
            acc += self.heap.pop().map_or(0, |Reverse(k)| k & 1) as f64;
        }
        self.heap.clear();

        // Rendering: numbers to text.
        self.text.clear();
        for i in 0..LINES {
            let x = self.table[(i * 37) & mask];
            let _ = writeln!(self.text, "{:.6}\t{:.3}\t{}", x, x * 1e3, i);
        }

        std::hint::black_box((acc, self.text.len()));
        t0.elapsed().as_secs_f64()
    }
}

/// The host's speed between two readings: 1 at the nominal host, below 1
/// on a slower one. A wall time multiplied by it is in nominal seconds.
pub fn host_speed(before: f64, after: f64) -> f64 {
    NOMINAL_CHUNK_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_shortens_nominal_seconds() {
        assert_eq!(host_speed(NOMINAL_CHUNK_S, NOMINAL_CHUNK_S), 1.0);
        // Chunks take twice as long: the host runs at half speed, so two
        // wall seconds are one nominal second.
        assert_eq!(
            2.0 * host_speed(2.0 * NOMINAL_CHUNK_S, 2.0 * NOMINAL_CHUNK_S),
            1.0
        );
    }

    #[test]
    fn readings_repeat_the_same_work() {
        let mut yard = Yardstick::new();
        let (a, b) = (yard.reading(), yard.reading());
        assert!(a > 0.0 && b > 0.0);
        assert!(yard.heap.is_empty());
        assert_eq!(yard.text.lines().count(), LINES);
    }
}
