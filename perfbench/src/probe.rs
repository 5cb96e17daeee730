//! The host-speed probe: a fixed piece of work that shares no code with
//! the program, run on [`THREADS`] threads at once.
//!
//! The reference host is a 2-vCPU VM whose speed drifts by up to 2× over
//! minutes, with little hypervisor steal to show for it. A probe taken
//! before and after each timed call tells how fast the host ran around
//! it, so every gated time and rate can be quoted at one reference speed
//! ([`scale`]). The probe's mix follows the program's: hashing into maps,
//! rendering and scanning text, and sorting. Its buffers are allocated
//! before the clock starts, so page faults and the allocator stay out
//! of it.

use crate::batch::THREADS;
use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Barrier;
use std::time::Instant;

/// Rounds per measurement.
pub const REPS: usize = 5;

/// The probe's time on the reference host, seconds: the speed every
/// gated time and rate is quoted at.
pub const REFERENCE_S: f64 = 0.004;

/// How much slower than the reference the host ran, from a probe time:
/// 1 at the reference speed, 2 at half of it. A rate measured at scale
/// `k` is quoted as `rate · k`, a time as `time / k`.
pub fn scale(probe_s: f64) -> f64 {
    probe_s / REFERENCE_S
}

/// One thread's buffers, allocated once per measurement.
struct Buffers {
    map: HashMap<u64, u64>,
    text: String,
    sorted: Vec<u64>,
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

impl Buffers {
    fn new() -> Buffers {
        Buffers {
            map: HashMap::with_capacity(8_192),
            text: String::with_capacity(1 << 18),
            sorted: Vec::with_capacity(30_000),
        }
    }

    /// The timed work. Returns a checksum so none of it can be dropped.
    fn work(&mut self, thread: u64) -> u64 {
        let mut next = xorshift(thread);
        let mut sum = 0u64;
        self.map.clear();
        for _ in 0..40_000 {
            *self.map.entry(next() % 6_000).or_insert(0) += 1;
        }
        for _ in 0..40_000 {
            sum = sum.wrapping_add(*self.map.get(&(next() % 8_000)).unwrap_or(&0));
        }
        self.text.clear();
        for i in 0..4_000u64 {
            let v = next();
            let _ = writeln!(
                self.text,
                "neighbor 10.{}.{}.{} remote-as {}",
                i % 250,
                v % 250,
                (v >> 8) % 250,
                v % 65_000
            );
        }
        for line in self.text.lines() {
            if let Some(asn) = line.rsplit(' ').next().and_then(|t| t.parse::<u64>().ok()) {
                sum = sum.wrapping_add(asn);
            }
        }
        self.sorted.clear();
        self.sorted.extend((0..30_000).map(|_| next()));
        self.sorted.sort_unstable();
        sum.wrapping_add(self.sorted[15_000])
    }
}

/// Median wall seconds one thread's work takes, over [`REPS`] rounds in
/// which [`THREADS`] threads work at once (so they contend for the
/// machine as the workload's workers do).
pub fn measure() -> f64 {
    let start = Barrier::new(THREADS);
    let runs: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let start = &start;
                s.spawn(move || {
                    let mut b = Buffers::new();
                    (0..REPS)
                        .map(|_| {
                            start.wait();
                            let t0 = Instant::now();
                            std::hint::black_box(b.work(t));
                            t0.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe thread"))
            .collect()
    });
    crate::stats::median(&runs).expect("REPS > 0")
}
