//! A fixed reference computation timed beside the operations.
//!
//! The host's speed drifts by a third or more over a few seconds on a
//! shared 2-core VM, and the drift moves every timing of a run together.
//! Dividing each operation's time by the reference time measured near it
//! cancels that drift: the quotient is the operation's cost in reference
//! units, which only a change to the program can move. The reference mixes
//! the kinds of work the layers do — branchy sorting, hashing a buffer that
//! overflows the L2 cache, dependent loads over main memory, and small
//! allocations with formatting — because no single kind tracked every
//! workload.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const WORDS: usize = 1 << 20;

fn buffers() -> &'static (Vec<u8>, Vec<u64>) {
    static BUFFERS: OnceLock<(Vec<u8>, Vec<u64>)> = OnceLock::new();
    BUFFERS.get_or_init(|| {
        let bytes = (0..512u32 << 10).map(|i| (i * 7) as u8).collect();
        let words = (0..WORDS as u64).collect();
        (bytes, words)
    })
}

/// Times one run of the reference computation, in milliseconds.
pub fn reference_ms() -> f64 {
    let (bytes, words) = buffers();
    let t0 = Instant::now();

    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<u64> = (0..8_192)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in black_box(&v) {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in black_box(bytes).iter().step_by(2) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    let mut i = 0usize;
    for _ in 0..4_096 {
        h = h.wrapping_add(black_box(words[i]));
        i = (i
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(h as usize | 1))
            & (WORDS - 1);
    }

    let lines: Vec<String> = (0..3_000)
        .map(|i| format!("{{\"i\":{i},\"h\":{}}}", i * 31))
        .collect();
    h = h.wrapping_add(lines.iter().map(|s| s.len() as u64).sum::<u64>());

    black_box(h);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The reference computation's time on an unloaded 2-vCPU x86-64 VM.
const NOMINAL_MS: f64 = 1.8;

/// `seconds` measured while the reference took `reference_ms`, rescaled
/// to the speed at which the reference takes [`NOMINAL_MS`]: still seconds,
/// but a host speed swing during the measurement no longer moves them.
pub fn at_nominal_speed(seconds: f64, reference_ms: f64) -> f64 {
    seconds * NOMINAL_MS / reference_ms
}

/// Latest reference timings. Their median is the divisor, so one
/// interrupted reference run does not skew an operation.
#[derive(Default)]
pub struct Reference {
    recent: Vec<f64>,
    next: usize,
    last: Option<Instant>,
}

const WINDOW: usize = 5;

/// Minimum time between reference runs, so short operations do not spend
/// most of a run on the reference.
const EVERY: Duration = Duration::from_millis(50);

impl Reference {
    fn sample(&mut self) -> f64 {
        let r = reference_ms();
        if self.recent.len() < WINDOW {
            self.recent.push(r);
        } else {
            self.recent[self.next] = r;
            self.next = (self.next + 1) % WINDOW;
        }
        self.last = Some(Instant::now());
        r
    }

    /// Call before an operation: measures the reference again if it is
    /// due, and returns the divisor for a short operation.
    pub fn before(&mut self) -> f64 {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample();
        }
        crate::stats::median(&self.recent)
    }

    /// Call after an operation of `ms` that was given `before`: an
    /// operation long enough for the host's speed to move while it ran is
    /// divided by the mean of the reference just before and just after it.
    pub fn after(&mut self, ms: f64, before: f64) -> f64 {
        if ms < EVERY.as_secs_f64() * 1e3 {
            return before;
        }
        let prior = self.recent[(self.next + self.recent.len() - 1) % self.recent.len()];
        (prior + self.sample()) / 2.0
    }
}
