//! [`Backoff`]: the reconnect retry policy — capped exponential delay
//! with deterministic jitter.
//!
//! Every failed dial doubles the delay up to a cap; a deterministic
//! jitter (SplitMix64 over `seed ^ attempt`) spreads reconnect storms
//! without making runs irreproducible: the same seed and attempt number
//! always yield the same delay, so fault-schedule replays are exact.
//!
//! | attempt | base 50ms, cap 5s (jitter ∈ [½·delay, delay]) |
//! |--------:|-----------------------------------------------|
//! | 0       | 25–50 ms                                      |
//! | 1       | 50–100 ms                                     |
//! | 2       | 100–200 ms                                    |
//! | 4       | 400–800 ms                                    |
//! | 7+      | 2.5–5 s (capped)                              |

use std::time::Duration;

/// SplitMix64: a tiny, well-mixed 64-bit hash used as the jitter source.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Capped exponential backoff with deterministic "equal jitter": each
/// delay is drawn from `[½·delay, delay]` where `delay = min(cap, base ·
/// 2^attempt)`.
#[derive(Debug, Clone)]
pub(crate) struct Backoff {
    base: Duration,
    cap: Duration,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// A policy starting at `base`, doubling per attempt, capped at
    /// `cap`, jittered deterministically from `seed`.
    pub(crate) fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base: base.max(Duration::from_millis(1)),
            cap: cap.max(base),
            seed,
            attempt: 0,
        }
    }

    /// The delay before the next dial, advancing the attempt counter.
    pub(crate) fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(20);
        let raw = self.base.saturating_mul(1u32 << exp.min(31)).min(self.cap);
        self.attempt = self.attempt.saturating_add(1);
        let raw_ms = raw.as_millis() as u64;
        let half = (raw_ms / 2).max(1);
        let jitter = splitmix64(self.seed ^ u64::from(self.attempt)) % half;
        Duration::from_millis(raw_ms - jitter)
    }

    /// Called after a successful handshake: the next failure starts the
    /// ladder over from `base`.
    pub(crate) fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let mut b = Backoff::new(Duration::from_millis(50), Duration::from_secs(5), 7);
        let delays: Vec<Duration> = (0..12).map(|_| b.next_delay()).collect();
        // Each delay sits in (0, cap]; the deterministic upper envelope
        // doubles until the cap.
        for (i, d) in delays.iter().enumerate() {
            let ceiling =
                Duration::from_millis(50 * (1u64 << i.min(7))).min(Duration::from_secs(5));
            assert!(*d <= ceiling, "attempt {i}: {d:?} > {ceiling:?}");
            assert!(
                *d >= ceiling / 2,
                "attempt {i}: {d:?} < half of {ceiling:?}"
            );
        }
        assert!(delays[11] >= Duration::from_millis(2500));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut b = Backoff::new(Duration::from_millis(10), Duration::from_secs(1), seed);
            (0..8).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn reset_restarts_the_ladder() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_secs(1), 3);
        for _ in 0..6 {
            b.next_delay();
        }
        assert_eq!(b.attempt, 6);
        b.reset();
        assert_eq!(b.attempt, 0);
        assert!(b.next_delay() <= Duration::from_millis(10));
    }
}
