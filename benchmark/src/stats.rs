//! Order statistics, timing loops and the text fingerprint.

use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// The `q` quantile (0..=1) of `values`, by linear interpolation.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The reading reported for one piece of work repeated unchanged: its
/// fastest repetition. What slows a repetition down on a shared machine is
/// other tenants, which only ever adds time and can last for minutes; across
/// runs the minimum is the steadier reading (see the README's statistics).
/// Distributions over different operations (ticks, windows, catch-up rounds
/// with their protocol races) are reported by their median.
pub fn best(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// Seconds one call of `f` takes: repeats for `budget` (at least `min`
/// samples, at most `max`) and returns every sample, each also recorded as a
/// span called `name`. A call shorter than the clock can resolve well is
/// sampled as a batch of calls divided by its size, so no reading is
/// quantised to the timer's tick; the first call sizes the batch and counts
/// as a sample only when the batch is one call.
pub fn time_calls(
    tracer: &mut Tracer,
    name: &'static str,
    budget: Duration,
    min: usize,
    max: usize,
    mut f: impl FnMut(),
) -> Vec<f64> {
    const BATCH_FLOOR: Duration = Duration::from_micros(200);
    let start = Instant::now();
    f();
    let first = Instant::now();
    let mut samples = Vec::new();
    let batch = (BATCH_FLOOR.as_nanos() / (first - start).as_nanos().max(1)) as usize + 1;
    if batch == 1 {
        tracer.sample(name, 0, start, first);
        samples.push((first - start).as_secs_f64());
    }
    while samples.len() < max && (samples.len() < min || start.elapsed() < budget) {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        let end = Instant::now();
        tracer.sample(name, samples.len(), t, end);
        samples.push((end - t).as_secs_f64() / batch as f64);
    }
    samples
}

/// FNV-1a, 64 bit: the fingerprint pinned for every workload's final text.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
