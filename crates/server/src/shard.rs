//! Document → worker placement.
//!
//! Shard affinity is the load-bearing invariant of the whole host: every
//! operation touching a document — local edits, digest scans, bundle
//! extraction, remote-bundle integration — runs on the one worker thread
//! that owns the document's `Replica` entry. That keeps each document's
//! merge path exactly as single-threaded as the paper assumes (merge cost
//! bounded by the concurrent region, PR-6 reused trackers, zero-alloc
//! steady state) while independent documents ride on every core.
//!
//! The map must be *stable* (same doc → same worker for the lifetime of a
//! host, or edits would race their own history) and *uniform* (zipfian
//! workloads already concentrate load; a weak hash would pile hot docs
//! onto one worker). `DocId`s are dense small integers in practice, so we
//! run them through the splitmix64 finalizer — a full-avalanche bijection
//! — before reducing modulo the worker count.

use eg_sync::DocId;

/// Full-avalanche 64-bit mix (the splitmix64 finalizer). Bijective, so
/// distinct documents never collide before the modulo.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The worker index owning `doc` in a pool of `workers` threads.
///
/// Stable for a given `(doc, workers)` pair across runs and platforms;
/// changing the worker count re-shards everything, which is why
/// [`crate::ServerHost`] fixes the pool size at construction.
#[inline]
pub(crate) fn shard_for(doc: DocId, workers: usize) -> usize {
    debug_assert!(workers > 0);
    (mix64(doc.0) % workers as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_stable() {
        for w in [1, 2, 4, 8] {
            for d in 0..256u64 {
                assert_eq!(shard_for(DocId(d), w), shard_for(DocId(d), w));
                assert!(shard_for(DocId(d), w) < w);
            }
        }
    }

    #[test]
    fn one_worker_owns_everything() {
        for d in 0..1024u64 {
            assert_eq!(shard_for(DocId(d), 1), 0);
        }
    }

    /// Dense doc ids must spread evenly: with 4 workers over 4096 docs a
    /// uniform hash puts ~1024 on each; allow ±15%.
    #[test]
    fn dense_ids_spread_uniformly() {
        let workers = 4;
        let mut counts = [0usize; 4];
        for d in 0..4096u64 {
            counts[shard_for(DocId(d), workers)] += 1;
        }
        for &c in &counts {
            assert!((871..=1177).contains(&c), "skewed shard map: {counts:?}");
        }
    }

    #[test]
    fn mix_is_not_identity_on_small_ints() {
        // The whole point over `doc % workers`: consecutive ids land on
        // unpredictable workers, so hot ranges don't stripe.
        let seq: Vec<usize> = (0..8).map(|d| shard_for(DocId(d), 8)).collect();
        assert_ne!(seq, (0..8).collect::<Vec<_>>());
    }
}
