//! Run-length-encoding primitives for the Eg-walker suite.
//!
//! Everything in an editing history is bursty: people type runs of
//! consecutive characters, delete runs of consecutive characters, and events
//! are usually parented on their immediate predecessor. Every data structure
//! in this repository therefore stores *spans* (runs) rather than individual
//! items, and this crate defines the vocabulary those structures share:
//!
//! * [`HasLength`], [`SplitableSpan`] and [`MergableSpan`] — the span traits.
//! * [`DTRange`] — a half-open `usize` range with span semantics.
//! * [`RleRun`] — a generic `(value, length)` run.
//! * [`KVPair`] — a span positioned at a key (used for sparse RLE maps).
//! * [`RleVec`] — an append-optimised vector of mergeable spans with
//!   binary-searchable keys.
//! * [`IntervalMap`] — a mutable RLE map from `usize` ranges to copyable
//!   values, used for the walker's ID → record indexes.
//! * [`CharWidthIndex`] — an RLE char-index → byte-offset map for
//!   append-only UTF-8 buffers (the oplog's content arena).

mod charindex;
mod intervalmap;
mod range;
mod rlevec;
mod traits;

pub use charindex::CharWidthIndex;
pub use intervalmap::IntervalMap;
pub use range::DTRange;
pub use rlevec::{KVPair, RleVec};
pub use traits::{HasLength, HasRleKey, MergableSpan, RleRun, SplitableSpan};

/// Merges an iterator of spans into a vector, run-length encoding adjacent
/// mergeable items.
///
/// # Examples
///
/// ```
/// use eg_rle::{merge_spans, DTRange};
/// let spans = [DTRange::from(0..2), DTRange::from(2..5), DTRange::from(9..10)];
/// assert_eq!(
///     merge_spans(spans),
///     vec![DTRange::from(0..5), DTRange::from(9..10)]
/// );
/// ```
pub fn merge_spans<S: MergableSpan, I: IntoIterator<Item = S>>(iter: I) -> Vec<S> {
    let mut out: Vec<S> = Vec::new();
    for span in iter {
        if let Some(last) = out.last_mut() {
            if last.can_append(&span) {
                last.append(span);
                continue;
            }
        }
        out.push(span);
    }
    out
}
