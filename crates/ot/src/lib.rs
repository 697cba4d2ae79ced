//! Reference operational-transformation baseline for the Eg-walker
//! evaluation (paper §4.2).
//!
//! OT keeps only the document text plus recent history, making it cheap in
//! memory and instant to load — but merging long-running branches costs
//! `O(n²)` transforms (or worse) and, with memoisation, gigabytes of
//! transient state (paper §1, §4.3–4.4). This crate reproduces that
//! behaviour honestly:
//!
//! * [`textop`]: component-based text operations (`retain`/`insert`/
//!   `delete`) with the classic `transform` and `compose` primitives;
//! * [`merge`]: a control algorithm that merges arbitrary event DAGs by
//!   memoised recursive context transformation (COT-style) — fast and
//!   transform-free on sequential histories, quadratic on divergent ones.
//!
//! Server-based OT algorithms (Jupiter/ShareDB) are not used because they
//! cannot replay the asynchronous traces' branching patterns, as the paper
//! notes in §4.2.

pub mod merge;
mod textop;

pub use merge::{replay_ot, OtMerger, OtStats};
pub use textop::{compose, transform, Component, TextOp};
