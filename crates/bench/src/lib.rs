//! Benchmark harness for the Eg-walker evaluation (paper §4).
//!
//! One binary per table/figure regenerates the corresponding results.
//! Shared infrastructure lives here:
//!
//! * [`alloc_track`] — a counting global allocator for the memory
//!   experiment (Fig. 10) and the zero-allocation tests;
//! * [`harness`] — trace construction, argument parsing and table
//!   formatting.

pub mod alloc_track;
pub mod harness;
