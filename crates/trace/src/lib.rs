//! Editing-trace suite for the Eg-walker evaluation (paper §4.1, Table 1).
//!
//! The paper benchmarks on seven recorded traces (LaTeX papers, a blog
//! post, two pair-writing sessions, two git histories) published in the
//! `editing-traces` repository. Those recordings are not redistributable
//! here, so this crate generates **synthetic traces with the same
//! statistical shape**: event counts, author counts, concurrency pattern
//! (linear / many short-lived branches / few long-running branches), graph
//! run counts and the fraction of inserted characters surviving to the end.
//! The benchmark-relevant behaviour of every algorithm in the suite is
//! driven exactly by those properties.
//!
//! * [`spec`] — the seven trace specifications (S1–S3, C1, C2, A1, A2) and
//!   their paper-reported target statistics, with a scale knob;
//! * [`gen`] — the generators (sequential typist, realtime pair editing
//!   with latency, git-style asynchronous branching);
//! * [`stats`] — Table 1 statistics computed from any oplog;
//! * [`json`] — (de)serialisation of traces in a simple JSON format
//!   modelled on the `editing-traces` repository's concurrent format;
//! * [`workload`] — multi-document sync workloads: deterministic edit
//!   scripts for driving `eg-sync` topologies (mesh vs star) over many
//!   nodes and shards, plus fleet workloads (zipfian document popularity,
//!   bursty sessions with churn) for the multi-core server host.

pub mod gen;
pub mod json;
pub mod spec;
pub mod stats;
pub mod workload;

pub use gen::generate;
pub use spec::{builtin_specs, TraceKind, TraceSpec};
pub use stats::{trace_stats, TraceStats};
pub use workload::{
    apply_sync_workload, fleet_workload, sync_workload, FleetOp, FleetSpec, SyncOp,
    SyncWorkloadSpec,
};
