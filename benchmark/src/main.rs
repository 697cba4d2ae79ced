//! egbench: the repo's one benchmark. See `benchmark/README.md`.
//!
//! Every workload sends one lane-generated document through the whole stack
//! — merge, incremental merge, save, open, memory — and then runs the two
//! daemon stages, live typing and catch-up, so every metric is measured on
//! every workload. The untraced pass prints the end-to-end metrics; the
//! traced pass times each crate's public functions from here and prints the
//! per-layer metrics.

mod alloc;
mod doc;
mod lanes;
mod net;
mod pins;
mod scratch;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use lanes::Shape;
use scratch::Scratch;
use stats::median;
use trace::Tracer;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

pub type Metrics = Vec<(&'static str, f64)>;

/// Operations attempted, and how many of them failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that were wrong outputs, not timeouts or I/O errors.
    pub wrong: u64,
}

impl Tally {
    /// Counts a failed operation whose output was wrong.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.wrong += 1;
            self.fail(what);
        }
    }

    /// Counts a failed operation.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("egbench: FAILED: {what}");
    }
}

/// The seed the pinned input fingerprints belong to.
const DEFAULT_SEED: u64 = 20250330;
/// `run_seconds` of `BENCHMARK.json`; the pinned typing hash belongs to it.
const DEFAULT_SECONDS: f64 = 24.0;
const QUICK_SECONDS: f64 = 3.0;
const ROUNDS: usize = 3;

struct Workload {
    name: &'static str,
    shape: Shape,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "doc_seq",
        // About 1 000 000 events: 455 turns of 2200 on average.
        shape: Shape {
            windows: 455,
            authors: 1,
            burst: (400, 4000),
            agents: 2,
            solo_every: 1,
            keep: 0.3,
        },
    },
    Workload {
        name: "doc_conc",
        // About 650 000 events (the paper's C1): windows average 12.6.
        shape: Shape {
            windows: 51_600,
            authors: 2,
            burst: (2, 12),
            agents: 2,
            solo_every: 5,
            keep: 0.9,
        },
    },
    Workload {
        name: "doc_async",
        // About 650 000 events: windows average 4275. An odd cadence puts the
        // median incremental merge in the middle of one distance from the
        // last critical version, not on the step between two.
        shape: Shape {
            windows: 152,
            authors: 7,
            burst: (150, 1200),
            agents: 299,
            solo_every: 9,
            keep: 0.5,
        },
    },
];

const FULL: net::Sizes = net::Sizes {
    resident_edits: 2000,
    docs: 32,
    sessions: 8,
    edits: 50_000,
};
const QUICK: net::Sizes = net::Sizes {
    resident_edits: 100,
    docs: 32,
    sessions: 8,
    edits: 1000,
};

/// Name and unit of every metric, in print order.
const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("merge_events_per_s", "ev/s"),
    ("apply_window_p50_us", "us"),
    ("save_events_per_s", "ev/s"),
    ("open_cached_ms", "ms"),
    ("store_bytes_per_event", "B"),
    ("file_bytes_per_event", "B"),
    ("peak_bytes", "B"),
    ("steady_bytes", "B"),
    ("converge_p50_ms", "ms"),
    ("wire_bytes_per_tick", "B"),
    ("catchup_edits_per_s", "edits/s"),
    ("catchup_wire_bytes_per_edit", "B"),
];

const PER_LAYER: [(&str, &str); 46] = [
    ("dag.diff_us", "us"),
    ("dag.conflict_window_us", "us"),
    ("dag.plan_us", "us"),
    ("dag.plan_steps", "count"),
    ("dag.graph_runs", "count"),
    ("dag.criticals", "count"),
    ("walker.transform_us", "us"),
    ("walker.self_us", "us"),
    ("walker.alloc_calls_per_event", "1/ev"),
    ("tracker.records", "count"),
    ("rope.apply_us", "us"),
    ("rope.to_string_us", "us"),
    ("core.merge_us", "us"),
    ("core.apply_window_p90_us", "us"),
    ("core.apply_window_drift_x", "x"),
    ("encoding.encode_us", "us"),
    ("encoding.decode_us", "us"),
    ("encoding.image_encode_us", "us"),
    ("encoding.image_decode_us", "us"),
    ("encoding.bundle_encode_us", "us"),
    ("encoding.bundle_decode_us", "us"),
    ("encoding.crc_us", "us"),
    ("encoding.image_bytes", "B"),
    ("storage.append_us", "us"),
    ("storage.checkpoint_us", "us"),
    ("storage.sync_us", "us"),
    ("storage.open_cold_ms", "ms"),
    ("storage.cached_speedup_x", "x"),
    ("storage.write_amp_x", "x"),
    ("sync.digest_us", "us"),
    ("sync.bundles_for_us", "us"),
    ("sync.receive_us", "us"),
    ("sync.frame_encode_us", "us"),
    ("sync.frame_decode_us", "us"),
    ("sync.bundle_bytes", "B"),
    ("server.apply_ops_per_s", "edits/s"),
    ("server.flush_wait_us", "us"),
    ("daemon.control_rtt_us", "us"),
    ("daemon.idle_wire_bytes_per_s", "B/s"),
    ("daemon.converge_p90_ms", "ms"),
    ("daemon.converge_p99_ms", "ms"),
    ("daemon.converge_drift_x", "x"),
    ("daemon.generator_late_p50_ms", "ms"),
    ("daemon.resend_x", "x"),
    ("daemon.unaccounted_ms", "ms"),
    ("trace_overhead_x", "x"),
];

#[derive(Clone, Copy)]
struct Opts {
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    /// Print the observed input fingerprints and skip checking them.
    print_pins: bool,
}

struct Outcome {
    tally: Tally,
    metrics: Metrics,
}

fn quick_shape(mut shape: Shape) -> Shape {
    shape.windows = (shape.windows / 50).max(8);
    shape.burst = ((shape.burst.0 / 8).max(2), (shape.burst.1 / 8).max(12));
    shape
}

/// Shares of `--seconds` given to each stage.
struct Plan {
    doc: f64,
    layers: f64,
    typing: f64,
    idle: f64,
    catchup: f64,
}

const UNTRACED: Plan = Plan {
    doc: 0.27,
    layers: 0.0,
    typing: 0.27,
    idle: 0.0,
    catchup: 0.46,
};
/// The traced pass also times merges without spans, each crate's functions
/// one at a time and the idle pair, and rebuilds the staged catch-up on top.
const TRACED: Plan = Plan {
    doc: 0.12,
    layers: 0.10,
    typing: 0.25,
    idle: 0.10,
    catchup: 0.12,
};

/// One run of one workload. The run is [`ROUNDS`] rounds of set-up, document
/// stage and catch-up, with the typing stage after the first round: every
/// metric then samples the whole run, and set-up has [`ROUNDS`] readings to
/// take a median of. Each round generates a document of its own from the
/// seed; the daemon stages repeat the same scripts.
fn run(workload: &Workload, opts: Opts, scratch: &Scratch) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(opts.trace);
    let (shape, sizes) = if opts.quick {
        (quick_shape(workload.shape), QUICK)
    } else {
        (workload.shape, FULL)
    };
    let plan = if opts.trace { TRACED } else { UNTRACED };
    let share = |part: f64| Duration::from_secs_f64(opts.seconds * part);
    let per_round = |part: f64| share(part / ROUNDS as f64);
    let dir = scratch.sub(workload.name);
    let net = net::Net {
        dir: &dir,
        sizes,
        seed: opts.seed,
    };

    let mut pins = pins::Observed::new(workload.name);
    let mut metrics = Metrics::new();
    let mut doc_setup = Vec::new();
    let mut stage = doc::DocStage::default();
    let mut untraced_merge = 0.0;
    let mut catchup = net::Catchup::default();
    let mut typing = None;
    let mut doc_seeds = lanes::Rng::new(opts.seed);
    for round in 0..ROUNDS {
        tally.attempted += 1;
        let doc_seed = doc_seeds.next();
        let (input, t) = tracer.span("setup.generate_and_check", round, |_| {
            doc::generate(shape, doc_seed, &mut tally)
        });
        doc_setup.push(t);
        // The document stage runs while no other thread is alive, because
        // its memory pass reads process-wide counters.
        if opts.trace {
            untraced_merge += doc::untraced_merge(&input, per_round(plan.doc).mul_f64(0.45));
        }
        stage.round(&input, &dir, per_round(plan.doc), &mut tracer, &mut tally);
        if round == 0 {
            pins.doc(&input);
            if opts.trace {
                doc::layers(&input, share(plan.layers), &mut tracer, &mut metrics);
            }
            let ticks = (share(plan.typing).as_secs_f64() * net::TICKS_PER_S as f64) as usize;
            let idle = opts
                .trace
                .then(|| share(plan.idle).min(Duration::from_secs(3)));
            typing = Some(net::typing(
                &net,
                ticks.max(20),
                ROUNDS,
                idle,
                &mut tracer,
                &mut tally,
            ));
        }
        catchup.rounds(&net, per_round(plan.catchup), &mut tracer, &mut tally);
    }
    let typing = typing.expect("the first round runs the typing stage");
    pins.catchup(&catchup.hash);
    if opts.seconds == DEFAULT_SECONDS && !opts.trace {
        pins.typing(&typing.hash);
    }

    if opts.trace {
        let staged = net::staged(&net, ROUNDS, &mut tracer, &mut tally);
        stage.layers(&mut metrics);
        typing.layers(&mut metrics);
        staged.layers(&catchup, &mut metrics);
        metrics.push(("trace_overhead_x", stage.merge_seconds() / untraced_merge));
        tracer
            .write(workload.name)
            .map_err(|e| format!("cannot write the trace: {e}"))?;
    } else {
        metrics.push((
            "setup_s",
            median(&doc_setup) + median(&typing.setup) + median(&catchup.prep),
        ));
        stage.end_to_end(&mut metrics);
        typing.end_to_end(&mut metrics);
        catchup.end_to_end(&mut metrics);
    }

    eprintln!(
        "egbench: {}: n = {}, {} ticks, {} catch-up rounds",
        workload.name,
        stage.samples(),
        typing.ticks(),
        catchup.rounds_run()
    );
    if opts.print_pins {
        print!("{}", pins.lines());
    } else if opts.seed == DEFAULT_SEED && !opts.quick {
        pins.verify()?;
    }
    let expected: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    metrics.sort_by_key(|(name, _)| expected.iter().position(|(n, _)| n == name));
    assert!(
        metrics.iter().map(|m| m.0).eq(expected.iter().map(|m| m.0)),
        "the run did not produce exactly the declared metrics"
    );
    Ok(Outcome { tally, metrics })
}

fn result_line(workload: Option<&str>, outcome: &Outcome, trace: bool) -> String {
    let units: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut line = String::from("{");
    if let Some(name) = workload {
        let _ = write!(line, "\"workload\": \"{name}\", ");
    }
    let _ = write!(
        line,
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.tally.wrong == 0,
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for (i, ((name, value), (_, unit))) in outcome.metrics.iter().zip(units).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn manifest_bounds() -> Result<Vec<(String, bool, f64)>, String> {
    use serde::Value;
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let manifest: Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let Some(Value::Arr(rows)) = manifest.get_field("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_owned());
    };
    rows.iter()
        .map(|row| {
            let bound = match row.get_field("bound") {
                Some(Value::Float(b)) => *b,
                Some(Value::UInt(b)) => *b as f64,
                _ => return Err("end_to_end entry without a bound".to_owned()),
            };
            match (row.get_field("name"), row.get_field("better")) {
                (Some(Value::Str(name)), Some(Value::Str(better))) => {
                    Ok((name.clone(), better == "higher", bound))
                }
                _ => Err("end_to_end entry without name or direction".to_owned()),
            }
        })
        .collect()
}

/// A/A: every selected workload twice; prints both values, the gap and the
/// bound of each end-to-end metric. `Ok(false)` when a gap exceeds its bound.
fn aa(selected: &[&Workload], opts: Opts, scratch: &Scratch) -> Result<bool, String> {
    let bounds = manifest_bounds()?;
    let mut held = true;
    for workload in selected {
        let first = run(workload, opts, scratch)?;
        let second = run(workload, opts, scratch)?;
        for ((name, a), (_, b)) in first.metrics.iter().zip(&second.metrics) {
            let (_, higher, bound) = bounds
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("BENCHMARK.json does not list {name}"))?;
            let worse = if *higher { (a - b) / a } else { (b - a) / a };
            // Sizes shrunk by --quick are too small for timings to hold a bound.
            let timing = !END_TO_END.iter().any(|(n, unit)| n == name && *unit == "B");
            let ok = worse.abs() <= *bound || (opts.quick && timing);
            held &= ok;
            println!(
                "{:<10} {name:<28} {a:>16.4} {b:>16.4} gap {:>+8.4} bound {bound:.2} {}",
                workload.name,
                worse,
                if ok { "ok" } else { "OVER" }
            );
        }
        if first.tally.failed + second.tally.failed > 0 {
            held = false;
        }
    }
    Ok(held)
}

fn usage() -> String {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: egbench [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--aa] [--quick] [--pins]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Option<&'static Workload>, Opts, bool), String> {
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        quick: false,
        print_pins: false,
    };
    let (mut workload, mut aa) = (None, false);
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i).ok_or_else(usage)
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i)?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or_else(usage)?,
                );
            }
            "--seed" => opts.seed = value(&mut i)?.parse().map_err(|_| usage())?,
            "--seconds" => opts.seconds = value(&mut i)?.parse().map_err(|_| usage())?,
            "--trace" => {
                // A bare flag means on; the driver passes 0 or 1.
                opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--aa" => aa = true,
            "--quick" => opts.quick = true,
            "--pins" => opts.print_pins = true,
            _ => return Err(usage()),
        }
        i += 1;
    }
    if opts.seconds <= 0.0 {
        opts.seconds = if opts.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    Ok((workload, opts, aa))
}

fn main() -> ExitCode {
    alloc::keep_heap_warm();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts, aa_mode) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Workload> = match workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let started = Instant::now();
    let scratch = Scratch::create();
    let result = if aa_mode {
        aa(&selected, opts, &scratch)
    } else {
        // A run with failed operations still succeeds: its counts report them.
        selected
            .iter()
            .try_for_each(|w| {
                let outcome = run(w, opts, &scratch)?;
                if !opts.print_pins {
                    // With one workload named the line has exactly the driver's keys.
                    println!(
                        "{}",
                        result_line(workload.is_none().then_some(w.name), &outcome, opts.trace)
                    );
                }
                Ok(())
            })
            .map(|()| true)
    };
    drop(scratch);
    eprintln!("egbench: {:.1} s", started.elapsed().as_secs_f64());
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("egbench: {message}");
            ExitCode::FAILURE
        }
    }
}
