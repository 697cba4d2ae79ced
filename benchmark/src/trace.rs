//! Spans around the calls into each crate, kept in memory and written to
//! `benchmark/out/trace-<workload>.json` when the traced pass ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    name: &'static str,
    parent: Option<usize>,
    iteration: usize,
    start_us: f64,
    end_us: f64,
}

/// Records spans when enabled; when disabled every method is a no-op apart
/// from running the closure, so the untraced pass pays nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span and returns its result and duration in
    /// seconds. The span's parent is the innermost span still open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        iteration: usize,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        if !self.enabled {
            let value = f(self);
            return (value, start.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            iteration,
            start_us: (start - self.epoch).as_secs_f64() * 1e6,
            end_us: 0.0,
        });
        self.open.push(id);
        let value = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id].end_us = (end - self.epoch).as_secs_f64() * 1e6;
        (value, (end - start).as_secs_f64())
    }

    /// Records a finished leaf span under the innermost span still open.
    pub fn sample(&mut self, name: &'static str, iteration: usize, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                iteration,
                start_us: (start - self.epoch).as_secs_f64() * 1e6,
                end_us: (end - self.epoch).as_secs_f64() * 1e6,
            });
        }
    }

    pub fn write(&self, workload: &str) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"workload\":\"{workload}\",\"iteration\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}{}",
                s.name,
                s.iteration,
                s.start_us,
                s.end_us,
                if id + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]\n");
        std::fs::create_dir_all(crate::scratch::OUT_DIR)?;
        std::fs::write(
            format!("{}/trace-{workload}.json", crate::scratch::OUT_DIR),
            out,
        )
    }
}
