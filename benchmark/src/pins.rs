//! Pinned input fingerprints: what the default seed must generate. A later
//! change to the lane generator, to `fleet_workload` or to `OpLog::add_*`
//! that silently changed the load would otherwise look like a speed-up.

use crate::doc::{criticals, DocInput};

/// `scope field value` per line; `#` starts a comment. Regenerate with
/// `benchmark/run.sh --pins`.
const PINNED: &str = include_str!("../pins.txt");
/// The daemon stages run the same inputs in every workload.
const DAEMONS: &str = "daemons";

pub struct Observed {
    workload: &'static str,
    rows: Vec<(&'static str, &'static str, String)>,
}

impl Observed {
    pub fn new(workload: &'static str) -> Observed {
        Observed {
            workload,
            rows: Vec::new(),
        }
    }

    pub fn doc(&mut self, input: &DocInput) {
        let graph = &input.log.graph;
        self.rows
            .push((self.workload, "events", input.log.len().to_string()));
        self.rows
            .push((self.workload, "graph_runs", graph.num_entries().to_string()));
        self.rows.push((
            self.workload,
            "criticals",
            criticals(&input.log).to_string(),
        ));
        self.rows.push((
            self.workload,
            "text_fnv64",
            format!("{:016x}", input.text_fnv),
        ));
    }

    pub fn catchup(&mut self, hash: &str) {
        self.rows.push((DAEMONS, "catchup_hash", hash.to_owned()));
    }

    pub fn typing(&mut self, hash: &str) {
        self.rows.push((DAEMONS, "typing_hash", hash.to_owned()));
    }

    pub fn lines(&self) -> String {
        self.rows
            .iter()
            .map(|(scope, field, value)| format!("{scope} {field} {value}\n"))
            .collect()
    }

    /// Fails with a message naming the first field that drifted.
    pub fn verify(&self) -> Result<(), String> {
        for (scope, field, value) in &self.rows {
            let pinned = PINNED
                .lines()
                .filter_map(|line| {
                    let mut words = line.split_whitespace();
                    (words.next() == Some(*scope) && words.next() == Some(*field))
                        .then(|| words.next())?
                })
                .next()
                .ok_or_else(|| format!("pins.txt has no `{scope} {field}`"))?;
            if pinned != value {
                return Err(format!(
                    "input drift: `{scope} {field}` is {value} but {pinned} is pinned; \
                     the default seed no longer generates the load the recorded results were taken on"
                ));
            }
        }
        Ok(())
    }
}
