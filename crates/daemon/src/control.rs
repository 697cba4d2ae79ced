//! The daemon's control protocol: newline-delimited JSON commands in,
//! one JSON reply line out per command.
//!
//! This is how tests, the bench harness, and operators drive a running
//! daemon: the binary bridges stdin/stdout to the reactor through an
//! mpsc channel, and in-process embedders send [`ControlMsg`]s directly.
//! Replies are emitted with the vendored `serde_json`'s streaming
//! `to_writer`, so a large snapshot never buffers twice.

use std::sync::mpsc::Sender;

use serde::Value;

/// One parsed control command.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlCmd {
    /// Insert `text` at position hint `at` (reduced modulo the live
    /// length) in document `doc`, authored by local session 0.
    Edit {
        /// Target document id.
        doc: u64,
        /// Raw position hint.
        at: u64,
        /// Text to insert.
        text: String,
    },
    /// Generate and apply a deterministic fleet workload.
    Script {
        /// Document population.
        docs: u64,
        /// Editing session slots.
        sessions: usize,
        /// Edit operation count.
        edits: usize,
        /// Workload seed.
        seed: u64,
    },
    /// Report the canonical snapshot hash (and texts when `full`).
    Snapshot {
        /// Include every document's text in the reply.
        full: bool,
    },
    /// Report connection and traffic counters: daemon-wide socket bytes
    /// and lifecycle counts, the segment stores' size and what has been
    /// written to them, and per peer the link state, queued bytes,
    /// digest and bundle bytes sent, resets and sheds.
    Status,
    /// Force a checkpoint on every document that has a tail.
    Checkpoint,
    /// Run the periodic round now: send every established peer its
    /// mark, which it checks and answers with what this daemon lacks.
    SyncNow,
    /// Checkpoint and exit the reactor loop.
    Shutdown,
}

/// A command plus the channel its reply must be sent on.
#[derive(Debug)]
pub struct ControlMsg {
    /// The command.
    pub cmd: ControlCmd,
    /// Where the reactor sends the JSON reply.
    pub reply: Sender<Value>,
}

/// Builds a JSON object value (field order preserved).
pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// An error reply.
pub fn err_reply(msg: &str) -> Value {
    obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::Str(msg.to_owned())),
    ])
}

fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    match v.get_field(key) {
        Some(Value::UInt(n)) => Ok(*n),
        Some(_) => Err(format!("field `{key}` must be a non-negative integer")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn get_u64_or(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get_field(key) {
        None => Ok(default),
        Some(Value::UInt(n)) => Ok(*n),
        Some(_) => Err(format!("field `{key}` must be a non-negative integer")),
    }
}

fn get_bool_or(v: &Value, key: &str, default: bool) -> Result<bool, String> {
    match v.get_field(key) {
        None => Ok(default),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("field `{key}` must be a boolean")),
    }
}

/// Parses one command line. The shape is `{"cmd": "<name>", ...args}`.
pub fn parse_cmd(line: &str) -> Result<ControlCmd, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let name = match v.get_field("cmd") {
        Some(Value::Str(s)) => s.clone(),
        _ => return Err("missing string field `cmd`".to_owned()),
    };
    match name.as_str() {
        "edit" => {
            let text = match v.get_field("text") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("missing string field `text`".to_owned()),
            };
            Ok(ControlCmd::Edit {
                doc: get_u64(&v, "doc")?,
                at: get_u64_or(&v, "at", 0)?,
                text,
            })
        }
        "script" => Ok(ControlCmd::Script {
            docs: get_u64_or(&v, "docs", 16)?,
            sessions: get_u64_or(&v, "sessions", 8)? as usize,
            edits: get_u64_or(&v, "edits", 256)? as usize,
            seed: get_u64_or(&v, "seed", 1)?,
        }),
        "snapshot" => Ok(ControlCmd::Snapshot {
            full: get_bool_or(&v, "full", false)?,
        }),
        "status" => Ok(ControlCmd::Status),
        "checkpoint" => Ok(ControlCmd::Checkpoint),
        "sync_now" => Ok(ControlCmd::SyncNow),
        "shutdown" => Ok(ControlCmd::Shutdown),
        other => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        assert_eq!(
            parse_cmd(r#"{"cmd":"edit","doc":3,"at":7,"text":"hi"}"#).unwrap(),
            ControlCmd::Edit {
                doc: 3,
                at: 7,
                text: "hi".into()
            }
        );
        assert_eq!(
            parse_cmd(r#"{"cmd":"script","docs":4,"sessions":2,"edits":100,"seed":9}"#).unwrap(),
            ControlCmd::Script {
                docs: 4,
                sessions: 2,
                edits: 100,
                seed: 9
            }
        );
        assert_eq!(
            parse_cmd(r#"{"cmd":"snapshot","full":true}"#).unwrap(),
            ControlCmd::Snapshot { full: true }
        );
        assert_eq!(
            parse_cmd(r#"{"cmd":"status"}"#).unwrap(),
            ControlCmd::Status
        );
        assert_eq!(
            parse_cmd(r#"{"cmd":"checkpoint"}"#).unwrap(),
            ControlCmd::Checkpoint
        );
        assert_eq!(
            parse_cmd(r#"{"cmd":"sync_now"}"#).unwrap(),
            ControlCmd::SyncNow
        );
        assert_eq!(
            parse_cmd(r#"{"cmd":"shutdown"}"#).unwrap(),
            ControlCmd::Shutdown
        );
    }

    #[test]
    fn defaults_fill_in() {
        assert_eq!(
            parse_cmd(r#"{"cmd":"edit","doc":1,"text":"x"}"#).unwrap(),
            ControlCmd::Edit {
                doc: 1,
                at: 0,
                text: "x".into()
            }
        );
        assert_eq!(
            parse_cmd(r#"{"cmd":"snapshot"}"#).unwrap(),
            ControlCmd::Snapshot { full: false }
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_cmd("not json").is_err());
        assert!(parse_cmd(r#"{"cmd":"nope"}"#).is_err());
        assert!(parse_cmd(r#"{"cmd":"edit","doc":"three","text":"x"}"#).is_err());
        assert!(parse_cmd(r#"{"no_cmd":true}"#).is_err());
    }
}
