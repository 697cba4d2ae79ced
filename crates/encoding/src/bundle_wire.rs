//! Wire codec for [`EventBundle`]s — the network form of an event-graph
//! subset (paper §3.8, final paragraph).
//!
//! The whole-file format identifies parents by topological index, which is
//! meaningless outside the file. A bundle instead names events by
//! `(replicaID, seqNo)`; this codec keeps that compact with an interned
//! agent-name table and LEB128 columns, framed with a magic header and a
//! CRC32 trailer like the main format.
//!
//! Layout (all integers LEB128):
//!
//! ```text
//! "EGWB" | format version (=1)
//! agent table:  count, then per agent: name length, UTF-8 name bytes
//! runs:         count, then per run:
//!   agent index | seq_start | flags (bit0 kind, bit1 fwd)
//!   loc.start | run length
//!   parent count, then per parent: agent index | seq
//!   Ins only: content byte length | UTF-8 content
//! CRC32 of everything above (4 bytes little-endian)
//! ```
//!
//! The agent table is part of the format, not a free choice of the
//! writer: an agent's index is the order of its first appearance, reading
//! each run's agent and then its parents' agents, run by run. Equal runs
//! therefore give equal bytes, which the segment store and its tests rely
//! on.
//!
//! There are two encoders and one writer. [`encode_bundle`] takes an owned
//! [`EventBundle`] (a peer's reply, a test's hand-built bundle);
//! [`encode_runs`] takes an oplog and LV spans and never builds one — it
//! is how an autosave's frame is written, and its bytes are exactly
//! `encode_bundle(&oplog.bundle_since_local(have))`. Both hand
//! [`RunView`]s to the private `RunWriter`, which alone knows the columns
//! of a run. It writes the runs first, interning agents in a slot table
//! indexed by [`AgentId`] as they come, and puts the table and the run
//! count — which precede the runs in the layout but are known only after
//! them — in front when it finishes.

use crate::crc::{crc32, split_crc};
use crate::varint::{push_usize, read_u8, read_usize, take, DecodeError};
use eg_dag::{AgentAssignment, AgentId, RemoteId};
use eg_rle::{DTRange, HasLength};
use egwalker::{BundleError, BundleRun, EventBundle, ListOpKind, OpLog, RunView};

const BUNDLE_MAGIC: &[u8; 4] = b"EGWB";
const BUNDLE_VERSION: u8 = 1;

/// Serialises an event bundle for the network.
pub fn encode_bundle(bundle: &EventBundle) -> Vec<u8> {
    let mut out = Vec::new();
    let mut writer = RunWriter::begin(&mut out);
    // Names become ids in the order the writer meets them, so each is
    // hashed here and nowhere else.
    let mut names = AgentAssignment::new();
    let mut parents: Vec<(AgentId, usize)> = Vec::new();
    for run in &bundle.runs {
        let agent = names.get_or_create_agent(&run.agent);
        parents.clear();
        for p in &run.parents {
            parents.push((names.get_or_create_agent(&p.agent), p.seq));
        }
        writer.push(&RunView {
            agent,
            seq_start: run.seq_start,
            parents: &parents,
            kind: run.kind,
            loc: run.loc,
            fwd: run.fwd,
            content: run.content.as_deref(),
        });
    }
    writer.finish(&names);
    out
}

/// Appends to `out` the bundle of the events of `oplog` in `spans`
/// (ascending LV ranges), straight from the oplog's runs
/// ([`OpLog::for_each_run`]), and returns how many events that is.
///
/// The bytes are exactly `encode_bundle(&oplog.bundle_since_local(have))`
/// for the `have` whose difference to the oplog's version is `spans`; no
/// [`EventBundle`] is built and nothing is allocated per run.
pub fn encode_runs(oplog: &OpLog, spans: &[DTRange], out: &mut Vec<u8>) -> usize {
    let mut writer = RunWriter::begin(out);
    oplog.for_each_run(spans, |run| writer.push(run));
    writer.finish(&oplog.agents)
}

/// The one writer of the format: runs are pushed as they come, and the
/// agent table and run count, known only at the end, are then put in
/// front of them.
struct RunWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Where the bundle starts in `out`, and where its runs do.
    bundle_at: usize,
    runs_at: usize,
    /// Wire index by [`AgentId`] (`usize::MAX` until the agent is met),
    /// and the agents in wire order.
    slot_of: Vec<usize>,
    agents: Vec<AgentId>,
    runs: usize,
    events: usize,
}

impl<'a> RunWriter<'a> {
    fn begin(out: &'a mut Vec<u8>) -> Self {
        let bundle_at = out.len();
        out.extend_from_slice(BUNDLE_MAGIC);
        out.push(BUNDLE_VERSION);
        RunWriter {
            runs_at: out.len(),
            out,
            bundle_at,
            slot_of: Vec::new(),
            agents: Vec::new(),
            runs: 0,
            events: 0,
        }
    }

    /// The wire index of `agent`, the next free one at its first use.
    fn slot(&mut self, agent: AgentId) -> usize {
        let id = agent as usize;
        if id >= self.slot_of.len() {
            self.slot_of.resize(id.saturating_add(1), usize::MAX);
        }
        let next = self.agents.len();
        // Always `Some`: the table was just grown to hold `id`.
        let Some(slot) = self.slot_of.get_mut(id) else {
            return next;
        };
        if *slot == usize::MAX {
            *slot = next;
            self.agents.push(agent);
        }
        *slot
    }

    fn push(&mut self, run: &RunView<'_>) {
        let agent = self.slot(run.agent);
        push_usize(self.out, agent);
        push_usize(self.out, run.seq_start);
        let mut flags = 0u8;
        if run.kind == ListOpKind::Del {
            flags |= 1;
        }
        if run.fwd {
            flags |= 2;
        }
        self.out.push(flags);
        push_usize(self.out, run.loc.start);
        push_usize(self.out, run.loc.len());
        push_usize(self.out, run.parents.len());
        for &(agent, seq) in run.parents {
            let agent = self.slot(agent);
            push_usize(self.out, agent);
            push_usize(self.out, seq);
        }
        if run.kind == ListOpKind::Ins {
            let content = run.content.unwrap_or("");
            push_usize(self.out, content.len());
            self.out.extend_from_slice(content.as_bytes());
        }
        self.runs = self.runs.saturating_add(1);
        self.events = self.events.saturating_add(run.loc.len());
    }

    /// Completes the bundle (names from `names`) and returns its event
    /// count.
    fn finish(self, names: &AgentAssignment) -> usize {
        let mut head = Vec::new();
        push_usize(&mut head, self.agents.len());
        for &agent in &self.agents {
            let name = names.agent_name(agent);
            push_usize(&mut head, name.len());
            head.extend_from_slice(name.as_bytes());
        }
        push_usize(&mut head, self.runs);
        self.out.splice(self.runs_at..self.runs_at, head);
        let crc = crc32(self.out.get(self.bundle_at..).unwrap_or(&[]));
        self.out.extend_from_slice(&crc.to_le_bytes());
        self.events
    }
}

/// Deserialises an event bundle, validating framing and checksum.
///
/// Structural/causal validity is *not* checked here — that is
/// [`egwalker::OpLog::apply_bundle`]'s job, because it depends on the
/// receiving replica's state.
pub fn decode_bundle(bytes: &[u8]) -> Result<EventBundle, DecodeError> {
    let (body, stored) = split_crc(bytes).ok_or(DecodeError::UnexpectedEof)?;
    if crc32(body) != stored {
        return Err(DecodeError::Corrupt);
    }
    let mut input = body;
    let magic = take(&mut input, 4)?;
    if magic != BUNDLE_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = read_u8(&mut input)?;
    if version != BUNDLE_VERSION {
        return Err(DecodeError::Corrupt);
    }

    let num_names = read_usize(&mut input)?;
    // Agents cannot outnumber remaining bytes (each takes ≥1 byte).
    if num_names > input.len() {
        return Err(DecodeError::Corrupt);
    }
    let mut names = Vec::with_capacity(num_names);
    for _ in 0..num_names {
        let len = read_usize(&mut input)?;
        let raw = take(&mut input, len)?;
        let name = std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?;
        names.push(name.to_string());
    }

    let num_runs = read_usize(&mut input)?;
    if num_runs > input.len() {
        return Err(DecodeError::Corrupt);
    }
    let mut runs = Vec::with_capacity(num_runs);
    for _ in 0..num_runs {
        let agent_idx = read_usize(&mut input)?;
        let agent = names
            .get(agent_idx)
            .ok_or(DecodeError::Corrupt)?
            .to_string();
        let seq_start = read_usize(&mut input)?;
        let flags = read_u8(&mut input)?;
        if flags & !3 != 0 {
            return Err(DecodeError::Corrupt);
        }
        let kind = if flags & 1 != 0 {
            ListOpKind::Del
        } else {
            ListOpKind::Ins
        };
        let fwd = flags & 2 != 0;
        let loc_start = read_usize(&mut input)?;
        let len = read_usize(&mut input)?;
        if len == 0 {
            return Err(DecodeError::Corrupt);
        }
        // `loc_start + len` is computed below; near-usize::MAX values in a
        // (CRC-valid) crafted frame must not overflow-panic the decoder.
        let loc_end = loc_start.checked_add(len).ok_or(DecodeError::Corrupt)?;
        let num_parents = read_usize(&mut input)?;
        if num_parents > input.len() {
            return Err(DecodeError::Corrupt);
        }
        let mut parents = Vec::with_capacity(num_parents);
        for _ in 0..num_parents {
            let pa = read_usize(&mut input)?;
            let agent = names.get(pa).ok_or(DecodeError::Corrupt)?.to_string();
            let seq = read_usize(&mut input)?;
            parents.push(RemoteId { agent, seq });
        }
        let content = if kind == ListOpKind::Ins {
            let byte_len = read_usize(&mut input)?;
            let raw = take(&mut input, byte_len)?;
            let text = std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?;
            if text.chars().count() != len {
                return Err(DecodeError::Corrupt);
            }
            Some(text.to_string())
        } else {
            None
        };
        runs.push(BundleRun {
            agent,
            seq_start,
            parents,
            kind,
            loc: (loc_start..loc_end).into(),
            fwd,
            content,
        });
    }
    if !input.is_empty() {
        return Err(DecodeError::Corrupt);
    }
    Ok(EventBundle { runs })
}

/// Why [`apply_bundle_bytes`] failed: the frame did not parse, or a run
/// could not be applied to the target oplog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyBundleError {
    /// Framing, checksum, or structural decode failure.
    Decode(DecodeError),
    /// A decoded run was rejected by the oplog (missing parents or
    /// malformed structure).
    Bundle(BundleError),
}

impl std::fmt::Display for ApplyBundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyBundleError::Decode(e) => write!(f, "bundle decode: {e}"),
            ApplyBundleError::Bundle(e) => write!(f, "bundle apply: {e}"),
        }
    }
}

impl std::error::Error for ApplyBundleError {}

impl From<DecodeError> for ApplyBundleError {
    fn from(e: DecodeError) -> Self {
        ApplyBundleError::Decode(e)
    }
}

impl From<BundleError> for ApplyBundleError {
    fn from(e: BundleError) -> Self {
        ApplyBundleError::Bundle(e)
    }
}

/// Decodes a wire bundle and applies it straight to `oplog`, one run at
/// a time, without materialising an [`EventBundle`].
///
/// The wire format's interned agent-name table maps to local
/// [`AgentId`]s once per bundle, after which the per-run hot loop
/// allocates nothing: agents and parents are id pairs, content is
/// borrowed from the input. On a segment-store open — thousands of runs
/// per document — this is several times faster than
/// [`decode_bundle`] + [`OpLog::apply_bundle`].
///
/// Returns the LV range newly assigned. **Not atomic**: a decode or
/// apply error partway through leaves the earlier runs applied. Use it
/// where the whole oplog is discarded on failure (rebuilding from disk);
/// network ingest with causal buffering should keep the all-or-nothing
/// [`OpLog::apply_bundle`].
pub fn apply_bundle_bytes(
    oplog: &mut OpLog,
    bytes: &[u8],
) -> Result<eg_rle::DTRange, ApplyBundleError> {
    let (body, stored) = split_crc(bytes).ok_or(DecodeError::UnexpectedEof)?;
    if crc32(body) != stored {
        return Err(DecodeError::Corrupt.into());
    }
    let mut input = body;
    let magic = take(&mut input, 4)?;
    if magic != BUNDLE_MAGIC {
        return Err(DecodeError::BadMagic.into());
    }
    let version = read_u8(&mut input)?;
    if version != BUNDLE_VERSION {
        return Err(DecodeError::Corrupt.into());
    }

    let num_names = read_usize(&mut input)?;
    if num_names > input.len() {
        return Err(DecodeError::Corrupt.into());
    }
    // The one string-keyed pass: intern every bundle agent into the
    // target oplog up front.
    let mut ids: Vec<AgentId> = Vec::with_capacity(num_names);
    for _ in 0..num_names {
        let len = read_usize(&mut input)?;
        let raw = take(&mut input, len)?;
        let name = std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?;
        ids.push(oplog.get_or_create_agent(name));
    }

    let first_new = oplog.len();
    let num_runs = read_usize(&mut input)?;
    if num_runs > input.len() {
        return Err(DecodeError::Corrupt.into());
    }
    let mut parents: Vec<(AgentId, usize)> = Vec::new();
    for _ in 0..num_runs {
        let agent_idx = read_usize(&mut input)?;
        let &agent = ids.get(agent_idx).ok_or(DecodeError::Corrupt)?;
        let seq_start = read_usize(&mut input)?;
        let flags = read_u8(&mut input)?;
        if flags & !3 != 0 {
            return Err(DecodeError::Corrupt.into());
        }
        let kind = if flags & 1 != 0 {
            ListOpKind::Del
        } else {
            ListOpKind::Ins
        };
        let fwd = flags & 2 != 0;
        let loc_start = read_usize(&mut input)?;
        let len = read_usize(&mut input)?;
        if len == 0 {
            return Err(DecodeError::Corrupt.into());
        }
        let loc_end = loc_start.checked_add(len).ok_or(DecodeError::Corrupt)?;
        let num_parents = read_usize(&mut input)?;
        if num_parents > input.len() {
            return Err(DecodeError::Corrupt.into());
        }
        parents.clear();
        for _ in 0..num_parents {
            let pa = read_usize(&mut input)?;
            let &parent_agent = ids.get(pa).ok_or(DecodeError::Corrupt)?;
            let seq = read_usize(&mut input)?;
            parents.push((parent_agent, seq));
        }
        let content = if kind == ListOpKind::Ins {
            let byte_len = read_usize(&mut input)?;
            let raw = take(&mut input, byte_len)?;
            Some(std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?)
        } else {
            None
        };
        oplog.apply_run_view(&RunView {
            agent,
            seq_start,
            parents: &parents,
            kind,
            loc: (loc_start..loc_end).into(),
            fwd,
            content,
        })?;
    }
    if !input.is_empty() {
        return Err(DecodeError::Corrupt.into());
    }
    Ok((first_new..oplog.len()).into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> EventBundle {
        let mut a = OpLog::new();
        let alice = a.get_or_create_agent("alice");
        let bob = a.get_or_create_agent("bob");
        a.add_insert(alice, 0, "base text");
        let v = a.version().clone();
        a.add_insert_at(alice, &v, 4, " and more");
        a.add_insert_at(bob, &v, 9, "!!");
        a.add_delete(alice, 0, 2);
        a.bundle_since(&[])
    }

    #[test]
    fn roundtrip() {
        let bundle = sample_bundle();
        let bytes = encode_bundle(&bundle);
        let decoded = decode_bundle(&bytes).unwrap();
        assert_eq!(decoded, bundle);
    }

    #[test]
    fn roundtrip_applies_identically() {
        let bundle = sample_bundle();
        let bytes = encode_bundle(&bundle);
        let decoded = decode_bundle(&bytes).unwrap();
        let mut log1 = OpLog::new();
        log1.apply_bundle(&bundle).unwrap();
        let mut log2 = OpLog::new();
        log2.apply_bundle(&decoded).unwrap();
        assert_eq!(
            log1.checkout_tip().content.to_string(),
            log2.checkout_tip().content.to_string()
        );
    }

    #[test]
    fn empty_bundle_roundtrips() {
        let bundle = EventBundle::default();
        let decoded = decode_bundle(&encode_bundle(&bundle)).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn crc_detects_corruption() {
        let bytes = encode_bundle(&sample_bundle());
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0x40;
            assert!(
                decode_bundle(&corrupted).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_bundle(&sample_bundle());
        for cut in 0..bytes.len() {
            assert!(decode_bundle(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn unicode_content_roundtrips() {
        let mut a = OpLog::new();
        let alice = a.get_or_create_agent("alice");
        a.add_insert(alice, 0, "héllo 世界 🦀");
        let bundle = a.bundle_since(&[]);
        let decoded = decode_bundle(&encode_bundle(&bundle)).unwrap();
        let mut b = OpLog::new();
        b.apply_bundle(&decoded).unwrap();
        assert_eq!(b.checkout_tip().content.to_string(), "héllo 世界 🦀");
    }
}
