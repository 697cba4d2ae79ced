//! Oplog image: a bulk-loadable columnar dump of a whole [`OpLog`].
//!
//! Event-bundle records rebuild an oplog by *replaying* — every run pays
//! for parent resolution, dominator reduction, and RLE merge checks, so a
//! rebuild is O(history) with real constants. Checkpoints instead embed an
//! image of the oplog's internal columns (agent names, LV↔seq runs, graph
//! entries, frontier, critical versions, operation runs, content arena),
//! which restores by *parsing*: plain varint scans into the final `Vec`s,
//! no per-event logic. That is what makes a cached document open O(tail) —
//! the history before the checkpoint costs one linear byte scan.
//!
//! The decoder is panic-free on arbitrary bytes (the mutation fuzz loop
//! drives it) and validates everything cheap: dense spans, sorted
//! parents/frontier, agent/seq monotonicity, run-length cross-sums, and
//! UTF-8. Semantic invariants that would cost graph walks to re-derive
//! (parents mutually concurrent, frontier/criticals matching incremental
//! maintenance) are trusted from CRC-verified local storage, exactly like
//! the event records around it.
//!
//! Layout (all integers varint unless noted):
//!
//! ```text
//! image    := "EGIM" u8(version=1)
//!             agents graph frontier criticals ops content
//! agents   := n_names name*            (length-prefixed UTF-8)
//!             n_runs (agent seq_start len)*      // LV starts are dense
//! graph    := n_entries (len n_parents delta*)*  // delta = span.start - p,
//!                                                // strictly increasing
//! frontier := n lv*                              // strictly ascending
//! criticals:= n (gap len)*               // gap from previous run's end
//! ops      := n_runs (flags len pos)*    // flags: bit0 del, bit1 backward
//! content  := n_bytes byte*              // UTF-8; Ins runs index it
//!                                        // cumulatively in run order
//! ```

use crate::varint::{self, DecodeError};
use eg_dag::{AgentAssignment, Frontier, Graph, GraphEntry};
use eg_rle::{DTRange, HasLength, KVPair};
use egwalker::{ListOpKind, OpLog, OpRun};

/// Magic bytes opening an oplog image.
pub(crate) const IMAGE_MAGIC: &[u8; 4] = b"EGIM";
const IMAGE_VERSION: u8 = 1;

fn push_str(out: &mut Vec<u8>, s: &str) {
    varint::push_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Serialises `oplog` as a bulk-loadable image.
pub fn encode_oplog_image(oplog: &OpLog) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + oplog.len() / 2);
    out.extend_from_slice(IMAGE_MAGIC);
    out.push(IMAGE_VERSION);

    // Agents: names, then the LV→(agent, seq) runs in LV order.
    varint::push_usize(&mut out, oplog.agents.num_agents());
    for i in 0..oplog.agents.num_agents() {
        push_str(&mut out, oplog.agents.agent_name(i as u32));
    }
    let n_runs = oplog.agents.iter_lv_map().count();
    varint::push_usize(&mut out, n_runs);
    for pair in oplog.agents.iter_lv_map() {
        varint::push_usize(&mut out, pair.1.agent as usize);
        varint::push_usize(&mut out, pair.1.seq_range.start);
        varint::push_usize(&mut out, pair.1.seq_range.len());
    }

    // Graph entries; parents as deltas below the entry's first LV.
    varint::push_usize(&mut out, oplog.graph.num_entries());
    for entry in oplog.graph.iter() {
        varint::push_usize(&mut out, entry.span.len());
        varint::push_usize(&mut out, entry.parents.len());
        for &p in entry.parents.iter() {
            debug_assert!(p < entry.span.start);
            varint::push_usize(&mut out, entry.span.start - p);
        }
    }
    varint::push_usize(&mut out, oplog.version().len());
    for &lv in oplog.version().iter() {
        varint::push_usize(&mut out, lv);
    }
    varint::push_usize(&mut out, oplog.graph.criticals_runs().len());
    let mut prev_end = 0;
    for run in oplog.graph.criticals_runs() {
        varint::push_usize(&mut out, run.start - prev_end);
        varint::push_usize(&mut out, run.len());
        prev_end = run.end;
    }

    // Operation runs. Content ranges are cumulative in run order (the
    // arena is appended exactly as ops are), so only the text survives.
    let runs = oplog.op_runs();
    varint::push_usize(&mut out, runs.len());
    let mut content_chars = 0;
    for (_, run) in runs {
        let flags = match run.kind {
            ListOpKind::Ins => 0u8,
            ListOpKind::Del => 1,
        } | if run.fwd { 0 } else { 2 };
        out.push(flags);
        varint::push_usize(&mut out, run.len());
        varint::push_usize(&mut out, run.loc.start);
        if let Some(c) = run.content {
            assert_eq!(
                c.start, content_chars,
                "content arena ranges must be cumulative in op order"
            );
            content_chars = c.end;
        }
    }
    let text = oplog.content_slice((0..content_chars).into());
    push_str(&mut out, text);
    out
}

/// Restores an oplog from an image produced by [`encode_oplog_image`].
pub fn decode_oplog_image(bytes: &[u8]) -> Result<OpLog, DecodeError> {
    let input = &mut { bytes };
    if varint::take(input, IMAGE_MAGIC.len())? != IMAGE_MAGIC
        || varint::read_u8(input)? != IMAGE_VERSION
    {
        return Err(DecodeError::BadMagic);
    }

    // Agents.
    let n_names = varint::read_usize(input)?;
    let mut agents = AgentAssignment::new();
    for i in 0..n_names {
        let name = read_str(input)?;
        // Interning must hand out dense IDs — a duplicate name would not.
        if agents.get_or_create_agent(name) as usize != i {
            return Err(DecodeError::Corrupt);
        }
    }
    let n_runs = varint::read_usize(input)?;
    let mut next_seq = vec![0usize; n_names];
    let mut next_lv = 0usize;
    for _ in 0..n_runs {
        let agent = varint::read_usize(input)?;
        let seq_start = varint::read_usize(input)?;
        let len = varint::read_usize(input)?;
        let (Some(slot), Some(seq_end), Some(lv_end)) = (
            next_seq.get_mut(agent),
            seq_start.checked_add(len),
            next_lv.checked_add(len),
        ) else {
            return Err(DecodeError::Corrupt);
        };
        if len == 0 || seq_start < *slot {
            return Err(DecodeError::Corrupt);
        }
        // The checks above are exactly `assign_at`'s panic conditions.
        agents.assign_at(
            agent as u32,
            (seq_start..seq_end).into(),
            (next_lv..lv_end).into(),
        );
        *slot = seq_end;
        next_lv = lv_end;
    }
    let total = next_lv;

    // Graph entries.
    let n_entries = varint::read_usize(input)?;
    let mut entries = Vec::with_capacity(n_entries.min(bytes.len()));
    let mut at = 0usize;
    for _ in 0..n_entries {
        let len = varint::read_usize(input)?;
        let n_parents = varint::read_usize(input)?;
        let Some(end) = at.checked_add(len) else {
            return Err(DecodeError::Corrupt);
        };
        if len == 0 || end > total || n_parents > input.len() {
            return Err(DecodeError::Corrupt);
        }
        let mut parents = Vec::with_capacity(n_parents);
        let mut prev_delta = usize::MAX;
        for _ in 0..n_parents {
            // Encoded ascending-parent order means strictly decreasing
            // deltas, so the parents come out ascending and distinct.
            let delta = varint::read_usize(input)?;
            // Deltas strictly increase ⇒ parents strictly ascend once
            // reversed, and stay below the span.
            if delta == 0 || delta > at || delta >= prev_delta {
                return Err(DecodeError::Corrupt);
            }
            prev_delta = delta;
            parents.push(at - delta);
        }
        entries.push(GraphEntry {
            span: (at..end).into(),
            parents: Frontier(parents),
        });
        at = end;
    }
    if at != total {
        return Err(DecodeError::Corrupt);
    }

    let n_frontier = varint::read_usize(input)?;
    if (n_frontier == 0) != (total == 0) || n_frontier > input.len() {
        return Err(DecodeError::Corrupt);
    }
    let mut frontier = Vec::with_capacity(n_frontier);
    for _ in 0..n_frontier {
        let lv = varint::read_usize(input)?;
        if lv >= total || frontier.last().is_some_and(|&p| p >= lv) {
            return Err(DecodeError::Corrupt);
        }
        frontier.push(lv);
    }

    let n_criticals = varint::read_usize(input)?;
    let mut criticals = Vec::with_capacity(n_criticals.min(bytes.len()));
    let mut prev_end = 0usize;
    for _ in 0..n_criticals {
        let gap = varint::read_usize(input)?;
        let len = varint::read_usize(input)?;
        let (Some(start), Some(end)) = (
            prev_end.checked_add(gap),
            prev_end.checked_add(gap).and_then(|s| s.checked_add(len)),
        ) else {
            return Err(DecodeError::Corrupt);
        };
        if len == 0 || end > total {
            return Err(DecodeError::Corrupt);
        }
        criticals.push(DTRange::from(start..end));
        prev_end = end;
    }

    // Operation runs.
    let n_ops = varint::read_usize(input)?;
    let mut runs: Vec<KVPair<OpRun>> = Vec::with_capacity(n_ops.min(bytes.len()));
    let mut lv = 0usize;
    let mut content_chars = 0usize;
    for _ in 0..n_ops {
        let (&flags, rest) = input.split_first().ok_or(DecodeError::UnexpectedEof)?;
        *input = rest;
        if flags & !3 != 0 {
            return Err(DecodeError::Corrupt);
        }
        let kind = if flags & 1 == 0 {
            ListOpKind::Ins
        } else {
            ListOpKind::Del
        };
        let fwd = flags & 2 == 0;
        let len = varint::read_usize(input)?;
        let pos = varint::read_usize(input)?;
        let (Some(lv_end), Some(loc_end)) = (lv.checked_add(len), pos.checked_add(len)) else {
            return Err(DecodeError::Corrupt);
        };
        if len == 0 || lv_end > total || (kind == ListOpKind::Ins && !fwd && len > 1) {
            return Err(DecodeError::Corrupt);
        }
        let content = if kind == ListOpKind::Ins {
            let Some(c_end) = content_chars.checked_add(len) else {
                return Err(DecodeError::Corrupt);
            };
            let c = DTRange::from(content_chars..c_end);
            content_chars = c_end;
            Some(c)
        } else {
            None
        };
        runs.push(KVPair(
            lv,
            OpRun {
                kind,
                loc: (pos..loc_end).into(),
                fwd,
                content,
            },
        ));
        lv = lv_end;
    }
    if lv != total {
        return Err(DecodeError::Corrupt);
    }

    let text = read_str(input)?;
    if !input.is_empty() || text.chars().count() != content_chars {
        return Err(DecodeError::Corrupt);
    }

    let graph = Graph::from_parts(entries, Frontier(frontier), criticals);
    Ok(OpLog::from_image_parts(graph, agents, runs, text))
}

fn read_str<'a>(input: &mut &'a [u8]) -> Result<&'a str, DecodeError> {
    let len = varint::read_usize(input)?;
    if input.len() < len {
        return Err(DecodeError::UnexpectedEof);
    }
    let (raw, rest) = input.split_at(len);
    *input = rest;
    std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use egwalker::testgen::random_oplog;

    fn assert_equivalent(a: &OpLog, b: &OpLog) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.version(), b.version());
        assert_eq!(a.graph, b.graph);
        assert_eq!(
            a.checkout_tip().content.to_string(),
            b.checkout_tip().content.to_string()
        );
        for lv in 0..a.len() {
            assert_eq!(a.lv_to_remote(lv), b.lv_to_remote(lv), "lv {lv}");
            assert_eq!(a.unit_op(lv), b.unit_op(lv), "lv {lv}");
        }
    }

    #[test]
    fn image_roundtrip_simple() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        let b = oplog.get_or_create_agent("bob");
        oplog.add_insert(a, 0, "héllo wörld");
        let v = oplog.version().clone();
        oplog.add_delete_at(a, &v, 0, 3);
        oplog.add_insert_at(b, &v, 5, "→🦀");
        let bytes = encode_oplog_image(&oplog);
        let back = decode_oplog_image(&bytes).expect("roundtrip");
        assert_equivalent(&oplog, &back);
    }

    #[test]
    fn image_roundtrip_empty() {
        let oplog = OpLog::new();
        let back = decode_oplog_image(&encode_oplog_image(&oplog)).expect("empty");
        assert!(back.is_empty());
        assert_eq!(back.agents.num_agents(), 0);
    }

    #[test]
    fn image_roundtrip_random() {
        for seed in 0..40 {
            let oplog = random_oplog(seed, 120, 3, 0.2);
            let bytes = encode_oplog_image(&oplog);
            let back = decode_oplog_image(&bytes).expect("roundtrip");
            assert_equivalent(&oplog, &back);
        }
    }

    /// The ops section is written from `OpLog::op_runs`; it used to be
    /// written from `ops_in` over the whole log, one search per run. The
    /// two list the same runs, so the image bytes did not change.
    #[test]
    fn op_runs_are_what_ops_in_finds_over_the_whole_log() {
        for seed in 0..40 {
            let oplog = random_oplog(seed, 120, 3, 0.2);
            let searched: Vec<_> = oplog.ops_in((0..oplog.len()).into()).collect();
            assert!(searched.len() > 20, "seed {seed}");
            assert_eq!(oplog.op_runs().len(), searched.len(), "seed {seed}");
            assert!(oplog.op_runs().eq(searched), "seed {seed}");
        }
        // Length and CRC of the image the `ops_in` encoder wrote.
        for (seed, len, crc) in [
            (0, 1057, 0x5d62_367f_u32),
            (17, 914, 0x13a7_66a4),
            (39, 1012, 0xe652_ea9e),
        ] {
            let image = encode_oplog_image(&random_oplog(seed, 120, 3, 0.2));
            assert_eq!(
                (image.len(), crate::crc32(&image)),
                (len, crc),
                "seed {seed}"
            );
        }
    }

    /// A restored oplog must keep *working*, not just read back: new local
    /// edits and merges hang off the restored graph/agent state.
    #[test]
    fn restored_oplog_accepts_new_events() {
        let mut oplog = random_oplog(7, 120, 3, 0.2);
        let mut back = decode_oplog_image(&encode_oplog_image(&oplog)).expect("roundtrip");
        let a_orig = oplog.get_or_create_agent("post-restore");
        let a_back = back.get_or_create_agent("post-restore");
        oplog.add_insert(a_orig, 0, "tail");
        back.add_insert(a_back, 0, "tail");
        assert_equivalent(&oplog, &back);
    }

    #[test]
    fn image_decode_rejects_mutations() {
        let oplog = random_oplog(3, 60, 3, 0.2);
        let good = encode_oplog_image(&oplog);
        // Truncations never panic.
        for cut in 0..good.len() {
            let _ = decode_oplog_image(&good[..cut]);
        }
        // Flipping any single byte either fails cleanly or decodes into
        // *some* structurally valid oplog — never panics.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x2a;
            let _ = decode_oplog_image(&bad);
        }
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_oplog_image(&padded).is_err());
    }
}
