//! The column-oriented binary format for event graphs (paper §3.8).
//!
//! Events are stored in LV (topological) order, with each property in its
//! own column:
//!
//! 1. **Ops**: run-length encoded `(kind, direction, length, start
//!    position)` tuples with zigzag-delta positions;
//! 2. **Content**: the UTF-8 concatenation of inserted text (optionally
//!    only the characters that survive to the final document, optionally
//!    LZ4-compressed);
//! 3. **Parents**: one entry per linear run — implicit "previous event"
//!    parents cost nothing;
//! 4. **Agents**: the interned names plus RLE `(agent, seq)` assignments;
//! 5. optionally a **cached final document** so loads need no replay
//!    (paper §4.3: Eg-walker loads "essentially a plain text file").
//!
//! The container is `EGWALKR1` + type-tagged chunks + a trailing CRC32.
//! The ops, parents, names and assignment columns are written and read
//! by `columns.rs`, which the wire's patches (`patch.rs`) share.

use crate::columns::{self, Assignment};
use crate::crc::{crc32, split_crc};
use crate::lz4;
use crate::varint::{push_usize, read_usize, take, DecodeError};
use eg_rle::{DTRange, HasLength};
use egwalker::convert::{to_crdt_ops, CrdtOp};
use egwalker::walker::events_apply_cleanly;
use egwalker::{ListOpKind, OpLog};

/// File magic.
const MAGIC: &[u8; 8] = b"EGWALKR1";

/// Chunk type tags.
mod chunk {
    pub(crate) const OPS: u8 = 1;
    pub(crate) const CONTENT: u8 = 2;
    pub(crate) const PARENTS: u8 = 3;
    pub(crate) const AGENT_NAMES: u8 = 4;
    pub(crate) const AGENT_ASSIGNMENT: u8 = 5;
    pub(crate) const FINAL_DOC: u8 = 6;
}

/// Encoding options.
#[derive(Debug, Clone, Copy)]
pub struct EncodeOpts {
    /// LZ4-compress the content (and cached document) columns. The paper
    /// disables this for its file-size comparisons (§4.5).
    pub compress_content: bool,
    /// Store the content of deleted characters. Disabling this mimics
    /// Yjs-style storage (paper Fig. 12) and makes the file lossy for
    /// history purposes.
    pub keep_deleted_content: bool,
    /// Append a cached copy of the final document, so opening the file
    /// needs no replay (paper Fig. 11 "+ cached final doc").
    pub cache_final_doc: bool,
}

impl Default for EncodeOpts {
    fn default() -> Self {
        EncodeOpts {
            compress_content: false,
            keep_deleted_content: true,
            cache_final_doc: false,
        }
    }
}

fn push_chunk(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    push_usize(out, payload.len());
    out.extend_from_slice(payload);
}

/// Computes the set of insert events whose characters survive in the final
/// document (needed when deleted content is omitted).
fn surviving_inserts(oplog: &OpLog) -> Vec<DTRange> {
    let mut deleted: Vec<DTRange> = Vec::new();
    for op in to_crdt_ops(oplog) {
        if let CrdtOp::Del { target } = op {
            deleted.push(target);
        }
    }
    deleted.sort_unstable();
    // Merge overlapping ranges (double deletes target the same chars).
    let mut merged: Vec<DTRange> = Vec::new();
    for r in deleted {
        if let Some(last) = merged.last_mut() {
            if r.start <= last.end {
                last.end = last.end.max(r.end);
                continue;
            }
        }
        merged.push(r);
    }
    // Complement over [0, len).
    let mut out = Vec::new();
    let mut at = 0usize;
    for r in merged {
        if r.start > at {
            out.push((at..r.start).into());
        }
        at = at.max(r.end);
    }
    if at < oplog.len() {
        out.push((at..oplog.len()).into());
    }
    out
}

/// Serialises an oplog.
pub fn encode(oplog: &OpLog, opts: EncodeOpts) -> Vec<u8> {
    let n = oplog.len();

    // Column 1: ops.
    let mut ops_col = Vec::new();
    let mut prev_pos = 0i64;
    if n > 0 {
        for (_, run) in oplog.ops_in((0..n).into()) {
            columns::push_op(&mut ops_col, &mut prev_pos, &run);
        }
    }

    // Column 2: content.
    let survivors = if opts.keep_deleted_content {
        vec![DTRange::from(0..n)]
    } else {
        surviving_inserts(oplog)
    };
    let mut content = String::new();
    if n > 0 {
        let mut si = 0usize;
        for (lvs, run) in oplog.ops_in((0..n).into()) {
            if let Some(c) = run.content {
                // Emit only the surviving sub-ranges of this insert run.
                while si < survivors.len() && survivors[si].end <= lvs.start {
                    si += 1;
                }
                let mut k = si;
                while k < survivors.len() && survivors[k].start < lvs.end {
                    let s = survivors[k].start.max(lvs.start);
                    let e = survivors[k].end.min(lvs.end);
                    let cs = c.start + (s - lvs.start);
                    content.push_str(oplog.content_slice((cs..cs + (e - s)).into()));
                    k += 1;
                }
            }
        }
    }
    let content_bytes = content.into_bytes();
    let mut content_col = Vec::new();
    push_usize(&mut content_col, content_bytes.len());
    content_col.push(opts.compress_content as u8);
    if opts.compress_content {
        content_col.extend_from_slice(&lz4::compress(&content_bytes));
    } else {
        content_col.extend_from_slice(&content_bytes);
    }

    // Column 3: parents (one record per graph run).
    let mut parents_col = Vec::new();
    for entry in oplog.graph.iter() {
        // Parents always precede; store the (small) backward distance.
        let back = entry.parents.iter().map(|&p| entry.span.start - p);
        columns::push_parents(&mut parents_col, entry.span.len(), back);
    }

    // Column 4: agent names.
    let mut names_col = Vec::new();
    let names = (0..oplog.agents.num_agents()).map(|i| oplog.agents.agent_name(i as u32));
    columns::push_names(&mut names_col, names);

    // Column 5: agent assignment runs.
    let mut assign_col = Vec::new();
    for pair in oplog.agents.iter_lv_map() {
        let entry = Assignment {
            agent: pair.1.agent as usize,
            seq_start: pair.1.seq_range.start,
            len: pair.1.seq_range.len(),
        };
        columns::push_assignment(&mut assign_col, entry, 0);
    }

    // Assemble.
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    push_usize(&mut out, n);
    push_chunk(&mut out, chunk::OPS, &ops_col);
    push_chunk(&mut out, chunk::CONTENT, &content_col);
    push_chunk(&mut out, chunk::PARENTS, &parents_col);
    push_chunk(&mut out, chunk::AGENT_NAMES, &names_col);
    push_chunk(&mut out, chunk::AGENT_ASSIGNMENT, &assign_col);
    if opts.cache_final_doc {
        let doc = oplog.checkout_tip().content.to_string();
        let bytes = doc.into_bytes();
        let mut doc_col = Vec::new();
        push_usize(&mut doc_col, bytes.len());
        doc_col.push(opts.compress_content as u8);
        if opts.compress_content {
            doc_col.extend_from_slice(&lz4::compress(&bytes));
        } else {
            doc_col.extend_from_slice(&bytes);
        }
        push_chunk(&mut out, chunk::FINAL_DOC, &doc_col);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The result of decoding a file.
#[derive(Debug)]
pub struct Decoded {
    /// The reconstructed oplog. When the file omitted deleted content, the
    /// missing characters read as `\u{FFFD}`.
    pub oplog: OpLog,
    /// The cached final document, if the file carried one.
    pub cached_doc: Option<String>,
}

/// Reads the cached final document *only* — the fast-load path (paper
/// §4.3: loading is "essentially a plain text file" read).
pub fn decode_cached_doc_only(data: &[u8]) -> Result<Option<String>, DecodeError> {
    let (chunks, _) = split_chunks(data)?;
    for (tag, payload) in chunks {
        if tag == chunk::FINAL_DOC {
            return Ok(Some(read_text_block(payload)?));
        }
    }
    Ok(None)
}

fn read_text_block(mut payload: &[u8]) -> Result<String, DecodeError> {
    let raw_len = read_usize(&mut payload)?;
    let (&compressed, rest) = payload.split_first().ok_or(DecodeError::UnexpectedEof)?;
    let bytes = if compressed == 1 {
        lz4::decompress(rest, raw_len).map_err(|_| DecodeError::Corrupt)?
    } else {
        rest.to_vec()
    };
    String::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)
}

#[allow(clippy::type_complexity)]
fn split_chunks(data: &[u8]) -> Result<(Vec<(u8, &[u8])>, usize), DecodeError> {
    let (body, stored_crc) = split_crc(data).ok_or(DecodeError::BadMagic)?;
    let mut cursor = body;
    if take(&mut cursor, MAGIC.len()).map_err(|_| DecodeError::BadMagic)? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    if crc32(body) != stored_crc {
        return Err(DecodeError::Corrupt);
    }
    let n = read_usize(&mut cursor)?;
    let mut chunks = Vec::new();
    while !cursor.is_empty() {
        let (&tag, rest) = cursor.split_first().ok_or(DecodeError::UnexpectedEof)?;
        cursor = rest;
        let len = read_usize(&mut cursor)?;
        chunks.push((tag, take(&mut cursor, len)?));
    }
    Ok((chunks, n))
}

/// Deserialises a file produced by [`encode`].
pub fn decode(data: &[u8]) -> Result<Decoded, DecodeError> {
    let (chunks, n) = split_chunks(data)?;
    let get = |tag: u8| -> Result<&[u8], DecodeError> {
        chunks
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| *p)
            .ok_or(DecodeError::Corrupt)
    };

    // Agent names.
    let mut names_cur = get(chunk::AGENT_NAMES)?;
    let names = columns::read_names(&mut names_cur)?;
    let num_agents = names.len();
    let mut oplog = OpLog::new();
    let agents: Vec<_> = names
        .iter()
        .map(|name| oplog.get_or_create_agent(name))
        .collect();

    // Ops.
    let mut ops = Vec::new();
    let mut ops_cur = get(chunk::OPS)?;
    let mut prev_pos = 0i64;
    let mut total = 0usize;
    let mut inserts = 0usize;
    while total < n {
        // `pos + len` cannot overflow (the reader checks it): backward-
        // delete rebuild computes `pos + len - 1`, and a wrap there turns a
        // corrupt file into an assertion failure inside `add_backspace_at`
        // (fuzz-found).
        let op = columns::read_op(&mut ops_cur, &mut prev_pos)?;
        let len = op.loc.len();
        // Structural position bound: events are in topological order, so an
        // op can never address past the characters all earlier events could
        // have inserted. Catches wild positions cheaply; the exact check is
        // the length-simulation replay after the rebuild.
        let bound = match op.kind {
            ListOpKind::Ins => op.loc.start,
            ListOpKind::Del => op.loc.end,
        };
        if bound > inserts {
            return Err(DecodeError::Corrupt);
        }
        if op.kind == ListOpKind::Ins {
            inserts += len;
        }
        ops.push(op);
        total = total.checked_add(len).ok_or(DecodeError::Corrupt)?;
    }
    if total != n {
        return Err(DecodeError::Corrupt);
    }

    // Content.
    let content_text = read_text_block(get(chunk::CONTENT)?)?;
    let mut content_chars = content_text.chars();

    // Parents.
    let mut parents_runs: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut parents_cur = get(chunk::PARENTS)?;
    let mut covered = 0usize;
    while covered < n {
        // A zero-length span would make the rebuild below emit an empty
        // run (`add_*` asserts) or spin without advancing (fuzz-found);
        // the reader refuses it, and inflated parent counts, before
        // anything is allocated.
        let (span_len, pcount) = columns::read_parents_head(&mut parents_cur)?;
        let mut parents = Vec::with_capacity(pcount);
        for _ in 0..pcount {
            let back = read_usize(&mut parents_cur)?;
            if back == 0 || back > covered {
                return Err(DecodeError::Corrupt);
            }
            parents.push(covered - back);
        }
        parents_runs.push((span_len, parents));
        covered = covered.checked_add(span_len).ok_or(DecodeError::Corrupt)?;
    }
    if covered != n {
        return Err(DecodeError::Corrupt);
    }

    // Agent assignments.
    let mut assigns: Vec<(usize, usize, usize)> = Vec::new();
    let mut assign_cur = get(chunk::AGENT_ASSIGNMENT)?;
    let mut assigned = 0usize;
    while assigned < n {
        let entry = columns::read_assignment(&mut assign_cur, num_agents, |_| 0)?;
        assigns.push((entry.agent, entry.seq_start, entry.len));
        assigned = assigned
            .checked_add(entry.len)
            .ok_or(DecodeError::Corrupt)?;
    }
    if assigned != n {
        return Err(DecodeError::Corrupt);
    }

    // Rebuild the oplog: walk the three RLE streams in parallel, emitting
    // the finest-grained runs.
    let mut op_i = 0usize;
    let mut op_off = 0usize;
    let mut par_i = 0usize;
    let mut par_off = 0usize;
    let mut asn_i = 0usize;
    let mut asn_off = 0usize;
    let mut lv = 0usize;
    // Remaining surviving-content length mapping is implicit: inserts pull
    // chars in order; files with omitted deleted content substitute
    // replacement characters once the stream dries up.
    while lv < n {
        let op = ops.get(op_i).ok_or(DecodeError::Corrupt)?;
        let (plen, parents) = parents_runs.get(par_i).ok_or(DecodeError::Corrupt)?;
        let &(agent, seq_start, alen) = assigns.get(asn_i).ok_or(DecodeError::Corrupt)?;
        let &agent_id = agents.get(agent).ok_or(DecodeError::Corrupt)?;
        let chunk_len = (op.len() - op_off).min(plen - par_off).min(alen - asn_off);
        // All three streams were validated non-degenerate above; a zero
        // chunk would emit an empty run or stall the loop. Belt and
        // braces for whatever corruption shape gets past those checks.
        if chunk_len == 0 {
            return Err(DecodeError::Corrupt);
        }
        let parents_here: Vec<usize> = if par_off == 0 {
            parents.clone()
        } else {
            vec![lv - 1]
        };
        match op.kind {
            ListOpKind::Ins => {
                let text: String = (0..chunk_len)
                    .map(|_| content_chars.next().unwrap_or('\u{FFFD}'))
                    .collect();
                let pos = op.loc.start + op_off;
                oplog.add_insert_at(agent_id, &parents_here, pos, &text);
            }
            ListOpKind::Del => {
                if op.fwd {
                    oplog.add_delete_at(agent_id, &parents_here, op.loc.start, chunk_len);
                } else {
                    // Backward runs: this chunk deletes the top of the
                    // remaining range. `pos + len` was overflow-checked
                    // at parse time, and `op_off < len`.
                    let top = op.loc.end - 1 - op_off;
                    oplog.add_backspace_at(agent_id, &parents_here, top, chunk_len);
                }
            }
        }
        // Verify the agent assignment matches what add_* allocated.
        let expect_seq = seq_start + asn_off;
        let got = oplog.agents.lv_to_agent_span(lv);
        if got.agent != agent_id || got.seq_range.start != expect_seq {
            return Err(DecodeError::Corrupt);
        }
        lv += chunk_len;
        op_off += chunk_len;
        if op_off == op.len() {
            op_i += 1;
            op_off = 0;
        }
        par_off += chunk_len;
        if par_off == *plen {
            par_i += 1;
            par_off = 0;
        }
        asn_off += chunk_len;
        if asn_off == alen {
            asn_i += 1;
            asn_off = 0;
        }
    }

    // Exact structural-position validation: the file can be well-formed in
    // every column and still carry positions that address characters which
    // don't exist at the op's version (deletes shrink the document below
    // the insert-count bound checked above). Replaying the checkout plan
    // against a length counter proves every transformed position is in
    // bounds — so a CRC-valid crafted file cannot panic a later checkout.
    if !events_apply_cleanly(&oplog) {
        return Err(DecodeError::Corrupt);
    }

    let cached_doc = decode_cached_doc_only(data)?;
    Ok(Decoded { oplog, cached_doc })
}

#[cfg(test)]
mod tests {
    use super::*;
    use egwalker::testgen::random_oplog;

    #[test]
    fn roundtrip_random_histories() {
        for seed in 0..12u64 {
            let oplog = random_oplog(seed, 120, 3, 0.3);
            let bytes = encode(&oplog, EncodeOpts::default());
            let decoded = decode(&bytes).expect("decode");
            assert_eq!(decoded.oplog.len(), oplog.len(), "seed {seed}");
            assert_eq!(
                decoded.oplog.checkout_tip().content.to_string(),
                oplog.checkout_tip().content.to_string(),
                "seed {seed}"
            );
            assert!(decoded.cached_doc.is_none());
        }
    }

    #[test]
    fn cached_doc_roundtrip_and_fast_load() {
        let oplog = random_oplog(9, 150, 2, 0.2);
        let opts = EncodeOpts {
            cache_final_doc: true,
            ..Default::default()
        };
        let bytes = encode(&oplog, opts);
        let expected = oplog.checkout_tip().content.to_string();
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.cached_doc.as_deref(), Some(expected.as_str()));
        // Fast path.
        let doc = decode_cached_doc_only(&bytes).unwrap();
        assert_eq!(doc.as_deref(), Some(expected.as_str()));
    }

    #[test]
    fn compression_shrinks_content() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        oplog.add_insert(
            a,
            0,
            &"all work and no play makes jack a dull boy ".repeat(100),
        );
        let plain = encode(&oplog, EncodeOpts::default());
        let packed = encode(
            &oplog,
            EncodeOpts {
                compress_content: true,
                ..Default::default()
            },
        );
        assert!(packed.len() < plain.len() / 2);
        let decoded = decode(&packed).unwrap();
        assert_eq!(
            decoded.oplog.checkout_tip().content.to_string(),
            oplog.checkout_tip().content.to_string()
        );
    }

    #[test]
    fn omitting_deleted_content_shrinks() {
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent("alice");
        oplog.add_insert(a, 0, &"x".repeat(500));
        oplog.add_delete(a, 0, 400);
        let full = encode(&oplog, EncodeOpts::default());
        let slim = encode(
            &oplog,
            EncodeOpts {
                keep_deleted_content: false,
                ..Default::default()
            },
        );
        assert!(
            slim.len() + 300 < full.len(),
            "{} vs {}",
            slim.len(),
            full.len()
        );
        // Still structurally decodable.
        let decoded = decode(&slim).unwrap();
        assert_eq!(decoded.oplog.len(), oplog.len());
    }

    #[test]
    fn corruption_detected() {
        let oplog = random_oplog(3, 60, 2, 0.2);
        let mut bytes = encode(&oplog, EncodeOpts::default());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(decode(&bytes).is_err());
        // Bad magic.
        let mut bytes2 = encode(&oplog, EncodeOpts::default());
        bytes2[0] = b'X';
        assert_eq!(decode(&bytes2).err(), Some(DecodeError::BadMagic));
    }

    #[test]
    fn crafted_positions_rejected() {
        // The oplog builder does not validate positions, so both files
        // below are well-formed and CRC-valid — exactly what an attacker
        // can craft. Decode must reject them, not panic a later checkout.
        let a_name = "alice";

        // Wild position: beyond anything any event could have inserted
        // (caught by the cheap prefix bound).
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent(a_name);
        oplog.add_insert(a, 0, "abc");
        let v = oplog.version().clone();
        oplog.add_insert_at(a, &v, 10, "x");
        let bytes = encode(&oplog, EncodeOpts::default());
        assert_eq!(decode(&bytes).err(), Some(DecodeError::Corrupt));

        // Subtle position: within the insert-count bound but beyond the
        // live document (deletes shrank it) — only the length-simulation
        // replay can see this.
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent(a_name);
        oplog.add_insert(a, 0, "abc");
        oplog.add_delete(a, 0, 2);
        let v = oplog.version().clone();
        oplog.add_insert_at(a, &v, 3, "x");
        let bytes = encode(&oplog, EncodeOpts::default());
        assert_eq!(decode(&bytes).err(), Some(DecodeError::Corrupt));

        // A delete overrunning the live document tail.
        let mut oplog = OpLog::new();
        let a = oplog.get_or_create_agent(a_name);
        oplog.add_insert(a, 0, "abc");
        oplog.add_delete(a, 0, 2);
        let v = oplog.version().clone();
        oplog.add_delete_at(a, &v, 0, 3);
        let bytes = encode(&oplog, EncodeOpts::default());
        assert_eq!(decode(&bytes).err(), Some(DecodeError::Corrupt));
    }

    #[test]
    fn empty_oplog() {
        let oplog = OpLog::new();
        let bytes = encode(&oplog, EncodeOpts::default());
        let decoded = decode(&bytes).unwrap();
        assert!(decoded.oplog.is_empty());
    }
}
