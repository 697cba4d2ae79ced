//! The editing-operation model.
//!
//! Events carry operations `Insert(i, c)` / `Delete(i)` (paper §2). For
//! storage and processing they are run-length encoded: people type and
//! delete in bursts, so a run of consecutive single-character operations
//! collapses into one [`OpRun`].

use eg_rle::{DTRange, HasLength, MergableSpan, SplitableSpan};

/// The kind of a text operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ListOpKind {
    /// Insert characters.
    Ins,
    /// Delete characters.
    Del,
}

/// A run of consecutive single-character operations, in the coordinates of
/// the document *as it was when the run started*.
///
/// * `Ins` with `loc = [p, p+n)`, forward: characters typed left to right
///   starting at `p` (each unit `k` inserted at index `p + k`).
/// * `Del` with `loc = [p, p+n)`, forward: `n` presses of the Delete key at
///   index `p` — the characters originally at `[p, p+n)` (each unit is
///   generated at index `p`, because earlier units shift the text left).
/// * `Del` with `loc = [s, e)`, backward: backspacing — unit `k` deletes the
///   character originally at `e - 1 - k`.
///
/// `content` is a **char-index** range into the oplog's insert-content
/// buffer (`Ins` only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRun {
    /// Operation kind.
    pub kind: ListOpKind,
    /// Target index range, in document coordinates at run start.
    pub loc: DTRange,
    /// Direction of the run (see type docs). Single-unit runs are `fwd`.
    pub fwd: bool,
    /// Char range into the oplog's content buffer (`Ins` only).
    pub content: Option<DTRange>,
}

impl OpRun {
    /// The document index at which unit `k` of the run was generated.
    pub(crate) fn unit_pos(&self, k: usize) -> usize {
        debug_assert!(k < self.len());
        match (self.kind, self.fwd) {
            (ListOpKind::Ins, true) => self.loc.start + k,
            (ListOpKind::Ins, false) => self.loc.start,
            (ListOpKind::Del, true) => self.loc.start,
            (ListOpKind::Del, false) => self.loc.end - 1 - k,
        }
    }
}

impl HasLength for OpRun {
    fn len(&self) -> usize {
        self.loc.len()
    }
}

impl SplitableSpan for OpRun {
    fn truncate(&mut self, at: usize) -> Self {
        debug_assert!(at > 0 && at < self.len());
        let rem_content = self.content.as_mut().map(|c| c.truncate(at));
        let rem_loc = match (self.kind, self.fwd) {
            // Forward insert: the tail's characters land above the head's.
            (ListOpKind::Ins, true) => self.loc.truncate(at),
            (ListOpKind::Ins, false) => unreachable!("backward insert runs are unit length"),
            // Forward delete: every unit applies at the constant index
            // `loc.start` (the text slides left after each press), so the
            // tail keeps the same start.
            (ListOpKind::Del, true) => {
                let tail = DTRange::new(self.loc.start, self.loc.end - at);
                self.loc.end = self.loc.start + at;
                tail
            }
            // Backward delete: the first `at` units deleted the *top* of the
            // range; the tail keeps the bottom.
            (ListOpKind::Del, false) => {
                let tail = DTRange::new(self.loc.start, self.loc.end - at);
                self.loc.start = self.loc.end - at;
                tail
            }
        };
        OpRun {
            kind: self.kind,
            loc: rem_loc,
            fwd: self.fwd,
            content: rem_content,
        }
    }
}

impl MergableSpan for OpRun {
    fn can_append(&self, other: &Self) -> bool {
        if self.kind != other.kind {
            return false;
        }
        let content_ok = match (self.content, other.content) {
            (Some(a), Some(b)) => a.can_append(&b),
            (None, None) => true,
            _ => false,
        };
        if !content_ok {
            return false;
        }
        match self.kind {
            // Typing left to right; treat any run as forward-extensible.
            ListOpKind::Ins => self.fwd && other.fwd && other.loc.start == self.loc.end,
            ListOpKind::Del => {
                if self.fwd && other.fwd && other.loc.start == self.loc.start {
                    // Forward deletes at a constant index.
                    true
                } else {
                    // Backspacing: the next unit deletes just below us.
                    (self.len() == 1 || !self.fwd)
                        && (other.len() == 1 || !other.fwd)
                        && other.loc.end == self.loc.start
                }
            }
        }
    }

    fn append(&mut self, other: Self) {
        match self.kind {
            ListOpKind::Ins => self.loc.append(other.loc),
            ListOpKind::Del => {
                if self.fwd && other.fwd && other.loc.start == self.loc.start {
                    self.loc.end += other.len();
                } else {
                    // Backward merge.
                    self.fwd = false;
                    self.loc.start = other.loc.start;
                }
            }
        }
        if let (Some(a), Some(b)) = (&mut self.content, other.content) {
            a.append(b);
        }
    }
}

/// A transformed text operation borrowing its content from the oplog's
/// content arena — the zero-allocation form the walker emits.
///
/// The walker's hot path transforms and applies millions of operations per
/// merge; materialising each one as an owned [`TextOperation`] would
/// heap-allocate a `String` per emitted insert. `TextOpRef` instead borrows
/// the inserted text as a `&str` slice of the arena; consumers that apply
/// the operation immediately (the [`crate::Branch`] merge path) never copy
/// it, and API boundaries that truly need ownership convert with
/// [`TextOpRef::to_owned`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextOpRef<'a> {
    /// Operation kind.
    pub kind: ListOpKind,
    /// Document index where the operation applies.
    pub pos: usize,
    /// Number of characters inserted or deleted.
    pub len: usize,
    /// Inserted text, borrowed from the oplog (`Ins` only).
    pub content: Option<&'a str>,
}

impl<'a> TextOpRef<'a> {
    /// Builds an insertion over borrowed content.
    pub fn ins(pos: usize, content: &'a str) -> Self {
        TextOpRef {
            kind: ListOpKind::Ins,
            pos,
            len: content.chars().count(),
            content: Some(content),
        }
    }

    /// Builds a deletion.
    pub(crate) fn del(pos: usize, len: usize) -> Self {
        TextOpRef {
            kind: ListOpKind::Del,
            pos,
            len,
            content: None,
        }
    }

    /// Applies the operation to a rope without copying the content.
    pub(crate) fn apply_to(&self, doc: &mut eg_rope::Rope) {
        match self.kind {
            ListOpKind::Ins => doc.insert(self.pos, self.content.unwrap_or("")),
            ListOpKind::Del => doc.remove(self.pos, self.len),
        }
    }

    /// Materialises an owned [`TextOperation`] (allocates for `Ins`).
    pub fn to_owned(&self) -> TextOperation {
        TextOperation {
            kind: self.kind,
            pos: self.pos,
            len: self.len,
            content: self.content.map(str::to_string),
        }
    }
}

/// A single, materialised text operation with its content — the public form
/// of transformed operations emitted by the walker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextOperation {
    /// Operation kind.
    pub kind: ListOpKind,
    /// Document index where the operation applies.
    pub pos: usize,
    /// Number of characters inserted or deleted.
    pub len: usize,
    /// Inserted text (`Ins` only).
    pub content: Option<String>,
}

impl TextOperation {
    /// Builds an insertion.
    pub fn ins(pos: usize, content: impl Into<String>) -> Self {
        let content = content.into();
        TextOperation {
            kind: ListOpKind::Ins,
            pos,
            len: content.chars().count(),
            content: Some(content),
        }
    }

    /// Builds a deletion.
    pub fn del(pos: usize, len: usize) -> Self {
        TextOperation {
            kind: ListOpKind::Del,
            pos,
            len,
            content: None,
        }
    }

    /// Applies the operation to a rope.
    pub fn apply_to(&self, doc: &mut eg_rope::Rope) {
        match self.kind {
            ListOpKind::Ins => doc.insert(self.pos, self.content.as_deref().unwrap_or("")),
            ListOpKind::Del => doc.remove(self.pos, self.len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins_run(p: usize, n: usize, c: usize) -> OpRun {
        OpRun {
            kind: ListOpKind::Ins,
            loc: (p..p + n).into(),
            fwd: true,
            content: Some((c..c + n).into()),
        }
    }

    #[test]
    fn insert_run_merge_and_split() {
        let mut a = ins_run(5, 3, 0);
        let b = ins_run(8, 2, 3);
        assert!(a.can_append(&b));
        a.append(b);
        assert_eq!(a.loc, (5..10).into());
        assert_eq!(a.content, Some((0..5).into()));
        let tail = a.truncate(2);
        assert_eq!(a.loc, (5..7).into());
        assert_eq!(tail.loc, (7..10).into());
        assert_eq!(tail.content, Some((2..5).into()));
        assert_eq!(a.unit_pos(1), 6);
        assert_eq!(tail.unit_pos(0), 7);
    }

    #[test]
    fn non_adjacent_inserts_do_not_merge() {
        let a = ins_run(5, 3, 0);
        let b = ins_run(9, 2, 3);
        assert!(!a.can_append(&b));
        // Content gap also blocks merging.
        let c = ins_run(8, 2, 7);
        assert!(!a.can_append(&c));
    }

    #[test]
    fn forward_delete_merge() {
        let mut a = OpRun {
            kind: ListOpKind::Del,
            loc: (4..5).into(),
            fwd: true,
            content: None,
        };
        let b = OpRun {
            kind: ListOpKind::Del,
            loc: (4..5).into(),
            fwd: true,
            content: None,
        };
        assert!(a.can_append(&b));
        a.append(b);
        assert_eq!(a.loc, (4..6).into());
        assert_eq!(a.unit_pos(0), 4);
        assert_eq!(a.unit_pos(1), 4);
        let tail = a.truncate(1);
        assert_eq!(a.loc, (4..5).into());
        // Every unit of a forward delete applies at the same index.
        assert_eq!(tail.loc, (4..5).into());
        assert_eq!(tail.unit_pos(0), 4);
        // The halves re-merge.
        let mut h = a;
        assert!(h.can_append(&tail));
        h.append(tail);
        assert_eq!(h.loc, (4..6).into());
    }

    #[test]
    fn backspace_merge_and_split() {
        // Backspace at 5, then 4, then 3.
        let mut a = OpRun {
            kind: ListOpKind::Del,
            loc: (5..6).into(),
            fwd: true,
            content: None,
        };
        let b = OpRun {
            kind: ListOpKind::Del,
            loc: (4..5).into(),
            fwd: true,
            content: None,
        };
        let c = OpRun {
            kind: ListOpKind::Del,
            loc: (3..4).into(),
            fwd: true,
            content: None,
        };
        assert!(a.can_append(&b));
        a.append(b);
        assert!(!a.fwd);
        assert_eq!(a.loc, (4..6).into());
        assert!(a.can_append(&c));
        a.append(c);
        assert_eq!(a.loc, (3..6).into());
        assert_eq!(a.unit_pos(0), 5);
        assert_eq!(a.unit_pos(1), 4);
        assert_eq!(a.unit_pos(2), 3);
        let tail = a.truncate(1);
        assert_eq!(a.loc, (5..6).into());
        assert_eq!(tail.loc, (3..5).into());
        assert_eq!(tail.unit_pos(0), 4);
        assert_eq!(tail.unit_pos(1), 3);
    }

    #[test]
    fn mixed_kinds_do_not_merge() {
        let a = ins_run(0, 1, 0);
        let b = OpRun {
            kind: ListOpKind::Del,
            loc: (1..2).into(),
            fwd: true,
            content: None,
        };
        assert!(!a.can_append(&b));
    }

    #[test]
    fn text_operation_apply() {
        let mut doc = eg_rope::Rope::from_str("helo");
        TextOperation::ins(3, "l").apply_to(&mut doc);
        assert_eq!(doc.to_string(), "hello");
        TextOperation::del(0, 1).apply_to(&mut doc);
        assert_eq!(doc.to_string(), "ello");
    }

    #[test]
    fn text_op_ref_apply_and_to_owned() {
        let mut doc = eg_rope::Rope::from_str("héllo");
        let ins = TextOpRef::ins(5, "→!");
        assert_eq!(ins.len, 2, "len counts chars, not bytes");
        ins.apply_to(&mut doc);
        TextOpRef::del(1, 1).apply_to(&mut doc);
        assert_eq!(doc.to_string(), "hllo→!");
        assert_eq!(ins.to_owned(), TextOperation::ins(5, "→!"));
    }
}
