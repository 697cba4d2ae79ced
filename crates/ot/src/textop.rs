//! Component-based text operations and the classic OT primitives.
//!
//! An operation is a full-document traversal: a list of `Retain(n)`,
//! `Ins(text)` and `Del(n)` components (the representation used by
//! production OT systems such as ShareDB's text type). This form makes
//! [`transform`] and [`compose`] linear in the operation sizes.

use eg_rope::Rope;

/// One component of a [`TextOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Component {
    /// Skip over `n` characters.
    Retain(usize),
    /// Insert text at the current position.
    Ins(String),
    /// Delete `n` characters at the current position.
    Del(usize),
}

impl Component {
    fn is_empty(&self) -> bool {
        match self {
            Component::Retain(n) | Component::Del(n) => *n == 0,
            Component::Ins(s) => s.is_empty(),
        }
    }
}

/// A text operation: a normalised list of components.
///
/// `pre_len` (the document length the op applies to) and `post_len` (the
/// length afterwards) are implied by the components; helpers compute them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TextOp {
    /// The components, normalised: no empty components, no two adjacent
    /// components of the same kind, no trailing retain.
    pub components: Vec<Component>,
}

impl TextOp {
    /// The identity operation.
    pub fn identity() -> Self {
        Self::default()
    }

    /// An operation inserting `text` at `pos`.
    pub fn ins(pos: usize, text: &str) -> Self {
        let mut op = TextOp::default();
        op.retain(pos);
        op.insert(text);
        op
    }

    /// An operation deleting `len` characters at `pos`.
    pub fn del(pos: usize, len: usize) -> Self {
        let mut op = TextOp::default();
        op.retain(pos);
        op.delete(len);
        op
    }

    /// Appends a retain, merging with the tail.
    pub fn retain(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        if let Some(Component::Retain(m)) = self.components.last_mut() {
            *m += n;
            return;
        }
        self.components.push(Component::Retain(n));
    }

    /// Appends an insertion, merging with the tail.
    pub fn insert(&mut self, text: &str) {
        if text.is_empty() {
            return;
        }
        if let Some(Component::Ins(s)) = self.components.last_mut() {
            s.push_str(text);
            return;
        }
        self.components.push(Component::Ins(text.to_string()));
    }

    /// Appends a deletion, merging with the tail.
    pub fn delete(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        if let Some(Component::Del(m)) = self.components.last_mut() {
            *m += n;
            return;
        }
        self.components.push(Component::Del(n));
    }

    /// Drops a trailing retain (operations are retain-normalised).
    pub fn trim(&mut self) {
        while let Some(c) = self.components.last() {
            if matches!(c, Component::Retain(_)) || c.is_empty() {
                self.components.pop();
            } else {
                break;
            }
        }
    }

    /// Characters consumed from the source document.
    pub fn pre_len(&self) -> usize {
        self.components
            .iter()
            .map(|c| match c {
                Component::Retain(n) | Component::Del(n) => *n,
                Component::Ins(_) => 0,
            })
            .sum()
    }

    /// Characters produced in the target document.
    pub fn post_len(&self) -> usize {
        self.components
            .iter()
            .map(|c| match c {
                Component::Retain(n) => *n,
                Component::Del(_) => 0,
                Component::Ins(s) => s.chars().count(),
            })
            .sum()
    }

    /// The memory retained by this operation, in approximate bytes (used by
    /// the evaluation's memory measurements).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.components
            .iter()
            .map(|c| {
                std::mem::size_of::<Component>()
                    + match c {
                        Component::Ins(s) => s.capacity(),
                        _ => 0,
                    }
            })
            .sum::<usize>()
            + std::mem::size_of::<Self>()
    }

    /// Applies the operation to a rope.
    ///
    /// # Panics
    ///
    /// Panics if the operation runs past the end of the document.
    pub fn apply_to(&self, doc: &mut Rope) {
        let mut pos = 0;
        for c in &self.components {
            match c {
                Component::Retain(n) => pos += n,
                Component::Ins(s) => {
                    doc.insert(pos, s);
                    pos += s.chars().count();
                }
                Component::Del(n) => doc.remove(pos, *n),
            }
        }
    }

    /// Applies the operation, clamping positions at the document end.
    ///
    /// Used when replaying *recorded* traces through OT: the traces'
    /// index-based events were generated against the reference (CRDT)
    /// merge semantics, and OT may legitimately order concurrent
    /// same-position insertions differently, letting later indexes drift
    /// past the OT document's end. Clamping keeps the replay well-defined
    /// (the costs being benchmarked are unaffected).
    pub(crate) fn apply_clamped_to(&self, doc: &mut Rope) {
        let mut pos = 0;
        for c in &self.components {
            let len = doc.len_chars();
            match c {
                Component::Retain(n) => pos = (pos + n).min(len),
                Component::Ins(s) => {
                    doc.insert(pos.min(len), s);
                    pos = (pos + s.chars().count()).min(doc.len_chars());
                }
                Component::Del(n) => {
                    let pos2 = pos.min(len);
                    let n2 = (*n).min(len - pos2);
                    if n2 > 0 {
                        doc.remove(pos2, n2);
                    }
                }
            }
        }
    }
}

/// Iterator cursor over components, yielding unit-aligned slices.
struct OpReader<'a> {
    components: &'a [Component],
    idx: usize,
    offset: usize,
}

/// A borrowed piece of a component.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Piece<'a> {
    Retain(usize),
    Ins(&'a str),
    Del(usize),
}

impl<'a> OpReader<'a> {
    fn new(op: &'a TextOp) -> Self {
        OpReader {
            components: &op.components,
            idx: 0,
            offset: 0,
        }
    }

    fn peek_is_ins(&self) -> bool {
        matches!(self.components.get(self.idx), Some(Component::Ins(_)))
    }

    fn done(&self) -> bool {
        self.idx >= self.components.len()
    }

    /// Takes up to `max` units from the current component (insertions are
    /// measured in characters).
    fn take(&mut self, max: usize) -> Option<Piece<'a>> {
        let c = self.components.get(self.idx)?;
        let piece = match c {
            Component::Retain(n) => {
                let take = max.min(n - self.offset);
                self.offset += take;
                if self.offset == *n {
                    self.idx += 1;
                    self.offset = 0;
                }
                Piece::Retain(take)
            }
            Component::Del(n) => {
                let take = max.min(n - self.offset);
                self.offset += take;
                if self.offset == *n {
                    self.idx += 1;
                    self.offset = 0;
                }
                Piece::Del(take)
            }
            Component::Ins(s) => {
                let chars: Vec<(usize, char)> = s.char_indices().collect();
                let total = chars.len();
                let take = max.min(total - self.offset);
                let b0 = chars[self.offset].0;
                let b1 = if self.offset + take < total {
                    chars[self.offset + take].0
                } else {
                    s.len()
                };
                self.offset += take;
                let piece = Piece::Ins(&s[b0..b1]);
                if self.offset == total {
                    self.idx += 1;
                    self.offset = 0;
                }
                piece
            }
        };
        Some(piece)
    }
}

/// Transforms `a` against `b`: returns `a'` such that applying `b` then
/// `a'` has `a`'s intended effect (the IT function of OT).
///
/// Both operations must apply to the same document. When both insert at the
/// same position, `a_first` decides which text ends up first.
pub fn transform(a: &TextOp, b: &TextOp, a_first: bool) -> TextOp {
    let mut out = TextOp::default();
    let mut ra = OpReader::new(a);
    let mut rb = OpReader::new(b);

    loop {
        // b-insertions consume no source; they become retains in a'.
        // At insert-insert conflicts, `a_first` decides who goes first.
        if rb.peek_is_ins() && (!ra.peek_is_ins() || !a_first) {
            if let Some(Piece::Ins(s)) = rb.take(usize::MAX) {
                out.retain(s.chars().count());
            }
            continue;
        }
        if ra.peek_is_ins() {
            if let Some(Piece::Ins(s)) = ra.take(usize::MAX) {
                out.insert(s);
            }
            continue;
        }
        if ra.done() {
            break;
        }
        // Both sides now consume source characters.
        let pa = ra.take(chunk_of(&rb)).expect("a exhausted");
        match pa {
            Piece::Retain(n) => {
                // Consume n source units from b.
                let mut left = n;
                while left > 0 {
                    match rb.take(left) {
                        Some(Piece::Retain(m)) => {
                            out.retain(m);
                            left -= m;
                        }
                        Some(Piece::Del(m)) => {
                            // b deleted these characters: nothing to keep.
                            left -= m;
                        }
                        Some(Piece::Ins(_)) => unreachable!("handled above"),
                        None => {
                            // b ended (implicit retain).
                            out.retain(left);
                            left = 0;
                        }
                    }
                }
            }
            Piece::Del(n) => {
                let mut left = n;
                while left > 0 {
                    match rb.take(left) {
                        Some(Piece::Retain(m)) => {
                            out.delete(m);
                            left -= m;
                        }
                        Some(Piece::Del(m)) => {
                            // Already deleted by b: skip.
                            left -= m;
                        }
                        Some(Piece::Ins(_)) => unreachable!("handled above"),
                        None => {
                            out.delete(left);
                            left = 0;
                        }
                    }
                }
            }
            Piece::Ins(_) => unreachable!("handled above"),
        }
    }
    out.trim();
    out
}

/// How many source units the next `take` on `r`'s current component could
/// consume without crossing a boundary — used to align chunks.
fn chunk_of(r: &OpReader<'_>) -> usize {
    match r.components.get(r.idx) {
        Some(Component::Retain(n)) | Some(Component::Del(n)) => (*n - r.offset).max(1),
        _ => usize::MAX,
    }
}

/// Composes `a` then `b` into a single operation with the same effect.
pub fn compose(a: &TextOp, b: &TextOp) -> TextOp {
    let mut out = TextOp::default();
    let mut ra = OpReader::new(a);
    let mut rb = OpReader::new(b);

    loop {
        // a-deletions happen before b sees the document.
        if let Some(Component::Del(_)) = ra.components.get(ra.idx) {
            if let Some(Piece::Del(n)) = ra.take(usize::MAX) {
                out.delete(n);
            }
            continue;
        }
        // Next b component decides.
        match rb.components.get(rb.idx) {
            None => {
                // Remainder of a passes through.
                while let Some(p) = ra.take(usize::MAX) {
                    match p {
                        Piece::Retain(n) => out.retain(n),
                        Piece::Ins(s) => out.insert(s),
                        Piece::Del(n) => out.delete(n),
                    }
                }
                break;
            }
            Some(Component::Ins(_)) => {
                if let Some(Piece::Ins(s)) = rb.take(usize::MAX) {
                    out.insert(s);
                }
            }
            Some(Component::Retain(_)) | Some(Component::Del(_)) => {
                let deleting = matches!(rb.components.get(rb.idx), Some(Component::Del(_)));
                let want = chunk_of(&rb);
                // Pull `want` post-a units from a.
                match ra.take(want) {
                    None => {
                        // a ended: implicit retain.
                        match rb.take(usize::MAX) {
                            Some(Piece::Retain(n)) => out.retain(n),
                            Some(Piece::Del(n)) => out.delete(n),
                            _ => unreachable!(),
                        }
                    }
                    Some(Piece::Retain(n)) => {
                        let consumed = consume(&mut rb, n);
                        if deleting {
                            out.delete(consumed);
                        } else {
                            out.retain(consumed);
                        }
                    }
                    Some(Piece::Ins(s)) => {
                        let n = s.chars().count();
                        let consumed = consume(&mut rb, n);
                        if deleting {
                            // a inserted it, b deleted it: cancels out.
                        } else {
                            let text: String = s.chars().take(consumed).collect();
                            out.insert(&text);
                        }
                        debug_assert_eq!(consumed, n.min(consumed.max(n.min(consumed))));
                    }
                    Some(Piece::Del(_)) => unreachable!("handled above"),
                }
            }
        }
    }
    out.trim();
    out
}

/// Consumes up to `n` units from `rb`'s current (retain/del) component,
/// returning how many were consumed.
fn consume(rb: &mut OpReader<'_>, n: usize) -> usize {
    match rb.take(n) {
        Some(Piece::Retain(m)) | Some(Piece::Del(m)) => m,
        _ => n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_str(op: &TextOp, s: &str) -> String {
        let mut r = Rope::from_str(s);
        op.apply_to(&mut r);
        r.to_string()
    }

    #[test]
    fn basic_apply() {
        assert_eq!(apply_str(&TextOp::ins(2, "XY"), "abcd"), "abXYcd");
        assert_eq!(apply_str(&TextOp::del(1, 2), "abcd"), "ad");
        assert_eq!(apply_str(&TextOp::identity(), "abcd"), "abcd");
    }

    #[test]
    fn tp1_simple_cases() {
        // TP1: apply(apply(d, a), transform(b, a)) == apply(apply(d, b), transform(a, b)).
        let doc = "hello world";
        let cases = vec![
            (TextOp::ins(3, "AB"), TextOp::ins(7, "XY")),
            (TextOp::ins(3, "AB"), TextOp::del(1, 4)),
            (TextOp::del(0, 5), TextOp::del(3, 6)),
            (TextOp::del(2, 3), TextOp::ins(4, "Q")),
            (TextOp::ins(5, "A"), TextOp::ins(5, "B")),
            (TextOp::del(2, 2), TextOp::del(2, 2)),
        ];
        for (a, b) in cases {
            let ab = apply_str(&transform(&b, &a, false), &apply_str(&a, doc));
            let ba = apply_str(&transform(&a, &b, true), &apply_str(&b, doc));
            assert_eq!(ab, ba, "TP1 violated for {a:?} / {b:?}");
        }
    }

    #[test]
    fn compose_matches_sequential_apply() {
        let doc = "abcdefgh";
        let a = TextOp::del(1, 3);
        let b = TextOp::ins(2, "ZZ");
        let c = compose(&a, &b);
        assert_eq!(apply_str(&c, doc), apply_str(&b, &apply_str(&a, doc)));
    }

    #[test]
    fn insert_insert_priority() {
        let doc = "xy";
        let a = TextOp::ins(1, "A");
        let b = TextOp::ins(1, "B");
        // a first.
        let b2 = transform(&b, &a, false);
        assert_eq!(apply_str(&b2, &apply_str(&a, doc)), "xABy");
        let a2 = transform(&a, &b, true);
        assert_eq!(apply_str(&a2, &apply_str(&b, doc)), "xABy");
    }

    #[test]
    fn pre_post_lens() {
        let op = TextOp::ins(2, "AB");
        assert_eq!(op.pre_len(), 2);
        assert_eq!(op.post_len(), 4);
        let op = TextOp::del(1, 3);
        assert_eq!(op.pre_len(), 4);
        assert_eq!(op.post_len(), 1);
    }

    /// Randomised TP1 check over many op pairs.
    #[test]
    fn tp1_randomised() {
        let mut seed = 0x5ee1_u64;
        let mut rand = move |bound: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as usize) % bound.max(1)
        };
        let base: String = "abcdefghijklmnopqrstuvwxyz".repeat(3);
        for case in 0..800 {
            let len = base.chars().count();
            let mk = |rand: &mut dyn FnMut(usize) -> usize| -> TextOp {
                if rand(2) == 0 {
                    let pos = rand(len + 1);
                    let n = 1 + rand(4);
                    TextOp::ins(pos, &"XYZW"[..n.min(4)])
                } else {
                    let pos = rand(len);
                    let n = (1 + rand(5)).min(len - pos);
                    TextOp::del(pos, n)
                }
            };
            let a = mk(&mut rand);
            let b = mk(&mut rand);
            let ab = apply_str(&transform(&b, &a, false), &apply_str(&a, &base));
            let ba = apply_str(&transform(&a, &b, true), &apply_str(&b, &base));
            assert_eq!(ab, ba, "TP1 violated (case {case}) for {a:?} / {b:?}");
        }
    }

    /// Randomised compose check.
    #[test]
    fn compose_randomised() {
        let mut seed = 0xc0ffee_u64;
        let mut rand = move |bound: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as usize) % bound.max(1)
        };
        let base: String = "abcdefghij".repeat(4);
        for case in 0..800 {
            let len0 = base.chars().count();
            let a = if rand(2) == 0 {
                TextOp::ins(rand(len0 + 1), "PQ")
            } else {
                let pos = rand(len0);
                TextOp::del(pos, (1 + rand(4)).min(len0 - pos))
            };
            let mid = apply_str(&a, &base);
            let len1 = mid.chars().count();
            let b = if rand(2) == 0 {
                TextOp::ins(rand(len1 + 1), "Z")
            } else if len1 > 0 {
                let pos = rand(len1);
                TextOp::del(pos, (1 + rand(4)).min(len1 - pos))
            } else {
                TextOp::ins(0, "Z")
            };
            let expect = apply_str(&b, &mid);
            let c = compose(&a, &b);
            assert_eq!(
                apply_str(&c, &base),
                expect,
                "compose broken (case {case}) {a:?} / {b:?}"
            );
        }
    }
}
