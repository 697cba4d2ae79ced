//! A character-indexed rope: the document-state buffer of the Eg-walker
//! system (paper §3, "Document state").
//!
//! The rope stores UTF-8 text as bounded chunks in an
//! [`eg_content_tree::ContentTree`], giving `O(log n)` insertion and
//! deletion by **character** index (the index space of editing operations).
//! Between merges this is the *only* state Eg-walker keeps in memory, which
//! is where the paper's steady-state memory advantage comes from (§4.4).
//!
//! # Examples
//!
//! ```
//! use eg_rope::Rope;
//! let mut r = Rope::new();
//! r.insert(0, "Helo!");
//! r.insert(3, "l");
//! r.remove(5, 1);
//! assert_eq!(r.to_string(), "Hello");
//! assert_eq!(r.len_chars(), 5);
//! ```

use eg_content_tree::{ContentTree, TreeEntry};
use eg_rle::{HasLength, MergableSpan, SplitableSpan};
use std::fmt;

/// Maximum characters per chunk. Appends merge chunks up to this size;
/// larger insertions are split.
const MAX_CHUNK_CHARS: usize = 64;

/// A bounded chunk of text with its cached character count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Chunk {
    text: String,
    chars: usize,
}

impl Chunk {
    fn new(text: &str) -> Self {
        Chunk {
            text: text.to_string(),
            chars: text.chars().count(),
        }
    }

    fn byte_of_char(&self, char_idx: usize) -> usize {
        if char_idx >= self.chars {
            return self.text.len();
        }
        self.text
            .char_indices()
            .nth(char_idx)
            .map(|(b, _)| b)
            .unwrap()
    }
}

impl HasLength for Chunk {
    fn len(&self) -> usize {
        self.chars
    }
}

impl SplitableSpan for Chunk {
    fn truncate(&mut self, at: usize) -> Self {
        let byte = self.byte_of_char(at);
        let tail = self.text.split_off(byte);
        let rem = Chunk {
            chars: self.chars - at,
            text: tail,
        };
        self.chars = at;
        rem
    }
}

impl MergableSpan for Chunk {
    fn can_append(&self, other: &Self) -> bool {
        self.chars + other.chars <= MAX_CHUNK_CHARS
    }

    fn append(&mut self, other: Self) {
        self.text.push_str(&other.text);
        self.chars += other.chars;
    }
}

impl TreeEntry for Chunk {
    fn width_cur(&self) -> usize {
        self.chars
    }

    fn width_end(&self) -> usize {
        self.chars
    }
}

/// A rope: text with `O(log n)` insert/delete by character index.
#[derive(Clone, Default)]
pub struct Rope {
    tree: ContentTree<Chunk>,
    len_chars: usize,
}

impl Rope {
    /// Creates an empty rope.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a rope holding `text`.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Self {
        let mut r = Self::new();
        r.insert(0, text);
        r
    }

    /// The length in characters (Unicode scalar values).
    pub fn len_chars(&self) -> usize {
        self.len_chars
    }

    /// Returns `true` if the rope holds no text.
    pub fn is_empty(&self) -> bool {
        self.len_chars == 0
    }

    /// Inserts `text` before character `pos`.
    ///
    /// Short insertions splice their bytes straight into an existing
    /// chunk's buffer (no intermediate `String`, no new chunk) — the
    /// zero-allocation path the walker's emit pipeline rides. Longer
    /// insertions and full chunks fall back to chunk building/splitting,
    /// whose allocations amortise over [`MAX_CHUNK_CHARS`]-sized pieces.
    ///
    /// # Panics
    ///
    /// Panics if `pos > self.len_chars()`.
    pub fn insert(&mut self, pos: usize, text: &str) {
        assert!(pos <= self.len_chars, "insert position out of bounds");
        if text.is_empty() {
            return;
        }
        let n_chars = text.chars().count();
        if self.try_insert_in_place(pos, text, n_chars) {
            self.len_chars += n_chars;
            return;
        }
        let mut pos = pos;
        let mut notify = |_: &Chunk, _| {};
        // Feed the text in chunk-sized pieces.
        let mut rest = text;
        while !rest.is_empty() {
            let take_bytes = rest
                .char_indices()
                .nth(MAX_CHUNK_CHARS)
                .map(|(b, _)| b)
                .unwrap_or(rest.len());
            let (piece, tail) = rest.split_at(take_bytes);
            rest = tail;
            let chunk = Chunk::new(piece);
            let chunk_len = chunk.chars;
            let cursor = self.tree.cursor_at_cur_pos(pos);
            self.tree.insert_at(cursor, chunk, &mut notify);
            pos += chunk_len;
            self.len_chars += chunk_len;
        }
    }

    /// Tries to splice `text` into the buffer of an existing chunk around
    /// `pos`, repairing tree widths by delta. Fails (returns `false`) when
    /// no chunk at the position can absorb `n_chars` more characters.
    fn try_insert_in_place(&mut self, pos: usize, text: &str, n_chars: usize) -> bool {
        if n_chars > MAX_CHUNK_CHARS || self.len_chars == 0 {
            return false;
        }
        let cursor = self.tree.cursor_at_cur_pos(pos);
        let entries = self.tree.entries_in_leaf(cursor.leaf);
        // Candidate chunk: the one under the cursor; at a boundary
        // (offset 0 / end of leaf), the previous chunk's tail.
        let (entry_idx, offset) = if cursor.entry_idx < entries.len() && cursor.offset > 0 {
            (cursor.entry_idx, cursor.offset)
        } else if cursor.entry_idx < entries.len() && cursor.entry_idx == 0 {
            (0, 0)
        } else if cursor.entry_idx > 0 {
            (cursor.entry_idx - 1, entries[cursor.entry_idx - 1].chars)
        } else {
            return false;
        };
        if entries[entry_idx].chars + n_chars > MAX_CHUNK_CHARS {
            return false;
        }
        self.tree.update_entry(cursor.leaf, entry_idx, |c| {
            let byte = c.byte_of_char(offset);
            c.text.insert_str(byte, text);
            c.chars += n_chars;
        });
        true
    }

    /// Removes `len` characters starting at character `pos`.
    ///
    /// A removal that stays strictly inside one chunk shifts the chunk's
    /// bytes in place (no allocation); anything wider falls back to the
    /// tree's range deletion.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of the rope.
    pub fn remove(&mut self, pos: usize, len: usize) {
        assert!(pos + len <= self.len_chars, "remove range out of bounds");
        if len == 0 {
            return;
        }
        if !self.try_remove_in_place(pos, len) {
            self.tree.delete_cur_range(pos, len);
        }
        self.len_chars -= len;
    }

    /// Tries to remove `[pos, pos + len)` from within a single chunk's
    /// buffer in place. Fails when the range crosses a chunk boundary or
    /// would empty the chunk (those paths remove whole entries instead).
    fn try_remove_in_place(&mut self, pos: usize, len: usize) -> bool {
        let cursor = self.tree.cursor_at_cur_pos(pos);
        let entries = self.tree.entries_in_leaf(cursor.leaf);
        if cursor.entry_idx >= entries.len() {
            return false;
        }
        let chars = entries[cursor.entry_idx].chars;
        if cursor.offset + len > chars || len == chars {
            return false;
        }
        self.tree.update_entry(cursor.leaf, cursor.entry_idx, |c| {
            let b0 = c.byte_of_char(cursor.offset);
            let b1 = c.byte_of_char(cursor.offset + len);
            c.text.replace_range(b0..b1, "");
            c.chars -= len;
        });
        true
    }

    /// Applies an insert-or-delete in one call (convenience for replaying
    /// transformed operations).
    pub fn splice(&mut self, pos: usize, del_len: usize, ins: &str) {
        if del_len > 0 {
            self.remove(pos, del_len);
        }
        if !ins.is_empty() {
            self.insert(pos, ins);
        }
    }

    /// Iterates the rope's characters.
    pub fn chars(&self) -> impl Iterator<Item = char> + '_ {
        self.tree.iter().flat_map(|c| c.text.chars())
    }

    /// Iterates the text as the string slices it is stored in, in order.
    pub fn chunks(&self) -> impl Iterator<Item = &str> + '_ {
        self.tree.iter().map(|c| c.text.as_str())
    }

    /// Copies the characters in `[pos, pos + len)` into a `String`.
    pub fn slice_to_string(&self, pos: usize, len: usize) -> String {
        self.chars().skip(pos).take(len).collect()
    }

    /// Total bytes of text (UTF-8).
    pub fn len_bytes(&self) -> usize {
        self.tree.iter().map(|c| c.text.len()).sum()
    }
}

impl fmt::Display for Rope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.tree.iter() {
            f.write_str(&c.text)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Rope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rope({:?})", self.to_string())
    }
}

impl PartialEq for Rope {
    fn eq(&self, other: &Self) -> bool {
        self.len_chars == other.len_chars && self.chars().eq(other.chars())
    }
}

impl Eq for Rope {}

impl From<&str> for Rope {
    fn from(s: &str) -> Self {
        Rope::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let r = Rope::new();
        assert!(r.is_empty());
        assert_eq!(r.to_string(), "");
        assert_eq!(r.len_bytes(), 0);
    }

    #[test]
    fn insert_and_remove_ascii() {
        let mut r = Rope::new();
        r.insert(0, "hello world");
        r.insert(5, ",");
        assert_eq!(r.to_string(), "hello, world");
        r.remove(0, 7);
        assert_eq!(r.to_string(), "world");
        r.insert(5, "!");
        assert_eq!(r.to_string(), "world!");
    }

    #[test]
    fn unicode_chars() {
        let mut r = Rope::new();
        r.insert(0, "héllo wörld");
        assert_eq!(r.len_chars(), 11);
        r.insert(6, "→");
        assert_eq!(r.to_string(), "héllo →wörld");
        r.remove(1, 1);
        assert_eq!(r.to_string(), "hllo →wörld");
    }

    #[test]
    fn large_insert_splits_chunks() {
        let text: String = "abcdefghij".repeat(100); // 1000 chars
        let mut r = Rope::new();
        r.insert(0, &text);
        assert_eq!(r.len_chars(), 1000);
        assert_eq!(r.to_string(), text);
        r.remove(100, 800);
        assert_eq!(r.len_chars(), 200);
        let mut expect = text.clone();
        expect.replace_range(100..900, "");
        assert_eq!(r.to_string(), expect);
    }

    #[test]
    fn splice() {
        let mut r = Rope::from_str("abcdef");
        r.splice(2, 2, "XY");
        assert_eq!(r.to_string(), "abXYef");
        r.splice(0, 0, "s");
        assert_eq!(r.to_string(), "sabXYef");
        r.splice(6, 1, "");
        assert_eq!(r.to_string(), "sabXYe");
    }

    #[test]
    fn slice_and_eq() {
        let r = Rope::from_str("the quick brown fox");
        assert_eq!(r.slice_to_string(4, 5), "quick");
        let r2 = Rope::from_str("the quick brown fox");
        assert_eq!(r, r2);
        let r3 = Rope::from_str("the quick brown foX");
        assert_ne!(r, r3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_out_of_bounds() {
        let mut r = Rope::new();
        r.insert(1, "x");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn remove_out_of_bounds() {
        let mut r = Rope::from_str("ab");
        r.remove(1, 5);
    }

    /// Model test against String with char-based ops.
    #[test]
    fn model_random_edits() {
        let mut rope = Rope::new();
        let mut model = String::new();
        let mut seed = 0xdead_beef_u64;
        let mut rand = move |bound: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as usize) % bound.max(1)
        };
        let alphabet: Vec<char> = "abcXYZ→é ".chars().collect();
        for step in 0..600 {
            let model_chars: Vec<char> = model.chars().collect();
            if model.is_empty() || rand(3) > 0 {
                let pos = rand(model_chars.len() + 1);
                let len = 1 + rand(20);
                let text: String = (0..len).map(|_| alphabet[rand(alphabet.len())]).collect();
                rope.insert(pos, &text);
                let byte = model_chars[..pos]
                    .iter()
                    .map(|c| c.len_utf8())
                    .sum::<usize>();
                model.insert_str(byte, &text);
            } else {
                let pos = rand(model_chars.len());
                let len = (1 + rand(12)).min(model_chars.len() - pos);
                rope.remove(pos, len);
                let b0 = model_chars[..pos]
                    .iter()
                    .map(|c| c.len_utf8())
                    .sum::<usize>();
                let b1 = b0
                    + model_chars[pos..pos + len]
                        .iter()
                        .map(|c| c.len_utf8())
                        .sum::<usize>();
                model.replace_range(b0..b1, "");
            }
            assert_eq!(rope.to_string(), model, "mismatch at step {step}");
            assert_eq!(rope.len_chars(), model.chars().count());
        }
    }
}
