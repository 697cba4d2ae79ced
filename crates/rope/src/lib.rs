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

/// A bounded chunk of text with cached character and newline counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Chunk {
    text: String,
    chars: usize,
    newlines: usize,
}

impl Chunk {
    fn new(text: &str) -> Self {
        Chunk {
            text: text.to_string(),
            chars: text.chars().count(),
            newlines: text.bytes().filter(|&b| b == b'\n').count(),
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
            newlines: tail.bytes().filter(|&b| b == b'\n').count(),
            text: tail,
        };
        self.chars = at;
        self.newlines -= rem.newlines;
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
        self.newlines += other.newlines;
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
        let new_newlines = text.bytes().filter(|&b| b == b'\n').count();
        self.tree.update_entry(cursor.leaf, entry_idx, |c| {
            let byte = c.byte_of_char(offset);
            c.text.insert_str(byte, text);
            c.chars += n_chars;
            c.newlines += new_newlines;
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
            c.newlines -= c.text[b0..b1].bytes().filter(|&b| b == b'\n').count();
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

    /// The number of lines (one more than the number of `'\n'`s; the empty
    /// rope has one empty line).
    pub fn line_count(&self) -> usize {
        self.tree.iter().map(|c| c.newlines).sum::<usize>() + 1
    }

    /// Converts a character index into a zero-based `(line, column)` pair.
    ///
    /// Each chunk caches its newline count, so this scans chunk headers
    /// (`O(n / chunk_size)`) and decodes at most one chunk — fine for
    /// editor-frequency addressing, not for per-character inner loops.
    ///
    /// # Panics
    ///
    /// Panics if `pos > self.len_chars()`.
    pub fn char_to_line_col(&self, pos: usize) -> (usize, usize) {
        assert!(pos <= self.len_chars, "position out of bounds");
        let mut line = 0usize;
        let mut col = 0usize;
        let mut remaining = pos;
        for chunk in self.tree.iter() {
            if remaining >= chunk.chars {
                remaining -= chunk.chars;
                if chunk.newlines > 0 {
                    line += chunk.newlines;
                    // Column restarts after the chunk's last newline.
                    let after_last = chunk
                        .text
                        .rfind('\n')
                        .map(|b| chunk.text[b + 1..].chars().count())
                        .unwrap_or(0);
                    col = after_last;
                } else {
                    col += chunk.chars;
                }
                continue;
            }
            for ch in chunk.text.chars().take(remaining) {
                if ch == '\n' {
                    line += 1;
                    col = 0;
                } else {
                    col += 1;
                }
            }
            return (line, col);
        }
        (line, col)
    }

    /// Converts a zero-based `(line, column)` pair into a character index.
    ///
    /// The column is clamped to the line's length (a caret past the end of
    /// a line lands at the line break), matching editor semantics.
    ///
    /// # Panics
    ///
    /// Panics if `line >= self.line_count()`.
    pub fn line_col_to_char(&self, line: usize, col: usize) -> usize {
        assert!(line < self.line_count(), "line out of bounds");
        let mut pos = 0usize;
        let mut lines_left = line;
        for c in self.tree.iter() {
            // Skip whole chunks that end before the target line starts.
            if lines_left > c.newlines {
                lines_left -= c.newlines;
                pos += c.chars;
                continue;
            }
            // The target line's start is inside (or just after) this chunk.
            if lines_left > 0 {
                for ch in c.text.chars() {
                    pos += 1;
                    if ch == '\n' {
                        lines_left -= 1;
                        if lines_left == 0 {
                            break;
                        }
                    }
                }
            }
            break;
        }
        // `pos` is the line start; advance by at most `col`, stopping at
        // the line end.
        let mut advanced = 0usize;
        for ch in self.chars().skip(pos) {
            if advanced == col || ch == '\n' {
                break;
            }
            advanced += 1;
        }
        pos + advanced
    }

    /// The text of a zero-based line, without its trailing newline.
    ///
    /// # Panics
    ///
    /// Panics if `line >= self.line_count()`.
    pub fn line_text(&self, line: usize) -> String {
        let start = self.line_col_to_char(line, 0);
        self.chars()
            .skip(start)
            .take_while(|&c| c != '\n')
            .collect()
    }

    /// Writes the whole text into a `String`.
    pub fn to_string_builder(&self, out: &mut String) {
        out.reserve(self.len_bytes());
        for c in self.tree.iter() {
            out.push_str(&c.text);
        }
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

    #[test]
    fn line_counts() {
        assert_eq!(Rope::new().line_count(), 1);
        assert_eq!(Rope::from_str("no newline").line_count(), 1);
        assert_eq!(Rope::from_str("a\nb\nc").line_count(), 3);
        assert_eq!(Rope::from_str("trailing\n").line_count(), 2);
    }

    #[test]
    fn char_to_line_col_basics() {
        let r = Rope::from_str("ab\ncde\n\nf");
        assert_eq!(r.char_to_line_col(0), (0, 0));
        assert_eq!(r.char_to_line_col(2), (0, 2)); // on the newline
        assert_eq!(r.char_to_line_col(3), (1, 0)); // 'c'
        assert_eq!(r.char_to_line_col(6), (1, 3));
        assert_eq!(r.char_to_line_col(7), (2, 0)); // empty line
        assert_eq!(r.char_to_line_col(8), (3, 0)); // 'f'
        assert_eq!(r.char_to_line_col(9), (3, 1)); // end of document
    }

    #[test]
    fn line_col_to_char_basics() {
        let r = Rope::from_str("ab\ncde\n\nf");
        assert_eq!(r.line_col_to_char(0, 0), 0);
        assert_eq!(r.line_col_to_char(1, 0), 3);
        assert_eq!(r.line_col_to_char(1, 2), 5);
        assert_eq!(r.line_col_to_char(2, 0), 7);
        assert_eq!(r.line_col_to_char(3, 1), 9);
        // Columns clamp to the line end.
        assert_eq!(r.line_col_to_char(0, 99), 2);
        assert_eq!(r.line_col_to_char(2, 99), 7);
    }

    #[test]
    fn line_text_extraction() {
        let r = Rope::from_str("first\nsecond line\n\nfourth");
        assert_eq!(r.line_text(0), "first");
        assert_eq!(r.line_text(1), "second line");
        assert_eq!(r.line_text(2), "");
        assert_eq!(r.line_text(3), "fourth");
    }

    #[test]
    fn line_queries_across_chunk_boundaries() {
        // Force many chunks with newlines scattered across them.
        let mut text = String::new();
        for i in 0..200 {
            text.push_str(&format!("line number {i} with some padding\n"));
        }
        let r = Rope::from_str(&text);
        assert_eq!(r.line_count(), 201);
        for line in [0usize, 1, 50, 123, 199] {
            let start = r.line_col_to_char(line, 0);
            assert_eq!(r.char_to_line_col(start), (line, 0), "line {line}");
            assert_eq!(
                r.line_text(line),
                format!("line number {line} with some padding")
            );
        }
    }

    /// Model test: line/col round-trips against a straightforward string
    /// implementation, across random edits.
    #[test]
    fn line_col_model() {
        let mut rope = Rope::new();
        let mut model = String::new();
        let mut seed = 0xfeed_f00d_u64;
        let mut rand = move |bound: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as usize) % bound.max(1)
        };
        for _ in 0..200 {
            let chars: Vec<char> = model.chars().collect();
            let pos = rand(chars.len() + 1);
            let text = match rand(4) {
                0 => "\n".to_string(),
                1 => "ab\ncd".to_string(),
                _ => "xyz".to_string(),
            };
            rope.insert(pos, &text);
            let byte = chars[..pos].iter().map(|c| c.len_utf8()).sum::<usize>();
            model.insert_str(byte, &text);

            // Check every prefix position against the model.
            let model_chars: Vec<char> = model.chars().collect();
            let probe = rand(model_chars.len() + 1);
            let mut line = 0;
            let mut col = 0;
            for &c in &model_chars[..probe] {
                if c == '\n' {
                    line += 1;
                    col = 0;
                } else {
                    col += 1;
                }
            }
            assert_eq!(rope.char_to_line_col(probe), (line, col));
            assert_eq!(rope.line_col_to_char(line, col), probe);
        }
        assert_eq!(
            rope.line_count(),
            model.bytes().filter(|&b| b == b'\n').count() + 1
        );
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
