//! [`CharWidthIndex`]: a run-length-encoded char-index → byte-offset map
//! for an append-only UTF-8 buffer.
//!
//! The oplog's content arena stores every inserted character in one UTF-8
//! `String`, but operations address content by **character** index (the
//! index space of editing events). Translating a char range to a byte
//! range with `char_indices` would be O(buffer); this index exploits the
//! run-structure of real text — long stretches of characters share one
//! UTF-8 encoded width (ASCII runs of width 1, accented-Latin runs of
//! width 2, CJK runs of width 3, emoji runs of width 4) — so the mapping
//! compresses to a handful of `(char_start, byte_start, width)` runs and
//! a lookup is a binary search plus one multiplication.

/// One run of characters sharing a UTF-8 encoded width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WidthRun {
    /// First character index of the run.
    char_start: usize,
    /// Byte offset of that character in the buffer.
    byte_start: usize,
    /// Bytes per character throughout the run (1..=4).
    width: u8,
}

/// An RLE char-index → byte-offset map for an append-only UTF-8 buffer.
///
/// # Examples
///
/// ```
/// use eg_rle::CharWidthIndex;
/// let mut idx = CharWidthIndex::new();
/// idx.append_str("ab");
/// idx.append_str("é→"); // 2-byte, then 3-byte
/// assert_eq!(idx.byte_of_char(0), 0);
/// assert_eq!(idx.byte_of_char(2), 2); // 'é' starts after "ab"
/// assert_eq!(idx.byte_of_char(3), 4); // '→' starts after 'é'
/// assert_eq!(idx.byte_range(1..4), 1..7);
/// assert_eq!(idx.len_chars(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CharWidthIndex {
    runs: Vec<WidthRun>,
    len_chars: usize,
    len_bytes: usize,
}

impl CharWidthIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of characters indexed.
    pub fn len_chars(&self) -> usize {
        self.len_chars
    }

    /// The number of bytes covered.
    pub fn len_bytes(&self) -> usize {
        self.len_bytes
    }

    /// Returns `true` if nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len_chars == 0
    }

    /// The number of internal runs (diagnostics: real text should compress
    /// to far fewer runs than characters).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Records one appended character of encoded width `width` (1..=4).
    pub fn append_char_width(&mut self, width: usize) {
        debug_assert!((1..=4).contains(&width));
        if let Some(last) = self.runs.last_mut() {
            if usize::from(last.width) == width {
                self.len_chars += 1;
                self.len_bytes += width;
                return;
            }
        }
        self.runs.push(WidthRun {
            char_start: self.len_chars,
            byte_start: self.len_bytes,
            width: width as u8,
        });
        self.len_chars += 1;
        self.len_bytes += width;
    }

    /// Records the characters of `s`, appended to the buffer in order.
    pub fn append_str(&mut self, s: &str) {
        for c in s.chars() {
            self.append_char_width(c.len_utf8());
        }
    }

    /// The byte offset of character `char_idx` (or of the buffer end when
    /// `char_idx == len_chars`).
    ///
    /// # Panics
    ///
    /// Panics if `char_idx > self.len_chars()`.
    pub fn byte_of_char(&self, char_idx: usize) -> usize {
        assert!(char_idx <= self.len_chars, "char index out of bounds");
        if char_idx == self.len_chars {
            return self.len_bytes;
        }
        // Last run with char_start <= char_idx.
        let i = self
            .runs
            .partition_point(|r| r.char_start <= char_idx)
            .checked_sub(1)
            .expect("non-empty index has a first run at 0");
        let r = self.runs[i];
        r.byte_start + (char_idx - r.char_start) * usize::from(r.width)
    }

    /// The byte range covering the character range.
    pub fn byte_range(&self, chars: std::ops::Range<usize>) -> std::ops::Range<usize> {
        self.byte_of_char(chars.start)..self.byte_of_char(chars.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let idx = CharWidthIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.byte_of_char(0), 0);
        assert_eq!(idx.byte_range(0..0), 0..0);
    }

    #[test]
    fn ascii_is_one_run() {
        let mut idx = CharWidthIndex::new();
        idx.append_str("hello world");
        idx.append_str("more ascii");
        assert_eq!(idx.num_runs(), 1);
        assert_eq!(idx.len_chars(), 21);
        assert_eq!(idx.len_bytes(), 21);
        assert_eq!(idx.byte_of_char(7), 7);
    }

    #[test]
    fn mixed_widths_match_char_indices() {
        let text = "abc déf → 日本語 🦀🦀 end";
        let mut idx = CharWidthIndex::new();
        idx.append_str(text);
        let byte_offsets: Vec<usize> = text
            .char_indices()
            .map(|(b, _)| b)
            .chain(std::iter::once(text.len()))
            .collect();
        for (ci, &b) in byte_offsets.iter().enumerate() {
            assert_eq!(idx.byte_of_char(ci), b, "char {ci}");
        }
        assert_eq!(idx.len_bytes(), text.len());
        assert_eq!(idx.len_chars(), text.chars().count());
        // Runs compress: far fewer runs than characters.
        assert!(idx.num_runs() < text.chars().count() / 2);
    }

    #[test]
    fn incremental_appends_equal_bulk() {
        let text = "aé→🦀xyz→→é";
        let mut bulk = CharWidthIndex::new();
        bulk.append_str(text);
        let mut inc = CharWidthIndex::new();
        for c in text.chars() {
            inc.append_char_width(c.len_utf8());
        }
        assert_eq!(bulk, inc);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut idx = CharWidthIndex::new();
        idx.append_str("ab");
        idx.byte_of_char(3);
    }
}
