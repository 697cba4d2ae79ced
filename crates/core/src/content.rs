//! [`ContentArena`]: the oplog's storage for inserted text.
//!
//! Every inserted character is appended here, in LV order of the insert
//! events; operation runs reference their text as **char-index** ranges
//! ([`crate::OpRun::content`]). The text lives in one UTF-8 `String` — not
//! a `Vec<char>` — so a content lookup borrows a `&str` slice straight out
//! of the arena instead of collecting a fresh `String`, and storage costs
//! bytes-of-UTF-8 rather than 4 bytes per character. Char ranges translate
//! to byte ranges through an RLE char→byte index
//! ([`eg_rle::CharWidthIndex`]): real text is long runs of
//! uniform-encoded-width characters, so the index stays tiny and lookups
//! are a binary search over runs.

use eg_rle::{CharWidthIndex, DTRange};

/// An append-only UTF-8 arena addressed by character index.
///
/// # Examples
///
/// ```
/// use egwalker::content::ContentArena;
/// let mut arena = ContentArena::new();
/// let r = arena.push_str("héllo");
/// assert_eq!(r, (0..5).into());
/// assert_eq!(arena.slice((1..3).into()), "él");
/// assert_eq!(arena.char_at(1), 'é');
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContentArena {
    /// The concatenated inserted text.
    text: String,
    /// Char index → byte offset of `text`.
    index: CharWidthIndex,
}

impl ContentArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of characters stored.
    pub fn len_chars(&self) -> usize {
        self.index.len_chars()
    }

    /// The number of UTF-8 bytes stored.
    pub fn len_bytes(&self) -> usize {
        self.text.len()
    }

    /// Returns `true` if no characters have been stored.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Appends `s`, returning the char range it now occupies.
    pub fn push_str(&mut self, s: &str) -> DTRange {
        let start = self.index.len_chars();
        self.text.push_str(s);
        self.index.append_str(s);
        (start..self.index.len_chars()).into()
    }

    /// Appends one character, returning its char index.
    pub(crate) fn push_char(&mut self, c: char) -> usize {
        let at = self.index.len_chars();
        self.text.push(c);
        self.index.append_char_width(c.len_utf8());
        at
    }

    /// The stored text of a char range, borrowed from the arena.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the stored characters.
    pub fn slice(&self, range: DTRange) -> &str {
        &self.text[self.index.byte_range(range.start..range.end)]
    }

    /// The character at a char index.
    ///
    /// # Panics
    ///
    /// Panics if `char_idx >= self.len_chars()`.
    pub fn char_at(&self, char_idx: usize) -> char {
        let byte = self.index.byte_of_char(char_idx);
        self.text[byte..].chars().next().expect("index in bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_arena() {
        let arena = ContentArena::new();
        assert!(arena.is_empty());
        assert_eq!(arena.len_chars(), 0);
        assert_eq!(arena.slice((0..0).into()), "");
    }

    #[test]
    fn ascii_roundtrip() {
        let mut arena = ContentArena::new();
        let a = arena.push_str("hello ");
        let b = arena.push_str("world");
        assert_eq!(a, (0..6).into());
        assert_eq!(b, (6..11).into());
        assert_eq!(arena.slice(a), "hello ");
        assert_eq!(arena.slice(b), "world");
        assert_eq!(arena.slice((4..8).into()), "o wo");
        assert_eq!(arena.char_at(6), 'w');
    }

    /// Byte-level equivalence with the seed's `Vec<char>` semantics: a
    /// char-range slice equals collecting the same chars.
    #[test]
    fn multibyte_matches_vec_char_model() {
        let pieces = ["héllo", "→→", "日本語", "🦀", "plain", "mixé🦀d"];
        let mut arena = ContentArena::new();
        let mut model: Vec<char> = Vec::new();
        for p in pieces {
            arena.push_str(p);
            model.extend(p.chars());
        }
        assert_eq!(arena.len_chars(), model.len());
        for start in 0..model.len() {
            for end in start..=model.len() {
                let expect: String = model[start..end].iter().collect();
                assert_eq!(arena.slice((start..end).into()), expect, "{start}..{end}");
            }
        }
        for (i, &c) in model.iter().enumerate() {
            assert_eq!(arena.char_at(i), c, "char {i}");
        }
    }

    #[test]
    fn push_char_matches_push_str() {
        let text = "aé→🦀z";
        let mut a = ContentArena::new();
        a.push_str(text);
        let mut b = ContentArena::new();
        for c in text.chars() {
            b.push_char(c);
        }
        assert_eq!(a.slice((0..5).into()), b.slice((0..5).into()));
        assert_eq!(a.len_bytes(), b.len_bytes());
    }
}
