//! LEB128 variable-length integers ("small numbers in one byte, larger
//! numbers in two bytes, etc." — paper §3.8).

/// Encoding error kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended in the middle of a value.
    UnexpectedEof,
    /// A varint ran longer than 10 bytes (not a valid u64).
    Overlong,
    /// A checksum or structural check failed.
    Corrupt,
    /// The magic header was wrong.
    BadMagic,
    /// Content was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            DecodeError::UnexpectedEof => "unexpected end of input",
            DecodeError::Overlong => "overlong varint",
            DecodeError::Corrupt => "corrupt data (checksum or structure)",
            DecodeError::BadMagic => "bad magic header",
            DecodeError::BadUtf8 => "invalid UTF-8 content",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for DecodeError {}

/// Appends `value` as LEB128.
pub fn push_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a usize as LEB128.
pub fn push_usize(out: &mut Vec<u8>, value: usize) {
    push_u64(out, value as u64);
}

/// Appends a signed value with zigzag encoding (small magnitudes stay
/// small).
pub(crate) fn push_i64(out: &mut Vec<u8>, value: i64) {
    push_u64(out, ((value << 1) ^ (value >> 63)) as u64);
}

/// Reads a LEB128 value, advancing `input`.
///
/// Rejects every encoding [`push_u64`] cannot produce: values longer than
/// 10 bytes, 10-byte values whose final byte carries bits past bit 63
/// (they would silently overflow the `u64`), and non-canonical
/// zero-extended forms (a continuation byte followed by `0x00`). Each
/// `u64` therefore has exactly one accepted byte sequence — decode is a
/// partial inverse of encode, never a lossy one.
pub fn read_u64(input: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input.split_first().ok_or(DecodeError::UnexpectedEof)?;
        *input = rest;
        if shift >= 64 {
            return Err(DecodeError::Overlong);
        }
        if shift == 63 && byte & !0x01 != 0 {
            // The 10th byte holds only bit 63; anything above overflows
            // (and a continuation bit would exceed 10 bytes anyway).
            return Err(DecodeError::Overlong);
        }
        if byte == 0 && shift > 0 {
            // A zero final byte after a continuation byte is a
            // non-canonical (zero-extended) encoding.
            return Err(DecodeError::Overlong);
        }
        value |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Reads a usize.
pub fn read_usize(input: &mut &[u8]) -> Result<usize, DecodeError> {
    Ok(read_u64(input)? as usize)
}

/// Reads a zigzag-encoded signed value.
pub(crate) fn read_i64(input: &mut &[u8]) -> Result<i64, DecodeError> {
    let raw = read_u64(input)?;
    Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
}

/// Reads one raw byte, advancing `input` (shared by the wire codecs for
/// version/flag bytes).
pub(crate) fn read_u8(input: &mut &[u8]) -> Result<u8, DecodeError> {
    let (&byte, rest) = input.split_first().ok_or(DecodeError::UnexpectedEof)?;
    *input = rest;
    Ok(byte)
}

/// Takes the next `n` raw bytes, advancing `input` (shared by the wire
/// codecs for length-prefixed fields).
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if input.len() < n {
        return Err(DecodeError::UnexpectedEof);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u64() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            push_u64(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(read_u64(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn roundtrip_i64() {
        for v in [0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            push_i64(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(read_i64(&mut s).unwrap(), v);
        }
    }

    #[test]
    fn single_byte_for_small() {
        let mut buf = Vec::new();
        push_u64(&mut buf, 90);
        assert_eq!(buf.len(), 1);
        push_i64(&mut buf, -5);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn eof_detected() {
        let mut s: &[u8] = &[0x80];
        assert_eq!(read_u64(&mut s), Err(DecodeError::UnexpectedEof));
        let mut s: &[u8] = &[];
        assert_eq!(read_u64(&mut s), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn overlong_detected() {
        let mut s: &[u8] = &[0x80; 11];
        assert_eq!(read_u64(&mut s), Err(DecodeError::Overlong));
    }

    /// The boundary encodings around the 10-byte limit: `u64::MAX` must
    /// round-trip, while any 10-byte form carrying bits past bit 63 must
    /// be rejected rather than silently truncated.
    #[test]
    fn ten_byte_boundary_encodings() {
        // u64::MAX == nine 0xff continuation bytes + final 0x01 (bit 63).
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        let mut s: &[u8] = &max;
        assert_eq!(read_u64(&mut s), Ok(u64::MAX));
        assert!(s.is_empty());

        // Same prefix with bit 64 set in the final byte: overflows u64.
        let over = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut s: &[u8] = &over;
        assert_eq!(read_u64(&mut s), Err(DecodeError::Overlong));

        // A final byte with several high bits: pre-fix this truncated to
        // a small value (0x7f << 63 keeps only bit 63).
        let wide = [0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f];
        let mut s: &[u8] = &wide;
        assert_eq!(read_u64(&mut s), Err(DecodeError::Overlong));

        // A 10th byte with the continuation bit set never fit in u64.
        let cont = [
            0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x81, 0x00,
        ];
        let mut s: &[u8] = &cont;
        assert_eq!(read_u64(&mut s), Err(DecodeError::Overlong));
    }

    /// Non-canonical zero-extended encodings (e.g. `[0x80, 0x00]` for 0)
    /// are rejected: every value has exactly one accepted byte form.
    #[test]
    fn non_canonical_rejected() {
        for bad in [
            &[0x80u8, 0x00][..],
            &[0x81, 0x00],
            &[0xff, 0x80, 0x00],
            &[0x80, 0x80, 0x00],
        ] {
            let mut s: &[u8] = bad;
            assert_eq!(
                read_u64(&mut s),
                Err(DecodeError::Overlong),
                "accepted non-canonical {bad:02x?}"
            );
        }
        // Plain zero is canonical.
        let mut s: &[u8] = &[0x00];
        assert_eq!(read_u64(&mut s), Ok(0));
    }
}
