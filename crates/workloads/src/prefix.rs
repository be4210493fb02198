//! Text prefixes packed into integers, shared by [`crate::sort`]'s keys
//! and [`crate::wordcount`]'s dictionary index.

/// Bytes a packed prefix holds.
pub(crate) const PREFIX_BYTES: usize = 16;

/// The first [`PREFIX_BYTES`] bytes of `text` as two big-endian `u64`s,
/// bytes 0–7 and 8–15, zero-padded past the text's end.
///
/// Packed prefixes order texts as their bytes do, up to where the
/// prefixes first differ: there the lesser holds a smaller byte, or
/// padding past a shorter text. Two texts share a packed prefix if they
/// are equal, if they differ only in trailing NUL bytes, or if both are
/// longer than [`PREFIX_BYTES`] with the same prefix; so the packed
/// prefix and the length together identify any text of at most
/// [`PREFIX_BYTES`] bytes.
///
/// A short text is read in two overlapping loads, one from its start and
/// one ending at its end, so no byte is copied through a buffer.
pub(crate) fn pack_prefix(text: &[u8]) -> [u64; 2] {
    let n = text.len();
    let be8 = |bytes: &[u8]| u64::from_be_bytes(bytes.try_into().expect("8 bytes"));
    let be4 = |bytes: &[u8]| u64::from(u32::from_be_bytes(bytes.try_into().expect("4 bytes")));
    if n >= PREFIX_BYTES {
        return [be8(&text[..8]), be8(&text[8..16])];
    }
    if n >= 8 {
        // Bytes n-8..n, shifted up until byte 8 leads.
        let next = be8(&text[n - 8..]).checked_shl(8 * (16 - n) as u32);
        return [be8(&text[..8]), next.unwrap_or(0)];
    }
    let head = match n {
        4.. => be4(&text[..4]) << 32 | be4(&text[n - 4..]) << (8 * (8 - n)),
        1.. => {
            // Bytes 0, n/2 and n-1 cover every byte of a 1–3 byte text.
            let byte = |i: usize| u64::from(text[i]) << (56 - 8 * i);
            byte(0) | byte(n / 2) | byte(n - 1)
        }
        0 => 0,
    };
    [head, 0]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: copy into a zeroed buffer, then read two words.
    fn padded(text: &[u8]) -> [u64; 2] {
        let mut prefix = [0u8; PREFIX_BYTES];
        let n = text.len().min(PREFIX_BYTES);
        prefix[..n].copy_from_slice(&text[..n]);
        [&prefix[..8], &prefix[8..]].map(|w| u64::from_be_bytes(w.try_into().unwrap()))
    }

    #[test]
    fn packs_every_length_as_the_padded_definition() {
        let bytes: Vec<u8> = (1..=24u8).map(|b| b.wrapping_mul(37) | 1).collect();
        for n in 0..=bytes.len() {
            assert_eq!(pack_prefix(&bytes[..n]), padded(&bytes[..n]), "length {n}");
            let nul = vec![0u8; n];
            assert_eq!(pack_prefix(&nul), [0, 0], "{n} NULs");
        }
    }
}
