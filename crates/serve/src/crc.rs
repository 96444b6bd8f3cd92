//! Hand-rolled CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`)
//! for store-record integrity.
//!
//! The workspace's vendored compression/checksum crates are no-op stubs,
//! so the store carries its own implementation: compile-time tables and a
//! slicing-by-16 update loop, sixteen bytes per step (the store checks every
//! line's CRC when it opens, reads back or compacts a shard). This is the
//! same CRC variant `cksum -o3`, zlib, and PNG use, so a record's checksum
//! can be verified with standard tooling when debugging a store by hand.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded in per step of the update loop.
const STEP: usize = 16;

/// The remainder tables, built at compile time: `TABLES[0]` is the
/// byte-indexed table, and `TABLES[k]` advances a byte's remainder past
/// `k` further zero bytes, so a step folds its bytes in with one lookup
/// each.
const TABLES: [[u32; 256]; STEP] = {
    let mut tables = [[0u32; 256]; STEP];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STEP {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// The CRC32 of `bytes` (init `!0`, final xor `!0` — the standard
/// "CRC-32" everyone means by default).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut steps = bytes.chunks_exact(STEP);
    for step in &mut steps {
        // The running remainder folds into the step's first four bytes;
        // byte `i` then has `STEP − 1 − i` bytes still to pass.
        let lead = crc.to_le_bytes();
        crc = 0;
        for (i, &b) in step.iter().enumerate() {
            let b = if i < 4 { b ^ lead[i] } else { b };
            crc ^= TABLES[STEP - 1 - i][usize::from(b)];
        }
    }
    for &b in steps.remainder() {
        crc = (crc >> 8) ^ TABLES[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_standard_check_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The bit-at-a-time definition, for the tables to agree with.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn a_step_of_sixteen_bytes_agrees_with_the_definition_at_every_length_and_offset() {
        let bytes: Vec<u8> =
            (0..300u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..STEP {
            for end in start..bytes.len() {
                let slice = &bytes[start..end];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "bytes {start}..{end}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let line = b"{\"ctx_fp\":\"12345\",\"edp\":1.5}";
        let clean = crc32(line);
        let mut flipped = line.to_vec();
        for i in 0..flipped.len() {
            for bit in 0..8u8 {
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at byte {i} bit {bit} undetected");
                flipped[i] ^= 1 << bit;
            }
        }
    }
}
