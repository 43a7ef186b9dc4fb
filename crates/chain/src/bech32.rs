//! Bech32 encoding (BIP-173), for native-SegWit addresses.

/// The bech32 character set.
const CHARSET: &[u8; 32] = b"qpzry9x8gf2tvdw0s3jn54khce6mua7l";

/// Generator coefficients for the bech32 checksum.
const GENERATOR: [u32; 5] = [0x3b6a_57b2, 0x2650_8e6d, 0x1ea1_19fa, 0x3d42_33dd, 0x2a14_62b3];

fn polymod(values: &[u8]) -> u32 {
    let mut chk: u32 = 1;
    for &v in values {
        let top = chk >> 25;
        chk = ((chk & 0x01ff_ffff) << 5) ^ v as u32;
        for (i, &g) in GENERATOR.iter().enumerate() {
            if (top >> i) & 1 == 1 {
                chk ^= g;
            }
        }
    }
    chk
}

fn hrp_expand(hrp: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(hrp.len() * 2 + 1);
    for b in hrp.bytes() {
        out.push(b >> 5);
    }
    out.push(0);
    for b in hrp.bytes() {
        out.push(b & 0x1f);
    }
    out
}

/// Converts between bit groupings (e.g. 8-bit bytes to 5-bit groups).
/// Returns `None` when `pad` is false and leftover bits are non-zero or
/// too many.
pub fn convert_bits(data: &[u8], from: u32, to: u32, pad: bool) -> Option<Vec<u8>> {
    let mut acc: u32 = 0;
    let mut bits: u32 = 0;
    let mut out = Vec::new();
    let maxv: u32 = (1 << to) - 1;
    for &b in data {
        let v = b as u32;
        if v >> from != 0 {
            return None;
        }
        acc = (acc << from) | v;
        bits += from;
        while bits >= to {
            bits -= to;
            out.push(((acc >> bits) & maxv) as u8);
        }
    }
    if pad {
        if bits > 0 {
            out.push(((acc << (to - bits)) & maxv) as u8);
        }
    } else if bits >= from || ((acc << (to - bits)) & maxv) != 0 {
        return None;
    }
    Some(out)
}

/// Encodes `data` (5-bit groups) under the human-readable part `hrp`.
pub fn encode(hrp: &str, data: &[u8]) -> String {
    let mut values = hrp_expand(hrp);
    values.extend_from_slice(data);
    values.extend_from_slice(&[0; 6]);
    let plm = polymod(&values) ^ 1;
    let mut out = String::with_capacity(hrp.len() + 1 + data.len() + 6);
    out.push_str(hrp);
    out.push('1');
    for &d in data {
        out.push(CHARSET[d as usize] as char);
    }
    for i in 0..6 {
        out.push(CHARSET[((plm >> (5 * (5 - i))) & 0x1f) as usize] as char);
    }
    out
}

/// Decodes a bech32 string into `(hrp, data)` (data in 5-bit groups,
/// checksum verified and stripped). Mixed case is rejected per BIP-173.
pub fn decode(s: &str) -> Option<(String, Vec<u8>)> {
    if s.len() < 8 || s.len() > 90 {
        return None;
    }
    let has_lower = s.bytes().any(|b| b.is_ascii_lowercase());
    let has_upper = s.bytes().any(|b| b.is_ascii_uppercase());
    if has_lower && has_upper {
        return None;
    }
    let s = s.to_ascii_lowercase();
    let sep = s.rfind('1')?;
    if sep == 0 || sep + 7 > s.len() {
        return None;
    }
    let (hrp, rest) = s.split_at(sep);
    let rest = &rest[1..];
    if hrp.bytes().any(|b| !(33..=126).contains(&b)) {
        return None;
    }
    let mut data = Vec::with_capacity(rest.len());
    for c in rest.bytes() {
        let v = CHARSET.iter().position(|&x| x == c)?;
        data.push(v as u8);
    }
    let mut values = hrp_expand(hrp);
    values.extend_from_slice(&data);
    if polymod(&values) != 1 {
        return None;
    }
    data.truncate(data.len() - 6);
    Some((hrp.to_string(), data))
}

/// Encodes a SegWit v0 program (a 20- or 32-byte hash) as a `bc1…`
/// address.
pub fn encode_segwit_v0(hrp: &str, program: &[u8]) -> String {
    let mut data = vec![0u8]; // witness version 0
    data.extend(convert_bits(program, 8, 5, true).expect("8->5 with padding never fails"));
    encode(hrp, &data)
}

/// Decodes a SegWit address into `(witness_version, program)`.
pub fn decode_segwit(expected_hrp: &str, s: &str) -> Option<(u8, Vec<u8>)> {
    let (hrp, data) = decode(s)?;
    if hrp != expected_hrp || data.is_empty() {
        return None;
    }
    let version = data[0];
    if version > 16 {
        return None;
    }
    let program = convert_bits(&data[1..], 5, 8, false)?;
    if program.len() < 2 || program.len() > 40 {
        return None;
    }
    if version == 0 && program.len() != 20 && program.len() != 32 {
        return None;
    }
    Some((version, program))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bip173_valid_strings_decode() {
        for s in [
            "A12UEL5L",
            "an83characterlonghumanreadablepartthatcontainsthenumber1andtheexcludedcharactersbio1tt5tgs",
            "abcdef1qpzry9x8gf2tvdw0s3jn54khce6mua7lmqqqxw",
            "split1checkupstagehandshakeupstreamerranterredcaperred2y9e3w",
        ] {
            assert!(decode(s).is_some(), "{s} should decode");
        }
    }

    #[test]
    fn bip173_invalid_strings_rejected() {
        for s in [
            "pzry9x0s0muk",                                  // no separator
            "1pzry9x0s0muk",                                 // empty hrp
            "x1b4n0q5v",                                     // invalid data char
            "li1dgmt3",                                      // checksum too short
            "A1G7SGD8",                                      // bad checksum
            "10a06t8",                                       // empty hrp
            "1qzzfhee",                                      // empty hrp
            "abcDEF1qpzry9x8gf2tvdw0s3jn54khce6mua7lmqqqxw", // mixed case
        ] {
            assert!(decode(s).is_none(), "{s} should be rejected");
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let data: Vec<u8> = (0..32).collect();
        let s = encode("bc", &data);
        let (hrp, decoded) = decode(&s).expect("round trip");
        assert_eq!(hrp, "bc");
        assert_eq!(decoded, data);
    }

    #[test]
    fn bip173_segwit_vector() {
        // The canonical P2WPKH example from BIP-173.
        let program: [u8; 20] = [
            0x75, 0x1e, 0x76, 0xe8, 0x19, 0x91, 0x96, 0xd4, 0x54, 0x94, 0x1c, 0x45, 0xd1, 0xb3,
            0xa3, 0x23, 0xf1, 0x43, 0x3b, 0xd6,
        ];
        let addr = encode_segwit_v0("bc", &program);
        assert_eq!(addr, "bc1qw508d6qejxtdg4y5r3zarvary0c5xw7kv8f3t4");
        let (version, decoded) = decode_segwit("bc", &addr).expect("valid");
        assert_eq!(version, 0);
        assert_eq!(decoded, program);
    }

    #[test]
    fn segwit_rejects_wrong_hrp_and_bad_programs() {
        let program = [7u8; 20];
        let addr = encode_segwit_v0("bc", &program);
        assert!(decode_segwit("tb", &addr).is_none());
        // Corrupt a data character.
        let mut corrupted = addr.clone().into_bytes();
        let last = corrupted.len() - 1;
        corrupted[last] = if corrupted[last] == b'q' { b'p' } else { b'q' };
        let corrupted = String::from_utf8(corrupted).expect("ascii");
        assert!(decode_segwit("bc", &corrupted).is_none());
    }

    #[test]
    fn convert_bits_round_trips() {
        let bytes: Vec<u8> = (0u8..=255).collect();
        let five = convert_bits(&bytes, 8, 5, true).expect("pad ok");
        let back = convert_bits(&five, 5, 8, false).expect("exact");
        assert_eq!(back, bytes);
        // Unpadded conversion with leftover bits fails.
        assert!(convert_bits(&[0xff], 8, 5, false).is_none());
    }
}
