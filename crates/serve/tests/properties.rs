//! Property tests of the serving layer's canonical encoding: every spec
//! round-trips through its canonical JSON, distinct specs never collide as
//! cache keys (the injectivity the transcript cache relies on), and the
//! parser accepts nothing the encoder would not produce.

use clique_serve::JobSpec;
use proptest::prelude::*;

/// A name alphabet that stresses the escaper: quotes, backslashes,
/// newlines, tabs, raw control characters, and multi-byte UTF-8.
const NAME_CHARS: &[char] = &[
    'a', 'b', 'z', '0', '9', '-', '_', '(', ')', '.', '=', ' ', '"', '\\', '\n', '\r', '\t',
    '\u{1}', '\u{1f}', 'é', 'λ', '🌀',
];

/// Builds a name from alphabet indices (the vendored proptest stub has no
/// `prop_map`, so composite values are assembled inside the test body).
fn name_from(picks: &[usize]) -> String {
    picks
        .iter()
        .map(|&i| NAME_CHARS[i % NAME_CHARS.len()])
        .collect()
}

/// Builds a spec from primitive strategy outputs.
fn spec_from(names: &[Vec<usize>; 2], nums: (u64, u64, u64, u64)) -> JobSpec {
    JobSpec {
        protocol: name_from(&names[0]),
        family: name_from(&names[1]),
        n: nums.0 as usize,
        bandwidth: nums.1 as usize,
        max_weight: nums.2,
        seed: nums.3,
    }
}

/// Bytes the canonical form gives meaning to: escape syntax, hex digits in
/// both cases, a sign, quotes and raw control characters.
const EDIT_BYTES: &[u8] = b"\\u0019aAfF+\"nrt\x00\x0a\x0b\x1f\x7f";

/// Applies one byte edit to `bytes`: `kind` picks replace, insert or
/// delete at `pos % len`; `code` below 256 is the byte itself, otherwise
/// it picks from [`EDIT_BYTES`].
fn edit(bytes: &mut Vec<u8>, (kind, pos, code): (u8, usize, u16)) {
    let byte = u8::try_from(code).unwrap_or(EDIT_BYTES[usize::from(code) % EDIT_BYTES.len()]);
    let pos = pos % bytes.len();
    match kind {
        0 => bytes[pos] = byte,
        1 => bytes.insert(pos, byte),
        _ => {
            bytes.remove(pos);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn canonical_json_round_trips(
        protocol in prop::collection::vec(0usize..22, 0..12),
        family in prop::collection::vec(0usize..22, 0..12),
        nums in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        // Keep n/bandwidth within usize on every platform.
        let nums = (nums.0 >> 1, nums.1 >> 1, nums.2, nums.3);
        let spec = spec_from(&[protocol, family], nums);
        let encoded = spec.canonical_json();
        let parsed = JobSpec::from_canonical_json(&encoded).unwrap();
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.canonical_json(), encoded);
    }

    #[test]
    fn cache_keys_collide_exactly_on_equal_specs(
        a_names in (prop::collection::vec(0usize..22, 0..4), prop::collection::vec(0usize..22, 0..4)),
        b_names in (prop::collection::vec(0usize..22, 0..4), prop::collection::vec(0usize..22, 0..4)),
        a_nums in (0u64..3, 0u64..3, 0u64..3, 0u64..3),
        b_nums in (0u64..3, 0u64..3, 0u64..3, 0u64..3),
    ) {
        // Small domains on purpose: equal pairs must actually occur so the
        // "collide" direction of the iff is exercised, not just "differ".
        let a = spec_from(&[a_names.0, a_names.1], a_nums);
        let b = spec_from(&[b_names.0, b_names.1], b_nums);
        prop_assert_eq!(a.canonical_json() == b.canonical_json(), a == b);
    }

    #[test]
    fn varying_one_field_changes_the_key(
        protocol in prop::collection::vec(0usize..22, 0..12),
        family in prop::collection::vec(0usize..22, 0..12),
        nums in (0u64..1000, 0u64..1000, any::<u64>(), any::<u64>()),
    ) {
        let spec = spec_from(&[protocol, family], nums);
        let key = spec.canonical_json();
        let mut other = spec.clone();
        other.seed = spec.seed.wrapping_add(1);
        prop_assert_ne!(other.canonical_json(), key.clone());
        let mut other = spec.clone();
        other.n = spec.n.wrapping_add(1);
        prop_assert_ne!(other.canonical_json(), key.clone());
        let mut other = spec.clone();
        other.protocol.push('x');
        prop_assert_ne!(other.canonical_json(), key);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// One to three byte edits of a canonical spec never panic the parser,
    /// and whatever still parses re-encodes to exactly the parsed bytes:
    /// the parser accepts no second spelling of any spec.
    #[test]
    fn mutated_specs_parse_only_when_canonical(
        protocol in prop::collection::vec(0usize..22, 0..6),
        family in prop::collection::vec(0usize..22, 0..6),
        nums in (0u64..1000, 0u64..1000, 0u64..1000, any::<u64>()),
        edits in prop::collection::vec((0u8..3, 0usize..256, 0u16..512), 1..4),
    ) {
        let mut bytes = spec_from(&[protocol, family], nums).canonical_json().into_bytes();
        for &e in &edits {
            edit(&mut bytes, e);
        }
        if let Ok(text) = std::str::from_utf8(&bytes) {
            if let Ok(parsed) = JobSpec::from_canonical_json(text) {
                prop_assert_eq!(parsed.canonical_json(), text);
            }
        }
    }
}
