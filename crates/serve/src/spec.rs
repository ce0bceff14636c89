//! Job specifications and their canonical encoding.
//!
//! A [`JobSpec`] names one simulation job: a registry protocol, a generated
//! input label and the model bandwidth. Its [`JobSpec::canonical_json`]
//! encoding — fixed key order, no whitespace, escaped strings — is the
//! cache key of the serving layer: equal specs encode to equal bytes, and
//! distinct `(protocol, family, n, bandwidth, max_weight, seed)` tuples
//! encode to distinct bytes (pinned by the round-trip and collision
//! proptests), and [`JobSpec::from_canonical_json`] accepts exactly the
//! bytes the encoder produces (pinned by the mutation proptest).

use std::fmt;

/// One simulation job.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// Registry protocol id (e.g. `"mst"`, `"apsp"`).
    pub protocol: String,
    /// Input family name understood by
    /// [`registry::generate_input`](clique_core::registry::generate_input).
    pub family: String,
    /// Number of vertices (= players).
    pub n: usize,
    /// Link bandwidth `b` of the model instance.
    pub bandwidth: usize,
    /// Maximum edge weight for weighted families (ignored otherwise, but
    /// still part of the key).
    pub max_weight: u64,
    /// The input generator seed.
    pub seed: u64,
}

impl JobSpec {
    /// A spec for an unweighted-input protocol (`max_weight` 0).
    pub fn unweighted(protocol: &str, family: &str, n: usize, bandwidth: usize, seed: u64) -> Self {
        Self {
            protocol: protocol.to_owned(),
            family: family.to_owned(),
            n,
            bandwidth,
            max_weight: 0,
            seed,
        }
    }

    /// A spec for a weighted-input protocol.
    pub fn weighted(
        protocol: &str,
        family: &str,
        n: usize,
        bandwidth: usize,
        max_weight: u64,
        seed: u64,
    ) -> Self {
        Self {
            protocol: protocol.to_owned(),
            family: family.to_owned(),
            n,
            bandwidth,
            max_weight,
            seed,
        }
    }

    /// The canonical encoding (and cache key): fixed key order, no
    /// whitespace.
    pub fn canonical_json(&self) -> String {
        format!(
            "{{\"protocol\":{},\"family\":{},\"n\":{},\"bandwidth\":{},\"max_weight\":{},\"seed\":{}}}",
            json_string(&self.protocol),
            json_string(&self.family),
            self.n,
            self.bandwidth,
            self.max_weight,
            self.seed
        )
    }

    /// Parses a canonical encoding back into a spec.
    /// Strict: accepts exactly the bytes [`Self::canonical_json`] produces.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecParseError`] describing the first offending byte
    /// position if the input deviates from the canonical form.
    pub fn from_canonical_json(encoded: &str) -> Result<Self, SpecParseError> {
        let mut parser = Parser {
            bytes: encoded.as_bytes(),
            pos: 0,
        };
        parser.literal("{\"protocol\":")?;
        let protocol = parser.string()?;
        parser.literal(",\"family\":")?;
        let family = parser.string()?;
        parser.literal(",\"n\":")?;
        let n = parser.unsigned()?;
        parser.literal(",\"bandwidth\":")?;
        let bandwidth = parser.unsigned()?;
        parser.literal(",\"max_weight\":")?;
        let max_weight = parser.unsigned()?;
        parser.literal(",\"seed\":")?;
        let seed = parser.unsigned()?;
        parser.literal("}")?;
        parser.end()?;
        let to_usize = |value: u64, pos: usize| {
            usize::try_from(value).map_err(|_| SpecParseError {
                pos,
                expected: "a usize-sized integer",
            })
        };
        Ok(Self {
            protocol,
            family,
            n: to_usize(n, 0)?,
            bandwidth: to_usize(bandwidth, 0)?,
            max_weight,
            seed,
        })
    }
}

/// Why a canonical encoding failed to parse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecParseError {
    /// Byte offset of the first deviation.
    pub(crate) pos: usize,
    /// What the canonical form requires at that offset.
    pub(crate) expected: &'static str,
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "not a canonical job spec: expected {} at byte {}",
            self.expected, self.pos
        )
    }
}

impl std::error::Error for SpecParseError {}

/// Escapes a string as a JSON string literal (quote, backslash and control
/// characters only — the canonical form never escapes anything else).
pub(crate) fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A strict cursor over the canonical bytes.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, expected: &'static str) -> SpecParseError {
        SpecParseError {
            pos: self.pos,
            expected,
        }
    }

    fn literal(&mut self, expected: &'static str) -> Result<(), SpecParseError> {
        let end = self.pos + expected.len();
        if self.bytes.get(self.pos..end) == Some(expected.as_bytes()) {
            self.pos = end;
            Ok(())
        } else {
            Err(self.fail(expected))
        }
    }

    fn string(&mut self) -> Result<String, SpecParseError> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.fail("a string literal"));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.fail("a closing quote")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.fail("valid UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            out.push(self.control_escape()?);
                            self.pos += 4;
                        }
                        _ => return Err(self.fail("a valid escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b >= 0x20 => {
                    out.push(b);
                    self.pos += 1;
                }
                Some(_) => return Err(self.fail("an escaped control character")),
            }
        }
    }

    /// Decodes the four hex digits after a `\u` at `self.pos`. The
    /// canonical escaper writes `\u` only as lowercase `\u00xx`, and only
    /// for control characters without a short escape, so anything else is
    /// rejected.
    fn control_escape(&self) -> Result<u8, SpecParseError> {
        let digits = self.bytes.get(self.pos + 1..self.pos + 5);
        let value = match digits {
            Some([b'0', b'0', hi @ (b'0' | b'1'), lo]) => {
                let lo = match lo {
                    b'0'..=b'9' => lo - b'0',
                    b'a'..=b'f' => lo - b'a' + 10,
                    _ => return Err(self.fail("a lowercase \\u00xx escape")),
                };
                ((hi - b'0') << 4) | lo
            }
            _ => return Err(self.fail("a lowercase \\u00xx escape")),
        };
        if matches!(value, b'\n' | b'\r' | b'\t') {
            return Err(self.fail("the short escape of this character"));
        }
        Ok(value)
    }

    fn unsigned(&mut self) -> Result<u64, SpecParseError> {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.fail("a decimal integer"));
        }
        // Canonical integers have no leading zeros (format! never emits
        // them, except for the number 0 itself).
        if self.pos - start > 1 && self.bytes[start] == b'0' {
            self.pos = start;
            return Err(self.fail("no leading zeros"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| self.fail("an integer within u64"))
    }

    fn end(&self) -> Result<(), SpecParseError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.fail("end of input"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_encoding_is_stable_and_round_trips() {
        let spec = JobSpec::weighted("mst", "weighted_path", 16, 8, 7, 0xDEADBEEF);
        let encoded = spec.canonical_json();
        assert_eq!(
            encoded,
            "{\"protocol\":\"mst\",\"family\":\"weighted_path\",\"n\":16,\
             \"bandwidth\":8,\"max_weight\":7,\"seed\":3735928559}"
        );
        let parsed = JobSpec::from_canonical_json(&encoded).unwrap();
        assert_eq!(parsed, spec);
        assert_eq!(parsed.canonical_json(), encoded);
    }

    #[test]
    fn escaped_names_round_trip() {
        let spec = JobSpec::unweighted("we\"ird\\", "fam\nily\t\u{1}", 3, 1, 0);
        let encoded = spec.canonical_json();
        let parsed = JobSpec::from_canonical_json(&encoded).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn non_canonical_inputs_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"protocol\":\"mst\"}",
            // Reordered keys.
            "{\"family\":\"path\",\"protocol\":\"apsp\",\"n\":3,\"bandwidth\":1,\"max_weight\":0,\"seed\":0}",
            // Whitespace.
            "{\"protocol\": \"apsp\",\"family\":\"path\",\"n\":3,\"bandwidth\":1,\"max_weight\":0,\"seed\":0}",
            // Leading zero.
            "{\"protocol\":\"apsp\",\"family\":\"path\",\"n\":03,\"bandwidth\":1,\"max_weight\":0,\"seed\":0}",
            // Trailing garbage.
            "{\"protocol\":\"apsp\",\"family\":\"path\",\"n\":3,\"bandwidth\":1,\"max_weight\":0,\"seed\":0} ",
            // A raw control byte (the escaper writes \u000b).
            "{\"protocol\":\"ap\u{b}sp\",\"family\":\"path\",\"n\":3,\"bandwidth\":1,\"max_weight\":0,\"seed\":0}",
            // A \u escape of a printable character.
            "{\"protocol\":\"\\u0061psp\",\"family\":\"path\",\"n\":3,\"bandwidth\":1,\"max_weight\":0,\"seed\":0}",
            // Uppercase hex.
            "{\"protocol\":\"ap\\u001Fsp\",\"family\":\"path\",\"n\":3,\"bandwidth\":1,\"max_weight\":0,\"seed\":0}",
            // A sign inside the hex digits.
            "{\"protocol\":\"\\u+061psp\",\"family\":\"path\",\"n\":3,\"bandwidth\":1,\"max_weight\":0,\"seed\":0}",
            // \u000a where the escaper writes \n.
            "{\"protocol\":\"ap\\u000asp\",\"family\":\"path\",\"n\":3,\"bandwidth\":1,\"max_weight\":0,\"seed\":0}",
        ] {
            assert!(JobSpec::from_canonical_json(bad).is_err(), "{bad:?}");
        }
    }
}
