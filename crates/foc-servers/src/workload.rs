//! Workload generation: deterministic, seeded request content.
//!
//! All generators are deterministic in their seed so experiment runs are
//! reproducible; the bench harness varies seeds per repetition.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Words used to synthesise message bodies and file contents.
const WORDS: &[&str] = &[
    "lorem",
    "ipsum",
    "dolor",
    "sit",
    "amet",
    "consectetur",
    "adipiscing",
    "elit",
    "sed",
    "do",
    "eiusmod",
    "tempor",
    "incididunt",
    "labore",
    "dolore",
    "magna",
    "aliqua",
    "enim",
    "minim",
    "veniam",
    "quis",
    "nostrud",
    "exercitation",
    "ullamco",
    "laboris",
    "nisi",
    "aliquip",
];

/// Generates roughly `len` bytes of word-like text (always at least one
/// byte, never longer than `len`), with occasional URLs and newlines so
/// pager-style scanning loops have realistic work.
pub fn lorem(len: usize, seed: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    lorem_into(&mut out, len, seed);
    out
}

/// [`lorem`] into a caller-provided buffer — the farm's per-request path,
/// which reuses one scratch buffer per server instead of allocating a
/// fresh `Vec` per request.
pub fn lorem_into(out: &mut Vec<u8>, len: usize, seed: u64) {
    out.clear();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut col = 0usize;
    while out.len() < len.saturating_sub(12) {
        if rng.gen_ratio(1, 40) {
            out.extend_from_slice(b"http://x.org");
            col += 12;
        } else {
            let w = WORDS[rng.gen_range(0..WORDS.len())];
            out.extend_from_slice(w.as_bytes());
            col += w.len();
        }
        if col > 68 {
            out.push(b'\n');
            col = 0;
        } else {
            out.push(b' ');
            col += 1;
        }
    }
    if out.is_empty() {
        out.push(b'x');
    }
    out.truncate(len.max(1));
    // Trim trailing whitespace so lengths stay predictable-ish.
    while out.len() > 1 && (out.last() == Some(&b' ') || out.last() == Some(&b'\n')) {
        out.pop();
    }
}

/// A plausible e-mail From field (display name + address).
pub fn from_field(seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    from_field_into(&mut out, seed);
    out
}

/// [`from_field`] into a caller-provided buffer.
pub fn from_field_into(out: &mut Vec<u8>, seed: u64) {
    use std::io::Write as _;
    out.clear();
    let mut rng = StdRng::seed_from_u64(seed);
    let first = WORDS[rng.gen_range(0..WORDS.len())];
    let last = WORDS[rng.gen_range(0..WORDS.len())];
    let _ = write!(out, "{first} {last} <{first}.{last}@example.org>");
}

/// A legitimate SMTP address.
pub fn sendmail_address(seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    sendmail_address_into(&mut out, seed);
    out
}

/// [`sendmail_address`] into a caller-provided buffer.
pub fn sendmail_address_into(out: &mut Vec<u8>, seed: u64) {
    use std::io::Write as _;
    out.clear();
    let mut rng = StdRng::seed_from_u64(seed);
    let user = WORDS[rng.gen_range(0..WORDS.len())];
    let _ = write!(out, "{user}{}@example.org", rng.gen_range(0..100));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lorem_is_deterministic_and_sized() {
        let a = lorem(1000, 7);
        let b = lorem(1000, 7);
        assert_eq!(a, b);
        assert!(a.len() <= 1000 && a.len() > 800);
        assert!(!a.contains(&0), "no NUL bytes in text");
        let c = lorem(1000, 8);
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn lorem_handles_tiny_sizes() {
        assert_eq!(lorem(1, 2).len(), 1);
        assert!(!lorem(5, 3).is_empty());
    }
}
