//! Manufactured values for invalid reads.
//!
//! §3 of the paper: "In principle, any sequence of manufactured values
//! should work. In practice, these values are sometimes used to determine
//! loop conditions. [...] We therefore generate a sequence that iterates
//! through all small integers, increasing the chance that, if the values
//! are used to determine loop conditions, the computation will hit upon a
//! value that will exit the loop (and avoid nontermination). Because zero
//! and one are usually the most commonly loaded values in computer
//! programs, the sequence is designed to return these values more
//! frequently than other, less common, values."
//!
//! [`ValueSequence::Cycling`] implements exactly that shape: the sequence
//! is emitted in groups of three — `0, 1, k` — with `k` stepping through
//! `2, 3, 4, …` up to a wrap limit and then restarting. Every small
//! integer appears, and 0 and 1 each appear in every group.
//!
//! The alternative strategies exist for the ablation study: a constant
//! sequence reproduces the Midnight Commander hang the paper describes
//! (a loop scanning for `'/'` never sees one).

/// Strategy for generating the values returned by invalid reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueSequence {
    /// The paper's sequence: groups of `0, 1, k` for `k = 2, 3, …, wrap`.
    Cycling {
        /// Exclusive upper bound for `k`; when reached, `k` restarts at 2.
        wrap: u64,
    },
    /// Always zero. Terminates `strlen`-style loops but never satisfies a
    /// search for a specific non-zero byte.
    Zero,
    /// Always the given value.
    Constant(u64),
}

impl Default for ValueSequence {
    fn default() -> ValueSequence {
        ValueSequence::Cycling { wrap: 256 }
    }
}

impl ValueSequence {
    /// Stable label for sweep axes and report files:
    /// `zero`, `constant<v>`, `cycling<wrap>`.
    pub fn label(self) -> String {
        match self {
            ValueSequence::Zero => "zero".to_string(),
            ValueSequence::Constant(v) => format!("constant{v}"),
            ValueSequence::Cycling { wrap } => format!("cycling{wrap}"),
        }
    }
}

impl std::fmt::Display for ValueSequence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Stateful generator of manufactured read values.
#[derive(Debug, Clone)]
pub struct Manufacturer {
    sequence: ValueSequence,
    /// Position within the current `0, 1, k` group (0, 1 or 2).
    phase: u8,
    /// Current `k` for the cycling sequence.
    k: u64,
    /// Total number of values manufactured.
    produced: u64,
}

impl Manufacturer {
    /// Creates a generator with the given strategy.
    pub fn new(sequence: ValueSequence) -> Manufacturer {
        Manufacturer {
            sequence,
            phase: 0,
            k: 2,
            produced: 0,
        }
    }

    /// Produces the next manufactured value.
    pub fn next_value(&mut self) -> u64 {
        self.produced += 1;
        match self.sequence {
            ValueSequence::Zero => 0,
            ValueSequence::Constant(v) => v,
            ValueSequence::Cycling { wrap } => {
                let v = match self.phase {
                    0 => 0,
                    1 => 1,
                    _ => self.k,
                };
                self.phase += 1;
                if self.phase == 3 {
                    self.phase = 0;
                    self.k += 1;
                    if self.k >= wrap.max(3) {
                        self.k = 2;
                    }
                }
                v
            }
        }
    }

    /// Total number of values manufactured so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Resets the generator to its initial state.
    pub fn reset(&mut self) {
        self.phase = 0;
        self.k = 2;
        self.produced = 0;
    }
}

impl Default for Manufacturer {
    fn default() -> Manufacturer {
        Manufacturer::new(ValueSequence::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycling_prefix_matches_paper_shape() {
        let mut m = Manufacturer::new(ValueSequence::Cycling { wrap: 256 });
        let got: Vec<u64> = (0..12).map(|_| m.next_value()).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 3, 0, 1, 4, 0, 1, 5]);
    }

    #[test]
    fn cycling_hits_every_small_integer() {
        let mut m = Manufacturer::new(ValueSequence::Cycling { wrap: 256 });
        let mut seen = [false; 256];
        for _ in 0..(256 * 3) {
            let v = m.next_value();
            seen[v as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "every value below the wrap limit must eventually appear"
        );
    }

    #[test]
    fn cycling_favours_zero_and_one() {
        let mut m = Manufacturer::default();
        let mut zeros = 0;
        let mut ones = 0;
        let mut others = 0;
        for _ in 0..3000 {
            match m.next_value() {
                0 => zeros += 1,
                1 => ones += 1,
                _ => others += 1,
            }
        }
        assert_eq!(zeros, 1000);
        assert_eq!(ones, 1000);
        assert_eq!(others, 1000);
        // Each individual non-0/1 value appears far less often than 0 or 1.
    }

    #[test]
    fn cycling_wraps() {
        let mut m = Manufacturer::new(ValueSequence::Cycling { wrap: 4 });
        let got: Vec<u64> = (0..9).map(|_| m.next_value()).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 3, 0, 1, 2]);
    }

    #[test]
    fn degenerate_wrap_still_cycles() {
        let mut m = Manufacturer::new(ValueSequence::Cycling { wrap: 0 });
        let got: Vec<u64> = (0..6).map(|_| m.next_value()).collect();
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn constant_and_zero_strategies() {
        let mut z = Manufacturer::new(ValueSequence::Zero);
        let mut c = Manufacturer::new(ValueSequence::Constant(42));
        for _ in 0..10 {
            assert_eq!(z.next_value(), 0);
            assert_eq!(c.next_value(), 42);
        }
        assert_eq!(z.produced(), 10);
    }

    #[test]
    fn labels_are_the_stable_report_names() {
        // The sweep's committed matrix spells cells with these.
        let cases = [
            (ValueSequence::Zero, "zero"),
            (ValueSequence::Constant(0), "constant0"),
            (ValueSequence::Constant(47), "constant47"),
            (ValueSequence::Cycling { wrap: 4 }, "cycling4"),
            (ValueSequence::Cycling { wrap: 256 }, "cycling256"),
        ];
        for (seq, label) in cases {
            assert_eq!(seq.label(), label);
            assert_eq!(seq.to_string(), label);
        }
    }

    #[test]
    fn reset_restarts_sequence() {
        let mut m = Manufacturer::default();
        let first: Vec<u64> = (0..5).map(|_| m.next_value()).collect();
        m.reset();
        let second: Vec<u64> = (0..5).map(|_| m.next_value()).collect();
        assert_eq!(first, second);
    }
}
