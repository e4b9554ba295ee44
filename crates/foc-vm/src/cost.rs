//! The virtual clock: deterministic cycle accounting.
//!
//! The paper reports *request processing times* measured on a 2.8 GHz
//! Pentium 4. Our substrate is an interpreter, so wall-clock time would
//! measure the interpreter, not the system under study. Instead the
//! machine charges virtual cycles chosen to reproduce the *cost structure*
//! the paper describes:
//!
//! * ordinary computation costs [`BASE`] per instruction;
//! * in checked modes, each memory access additionally pays
//!   [`MEM_CHECK_EXTRA`] (the object-table lookup) and each pointer
//!   arithmetic operation pays [`PTR_CHECK_EXTRA`] — together calibrated
//!   to CRED's reported overhead band (typically under 2×, worst cases
//!   8–12×, §1.1);
//! * intercepted violations pay [`VIOLATION_EXTRA`] (logging plus value
//!   manufacturing);
//! * modelled I/O pays a fixed latency plus a per-byte charge, *identical
//!   across modes* — this is what makes I/O-bound requests (Apache) show
//!   near-1× slowdowns while parse-bound requests (Pine) show large ones,
//!   exactly the split in Figures 2–6.
//!
//! [`CYCLES_PER_MS`] converts cycles to the milliseconds printed by the
//! experiment harness. The conversion is arbitrary (we do not claim the
//! authors' absolute numbers); only ratios are meaningful.

/// Cost of one interpreted instruction.
pub const BASE: u64 = 1;

/// Extra cost of a bounds-checked load or store (object-table lookup).
pub const MEM_CHECK_EXTRA: u64 = 20;

/// Extra cost of checked pointer arithmetic (in-bounds classification).
pub const PTR_CHECK_EXTRA: u64 = 6;

/// Extra cost of handling one intercepted violation (log + continuation).
pub const VIOLATION_EXTRA: u64 = 40;

/// Cost of a function call (frame setup) on top of per-local registration.
pub const CALL_EXTRA: u64 = 8;

/// Per-local registration cost in checked modes (object-table insert).
pub const LOCAL_REG_EXTRA: u64 = 3;

/// Fixed latency per modelled I/O operation (`io_wait`).
pub const IO_LATENCY: u64 = 2_000;

/// Per-byte cost of modelled I/O.
pub const IO_PER_BYTE: u64 = 10;

/// The most bytes one modelled I/O operation is charged for: 4 GiB, so
/// one charge stays below 2^36 cycles whatever count a guest passes.
pub const IO_MAX_BYTES: u64 = 1 << 32;

/// The cycles one modelled I/O operation of `bytes` bytes costs: the
/// latency plus the per-byte charge, a negative count charged as none
/// and a count past [`IO_MAX_BYTES`] as that many. Both tiers charge
/// through this one function.
#[inline]
pub fn io(bytes: i64) -> u64 {
    IO_LATENCY + (bytes.max(0) as u64).min(IO_MAX_BYTES) * IO_PER_BYTE
}

/// Cycles per reported millisecond.
pub const CYCLES_PER_MS: u64 = 200_000;

/// Converts cycles to milliseconds (floating point, for reporting).
pub fn cycles_to_ms(cycles: u64) -> f64 {
    cycles as f64 / CYCLES_PER_MS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_is_linear() {
        assert_eq!(cycles_to_ms(0), 0.0);
        assert!((cycles_to_ms(CYCLES_PER_MS) - 1.0).abs() < 1e-12);
        assert!((cycles_to_ms(CYCLES_PER_MS * 3 / 2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn an_io_charge_is_bounded_whatever_the_count() {
        assert_eq!(io(0), IO_LATENCY);
        assert_eq!(io(-1), IO_LATENCY);
        assert_eq!(io(i64::MIN), IO_LATENCY);
        assert_eq!(io(2048), IO_LATENCY + 2048 * IO_PER_BYTE);
        let most = IO_LATENCY + IO_MAX_BYTES * IO_PER_BYTE;
        assert_eq!(io(IO_MAX_BYTES as i64), most);
        assert_eq!(io(i64::MAX), most);
        assert!(most < 1 << 36);
    }

    #[test]
    fn checked_access_is_meaningfully_slower() {
        // The calibration target: a pure-compute loop of loads should slow
        // down by roughly the CRED band (2–10×) when checked.
        let unchecked = BASE + BASE;
        let checked = BASE + BASE + MEM_CHECK_EXTRA;
        let ratio = checked as f64 / unchecked as f64;
        assert!(ratio > 2.0 && ratio < 12.0, "ratio {ratio}");
    }
}
