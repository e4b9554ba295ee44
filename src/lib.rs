//! # failure-oblivious
//!
//! A from-scratch reproduction of *Enhancing Server Availability and
//! Security Through Failure-Oblivious Computing* (Rinard, Cadar, Dumitran,
//! Roy, Leu, Beebee — OSDI 2004).
//!
//! Failure-oblivious computing makes programs continue executing through
//! memory errors without memory corruption: a bounds-checking compiler
//! detects invalid accesses, but instead of terminating, the generated
//! code **discards invalid writes** and **manufactures values for invalid
//! reads**. This crate ships the whole system the paper describes — built
//! on a simulated substrate, since the original depends on GCC, CRED, and
//! five real Unix servers:
//!
//! * [`lang`] — MiniC, a C subset rich enough to express the paper's
//!   vulnerable code verbatim (Figure 1 compiles essentially unmodified);
//! * [`compiler`] — a bytecode compiler whose memory instructions are the
//!   instrumentation points of the Jones & Kelly / CRED checking scheme;
//! * [`memory`] — the runtime: object table (sorted vector, ordered-map
//!   oracle), out-of-bounds descriptor registry, and the access policies
//!   ([`Mode::Standard`], [`Mode::BoundsCheck`], [`Mode::FailureOblivious`],
//!   plus the §5.1 variants [`Mode::Boundless`] and [`Mode::Redirect`]);
//! * [`vm`] — the execution engine with libc shims and a virtual clock;
//! * [`servers`] — Pine, Apache, Sendmail, Midnight Commander, and Mutt
//!   re-implemented with their documented memory errors, plus request
//!   drivers.
//!
//! ## Quickstart
//!
//! ```
//! use failure_oblivious::{run, Mode};
//!
//! // A classic off-by-N overflow: writes past an 8-byte buffer.
//! let src = r#"
//!     int main() {
//!         int i;
//!         char buf[8];
//!         for (i = 0; i < 16; i++) buf[i] = 'A';
//!         return 7;
//!     }
//! "#;
//!
//! // The Bounds Check compiler terminates at the first invalid write...
//! assert!(run(src, Mode::BoundsCheck).is_err());
//! // ...the failure-oblivious compiler discards it and continues.
//! assert_eq!(run(src, Mode::FailureOblivious).unwrap(), 7);
//! ```

pub use foc_compiler as compiler;
pub use foc_lang as lang;
pub use foc_memory as memory;
pub use foc_servers as servers;
pub use foc_vm as vm;

pub use foc_memory::{MemConfig, Mode, ValueSequence};
pub use foc_vm::{Machine, MachineConfig, VmFault};

/// Compiles MiniC source and runs its `main` function under the given
/// access policy, returning `main`'s return value.
///
/// This is the one-line entry point; build a [`Machine`] directly for
/// persistent state, input/output, or custom configuration.
pub fn run(source: &str, mode: Mode) -> Result<i64, RunError> {
    let mut machine =
        Machine::from_source(source, MachineConfig::with_mode(mode)).map_err(RunError::Build)?;
    machine.call("main", &[]).map_err(RunError::Fault)
}

/// Failure of [`run`].
#[derive(Debug)]
pub enum RunError {
    /// The source failed to compile or load.
    Build(String),
    /// Execution faulted (includes `exit`/`abort`).
    Fault(VmFault),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Build(e) => write!(f, "build error: {e}"),
            RunError::Fault(e) => write!(f, "runtime fault: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_executes_main() {
        assert_eq!(
            run("int main() { return 41 + 1; }", Mode::Standard).unwrap(),
            42
        );
    }

    #[test]
    fn run_reports_build_errors() {
        assert!(matches!(
            run("int main( {", Mode::Standard),
            Err(RunError::Build(_))
        ));
    }

    #[test]
    fn modes_differ_on_overflow() {
        let src = "int main() { int i; char b[4]; for (i = 0; i < 12; i++) b[i] = 1; return 5; }";
        assert!(run(src, Mode::BoundsCheck).is_err());
        assert_eq!(run(src, Mode::FailureOblivious).unwrap(), 5);
        assert_eq!(run(src, Mode::Boundless).unwrap(), 5);
        assert_eq!(run(src, Mode::Redirect).unwrap(), 5);
    }
}
