//! Bytecode virtual machine over the failure-oblivious memory substrate.
//!
//! The machine executes compiled MiniC programs against a
//! [`foc_memory::MemorySpace`], so every guest load, store, and pointer
//! operation flows through the configured access policy — the checking
//! code and continuation code of the paper live in the substrate; this
//! crate supplies the execution engine around them:
//!
//! * a stack-machine interpreter with frames allocated *inside* the
//!   simulated stack region (so Standard-mode overflows smash real frame
//!   metadata and are detected as segmentation violations / control-flow
//!   hijacks on return);
//! * the libc shim layer ([`builtins`]) whose string and memory functions
//!   perform byte-wise guest accesses, making them subject to the same
//!   checks as compiled code (as CRED instruments the C library);
//! * a deterministic virtual clock ([`cost`]) charging cycles for
//!   computation, checking overhead, and modelled I/O — the basis of the
//!   request-processing-time experiments;
//! * an instruction budget ("fuel") so that non-terminating executions
//!   (e.g. the Midnight Commander scan loop under a constant manufactured
//!   value sequence) surface as [`VmFault::FuelExhausted`] rather than
//!   hanging the host.
//!
//! A [`Machine`] is `Clone`, and that is the whole restart layer: a
//! booted machine kept behind an `Arc` and never called is a frozen
//! boot, and restoring it is [`Machine::restore_from`], which copies it
//! over the dead machine in place and leaves what `clone()` would (see
//! [`checkpoint`]).

pub mod builtins;
pub mod checkpoint;
pub mod cost;
pub mod fault;
pub mod machine;

pub use fault::VmFault;
pub use machine::{ExecProfile, Machine, MachineConfig, Observation, RunStats};
