//! Memory substrate for failure-oblivious computing.
//!
//! This crate implements the runtime half of the system described in
//! *Enhancing Server Availability and Security Through Failure-Oblivious
//! Computing* (Rinard et al., OSDI 2004): a byte-addressable simulated
//! address space partitioned into data units, an object table in the style
//! of Jones & Kelly as enhanced by Ruwase & Lam (CRED), an out-of-bounds
//! pointer registry, and the access policies under evaluation:
//!
//! * [`Mode::Standard`] — unchecked accesses; out-of-bounds writes corrupt
//!   neighbouring memory exactly as an unsafe C compiler would allow.
//! * [`Mode::BoundsCheck`] — every access is checked against the object
//!   table; the first violation terminates the computation (the CRED
//!   safe-C compiler behaviour).
//! * [`Mode::FailureOblivious`] — invalid writes are discarded and invalid
//!   reads return a manufactured value sequence, so execution continues
//!   (the paper's contribution).
//! * [`Mode::Boundless`] — the §5.1 variant that stores out-of-bounds
//!   writes in a hash table indexed by data unit and offset, and returns
//!   them for matching out-of-bounds reads.
//! * [`Mode::Redirect`] — the §5.1 variant that redirects out-of-bounds
//!   accesses back into the accessed data unit at a wrapped offset.
//!
//! The crate is independent of any particular guest language; the `foc-vm`
//! crate drives it with the memory traffic of compiled MiniC programs.

pub mod addr;
pub mod heap;
pub mod log;
pub mod manufacture;
pub mod oob;
pub mod policy;
pub mod report;
pub mod restore;
pub mod roomy;
pub mod space;
pub mod store;
pub mod table;
pub mod unit;

pub use addr::{AccessSize, RegionKind, OOB_ZONE_BASE};
pub use heap::HeapError;
pub use log::{ErrorKind, MemoryErrorLog, MemoryErrorRecord};
pub use manufacture::{Manufacturer, ValueSequence};
pub use oob::{OobId, OobRegistry};
pub use policy::{BoundlessStore, Mode};
pub use report::{summarize, LogReport, SiteReport};
pub use roomy::RoomyVec;
pub use space::{
    AccessCtx, Footprint, LookupLayer, MemConfig, MemFault, MemorySpace, NativeView, Pass,
    ReadOutcome, Run, Runs, SpaceStats, WriteOutcome, FRAME_GUARD_SIZE,
};
pub use store::UnitStore;
pub use table::{FlatTable, LookupProfile, Placement, Table, TableKind};
pub use unit::{DataUnit, UnitId, UnitKind};
