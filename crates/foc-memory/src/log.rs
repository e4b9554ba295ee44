//! The memory-error log.
//!
//! §3: "our compiler can optionally augment the generated code to produce
//! a log containing information about the program's attempts to commit
//! memory errors. This log may help administrators to detect and respond
//! appropriately to the presence of such errors." The stability studies in
//! §4 rely on this log (e.g. discovering that Sendmail commits a memory
//! error on every wake-up, and that Midnight Commander commits one on every
//! blank configuration line).

use std::fmt;

use crate::addr::AccessSize;
use crate::restore;
use crate::unit::UnitId;

/// Classification of a logged memory error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// A read outside every live data unit.
    InvalidRead,
    /// A write outside every live data unit.
    InvalidWrite,
    /// A read through a pointer whose referent has been freed.
    DanglingRead,
    /// A write through a pointer whose referent has been freed.
    DanglingWrite,
    /// A `free` of a pointer that is not the base of a live heap unit.
    InvalidFree,
}

impl ErrorKind {
    /// Whether the error is a read.
    pub fn is_read(self) -> bool {
        matches!(self, ErrorKind::InvalidRead | ErrorKind::DanglingRead)
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::InvalidRead => "invalid read",
            ErrorKind::InvalidWrite => "invalid write",
            ErrorKind::DanglingRead => "dangling read",
            ErrorKind::DanglingWrite => "dangling write",
            ErrorKind::InvalidFree => "invalid free",
        };
        f.write_str(s)
    }
}

/// One logged attempt to commit a memory error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryErrorRecord {
    /// Monotone sequence number.
    pub seq: u64,
    /// What happened.
    pub kind: ErrorKind,
    /// The guest address of the attempted access (the *intended* address
    /// for accesses through out-of-bounds descriptors).
    pub addr: u64,
    /// Width of the attempted access.
    pub size: AccessSize,
    /// The data unit the pointer was derived from, when known.
    pub referent: Option<UnitId>,
    /// Offset from the referent base, when known.
    pub offset: Option<i64>,
    /// Guest function index active at the time of the access.
    pub func: u32,
    /// Guest program counter at the time of the access.
    pub pc: u32,
}

/// Append-only log of memory errors with bounded retention and
/// **batched eviction**.
///
/// Long stability runs commit millions of errors; the log keeps exact
/// counters forever but retains only the most recent `capacity` records.
///
/// The seed implementation evicted eagerly — one `Vec::remove(0)` per
/// record once full, an O(capacity) memmove on *every* violation — which
/// is what held manufactured-value loops to a few million instructions
/// per host second. This version batches the bookkeeping instead: the
/// buffer is append-only scratch until it reaches twice the retention
/// capacity, at which point the stale front half is reclaimed in one
/// drain. Appends are therefore O(1) amortized, and the observable state
/// — the retained window, totals, and drop count — is identical to the
/// eager path at every step (the buffer's live view is always its last
/// `min(len, capacity)` entries; the `violation_batching` test battery
/// diffs it against an eager reference implementation).
#[derive(Debug, Clone)]
pub struct MemoryErrorLog {
    /// Retained window plus not-yet-reclaimed evicted prefix: the
    /// observable records are the last `min(len, capacity)` entries.
    buffer: Vec<MemoryErrorRecord>,
    capacity: usize,
    next_seq: u64,
    reads: u64,
    writes: u64,
}

impl MemoryErrorLog {
    /// Creates a log retaining at most `capacity` records.
    pub fn new(capacity: usize) -> MemoryErrorLog {
        MemoryErrorLog {
            buffer: Vec::new(),
            capacity,
            next_seq: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Overwrites this log with `src` in place ([`crate::restore`]).
    pub fn restore_from(&mut self, src: &MemoryErrorLog) {
        let MemoryErrorLog {
            buffer,
            capacity,
            next_seq,
            reads,
            writes,
        } = self;
        restore::vec(buffer, &src.buffer);
        *capacity = src.capacity;
        *next_seq = src.next_seq;
        *reads = src.reads;
        *writes = src.writes;
    }

    /// Bytes the record buffer holds.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        restore::held(&self.buffer)
    }

    /// Appends a record, logically evicting the oldest if at capacity
    /// (physical reclamation happens in batches).
    #[allow(clippy::too_many_arguments)] // mirrors the access-site tuple
    #[inline]
    pub fn record(
        &mut self,
        kind: ErrorKind,
        addr: u64,
        size: AccessSize,
        referent: Option<UnitId>,
        offset: Option<i64>,
        func: u32,
        pc: u32,
    ) {
        if kind.is_read() {
            self.reads += 1;
        } else {
            self.writes += 1;
        }
        let rec = MemoryErrorRecord {
            seq: self.next_seq,
            kind,
            addr,
            size,
            referent,
            offset,
            func,
            pc,
        };
        self.next_seq += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buffer.len() >= self.capacity * 2 {
            self.compact();
        }
        self.buffer.push(rec);
    }

    /// Reclaims the logically-evicted prefix in one batch, leaving only
    /// the retained window.
    #[cold]
    fn compact(&mut self) {
        let evicted = self.buffer.len() - self.capacity;
        self.buffer.drain(..evicted);
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> &[MemoryErrorRecord] {
        let retained = self.buffer.len().min(self.capacity);
        &self.buffer[self.buffer.len() - retained..]
    }

    /// Total number of errors ever recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.next_seq
    }

    /// Total invalid/dangling reads ever recorded.
    pub fn total_reads(&self) -> u64 {
        self.reads
    }

    /// Total invalid/dangling writes ever recorded.
    pub fn total_writes(&self) -> u64 {
        self.writes
    }

    /// Number of records evicted (logically or physically) due to the
    /// retention limit.
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.records().len() as u64
    }

    /// Clears retained records and counters.
    pub fn clear(&mut self) {
        self.buffer.clear();
        self.next_seq = 0;
        self.reads = 0;
        self.writes = 0;
    }
}

impl Default for MemoryErrorLog {
    fn default() -> MemoryErrorLog {
        MemoryErrorLog::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(log: &mut MemoryErrorLog, kind: ErrorKind, addr: u64) {
        log.record(kind, addr, AccessSize::B1, None, None, 0, 0);
    }

    #[test]
    fn counts_reads_and_writes_separately() {
        let mut log = MemoryErrorLog::new(16);
        push(&mut log, ErrorKind::InvalidRead, 1);
        push(&mut log, ErrorKind::InvalidWrite, 2);
        push(&mut log, ErrorKind::DanglingRead, 3);
        push(&mut log, ErrorKind::DanglingWrite, 4);
        assert_eq!(log.total(), 4);
        assert_eq!(log.total_reads(), 2);
        assert_eq!(log.total_writes(), 2);
    }

    #[test]
    fn retention_evicts_oldest_but_keeps_totals() {
        let mut log = MemoryErrorLog::new(2);
        push(&mut log, ErrorKind::InvalidWrite, 10);
        push(&mut log, ErrorKind::InvalidWrite, 11);
        push(&mut log, ErrorKind::InvalidWrite, 12);
        assert_eq!(log.total(), 3);
        assert_eq!(log.dropped(), 1);
        let addrs: Vec<u64> = log.records().iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![11, 12]);
        assert_eq!(log.records()[0].seq, 1);
    }

    #[test]
    fn zero_capacity_log_only_counts() {
        let mut log = MemoryErrorLog::new(0);
        push(&mut log, ErrorKind::InvalidRead, 1);
        assert_eq!(log.total(), 1);
        assert!(log.records().is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let mut log = MemoryErrorLog::new(4);
        push(&mut log, ErrorKind::InvalidRead, 1);
        log.clear();
        assert_eq!(log.total(), 0);
        assert!(log.records().is_empty());
    }
}
