//! The memory space: regions, data units, checks, and continuation code.
//!
//! [`MemorySpace`] is the façade the virtual machine drives. Every guest
//! load, store, pointer arithmetic operation, allocation, and stack frame
//! transition goes through it, and the configured [`Mode`] decides what
//! happens at each step:
//!
//! * **checking code** — in the checked modes, each access is resolved
//!   against the object table and the out-of-bounds registry;
//! * **continuation code** — on a violation, the failure-oblivious family
//!   of modes discards the write or manufactures a read value (§3 of the
//!   paper), while Bounds Check mode returns a fatal [`MemFault`].
//!
//! The space owns its parts by value and derives `Clone`: the unit store
//! (who the data units are), one [`Table`] (where they are — the only
//! structure an in-bounds access consults, `table.lookup(a)`), the
//! policy state (descriptors, boundless store, manufacturer) and the
//! error log. [`NativeView`] borrows the same table for the native
//! tier's hit path.
//!
//! **A snapshot holds what the guest touched.** The three regions
//! reserve 76 MB and commit page-granular windows around the bytes
//! actually written (`addr.rs`), so everything priced per committed
//! byte — zeroing at boot, the `Clone` behind every checkpoint capture
//! and restore, a cached checkpoint's residency — is priced by the
//! guest's footprint: 16–188 KiB for a booted server, 24 KiB for the
//! Apache worker `apache_flood` restarts on every attack.
//! [`MemorySpace::footprint`] reports the two sides of that rule.

use std::fmt;

use crate::addr::{self, AccessSize, Region, RegionKind};
use crate::heap::{HeapAllocator, HeapError};
use crate::log::{ErrorKind, MemoryErrorLog};
use crate::manufacture::{Manufacturer, ValueSequence};
use crate::oob::OobRegistry;
use crate::policy::{BoundlessStore, Mode};
use crate::roomy::RoomyVec;
use crate::store::{UnitStore, UNIT_ROOM};
use crate::table::{Table, TableKind};
use crate::unit::{DataUnit, UnitId, UnitKind};

/// First canary token word written at the top of each stack frame.
const CANARY_A: u64 = 0xCAFE_F00D_5AFE_57AC;
/// Second canary token word (stand-in for the saved return address).
const CANARY_B: u64 = 0x004E_70DD_4E55_C00D ^ 0x1111_1111_1111_1111;

/// Bytes reserved above each frame's locals for the canary pair.
pub const FRAME_GUARD_SIZE: u64 = 16;

/// Configuration for a memory space.
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// Access policy.
    pub mode: Mode,
    /// Size of the global region in bytes.
    pub global_len: usize,
    /// Size of the heap region in bytes.
    pub heap_len: usize,
    /// Size of the stack region in bytes.
    pub stack_len: usize,
    /// Manufactured-value strategy for invalid reads.
    pub sequence: ValueSequence,
    /// Object table structure.
    pub table: TableKind,
    /// Retention capacity of the memory-error log.
    pub log_capacity: usize,
}

impl MemConfig {
    /// A configuration with default sizes for the given mode.
    pub fn with_mode(mode: Mode) -> MemConfig {
        MemConfig {
            mode,
            ..MemConfig::default()
        }
    }

    /// Same configuration with a different manufactured-value strategy —
    /// a first-class sweep axis: the mode search-space grid varies it
    /// alongside the mode and the table backend.
    pub fn with_sequence(mut self, sequence: ValueSequence) -> MemConfig {
        self.sequence = sequence;
        self
    }

    /// Same configuration on a different object-table backend.
    pub fn with_table(mut self, table: TableKind) -> MemConfig {
        self.table = table;
        self
    }

    /// The same configuration: there is one lookup layer (see
    /// [`LookupLayer`]).
    pub fn with_lookup(self, _lookup: LookupLayer) -> MemConfig {
        self
    }
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            mode: Mode::FailureOblivious,
            global_len: 4 << 20,
            heap_len: 64 << 20,
            stack_len: 8 << 20,
            sequence: ValueSequence::default(),
            // The oracle's, not `TableKind::default()`: a bare config
            // is what the equivalence batteries use as the reference.
            table: TableKind::Splay,
            log_capacity: 4096,
        }
    }
}

/// What is left of the deleted page-map axis: every in-bounds
/// resolution is a table lookup, so there is one layer and nothing to
/// choose. The type, [`LookupLayer::name`], `MemConfig::with_lookup` and
/// `BootSpec::lookup` exist only because the frozen `bench/` package
/// names them (its description line reads `lookup=table`); they go at
/// the next `benchmark` revision (ROADMAP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LookupLayer {
    /// Every checked access searches the object table.
    #[default]
    Table,
}

impl LookupLayer {
    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        "table"
    }
}

/// Fatal memory faults. In Standard mode these model hardware traps and
/// allocator aborts; in Bounds Check mode [`MemFault::MemoryError`] models
/// the CRED compiler's terminate-with-message behaviour. The
/// failure-oblivious family never raises `MemoryError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemFault {
    /// Access to an unmapped address (Standard mode only).
    Segv {
        /// Faulting address.
        addr: u64,
    },
    /// A checked-mode violation that terminates the program (Bounds Check).
    MemoryError {
        /// Violation classification.
        kind: ErrorKind,
        /// Intended access address.
        addr: u64,
        /// Referent unit, when the pointer's provenance is known.
        referent: Option<UnitId>,
        /// Guest function index at the fault.
        func: u32,
        /// Guest program counter at the fault.
        pc: u32,
    },
    /// The frame canary was overwritten: a Standard-mode stack smash. The
    /// trampled bytes are reported so callers can recognise
    /// attacker-controlled data (i.e. a control-flow hijack).
    StackSmashed {
        /// Address of the damaged canary word.
        addr: u64,
        /// Value found in place of the canary.
        found: u64,
    },
    /// Stack region exhausted.
    StackOverflow,
    /// Allocator failure or corruption (see [`HeapError`]).
    Heap(HeapError),
    /// Global region exhausted (program image too large).
    GlobalExhausted,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemFault::Segv { addr } => write!(f, "segmentation violation at {addr:#x}"),
            MemFault::MemoryError {
                kind, addr, func, ..
            } => {
                write!(f, "memory error: {kind} at {addr:#x} in function {func}")
            }
            MemFault::StackSmashed { addr, found } => {
                write!(f, "stack smashed at {addr:#x} (found {found:#018x})")
            }
            MemFault::StackOverflow => write!(f, "stack overflow"),
            MemFault::Heap(e) => write!(f, "heap fault: {e}"),
            MemFault::GlobalExhausted => write!(f, "global region exhausted"),
        }
    }
}

impl From<HeapError> for MemFault {
    fn from(e: HeapError) -> MemFault {
        MemFault::Heap(e)
    }
}

/// Guest context attached to log records (who attempted the access).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCtx {
    /// Guest function index.
    pub func: u32,
    /// Guest program counter.
    pub pc: u32,
}

/// Result of a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The loaded (or manufactured) raw value, zero-extended.
    pub value: u64,
    /// Whether this load violated memory safety (and was intercepted).
    pub violation: bool,
}

/// Result of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Whether this store violated memory safety (and was intercepted).
    pub violation: bool,
}

/// A run of in-bounds bytes resolved by [`MemorySpace::run`]: `len`
/// bytes at the plain address `addr`, good until the space next frees
/// or pops a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Address of the first byte.
    pub addr: u64,
    /// Bytes in the run; zero when there is none.
    pub len: u64,
}

/// Counters describing a space's activity. `PartialEq` so differential
/// harnesses can assert two runs drove the substrate identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Total loads.
    pub loads: u64,
    /// Total stores.
    pub stores: u64,
    /// Loads/stores that consulted the object table.
    pub checked_accesses: u64,
    /// Invalid reads intercepted.
    pub invalid_reads: u64,
    /// Invalid writes intercepted.
    pub invalid_writes: u64,
    /// Out-of-bounds descriptors created by pointer arithmetic.
    pub oob_interned: u64,
    /// Heap allocations.
    pub mallocs: u64,
    /// Heap frees.
    pub frees: u64,
    /// Stack frames pushed.
    pub frames: u64,
}

/// What a space holds against what its guest asked for (diagnostics;
/// see [`MemorySpace::footprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Bytes of host storage in the three committed region windows: what
    /// a `Clone` of the space — a checkpoint capture or restore — copies.
    pub committed: u64,
    /// Bytes the space's allocators have handed out: the globals break,
    /// the heap's bump pointer (headers and freed blocks included) and
    /// the current stack depth, each measured from its region's edge.
    pub handed_out: u64,
}

/// A pushed frame's bookkeeping.
#[derive(Debug, Clone)]
struct FrameRec {
    prev_sp: u64,
    units_start: usize,
    canary_addr: u64,
}

/// The simulated address space and its access policy.
///
/// `Clone` snapshots the entire space — committed region bytes, the
/// unit store, the object table, out-of-bounds descriptors, allocator
/// and manufacturer state, and the error log. A clone of a freshly
/// booted space is the memory half of a boot checkpoint: restoring it
/// is a memcpy of the committed windows — what the guest touched, not
/// what the regions reserve — instead of a re-run of boot and
/// environment replay, which is what makes a supervised restart cost
/// microseconds. The derive is deliberate: a hand-written copy that
/// missed a field would leak a dead process's state into its successor.
#[derive(Debug, Clone)]
pub struct MemorySpace {
    mode: Mode,
    globals: Region,
    heap: Region,
    stack: Region,
    store: UnitStore,
    table: Table,
    oob: OobRegistry,
    allocator: HeapAllocator,
    boundless: BoundlessStore,
    manufacturer: Manufacturer,
    log: MemoryErrorLog,
    stats: SpaceStats,
    global_brk: u64,
    sp: u64,
    frames: RoomyVec<FrameRec>,
    frame_units: RoomyVec<u32>,
}

impl MemorySpace {
    /// Creates a space from a configuration.
    pub fn new(config: MemConfig) -> MemorySpace {
        let globals = Region::new(RegionKind::Global, addr::GLOBAL_BASE, config.global_len);
        let heap = Region::new(RegionKind::Heap, addr::HEAP_BASE, config.heap_len);
        let stack = Region::new(RegionKind::Stack, addr::STACK_BASE, config.stack_len);
        let allocator = HeapAllocator::new(&heap);
        let sp = stack.end();
        // Standard mode keeps no units.
        let checked = config.mode.is_checked();
        let room = if checked { UNIT_ROOM } else { 0 };
        MemorySpace {
            mode: config.mode,
            global_brk: globals.base(),
            globals,
            heap,
            allocator,
            sp,
            stack,
            store: UnitStore::with_room(room),
            table: Table::with_room(config.table, room),
            oob: OobRegistry::new(),
            boundless: BoundlessStore::new(),
            manufacturer: Manufacturer::new(config.sequence),
            log: MemoryErrorLog::new(config.log_capacity),
            stats: SpaceStats::default(),
            frames: RoomyVec::default(),
            frame_units: RoomyVec::with_capacity(room),
        }
    }

    /// The configured access policy.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Activity counters.
    pub fn stats(&self) -> &SpaceStats {
        &self.stats
    }

    /// The memory-error log.
    pub fn error_log(&self) -> &MemoryErrorLog {
        &self.log
    }

    /// Number of live data units (0 in Standard mode, which keeps none).
    pub fn live_units(&self) -> usize {
        self.table.len()
    }

    /// Live heap allocation count.
    pub fn heap_live(&self) -> u64 {
        self.allocator.live()
    }

    /// Committed bytes against handed-out bytes. The windows grow on
    /// touch and at most double, so `committed` stays within
    /// `2 × handed_out` plus a few pages of rounding and resting stack
    /// — the rule `tests/substrate_props.rs` holds every server to.
    pub fn footprint(&self) -> Footprint {
        let committed = [&self.globals, &self.heap, &self.stack]
            .iter()
            .map(|r| r.committed_bytes() as u64)
            .sum();
        Footprint {
            committed,
            handed_out: (self.global_brk - self.globals.base())
                + (self.allocator.brk() - self.heap.base())
                + (self.stack.end() - self.sp),
        }
    }

    // ------------------------------------------------------------------
    // Region plumbing.
    // ------------------------------------------------------------------

    fn region(&self, a: u64) -> Option<&Region> {
        if a >= self.stack.base() && a < self.stack.end() {
            Some(&self.stack)
        } else if a >= self.heap.base() && a < self.heap.end() {
            Some(&self.heap)
        } else if a >= self.globals.base() && a < self.globals.end() {
            Some(&self.globals)
        } else {
            None
        }
    }

    fn region_mut(&mut self, a: u64) -> Option<&mut Region> {
        if a >= self.stack.base() && a < self.stack.end() {
            Some(&mut self.stack)
        } else if a >= self.heap.base() && a < self.heap.end() {
            Some(&mut self.heap)
        } else if a >= self.globals.base() && a < self.globals.end() {
            Some(&mut self.globals)
        } else {
            None
        }
    }

    /// Raw host-side read, bypassing all checks (driver/runtime use only).
    pub fn read_raw(&self, a: u64, size: AccessSize) -> Option<u64> {
        self.region(a)?.read(a, size)
    }

    /// Raw host-side write, bypassing all checks (driver/runtime use only).
    pub fn write_raw(&mut self, a: u64, size: AccessSize, value: u64) -> bool {
        match self.region_mut(a) {
            Some(r) => r.write(a, size, value),
            None => false,
        }
    }

    /// Splits the space into the native tier's hit-path view, with the
    /// frame window `[base, base + frame_total)` committed up front so
    /// frame-local ops index stack bytes directly. Committing ahead of
    /// individual writes is unobservable: uncommitted bytes read as
    /// zero and commits zero-fill.
    ///
    /// # Panics
    ///
    /// Panics when the window is not inside the stack region (the
    /// machine only ever passes a frame `push_frame` handed out).
    pub fn native_view(&mut self, base: u64, frame_total: u64) -> NativeView<'_> {
        let framed = self.stack.slice_mut(base, frame_total).is_some();
        assert!(framed, "frame window must be mapped");
        let stack = Window::of(&mut self.stack);
        NativeView {
            frame_at: (base - stack.lo) as usize,
            globals: Window::of(&mut self.globals),
            heap: Window::of(&mut self.heap),
            stack,
            table: &mut self.table,
            oob: &self.oob,
            stats: &mut self.stats,
            checked: self.mode.is_checked(),
            last_load: Span::default(),
            last_store: Span::default(),
        }
    }

    /// Copies host bytes into guest memory, bypassing checks.
    pub fn write_bytes_raw(&mut self, a: u64, bytes: &[u8]) -> bool {
        match self.region_mut(a) {
            Some(r) => match r.slice_mut(a, bytes.len() as u64) {
                Some(dst) => {
                    dst.copy_from_slice(bytes);
                    true
                }
                None => false,
            },
            None => false,
        }
    }

    /// Copies guest bytes out to the host, bypassing checks.
    pub fn read_bytes_raw(&self, a: u64, len: u64) -> Option<Vec<u8>> {
        self.region(a)?.read_bytes(a, len)
    }

    /// Reads a NUL-terminated guest string (host-side, unchecked), with a
    /// length cap to survive unterminated buffers.
    pub fn read_cstring_raw(&self, a: u64, max: u64) -> Option<Vec<u8>> {
        let region = self.region(a)?;
        let mut out = Vec::new();
        let mut p = a;
        while p < region.end() && (p - a) < max {
            let b = region.read(p, AccessSize::B1)? as u8;
            if b == 0 {
                return Some(out);
            }
            out.push(b);
            p += 1;
        }
        Some(out)
    }

    // ------------------------------------------------------------------
    // Unit bookkeeping.
    // ------------------------------------------------------------------

    fn new_unit(&mut self, base: u64, size: u64, kind: UnitKind, label: Option<&str>) -> UnitId {
        let id = self.store.alloc(base, size, kind, label);
        self.table.insert(base, size, id);
        id
    }

    fn kill_unit(&mut self, id: UnitId) {
        let base = self.store.kill(id);
        self.table.remove(base);
        self.oob.purge_unit(id);
        self.boundless.forget_unit(id);
    }

    /// Looks up a unit by id (for diagnostics). Returns the unit while it
    /// is live or dead-awaiting-recycling; a recycled slot's stale id
    /// resolves to `None`.
    pub fn unit(&self, id: UnitId) -> Option<&DataUnit> {
        self.store.get(id)
    }

    /// The arena-backed unit store (diagnostics, capacity accounting).
    pub fn unit_store(&self) -> &UnitStore {
        &self.store
    }

    // ------------------------------------------------------------------
    // Globals.
    // ------------------------------------------------------------------

    /// Allocates a zeroed global data unit; used by the program loader.
    pub fn alloc_global(&mut self, size: u64, label: &str) -> Result<u64, MemFault> {
        // 16-byte alignment plus a 16-byte gap isolates adjacent units so
        // address-based lookups cannot blur across them.
        let base = self.global_brk.div_ceil(16) * 16;
        let end = base + size.max(1) + 16;
        if end > self.globals.end() {
            return Err(MemFault::GlobalExhausted);
        }
        self.global_brk = end;
        if self.mode.is_checked() {
            self.new_unit(base, size, UnitKind::Global, Some(label));
        }
        Ok(base)
    }

    /// Allocates a global initialised with `bytes` (string literals).
    pub fn alloc_global_bytes(&mut self, bytes: &[u8], label: &str) -> Result<u64, MemFault> {
        let base = self.alloc_global(bytes.len() as u64, label)?;
        let ok = self.write_bytes_raw(base, bytes);
        debug_assert!(ok);
        Ok(base)
    }

    // ------------------------------------------------------------------
    // Heap.
    // ------------------------------------------------------------------

    /// Guest `malloc`.
    pub fn malloc(&mut self, size: u64) -> Result<u64, MemFault> {
        self.stats.mallocs += 1;
        let p = self.allocator.malloc(&mut self.heap, size)?;
        if self.mode.is_checked() {
            self.new_unit(p, size, UnitKind::Heap, None);
        }
        Ok(p)
    }

    /// Guest `free`.
    ///
    /// In the checked modes an invalid free is itself a memory error:
    /// Bounds Check terminates, the failure-oblivious family logs and
    /// discards the operation. In Standard mode allocator corruption
    /// detected here is fatal (a glibc-style abort).
    pub fn free(&mut self, p: u64, ctx: AccessCtx) -> Result<(), MemFault> {
        self.stats.frees += 1;
        if !self.mode.is_checked() {
            self.allocator.free(&mut self.heap, p)?;
            return Ok(());
        }
        // Checked modes: `p` must be the exact base of a live heap unit.
        let placement = self.table.lookup(p);
        let valid = placement
            .map(|pl| {
                pl.base == p
                    && self
                        .store
                        .get(pl.unit)
                        .is_some_and(|u| u.kind == UnitKind::Heap)
            })
            .unwrap_or(false);
        if !valid {
            return self.violation_op(ErrorKind::InvalidFree, p, None, ctx);
        }
        let unit = placement.expect("checked above").unit;
        self.allocator.free(&mut self.heap, p)?;
        self.kill_unit(unit);
        Ok(())
    }

    /// Guest `realloc`. Returns the new payload address (0 for `size == 0`
    /// frees, matching common C library behaviour).
    pub fn realloc(&mut self, p: u64, size: u64, ctx: AccessCtx) -> Result<u64, MemFault> {
        if p == 0 {
            return self.malloc(size);
        }
        if size == 0 {
            self.free(p, ctx)?;
            return Ok(0);
        }
        let old_size = if self.mode.is_checked() {
            match self.table.lookup(p) {
                Some(pl) if pl.base == p => pl.size,
                _ => {
                    // Invalid realloc: same policy as invalid free; the
                    // continuing modes treat it as a fresh allocation so the
                    // program can keep going with a usable pointer.
                    self.violation_op(ErrorKind::InvalidFree, p, None, ctx)?;
                    return self.malloc(size);
                }
            }
        } else {
            self.allocator.block_size(&self.heap, p)?
        };
        let fresh = self.malloc(size)?;
        let n = old_size.min(size);
        if n > 0 {
            let bytes = self
                .read_bytes_raw(p, n)
                .expect("live heap block must be mapped");
            let ok = self.write_bytes_raw(fresh, &bytes);
            debug_assert!(ok);
        }
        self.free(p, ctx)?;
        Ok(fresh)
    }

    // ------------------------------------------------------------------
    // Stack frames.
    // ------------------------------------------------------------------

    /// Pushes a stack frame with room for `locals_size` bytes of locals,
    /// returning the frame base address. Individual locals must then be
    /// registered with [`MemorySpace::register_local`]. A 16-byte canary
    /// pair sits immediately above the locals.
    pub fn push_frame(&mut self, locals_size: u64) -> Result<u64, MemFault> {
        self.stats.frames += 1;
        let total = locals_size.div_ceil(16) * 16 + FRAME_GUARD_SIZE;
        let new_sp = self
            .sp
            .checked_sub(total)
            .filter(|&s| s >= self.stack.base())
            .ok_or(MemFault::StackOverflow)?;
        let canary_addr = new_sp + total - FRAME_GUARD_SIZE;
        self.stack.write(canary_addr, AccessSize::B8, CANARY_A);
        self.stack.write(canary_addr + 8, AccessSize::B8, CANARY_B);
        self.frames.push(FrameRec {
            prev_sp: self.sp,
            units_start: self.frame_units.len(),
            canary_addr,
        });
        self.sp = new_sp;
        Ok(new_sp)
    }

    /// Registers one local variable of the current frame as a data unit.
    ///
    /// `offset` is relative to the frame base returned by
    /// [`MemorySpace::push_frame`]. No-op in Standard mode.
    pub fn register_local(&mut self, frame_base: u64, offset: u64, size: u64) {
        if !self.mode.is_checked() {
            return;
        }
        let id = self.new_unit(frame_base + offset, size, UnitKind::Stack, None);
        self.frame_units.push(id.0);
    }

    /// Pops the current frame, verifying the canary pair.
    ///
    /// A trampled canary means guest writes escaped the frame's data units,
    /// which only Standard mode permits; the fault carries the observed
    /// bytes so callers can attribute the smash to attacker input.
    pub fn pop_frame(&mut self) -> Result<(), MemFault> {
        let rec = self.frames.pop().expect("pop_frame without frame");
        for i in (rec.units_start..self.frame_units.len()).rev() {
            let slot = self.frame_units[i];
            self.kill_unit(UnitId(slot));
        }
        self.frame_units.truncate(rec.units_start);
        let a = self.stack.read(rec.canary_addr, AccessSize::B8);
        let b = self.stack.read(rec.canary_addr + 8, AccessSize::B8);
        self.sp = rec.prev_sp;
        if a != Some(CANARY_A) {
            return Err(MemFault::StackSmashed {
                addr: rec.canary_addr,
                found: a.unwrap_or(0),
            });
        }
        if b != Some(CANARY_B) {
            return Err(MemFault::StackSmashed {
                addr: rec.canary_addr + 8,
                found: b.unwrap_or(0),
            });
        }
        Ok(())
    }

    /// Current stack depth in frames.
    pub fn frame_depth(&self) -> usize {
        self.frames.len()
    }

    // ------------------------------------------------------------------
    // Pointer arithmetic.
    // ------------------------------------------------------------------

    /// Guest pointer arithmetic: `ptr + delta` bytes.
    ///
    /// In Standard mode this is a plain wrapping add. In the checked modes
    /// it is the instrumented operation of the Jones & Kelly scheme: if the
    /// result leaves the source pointer's data unit, the result is an
    /// out-of-bounds descriptor address; arithmetic on a descriptor that
    /// re-enters its referent restores an ordinary address.
    pub fn ptr_add(&mut self, ptr: u64, delta: i64) -> u64 {
        if !self.mode.is_checked() {
            return ptr.wrapping_add(delta as u64);
        }
        if addr::is_oob_zone(ptr) {
            if let Some(entry) = self.oob.decode(ptr).copied() {
                let intended = entry.intended.wrapping_add(delta as u64);
                let back_in_bounds = self
                    .store
                    .get(entry.referent)
                    .is_some_and(|u| u.live && u.contains_addr(intended));
                if back_in_bounds {
                    return intended;
                }
                self.stats.oob_interned += 1;
                return self.oob.intern(
                    entry.referent,
                    entry.referent_base,
                    entry.referent_size,
                    intended,
                );
            }
            // Wild pointer inside the zone: plain arithmetic.
            return ptr.wrapping_add(delta as u64);
        }
        let target = ptr.wrapping_add(delta as u64);
        match self.table.lookup(ptr) {
            Some(pl) => {
                if target >= pl.base && target < pl.base + pl.size {
                    target
                } else {
                    self.stats.oob_interned += 1;
                    self.oob.intern(pl.unit, pl.base, pl.size, target)
                }
            }
            // No provenance (integer arithmetic routed through pointer ops,
            // or a pointer into a gap): plain arithmetic, as in CRED, which
            // only tracks pointers derived from known allocations.
            None => target,
        }
    }

    /// The address a pointer value *means*: out-of-bounds descriptors
    /// resolve to their intended address. Used for pointer comparison,
    /// subtraction, and pointer-to-integer casts, which CRED supports on
    /// out-of-bounds pointers.
    pub fn effective_addr(&self, ptr: u64) -> u64 {
        self.oob.effective_addr(ptr)
    }

    // ------------------------------------------------------------------
    // Loads and stores.
    // ------------------------------------------------------------------

    /// Guest load of `size` bytes at `a` (zero-extended raw value).
    ///
    /// The in-bounds hit is a straight-line fast path: one table
    /// lookup, one bounds compare, one region read. Everything else —
    /// the whole continuation machinery — lives in the cold
    /// [`Self::load_violation`] so a violation-free request stream
    /// never pays for it.
    #[inline]
    pub fn load(
        &mut self,
        a: u64,
        size: AccessSize,
        ctx: AccessCtx,
    ) -> Result<ReadOutcome, MemFault> {
        self.stats.loads += 1;
        if !self.mode.is_checked() {
            return match self.region(a).and_then(|r| r.read(a, size)) {
                Some(value) => Ok(ReadOutcome {
                    value,
                    violation: false,
                }),
                None => Err(MemFault::Segv { addr: a }),
            };
        }
        self.stats.checked_accesses += 1;
        if !addr::is_oob_zone(a) {
            if let Some(pl) = self.table.lookup(a) {
                if a + size.bytes() <= pl.base + pl.size {
                    let value = self
                        .region(a)
                        .and_then(|r| r.read(a, size))
                        .expect("resolved access must be mapped");
                    return Ok(ReadOutcome {
                        value,
                        violation: false,
                    });
                }
                // Straddles the end of the unit: the canonical overrun.
                return self.load_violation(
                    ErrorKind::InvalidRead,
                    a,
                    Some((pl.unit, pl.base, pl.size)),
                    size,
                    ctx,
                );
            }
            return self.load_violation(ErrorKind::InvalidRead, a, None, size, ctx);
        }
        let (kind, intended, referent) = self.resolve_oob(a);
        self.load_violation(kind, intended, referent, size, ctx)
    }

    /// Continuation code for an invalid read: log, then discard /
    /// manufacture / redirect / terminate per the mode.
    #[cold]
    fn load_violation(
        &mut self,
        kind: ErrorKind,
        intended: u64,
        referent: Option<(UnitId, u64, u64)>,
        size: AccessSize,
        ctx: AccessCtx,
    ) -> Result<ReadOutcome, MemFault> {
        self.stats.invalid_reads += 1;
        let kind = kind_for_read(kind);
        self.log_violation(kind, intended, size, referent, ctx);
        match self.mode {
            Mode::BoundsCheck => Err(MemFault::MemoryError {
                kind,
                addr: intended,
                referent: referent.map(|r| r.0),
                func: ctx.func,
                pc: ctx.pc,
            }),
            Mode::Boundless => {
                if let Some((unit, base, _)) = referent {
                    let off = intended.wrapping_sub(base) as i64;
                    if let Some(v) = self.boundless.load(unit, off, size.bytes()) {
                        return Ok(ReadOutcome {
                            value: v,
                            violation: true,
                        });
                    }
                }
                Ok(ReadOutcome {
                    value: self.manufacture(size),
                    violation: true,
                })
            }
            Mode::Redirect => {
                if let Some(at) = self.redirect_target(referent, intended, size) {
                    let value = self
                        .region(at)
                        .and_then(|r| r.read(at, size))
                        .expect("redirect target must be mapped");
                    return Ok(ReadOutcome {
                        value,
                        violation: true,
                    });
                }
                Ok(ReadOutcome {
                    value: self.manufacture(size),
                    violation: true,
                })
            }
            _ => Ok(ReadOutcome {
                value: self.manufacture(size),
                violation: true,
            }),
        }
    }

    /// Guest store of the low `size` bytes of `value` at `a`.
    ///
    /// Fast/cold split as in [`Self::load`].
    #[inline]
    pub fn store(
        &mut self,
        a: u64,
        size: AccessSize,
        value: u64,
        ctx: AccessCtx,
    ) -> Result<WriteOutcome, MemFault> {
        self.stats.stores += 1;
        if !self.mode.is_checked() {
            let ok = match self.region_mut(a) {
                Some(r) => r.write(a, size, value),
                None => false,
            };
            return if ok {
                Ok(WriteOutcome { violation: false })
            } else {
                Err(MemFault::Segv { addr: a })
            };
        }
        self.stats.checked_accesses += 1;
        if !addr::is_oob_zone(a) {
            if let Some(pl) = self.table.lookup(a) {
                if a + size.bytes() <= pl.base + pl.size {
                    let ok = self
                        .region_mut(a)
                        .map(|r| r.write(a, size, value))
                        .unwrap_or(false);
                    debug_assert!(ok, "resolved access must be mapped");
                    return Ok(WriteOutcome { violation: false });
                }
                return self.store_violation(
                    ErrorKind::InvalidRead,
                    a,
                    Some((pl.unit, pl.base, pl.size)),
                    size,
                    value,
                    ctx,
                );
            }
            return self.store_violation(ErrorKind::InvalidRead, a, None, size, value, ctx);
        }
        let (kind, intended, referent) = self.resolve_oob(a);
        self.store_violation(kind, intended, referent, size, value, ctx)
    }

    /// Continuation code for an invalid write.
    #[cold]
    fn store_violation(
        &mut self,
        kind: ErrorKind,
        intended: u64,
        referent: Option<(UnitId, u64, u64)>,
        size: AccessSize,
        value: u64,
        ctx: AccessCtx,
    ) -> Result<WriteOutcome, MemFault> {
        self.stats.invalid_writes += 1;
        let kind = kind_for_write(kind);
        self.log_violation(kind, intended, size, referent, ctx);
        match self.mode {
            Mode::BoundsCheck => Err(MemFault::MemoryError {
                kind,
                addr: intended,
                referent: referent.map(|r| r.0),
                func: ctx.func,
                pc: ctx.pc,
            }),
            Mode::Boundless => {
                if let Some((unit, base, _)) = referent {
                    let off = intended.wrapping_sub(base) as i64;
                    self.boundless.store(unit, off, size.bytes(), value);
                }
                Ok(WriteOutcome { violation: true })
            }
            Mode::Redirect => {
                if let Some(at) = self.redirect_target(referent, intended, size) {
                    let ok = self
                        .region_mut(at)
                        .map(|r| r.write(at, size, value))
                        .unwrap_or(false);
                    debug_assert!(ok);
                }
                Ok(WriteOutcome { violation: true })
            }
            // Failure-oblivious: discard the write.
            _ => Ok(WriteOutcome { violation: true }),
        }
    }

    // ------------------------------------------------------------------
    // Runs: many one-byte hits answered by one lookup.
    // ------------------------------------------------------------------

    /// The run at `base + off`: the longest prefix `len <= want` of the
    /// byte-wise walk `i = 0, 1, 2, ...` for which every
    /// `ptr_add(base, off + i)` returns the plain address
    /// `base + off + i` and every one-byte [`Self::load`] or
    /// [`Self::store`] there hits — resolved once instead of once per
    /// byte. In the checked modes that is the rest of the live unit
    /// holding `base`, and empty when `base` is an out-of-bounds
    /// descriptor, has no provenance, or `base + off` is outside that
    /// unit; in Standard mode, where arithmetic is plain and any mapped
    /// byte hits, it is the rest of the region.
    ///
    /// The probe itself is unobservable: it moves no counter, byte or
    /// log record. A caller that acts on a run accounts for it with
    /// [`Self::count_run`].
    pub fn run(&mut self, base: u64, off: u64, want: u64) -> Run {
        let addr = base.wrapping_add(off);
        let extent = if !self.mode.is_checked() {
            self.region(addr).map(|r| Span {
                base: r.base(),
                size: r.end() - r.base(),
            })
        } else if addr::is_oob_zone(base) {
            None
        } else {
            self.table.lookup(base).map(|pl| Span {
                base: pl.base,
                size: pl.size,
            })
        };
        let len = match extent {
            Some(span) if span.holds(addr, 1) => want.min(span.size - (addr - span.base)),
            _ => 0,
        };
        Run { addr, len }
    }

    /// The host bytes of a run for reading: its longest prefix inside
    /// the region's committed window, so possibly shorter than the run
    /// and empty where the run starts on never-written bytes (which
    /// only the byte-wise routine reads, as zeros, without committing
    /// them).
    pub fn run_bytes(&self, run: Run) -> &[u8] {
        match self.region(run.addr) {
            Some(r) => r.committed_prefix(run.addr, run.len),
            None => &[],
        }
    }

    /// The host bytes of a run for writing, committed as the byte-wise
    /// stores would commit them.
    ///
    /// # Panics
    ///
    /// Panics when `run` is not wholly inside a region — it did not
    /// come from [`Self::run`].
    pub fn run_bytes_mut(&mut self, run: Run) -> &mut [u8] {
        self.region_mut(run.addr)
            .and_then(|r| r.slice_mut(run.addr, run.len))
            .expect("a run lies inside one region")
    }

    /// Advances the counters by what `loads` one-byte load hits and
    /// `stores` one-byte store hits advance them.
    pub fn count_run(&mut self, loads: u64, stores: u64) {
        self.stats.loads += loads;
        self.stats.stores += stores;
        if self.mode.is_checked() {
            self.stats.checked_accesses += loads + stores;
        }
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Classifies an access through an out-of-bounds descriptor address:
    /// the violation kind, the intended address, and the best-known
    /// referent.
    #[cold]
    fn resolve_oob(&self, a: u64) -> (ErrorKind, u64, Option<(UnitId, u64, u64)>) {
        match self.oob.decode(a) {
            Some(entry) => {
                // A recycled referent slot (stale generation) means the
                // unit died long ago: classify as dangling.
                let kind = match self.store.get(entry.referent) {
                    Some(u) if u.live => ErrorKind::InvalidRead,
                    _ => ErrorKind::DanglingRead,
                };
                (
                    kind,
                    entry.intended,
                    Some((entry.referent, entry.referent_base, entry.referent_size)),
                )
            }
            None => (ErrorKind::InvalidRead, a, None),
        }
    }

    /// Where a redirected access lands: the intended offset wrapped into
    /// the referent, clamped so the whole access fits.
    fn redirect_target(
        &self,
        referent: Option<(UnitId, u64, u64)>,
        intended: u64,
        size: AccessSize,
    ) -> Option<u64> {
        let (unit, base, usize_) = referent?;
        let len = size.bytes();
        if usize_ < len {
            return None;
        }
        if !self.store.get(unit).is_some_and(|u| u.live) {
            return None;
        }
        let off = (intended.wrapping_sub(base) as i64).rem_euclid(usize_ as i64) as u64;
        let off = off.min(usize_ - len);
        Some(base + off)
    }

    fn manufacture(&mut self, size: AccessSize) -> u64 {
        let v = self.manufacturer.next_value();
        match size {
            AccessSize::B1 => v & 0xFF,
            AccessSize::B2 => v & 0xFFFF,
            AccessSize::B4 => v & 0xFFFF_FFFF,
            AccessSize::B8 => v,
        }
    }

    fn log_violation(
        &mut self,
        kind: ErrorKind,
        intended: u64,
        size: AccessSize,
        referent: Option<(UnitId, u64, u64)>,
        ctx: AccessCtx,
    ) {
        let (unit, offset) = match referent {
            Some((u, base, _)) => (Some(u), Some(intended.wrapping_sub(base) as i64)),
            None => (None, None),
        };
        self.log
            .record(kind, intended, size, unit, offset, ctx.func, ctx.pc);
    }

    /// Shared policy for non-access operations (free/realloc misuse).
    fn violation_op(
        &mut self,
        kind: ErrorKind,
        a: u64,
        referent: Option<UnitId>,
        ctx: AccessCtx,
    ) -> Result<(), MemFault> {
        self.log
            .record(kind, a, AccessSize::B8, referent, None, ctx.func, ctx.pc);
        if self.mode.continues_through_errors() {
            Ok(())
        } else {
            Err(MemFault::MemoryError {
                kind,
                addr: a,
                referent,
                func: ctx.func,
                pc: ctx.pc,
            })
        }
    }
}

/// One region's committed window, borrowed for a [`NativeView`]. Only
/// accesses wholly inside the window are served; anything else — an
/// unmapped address, a read of never-written bytes, a write that would
/// grow the window — is a miss for the full routine to handle.
#[derive(Debug)]
struct Window<'a> {
    lo: u64,
    bytes: &'a mut [u8],
}

impl<'a> Window<'a> {
    fn of(region: &'a mut Region) -> Window<'a> {
        let (lo, bytes) = region.committed_mut();
        Window { lo, bytes }
    }
}

/// Little-endian scalar read at `at`; `None` when any byte is outside
/// `bytes`. Each width reads a fixed-size array so the access compiles
/// to one load, not a variable-length copy.
#[inline(always)]
fn scalar_get(bytes: &[u8], at: usize, size: AccessSize) -> Option<u64> {
    Some(match size {
        AccessSize::B1 => *bytes.get(at)? as u64,
        AccessSize::B2 => {
            let b = bytes.get(at..at.wrapping_add(2))?;
            u16::from_le_bytes(b.try_into().expect("fixed width")) as u64
        }
        AccessSize::B4 => {
            let b = bytes.get(at..at.wrapping_add(4))?;
            u32::from_le_bytes(b.try_into().expect("fixed width")) as u64
        }
        AccessSize::B8 => {
            let b = bytes.get(at..at.wrapping_add(8))?;
            u64::from_le_bytes(b.try_into().expect("fixed width"))
        }
    })
}

/// Write twin of [`scalar_get`]; `false` leaves `bytes` untouched. Each
/// width writes a fixed-size array, so the store compiles to one move:
/// a length-generic copy here is a libc `memcpy` call per store.
#[inline(always)]
fn scalar_put(bytes: &mut [u8], at: usize, size: AccessSize, value: u64) -> bool {
    fn put<const N: usize>(bytes: &mut [u8], at: usize, le: [u8; N]) -> bool {
        match bytes.get_mut(at..at.wrapping_add(N)) {
            Some(dst) => {
                dst.copy_from_slice(&le);
                true
            }
            None => false,
        }
    }
    match size {
        AccessSize::B1 => put(bytes, at, [value as u8]),
        AccessSize::B2 => put(bytes, at, (value as u16).to_le_bytes()),
        AccessSize::B4 => put(bytes, at, (value as u32).to_le_bytes()),
        AccessSize::B8 => put(bytes, at, value.to_le_bytes()),
    }
}

/// A remembered unit extent (`size == 0` remembers nothing).
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    base: u64,
    size: u64,
}

impl Span {
    /// Whether `[a, a + n)` lies inside the extent, for any `a` at all
    /// — no sum is formed, so an address near `2^64` cannot wrap in.
    #[inline(always)]
    fn holds(self, a: u64, n: u64) -> bool {
        let off = a.wrapping_sub(self.base);
        off < self.size && n <= self.size - off
    }
}

/// The native tier's hit path: the space split field by field, borrowed
/// for as long as the executor stays on in-bounds, committed accesses.
///
/// **Miss contract.** Every checked method either completes the access
/// with exactly the counters the full routine ([`MemorySpace::load`],
/// [`MemorySpace::store`], [`MemorySpace::ptr_add`]) advances on its
/// hit path, or reports a miss (`None`/`false`) having changed nothing
/// observable — no counter, no byte, no log record. The caller then
/// drops the view, runs the full routine on the space, and takes a
/// fresh view. Misses are: a violation of any kind, an out-of-bounds
/// descriptor pointer, an unmapped address, and an access outside a
/// region's committed window.
///
/// **Placement memo.** The view remembers the extent of the unit the
/// last load and the last store resolved to. Units die only through
/// `free`, `realloc` and `pop_frame`, all of which need
/// `&mut MemorySpace` — which the view's borrows rule out. So for the
/// view's lifetime a pointer inside a remembered extent *is* inside
/// that live unit, and the memo needs no generation, epoch, or flush:
/// the borrow checker invalidates it.
///
/// Unchecked ([`Mode::Standard`]) spaces ride the same view: an access
/// is a window read or write with the load/store counter.
#[derive(Debug)]
pub struct NativeView<'a> {
    globals: Window<'a>,
    heap: Window<'a>,
    stack: Window<'a>,
    /// Offset of the frame base inside the stack window.
    frame_at: usize,
    table: &'a mut Table,
    oob: &'a OobRegistry,
    stats: &'a mut SpaceStats,
    checked: bool,
    last_load: Span,
    last_store: Span,
}

impl<'a> NativeView<'a> {
    /// Reads the frame slot at byte offset `off` (unchecked, like
    /// [`MemorySpace::read_raw`] on a local).
    #[inline(always)]
    pub fn local_get(&self, off: u32, size: AccessSize) -> u64 {
        scalar_get(self.stack.bytes, self.frame_at + off as usize, size)
            .expect("frame slot inside the committed frame window")
    }

    /// Writes the frame slot at byte offset `off`.
    #[inline(always)]
    pub fn local_put(&mut self, off: u32, size: AccessSize, value: u64) {
        let ok = scalar_put(self.stack.bytes, self.frame_at + off as usize, size, value);
        assert!(ok, "frame slot inside the committed frame window");
    }

    /// The window that would back `a`. Region bases are layout
    /// constants, so this is two compares; whether `a` is actually
    /// inside the window is the access's own bounds check.
    #[inline(always)]
    fn window(&mut self, a: u64) -> &mut Window<'a> {
        if a >= addr::STACK_BASE {
            &mut self.stack
        } else if a >= addr::HEAP_BASE {
            &mut self.heap
        } else {
            &mut self.globals
        }
    }

    /// The extent of the unit holding `ptr`, provided `[target,
    /// target + n)` lies inside that same unit: `memo` if it already
    /// answers, else one placement lookup. Units never overlap, so
    /// containment of the target proves both the derivation
    /// `ptr → target` and the access in bounds.
    #[inline(always)]
    fn resolve(&mut self, memo: Span, ptr: u64, target: u64, n: u64) -> Option<Span> {
        if memo.holds(ptr, 1) && memo.holds(target, n) {
            return Some(memo);
        }
        if addr::is_oob_zone(ptr) {
            return None;
        }
        let pl = self.table.lookup(ptr)?;
        let span = Span {
            base: pl.base,
            size: pl.size,
        };
        span.holds(target, n).then_some(span)
    }

    /// Guest load of `size` bytes at `ptr + delta`, where `ptr` is a
    /// pointer the guest derived the address from (checked `ptr_add`
    /// immediately followed by a checked load, answered by one
    /// lookup). `None` is a miss.
    #[inline(always)]
    pub fn idx_load(&mut self, ptr: u64, delta: i64, size: AccessSize) -> Option<u64> {
        let target = ptr.wrapping_add(delta as u64);
        if self.checked {
            self.last_load = self.resolve(self.last_load, ptr, target, size.bytes())?;
        }
        let w = self.window(target);
        let value = scalar_get(w.bytes, target.wrapping_sub(w.lo) as usize, size)?;
        self.stats.loads += 1;
        self.stats.checked_accesses += self.checked as u64;
        Some(value)
    }

    /// Store twin of [`NativeView::idx_load`]; `false` is a miss.
    #[inline(always)]
    pub fn idx_store(&mut self, ptr: u64, delta: i64, size: AccessSize, value: u64) -> bool {
        let target = ptr.wrapping_add(delta as u64);
        if self.checked {
            match self.resolve(self.last_store, ptr, target, size.bytes()) {
                Some(span) => self.last_store = span,
                None => return false,
            }
        }
        let w = self.window(target);
        let hit = scalar_put(w.bytes, target.wrapping_sub(w.lo) as usize, size, value);
        self.stats.stores += hit as u64;
        self.stats.checked_accesses += (hit & self.checked) as u64;
        hit
    }

    /// Guest load of `size` bytes at `a` — the hit path of
    /// [`MemorySpace::load`].
    #[inline(always)]
    pub fn load(&mut self, a: u64, size: AccessSize) -> Option<u64> {
        self.idx_load(a, 0, size)
    }

    /// Guest store at `a` — the hit path of [`MemorySpace::store`].
    #[inline(always)]
    pub fn store(&mut self, a: u64, size: AccessSize, value: u64) -> bool {
        self.idx_store(a, 0, size, value)
    }

    /// Guest pointer arithmetic whose result stays inside the source
    /// pointer's unit, or whose source has no provenance — the cases
    /// [`MemorySpace::ptr_add`] answers without touching the
    /// out-of-bounds registry. `None` (a descriptor operand, or a
    /// result that leaves its unit) is a miss.
    #[inline]
    pub fn ptr_add(&mut self, ptr: u64, delta: i64) -> Option<u64> {
        let target = ptr.wrapping_add(delta as u64);
        if !self.checked {
            return Some(target);
        }
        let span = if self.last_load.holds(ptr, 1) {
            self.last_load
        } else if self.last_store.holds(ptr, 1) {
            self.last_store
        } else if addr::is_oob_zone(ptr) {
            return None;
        } else {
            match self.table.lookup(ptr) {
                Some(pl) => Span {
                    base: pl.base,
                    size: pl.size,
                },
                None => return Some(target),
            }
        };
        span.holds(target, 1).then_some(target)
    }

    /// [`MemorySpace::effective_addr`]; reads only, so never a miss.
    #[inline]
    pub fn effective_addr(&self, ptr: u64) -> u64 {
        self.oob.effective_addr(ptr)
    }
}

fn kind_for_read(kind: ErrorKind) -> ErrorKind {
    match kind {
        ErrorKind::DanglingRead | ErrorKind::DanglingWrite => ErrorKind::DanglingRead,
        _ => ErrorKind::InvalidRead,
    }
}

fn kind_for_write(kind: ErrorKind) -> ErrorKind {
    match kind {
        ErrorKind::DanglingRead | ErrorKind::DanglingWrite => ErrorKind::DanglingWrite,
        _ => ErrorKind::InvalidWrite,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(mode: Mode) -> MemorySpace {
        MemorySpace::new(MemConfig {
            mode,
            global_len: 64 << 10,
            heap_len: 256 << 10,
            stack_len: 64 << 10,
            ..MemConfig::default()
        })
    }

    const CTX: AccessCtx = AccessCtx { func: 0, pc: 0 };

    #[test]
    fn in_bounds_round_trip_all_modes() {
        for mode in Mode::ALL {
            let mut s = space(mode);
            let p = s.malloc(32).unwrap();
            s.store(p, AccessSize::B8, 0xFEED_FACE, CTX).unwrap();
            let r = s.load(p, AccessSize::B8, CTX).unwrap();
            assert_eq!(r.value, 0xFEED_FACE, "mode {mode:?}");
            assert!(!r.violation);
        }
    }

    #[test]
    fn standard_mode_overflow_corrupts_neighbour() {
        let mut s = space(Mode::Standard);
        let a = s.malloc(16).unwrap();
        let b = s.malloc(16).unwrap();
        s.store(b, AccessSize::B8, 7, CTX).unwrap();
        // Write 8 bytes at a+32: in this allocator layout that lands on
        // b's payload (16-byte blocks + 16-byte headers).
        let delta = b - a;
        s.store(a + delta, AccessSize::B8, 0x41414141, CTX).unwrap();
        assert_eq!(s.load(b, AccessSize::B8, CTX).unwrap().value, 0x41414141);
    }

    #[test]
    fn standard_mode_unmapped_access_segfaults() {
        let mut s = space(Mode::Standard);
        assert_eq!(
            s.load(0x10, AccessSize::B1, CTX),
            Err(MemFault::Segv { addr: 0x10 })
        );
        assert_eq!(
            s.store(0x10, AccessSize::B1, 0, CTX),
            Err(MemFault::Segv { addr: 0x10 })
        );
    }

    #[test]
    fn bounds_check_terminates_on_overrun() {
        let mut s = space(Mode::BoundsCheck);
        let p = s.malloc(16).unwrap();
        let q = s.ptr_add(p, 16);
        let err = s.store(q, AccessSize::B1, 0x41, CTX).unwrap_err();
        assert!(matches!(
            err,
            MemFault::MemoryError {
                kind: ErrorKind::InvalidWrite,
                ..
            }
        ));
    }

    #[test]
    fn bounds_check_rejects_straddling_access() {
        let mut s = space(Mode::BoundsCheck);
        let p = s.malloc(16).unwrap();
        // 8-byte load starting at the 12th byte straddles the end.
        let q = s.ptr_add(p, 12);
        assert!(s.load(q, AccessSize::B8, CTX).is_err());
        // 4-byte load at the same spot is fine.
        assert!(s.load(q, AccessSize::B4, CTX).is_ok());
    }

    #[test]
    fn failure_oblivious_discards_writes_and_manufactures_reads() {
        let mut s = space(Mode::FailureOblivious);
        let victim = s.malloc(16).unwrap();
        s.store(victim, AccessSize::B8, 0x1234, CTX).unwrap();
        let p = s.malloc(16).unwrap();
        let oob = s.ptr_add(p, 64);
        let w = s.store(oob, AccessSize::B8, 0x4141_4141, CTX).unwrap();
        assert!(w.violation);
        // Neighbouring allocation is untouched.
        assert_eq!(s.load(victim, AccessSize::B8, CTX).unwrap().value, 0x1234);
        // Reads manufacture the paper's sequence: 0, 1, 2, 0, 1, 3, ...
        let vals: Vec<u64> = (0..6)
            .map(|_| s.load(oob, AccessSize::B4, CTX).unwrap().value)
            .collect();
        assert_eq!(vals, vec![0, 1, 2, 0, 1, 3]);
        assert_eq!(s.error_log().total_writes(), 1);
        assert_eq!(s.error_log().total_reads(), 6);
    }

    #[test]
    fn oob_pointer_can_return_in_bounds() {
        let mut s = space(Mode::FailureOblivious);
        let p = s.malloc(16).unwrap();
        s.store(p, AccessSize::B1, 99, CTX).unwrap();
        let past = s.ptr_add(p, 20);
        assert!(addr::is_oob_zone(past));
        assert_eq!(s.effective_addr(past), p + 20);
        let back = s.ptr_add(past, -20);
        assert_eq!(back, p);
        assert_eq!(s.load(back, AccessSize::B1, CTX).unwrap().value, 99);
    }

    #[test]
    fn one_past_end_pointer_compares_but_does_not_deref() {
        let mut s = space(Mode::BoundsCheck);
        let p = s.malloc(8).unwrap();
        let end = s.ptr_add(p, 8);
        assert_eq!(s.effective_addr(end), p + 8);
        assert!(s.load(end, AccessSize::B1, CTX).is_err());
    }

    #[test]
    fn boundless_mode_round_trips_oob_data() {
        let mut s = space(Mode::Boundless);
        let p = s.malloc(8).unwrap();
        let oob = s.ptr_add(p, 24);
        s.store(oob, AccessSize::B4, 0xBEEF, CTX).unwrap();
        let r = s.load(oob, AccessSize::B4, CTX).unwrap();
        assert!(r.violation);
        assert_eq!(r.value, 0xBEEF);
        // A different out-of-bounds offset was never written: manufactured.
        let oob2 = s.ptr_add(p, 48);
        let r2 = s.load(oob2, AccessSize::B4, CTX).unwrap();
        assert_eq!(r2.value, 0); // first manufactured value
    }

    #[test]
    fn redirect_mode_wraps_into_unit() {
        let mut s = space(Mode::Redirect);
        let p = s.malloc(8).unwrap();
        s.store(p, AccessSize::B1, 0xAB, CTX).unwrap();
        let oob = s.ptr_add(p, 8); // wraps to offset 0
        let r = s.load(oob, AccessSize::B1, CTX).unwrap();
        assert!(r.violation);
        assert_eq!(r.value, 0xAB);
        // Writes wrap too.
        let oob9 = s.ptr_add(p, 9);
        s.store(oob9, AccessSize::B1, 0xCD, CTX).unwrap();
        let in1 = s.ptr_add(p, 1);
        assert_eq!(s.load(in1, AccessSize::B1, CTX).unwrap().value, 0xCD);
    }

    #[test]
    fn free_then_use_is_dangling_in_checked_modes() {
        let mut s = space(Mode::FailureOblivious);
        let p = s.malloc(16).unwrap();
        let past = s.ptr_add(p, 100); // keep a descriptor alive
        s.free(p, CTX).unwrap();
        // The plain pointer now resolves to no live unit.
        let r = s.load(p, AccessSize::B8, CTX).unwrap();
        assert!(r.violation);
        // The descriptor was purged with its unit; access is a violation.
        let r2 = s.load(past, AccessSize::B8, CTX).unwrap();
        assert!(r2.violation);
    }

    #[test]
    fn invalid_free_policies() {
        // Bounds Check: fatal.
        let mut s = space(Mode::BoundsCheck);
        let p = s.malloc(16).unwrap();
        let q = s.ptr_add(p, 4);
        assert!(s.free(q, CTX).is_err());
        // Failure-oblivious: logged and discarded; the block stays usable.
        let mut s = space(Mode::FailureOblivious);
        let p = s.malloc(16).unwrap();
        let q = s.ptr_add(p, 4);
        s.free(q, CTX).unwrap();
        assert_eq!(s.error_log().total(), 1);
        s.store(p, AccessSize::B8, 5, CTX).unwrap();
        assert_eq!(s.load(p, AccessSize::B8, CTX).unwrap().value, 5);
        // Standard: allocator detects the bad header and aborts.
        let mut s = space(Mode::Standard);
        let p = s.malloc(16).unwrap();
        assert!(matches!(s.free(p + 4, CTX), Err(MemFault::Heap(_))));
    }

    #[test]
    fn double_free_is_caught_per_mode() {
        for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
            let mut s = space(mode);
            let p = s.malloc(16).unwrap();
            s.free(p, CTX).unwrap();
            let second = s.free(p, CTX);
            match mode {
                Mode::Standard => assert!(matches!(second, Err(MemFault::Heap(_)))),
                Mode::BoundsCheck => assert!(matches!(second, Err(MemFault::MemoryError { .. }))),
                _ => {
                    second.unwrap();
                    assert_eq!(s.error_log().total(), 1);
                }
            }
        }
    }

    #[test]
    fn realloc_preserves_prefix() {
        for mode in [Mode::Standard, Mode::FailureOblivious] {
            let mut s = space(mode);
            let p = s.malloc(8).unwrap();
            s.store(p, AccessSize::B8, 0xABCD_EF01, CTX).unwrap();
            let q = s.realloc(p, 64, CTX).unwrap();
            assert_eq!(s.load(q, AccessSize::B8, CTX).unwrap().value, 0xABCD_EF01);
            let r = s.realloc(q, 0, CTX).unwrap();
            assert_eq!(r, 0);
        }
    }

    #[test]
    fn frame_push_pop_and_locals() {
        let mut s = space(Mode::BoundsCheck);
        let base = s.push_frame(64).unwrap();
        s.register_local(base, 0, 16);
        s.register_local(base, 32, 16);
        s.store(base, AccessSize::B8, 1, CTX).unwrap();
        s.store(base + 32, AccessSize::B8, 2, CTX).unwrap();
        // The gap between locals is not accessible.
        assert!(s.load(base + 16, AccessSize::B8, CTX).is_err());
        s.pop_frame().unwrap();
        // After pop, the local is dead.
        let mut s2 = space(Mode::FailureOblivious);
        let base2 = s2.push_frame(32).unwrap();
        s2.register_local(base2, 0, 16);
        s2.pop_frame().unwrap();
        let r = s2.load(base2, AccessSize::B8, CTX).unwrap();
        assert!(r.violation);
    }

    #[test]
    fn standard_mode_stack_smash_detected_on_pop() {
        let mut s = space(Mode::Standard);
        let base = s.push_frame(16).unwrap();
        // Overflow: write past the 16 local bytes into the canary.
        s.store(base + 16, AccessSize::B8, 0x4242_4242_4242_4242, CTX)
            .unwrap();
        let err = s.pop_frame().unwrap_err();
        assert!(matches!(
            err,
            MemFault::StackSmashed {
                found: 0x4242_4242_4242_4242,
                ..
            }
        ));
    }

    #[test]
    fn checked_modes_protect_the_canary() {
        for mode in [Mode::BoundsCheck, Mode::FailureOblivious] {
            let mut s = space(mode);
            let base = s.push_frame(16).unwrap();
            s.register_local(base, 0, 16);
            // Attempt the same overflow through a derived pointer.
            let p = s.ptr_add(base, 16);
            let _ = s.store(p, AccessSize::B8, 0x4242, CTX);
            assert!(s.pop_frame().is_ok(), "mode {mode:?} must keep the canary");
        }
    }

    #[test]
    fn stack_overflow_reported() {
        let mut s = space(Mode::Standard);
        let mut n = 0;
        loop {
            match s.push_frame(4096) {
                Ok(_) => n += 1,
                Err(MemFault::StackOverflow) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            assert!(n < 1_000_000);
        }
        assert!(n > 0);
    }

    #[test]
    fn globals_allocate_and_initialise() {
        let mut s = space(Mode::BoundsCheck);
        let g = s.alloc_global_bytes(b"hello\0", "greeting").unwrap();
        assert_eq!(s.load(g, AccessSize::B1, CTX).unwrap().value, b'h' as u64);
        let g2 = s.alloc_global(8, "counter").unwrap();
        assert!(g2 >= g + 6);
        // Units do not blur together.
        let past = s.ptr_add(g, 6);
        assert!(s.load(past, AccessSize::B1, CTX).is_err());
    }

    #[test]
    fn null_deref_behaviour_per_mode() {
        let mut s = space(Mode::Standard);
        assert!(matches!(
            s.load(0, AccessSize::B8, CTX),
            Err(MemFault::Segv { .. })
        ));
        let mut s = space(Mode::BoundsCheck);
        assert!(s.load(0, AccessSize::B8, CTX).is_err());
        let mut s = space(Mode::FailureOblivious);
        let r = s.load(0, AccessSize::B8, CTX).unwrap();
        assert!(r.violation);
    }

    #[test]
    fn stats_count_checked_accesses() {
        let mut s = space(Mode::BoundsCheck);
        let p = s.malloc(8).unwrap();
        s.store(p, AccessSize::B8, 1, CTX).unwrap();
        s.load(p, AccessSize::B8, CTX).unwrap();
        assert_eq!(s.stats().checked_accesses, 2);
        let mut s = space(Mode::Standard);
        let p = s.malloc(8).unwrap();
        s.store(p, AccessSize::B8, 1, CTX).unwrap();
        assert_eq!(s.stats().checked_accesses, 0);
    }

    #[test]
    fn unit_slots_are_recycled() {
        let mut s = space(Mode::FailureOblivious);
        for _ in 0..1000 {
            let p = s.malloc(32).unwrap();
            s.free(p, CTX).unwrap();
        }
        assert!(
            s.store.slot_count() <= 4,
            "unit slots must be reused, got {}",
            s.store.slot_count()
        );
    }

    /// [`space`] on the shipped table (`space` itself runs the oracle).
    fn flat_space(mode: Mode) -> MemorySpace {
        MemorySpace::new(MemConfig {
            mode,
            global_len: 64 << 10,
            heap_len: 256 << 10,
            stack_len: 64 << 10,
            table: TableKind::Flat,
            ..MemConfig::default()
        })
    }

    /// Drives the same access script over both tables and asserts every
    /// observable — outcomes, stats, the full error log — is
    /// byte-identical.
    fn assert_table_blind(mode: Mode, script: impl Fn(&mut MemorySpace) -> Vec<String>) {
        let mut a = space(mode);
        let mut b = flat_space(mode);
        let ta = script(&mut a);
        let tb = script(&mut b);
        assert_eq!(ta, tb, "outcomes must match under {mode:?}");
        assert_eq!(a.stats(), b.stats(), "stats must match under {mode:?}");
        assert_eq!(
            a.error_log().records(),
            b.error_log().records(),
            "log records must match under {mode:?}"
        );
    }

    #[test]
    fn both_tables_are_observationally_identical_on_mixed_traffic() {
        for mode in Mode::ALL {
            assert_table_blind(mode, |s| {
                let mut t = Vec::new();
                let big = s.malloc(3 * 4096).unwrap();
                let a = s.malloc(24).unwrap();
                let b = s.malloc(24).unwrap();
                for off in [0u64, 100, 4096, 3 * 4096 - 8] {
                    t.push(format!(
                        "{:?}",
                        s.store(big + off, AccessSize::B8, off, CTX)
                    ));
                    t.push(format!("{:?}", s.load(big + off, AccessSize::B8, CTX)));
                }
                // Straddle, overrun, gap, and null accesses.
                let end = s.ptr_add(big, 3 * 4096 - 4);
                t.push(format!("{:?}", s.load(end, AccessSize::B8, CTX)));
                let oob = s.ptr_add(a, 64);
                t.push(format!("{:?}", s.store(oob, AccessSize::B4, 7, CTX)));
                t.push(format!("{:?}", s.load(oob, AccessSize::B4, CTX)));
                t.push(format!("{:?}", s.load(0, AccessSize::B1, CTX)));
                t.push(format!("{:?}", s.load(b + 8, AccessSize::B8, CTX)));
                t.push(format!("{:?}", s.free(a, CTX)));
                // Dangling access through the freed unit's address.
                t.push(format!("{:?}", s.load(a, AccessSize::B8, CTX)));
                t.push(format!("{:?}", s.realloc(b, 4096, CTX)));
                t.push(format!("{:?}", s.free(big, CTX)));
                t.push(format!("{:?}", s.stats().checked_accesses));
                t
            });
        }
    }

    #[test]
    fn far_misses_classify_alike_on_both_tables() {
        // Addresses far from any unit: below the first global, in the
        // heap frontier, on a frameless stack, outside every region.
        // Both tables must log the same kind with no referent.
        for mode in [Mode::BoundsCheck, Mode::FailureOblivious] {
            assert_table_blind(mode, |s| {
                let g = s.alloc_global(8, "g").unwrap();
                let h = s.malloc(16).unwrap();
                let mut t = Vec::new();
                for a in [
                    g + 3 * 4096,
                    h + 40 * 4096,
                    addr::STACK_BASE + 4,
                    addr::GLOBAL_BASE.wrapping_sub(8),
                ] {
                    t.push(format!("{:?}", s.load(a, AccessSize::B4, CTX)));
                    t.push(format!("{:?}", s.store(a, AccessSize::B4, 1, CTX)));
                }
                t
            });
        }
    }

    #[test]
    fn both_tables_survive_frame_and_slot_churn() {
        // Push/pop frames and malloc/free in a tight loop so store slots
        // recycle constantly; neither table may resolve a dead unit, and
        // both must agree throughout.
        assert_table_blind(Mode::FailureOblivious, |s| {
            let mut t = Vec::new();
            for round in 0..50u64 {
                let fb = s.push_frame(64).unwrap();
                s.register_local(fb, 0, 24);
                s.register_local(fb, 32, 16);
                let p = s.malloc(16 + (round % 7) * 8).unwrap();
                t.push(format!("{:?}", s.store(fb, AccessSize::B8, round, CTX)));
                t.push(format!("{:?}", s.load(fb + 32, AccessSize::B8, CTX)));
                // The previous round's pointers are dead or recycled.
                t.push(format!("{:?}", s.load(p + 200, AccessSize::B4, CTX)));
                t.push(format!("{:?}", s.free(p, CTX)));
                t.push(format!("{:?}", s.load(p, AccessSize::B4, CTX)));
                s.pop_frame().unwrap();
            }
            t.push(format!("{}", s.unit_store().slot_count()));
            t
        });
    }

    #[test]
    fn clones_diverge_independently() {
        for make in [space, flat_space] {
            let mut s = make(Mode::FailureOblivious);
            let big = s.malloc(2 * 4096).unwrap();
            let small = s.malloc(8).unwrap();
            s.store(big + 4096, AccessSize::B8, 0xABCD, CTX).unwrap();
            let mut c = s.clone();
            // The clone resolves through its own copy of the table...
            assert_eq!(
                c.load(big + 4096, AccessSize::B8, CTX).unwrap().value,
                0xABCD
            );
            // ...and diverges independently: a free in the clone kills
            // the unit there without touching the original.
            c.free(big, CTX).unwrap();
            assert!(c.load(big + 4096, AccessSize::B8, CTX).unwrap().violation);
            assert!(!s.load(big + 4096, AccessSize::B8, CTX).unwrap().violation);
            assert!(!c.load(small, AccessSize::B4, CTX).unwrap().violation);
            assert_eq!((s.live_units(), c.live_units()), (2, 1));
        }
    }
}
