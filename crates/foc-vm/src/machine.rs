//! The interpreter.

use std::collections::VecDeque;

use foc_compiler::native::{extend, NOp, NativeFunc, Src, Term};
use foc_compiler::{Instr, ProgramImage};
use foc_memory::{
    AccessCtx, AccessSize, MemConfig, MemoryErrorRecord, MemorySpace, NativeView, RoomyVec,
    SpaceStats,
};

use crate::builtins;
use crate::cost;
use crate::fault::VmFault;

/// Machine construction parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Memory substrate configuration (mode, region sizes, sequence...).
    pub mem: MemConfig,
    /// Instruction budget per [`Machine::call`]; exceeding it raises
    /// [`VmFault::FuelExhausted`].
    pub fuel_per_call: u64,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            mem: MemConfig::default(),
            fuel_per_call: 200_000_000,
        }
    }
}

impl MachineConfig {
    /// Config with the given memory mode and defaults elsewhere.
    pub fn with_mode(mode: foc_memory::Mode) -> MachineConfig {
        MachineConfig {
            mem: MemConfig::with_mode(mode),
            ..MachineConfig::default()
        }
    }

    /// Same config with a different object-table backend — the knob the
    /// farm and the server drivers thread down from their own configs.
    pub fn with_table(mut self, table: foc_memory::TableKind) -> MachineConfig {
        self.mem.table = table;
        self
    }

    /// Same config with a different manufactured-value strategy (the §3
    /// ablation knob, and a first-class axis of the mode sweep).
    pub fn with_sequence(mut self, sequence: foc_memory::ValueSequence) -> MachineConfig {
        self.mem.sequence = sequence;
        self
    }

    /// Same config with a different per-call instruction budget (the
    /// sweep's fuel axis: a tight budget converts manufactured-value
    /// non-termination into a prompt, classifiable fuel-out).
    pub fn with_fuel(mut self, fuel_per_call: u64) -> MachineConfig {
        self.fuel_per_call = fuel_per_call;
        self
    }
}

/// Execution counters (monotone across calls).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions interpreted.
    pub instrs: u64,
    /// Virtual cycles charged (includes I/O).
    pub cycles: u64,
    /// Cycles attributable to modelled I/O alone.
    pub io_cycles: u64,
    /// Guest function calls executed.
    pub calls: u64,
}

/// Everything a finished call lets a client or an operator see of a
/// [`Machine`], beside the call's own result ([`Machine::observe`]).
///
/// This is the one statement of the invariant the reproduction rests
/// on (ROADMAP aim 3): the paper's claim is about *observable behaviour
/// under memory errors*, so two executions of one program on one input
/// — on either execution tier, either object table, either request
/// edge, from a cold boot or a clone of a frozen one — must leave equal
/// `Observation`s behind equal transcripts. Every equivalence battery
/// asserts exactly this relation and no subset of it.
///
/// [`ExecProfile`] and [`foc_memory::Footprint`] are deliberately not
/// fields: a counter that explains *how* a run went (native residency,
/// view misses, committed pages) differs between configurations by
/// design, and keeping it out of this type is what makes it
/// observationally inert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Execution counters: instructions, cycles, I/O cycles, calls — so
    /// in particular the refund a mid-region fault takes.
    pub run: RunStats,
    /// The substrate's counters.
    pub space: SpaceStats,
    /// Memory errors ever logged.
    pub log_total: u64,
    /// Invalid and dangling reads ever logged.
    pub log_reads: u64,
    /// Invalid and dangling writes ever logged.
    pub log_writes: u64,
    /// Records the log's retention limit evicted.
    pub log_dropped: u64,
    /// The retained records, oldest first, each with the function and
    /// pc it faulted at.
    pub log: Vec<MemoryErrorRecord>,
    /// The fault the process died of, if it did.
    pub dead: Option<VmFault>,
    /// The operand stack the last call left: empty after a return, what
    /// the process died with after a fault.
    pub stack: Vec<i64>,
    /// The `(function, pc)` of every frame the last call left active,
    /// outermost first.
    pub frames: Vec<(u32, u32)>,
}

/// Where execution went, beside [`RunStats`] and never inside it or
/// inside [`Observation`]: not `PartialEq`, so no equivalence relation
/// can come to depend on it, and nothing reads it back into execution.
/// Native residency is `native_instrs / RunStats::instrs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecProfile {
    /// Instructions retired inside native regions (fault refunds
    /// subtracted, like `RunStats::instrs`).
    pub native_instrs: u64,
    /// Native regions entered.
    pub region_entries: u64,
    /// Dispatches inside native regions: per region entered, the entry,
    /// each of its ops and its terminator — a count fixed at lowering
    /// (`NativeRegion::dispatches`), so it costs nothing per op.
    pub native_ops: u64,
    /// Stays on the native path that ended at a pc no region starts at
    /// (call, builtin, return).
    pub no_region_exits: u64,
    /// Stays that ended at a region whose charge exceeded the fuel left.
    pub fuel_short_exits: u64,
    /// View misses: the executor dropped its view of the space, ran the
    /// interpreter's full routine for one op, and resumed.
    pub view_misses: u64,
    /// Stays that ended in a guest fault at a region's seam.
    pub faults: u64,
    /// Builtin calls dispatched.
    pub builtin_calls: u64,
    /// Instructions the builtins charged for their byte iterations,
    /// byte-wise and span-wise together.
    pub builtin_instrs: u64,
    /// The span-wise share of `builtin_instrs`: iterations retired
    /// several at a time over a run of in-bounds bytes (native tier
    /// only; see `builtins.rs`).
    pub span_instrs: u64,
    /// Frame slots registered as data units on function entry (checked
    /// modes only): with `RunStats::calls`, what a guest call costs the
    /// substrate.
    pub locals_registered: u64,
}

/// An active call frame.
#[derive(Debug, Clone)]
struct Frame {
    func: u32,
    pc: u32,
    frame_base: u64,
    stack_floor: usize,
}

/// A loaded guest program with its memory space and execution state.
///
/// A machine models one OS process: after any fault it is dead and every
/// further call fails with [`VmFault::MachineDead`] — restarting means
/// building a fresh machine, losing all in-memory state, exactly like the
/// process restarts discussed in §4.7 of the paper.
///
/// `Clone` snapshots the whole process image (memory space, evaluation
/// stack, I/O queues, counters). A booted machine that is only ever
/// cloned is a frozen boot ([`crate::checkpoint`]): supervised restarts
/// clone it instead of re-running boot and environment replay. The
/// derive is deliberate — a hand-written copy that missed a field would
/// leak a dead process's state into its successor.
#[derive(Clone)]
pub struct Machine {
    program: ProgramImage,
    space: MemorySpace,
    global_addrs: Vec<u64>,
    string_addrs: Vec<u64>,
    stack: RoomyVec<i64>,
    frames: RoomyVec<Frame>,
    input: VecDeque<Vec<u8>>,
    output: Vec<u8>,
    fuel_per_call: u64,
    fuel: u64,
    stats: RunStats,
    profile: ExecProfile,
    dead: Option<VmFault>,
    checked: bool,
}

impl Machine {
    /// Loads a shared compiled image: allocates globals and string
    /// literals and applies relocations. The image is `Arc`-backed, so
    /// any number of machines (across any number of threads) share one
    /// copy of the bytecode — booting a machine never copies or
    /// recompiles the program.
    pub fn load(program: ProgramImage, config: MachineConfig) -> Result<Machine, VmFault> {
        let mut space = MemorySpace::new(config.mem);
        let checked = space.mode().is_checked();
        let mut string_addrs = Vec::with_capacity(program.strings.len());
        for (i, s) in program.strings.iter().enumerate() {
            let addr = space.alloc_global_bytes(s, &format!("$str{i}"))?;
            string_addrs.push(addr);
        }
        let mut global_addrs = Vec::with_capacity(program.globals.len());
        for g in &program.globals {
            let addr = space.alloc_global(g.size, &g.name)?;
            let ok = space.write_bytes_raw(addr, &g.init);
            debug_assert!(ok, "global image must fit its allocation");
            for &(off, sid) in &g.relocs {
                let ok = space.write_raw(addr + off, AccessSize::B8, string_addrs[sid as usize]);
                debug_assert!(ok);
            }
            global_addrs.push(addr);
        }
        Ok(Machine {
            program,
            space,
            global_addrs,
            string_addrs,
            stack: RoomyVec::with_capacity(256),
            frames: RoomyVec::with_capacity(64),
            input: VecDeque::new(),
            output: Vec::new(),
            fuel_per_call: config.fuel_per_call,
            fuel: 0,
            stats: RunStats::default(),
            profile: ExecProfile::default(),
            dead: None,
            checked,
        })
    }

    /// Compiles and loads MiniC source in one step — a thin convenience
    /// over [`foc_compiler::compile_image`] plus [`Machine::load`].
    /// Callers that boot more than once should compile once and share
    /// the [`ProgramImage`] instead.
    pub fn from_source(source: &str, config: MachineConfig) -> Result<Machine, String> {
        let image = foc_compiler::compile_image(source)?;
        Machine::load(image, config).map_err(|e| e.to_string())
    }

    /// The shared image this machine runs (cheap to clone for booting
    /// sibling machines).
    pub fn image(&self) -> &ProgramImage {
        &self.program
    }

    // ------------------------------------------------------------------
    // Host interface.
    // ------------------------------------------------------------------

    /// The memory space (error log, stats, mode).
    pub fn space(&self) -> &MemorySpace {
        &self.space
    }

    /// Mutable access to the memory space.
    pub fn space_mut(&mut self) -> &mut MemorySpace {
        &mut self.space
    }

    /// Execution counters.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Where execution went (observability only; see [`ExecProfile`]).
    pub fn exec_profile(&self) -> ExecProfile {
        self.profile
    }

    /// Snapshots every observable surface ([`Observation`]).
    pub fn observe(&self) -> Observation {
        let log = self.space.error_log();
        Observation {
            run: self.stats,
            space: *self.space.stats(),
            log_total: log.total(),
            log_reads: log.total_reads(),
            log_writes: log.total_writes(),
            log_dropped: log.dropped(),
            log: log.records().to_vec(),
            dead: self.dead.clone(),
            stack: self.stack.to_vec(),
            frames: self.frames.iter().map(|f| (f.func, f.pc)).collect(),
        }
    }

    /// Why the machine died, if it did.
    pub fn dead_reason(&self) -> Option<&VmFault> {
        self.dead.as_ref()
    }

    /// Whether the machine has faulted.
    pub fn is_dead(&self) -> bool {
        self.dead.is_some()
    }

    /// Queues one input message for `read_input`.
    pub fn push_input(&mut self, bytes: impl Into<Vec<u8>>) {
        self.input.push_back(bytes.into());
    }

    /// Drains and returns everything the guest has written, leaving room
    /// for as much again: the next response is not regrown from nothing.
    pub fn take_output(&mut self) -> Vec<u8> {
        let fresh = Vec::with_capacity(self.output.capacity());
        std::mem::replace(&mut self.output, fresh)
    }

    /// Borrows the pending output.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Allocates a guest buffer holding `bytes` plus a NUL terminator,
    /// returning its address (driver-side `strdup` into the guest).
    pub fn alloc_cstring(&mut self, bytes: &[u8]) -> Result<u64, VmFault> {
        let p = self.space.malloc(bytes.len() as u64 + 1)?;
        let ok = self.space.write_bytes_raw(p, bytes);
        debug_assert!(ok);
        let ok = self
            .space
            .write_raw(p + bytes.len() as u64, AccessSize::B1, 0);
        debug_assert!(ok);
        Ok(p)
    }

    /// Frees a driver-allocated guest buffer.
    pub fn free_guest(&mut self, addr: u64) -> Result<(), VmFault> {
        self.space.free(addr, AccessCtx::default())?;
        Ok(())
    }

    /// Reads a NUL-terminated guest string (raw host access).
    pub fn read_cstring(&self, addr: u64) -> Vec<u8> {
        self.space
            .read_cstring_raw(addr, 1 << 20)
            .unwrap_or_default()
    }

    /// Calls a guest function by name with integer/pointer arguments,
    /// running it to completion.
    pub fn call(&mut self, name: &str, args: &[i64]) -> Result<i64, VmFault> {
        if let Some(f) = &self.dead {
            return Err(match f {
                VmFault::Exit(c) => VmFault::Exit(*c),
                _ => VmFault::MachineDead,
            });
        }
        let Some(fid) = self.program.func_index(name) else {
            return Err(VmFault::NoSuchFunction(name.to_owned()));
        };
        self.fuel = self.fuel_per_call;
        debug_assert!(self.frames.is_empty());
        self.stack.clear();
        match self.run_call(fid, args) {
            Ok(v) => Ok(v),
            Err(fault) => {
                self.dead = Some(fault.clone());
                Err(fault)
            }
        }
    }

    // ------------------------------------------------------------------
    // Core interpreter.
    // ------------------------------------------------------------------

    fn run_call(&mut self, fid: u32, args: &[i64]) -> Result<i64, VmFault> {
        // The image handle is `Arc`-backed, so cloning it pins a
        // borrowable copy of the code and frame layouts independent of
        // `&mut self`.
        let program = self.program.clone();
        let arity = program.funcs[fid as usize].param_count;
        debug_assert_eq!(args.len(), arity, "arity mismatch in host call");
        let argc = args.len().min(arity);
        self.stack.extend_from_slice(&args[..argc]);
        self.enter(&program, fid, argc)?;
        // Dispatch tightening: the hot interpreter state — current
        // function, program counter, code slice, frame base, and fuel —
        // lives in locals for the whole loop instead of being re-read
        // from (and written back to) `self.frames.last()` on every
        // instruction. The frame's architectural `pc` (and `self.fuel`)
        // are synced at exactly the points where anything can observe
        // them: guest memory ops receive the context directly, builtin
        // dispatch and calls write the frame back, and every fault
        // return syncs before unwinding. Observable accounting (fuel, instruction and
        // cycle counts, log contexts) is bit-identical to per-step
        // bookkeeping.
        let mut func = fid;
        let mut code: &[Instr] = &program.funcs[func as usize].code;
        let mut base = self.frames.last().expect("active frame").frame_base;
        let mut frame_total = program.funcs[func as usize].frame.total;
        let mut pc: u32 = 0;
        let mut fuel = self.fuel;

        // Writes the cached `pc`/`fuel` back to the architectural state.
        macro_rules! sync {
            () => {{
                self.fuel = fuel;
                self.frames.last_mut().expect("active frame").pc = pc;
            }};
        }
        // Syncs and returns the fault.
        macro_rules! fail {
            ($e:expr) => {{
                sync!();
                return Err($e);
            }};
        }
        // `?` with the cached state written back on the error path.
        macro_rules! try_vm {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(e) => fail!(e.into()),
                }
            };
        }
        // Compare handler with a fused conditional-branch peephole: a
        // comparison followed by `JumpIfZero`/`JumpIfNotZero` — the
        // loop-condition pair every scan loop executes per iteration —
        // branches directly on the flag instead of pushing, re-popping,
        // and re-dispatching. The fused path charges the second
        // instruction exactly as a separate dispatch would (one fuel,
        // one instruction, one base cycle), and falls back to the plain
        // push when the next instruction is not a branch or fuel is
        // exhausted (so fuel-out still lands *on* the branch, as it
        // does unfused).
        macro_rules! cmp_arm {
            ($cond:expr) => {{
                let b = self.pop();
                let a = self.pop();
                #[allow(clippy::redundant_closure_call)]
                let cond: bool = $cond(a, b);
                match code[pc as usize] {
                    Instr::JumpIfZero(t) if fuel > 0 => {
                        pc += 1;
                        fuel -= 1;
                        self.stats.instrs += 1;
                        self.stats.cycles += cost::BASE;
                        if !cond {
                            pc = t;
                        }
                    }
                    Instr::JumpIfNotZero(t) if fuel > 0 => {
                        pc += 1;
                        fuel -= 1;
                        self.stats.instrs += 1;
                        self.stats.cycles += cost::BASE;
                        if cond {
                            pc = t;
                        }
                    }
                    _ => self.stack.push(cond as i64),
                }
            }};
        }

        // Native tier (`ExecTier::Native`): the current function's
        // lowered regions, resolved here and again at every call and
        // return — once per activation, so the dispatch loop below
        // never touches the image's lazily filled artifact table. The
        // first activation of a function is what lowers it.
        let mut native = program.native_func(func);
        // The native regions' scratch registers, zeroed once per host
        // call. A region never reads a register before writing it
        // (beyond the `consumes` prefix the executor fills), so stale
        // values from earlier regions are dead by construction.
        let mut nregs: RegFile = [0; 256];

        loop {
            // Whenever the current pc is a lowered-region entry and
            // remaining fuel covers the region's whole charge, the
            // native executor takes over and chains regions until it
            // reaches a pc it cannot enter: fuel short of a charge, or
            // a call, builtin or return. That pc falls through to the
            // interpreter below, which is the deopt path. A fault inside a region has already been
            // written back to the architectural state.
            if let Some(nf) = native {
                (pc, fuel) = self.run_native(nf, func, base, frame_total, pc, fuel, &mut nregs)?;
            }

            let instr = code[pc as usize];
            pc += 1;

            if fuel == 0 {
                fail!(VmFault::FuelExhausted);
            }
            fuel -= 1;
            self.stats.instrs += 1;
            self.stats.cycles += cost::BASE;

            match instr {
                Instr::Const(v) => self.stack.push(v),
                Instr::Dup => {
                    let v = *self.stack.last().expect("dup on empty stack");
                    self.stack.push(v);
                }
                Instr::Drop => {
                    self.stack.pop().expect("drop on empty stack");
                }
                Instr::Swap => {
                    let n = self.stack.len();
                    self.stack.swap(n - 1, n - 2);
                }
                Instr::Rot3 => {
                    // [a, b, c] (c on top) → [b, c, a].
                    let n = self.stack.len();
                    let a = self.stack[n - 3];
                    self.stack[n - 3] = self.stack[n - 2];
                    self.stack[n - 2] = self.stack[n - 1];
                    self.stack[n - 1] = a;
                }
                Instr::LocalAddr(off) => {
                    self.stack.push((base + off as u64) as i64);
                }
                Instr::GlobalAddr(i) => {
                    self.stack.push(self.global_addrs[i as usize] as i64);
                }
                Instr::StrAddr(i) => {
                    self.stack.push(self.string_addrs[i as usize] as i64);
                }
                Instr::Load(size, signed) => {
                    let addr = self.pop() as u64;
                    let ctx = AccessCtx { func, pc };
                    let raw = try_vm!(self.g_load_at(addr, size, ctx));
                    self.stack.push(extend(raw, size, signed));
                }
                Instr::Store(size) => {
                    let addr = self.pop() as u64;
                    let value = self.pop();
                    let ctx = AccessCtx { func, pc };
                    try_vm!(self.g_store_at(addr, size, value as u64, ctx));
                }
                Instr::LoadLocal(off, size, signed) => {
                    let raw = self
                        .space
                        .read_raw(base + off as u64, size)
                        .expect("local slot is mapped");
                    self.stack.push(extend(raw, size, signed));
                }
                Instr::StoreLocal(off, size) => {
                    let value = self.pop();
                    let ok = self.space.write_raw(base + off as u64, size, value as u64);
                    debug_assert!(ok, "local slot is mapped");
                }
                Instr::Add => self.bin(|a, b| a.wrapping_add(b)),
                Instr::Sub => self.bin(|a, b| a.wrapping_sub(b)),
                Instr::Mul => self.bin(|a, b| a.wrapping_mul(b)),
                Instr::DivS => {
                    let b = self.pop();
                    let a = self.pop();
                    if b == 0 {
                        fail!(VmFault::DivideByZero);
                    }
                    self.stack.push(a.overflowing_div(b).0);
                }
                Instr::DivU => {
                    let b = self.pop() as u64;
                    let a = self.pop() as u64;
                    if b == 0 {
                        fail!(VmFault::DivideByZero);
                    }
                    self.stack.push((a / b) as i64);
                }
                Instr::RemS => {
                    let b = self.pop();
                    let a = self.pop();
                    if b == 0 {
                        fail!(VmFault::DivideByZero);
                    }
                    self.stack.push(a.overflowing_rem(b).0);
                }
                Instr::RemU => {
                    let b = self.pop() as u64;
                    let a = self.pop() as u64;
                    if b == 0 {
                        fail!(VmFault::DivideByZero);
                    }
                    self.stack.push((a % b) as i64);
                }
                Instr::And => self.bin(|a, b| a & b),
                Instr::Or => self.bin(|a, b| a | b),
                Instr::Xor => self.bin(|a, b| a ^ b),
                Instr::Shl => self.bin(|a, b| a.wrapping_shl(b as u32 & 63)),
                Instr::ShrS => self.bin(|a, b| a.wrapping_shr(b as u32 & 63)),
                Instr::ShrU => self.bin(|a, b| ((a as u64).wrapping_shr(b as u32 & 63)) as i64),
                Instr::Eq => cmp_arm!(|a: i64, b: i64| a == b),
                Instr::Ne => cmp_arm!(|a: i64, b: i64| a != b),
                Instr::LtS => cmp_arm!(|a: i64, b: i64| a < b),
                Instr::LeS => cmp_arm!(|a: i64, b: i64| a <= b),
                Instr::GtS => cmp_arm!(|a: i64, b: i64| a > b),
                Instr::GeS => cmp_arm!(|a: i64, b: i64| a >= b),
                Instr::LtU => cmp_arm!(|a: i64, b: i64| (a as u64) < b as u64),
                Instr::LeU => cmp_arm!(|a: i64, b: i64| a as u64 <= b as u64),
                Instr::GtU => cmp_arm!(|a: i64, b: i64| a as u64 > b as u64),
                Instr::GeU => cmp_arm!(|a: i64, b: i64| a as u64 >= b as u64),
                Instr::Neg => {
                    let v = self.pop();
                    self.stack.push(v.wrapping_neg());
                }
                Instr::BitNot => {
                    let v = self.pop();
                    self.stack.push(!v);
                }
                Instr::Not => {
                    let v = self.pop();
                    self.stack.push((v == 0) as i64);
                }
                Instr::Normalize(size, signed) => {
                    let v = self.pop();
                    self.stack.push(extend(v as u64, size, signed));
                }
                Instr::EffAddr => {
                    let v = self.pop() as u64;
                    self.stack.push(self.space.effective_addr(v) as i64);
                }
                Instr::PtrAdd(esz) => {
                    let count = self.pop();
                    let ptr = self.pop() as u64;
                    if self.checked {
                        self.stats.cycles += cost::PTR_CHECK_EXTRA;
                    }
                    let delta = count.wrapping_mul(esz as i64);
                    let out = self.space.ptr_add(ptr, delta);
                    self.stack.push(out as i64);
                }
                Instr::PtrDiff(esz) => {
                    let rhs = self.pop() as u64;
                    let lhs = self.pop() as u64;
                    let l = self.space.effective_addr(lhs) as i64;
                    let r = self.space.effective_addr(rhs) as i64;
                    self.stack.push(l.wrapping_sub(r) / esz.max(1) as i64);
                }
                Instr::Jump(t) => {
                    pc = t;
                }
                Instr::JumpIfZero(t) => {
                    if self.pop() == 0 {
                        pc = t;
                    }
                }
                Instr::JumpIfNotZero(t) => {
                    if self.pop() != 0 {
                        pc = t;
                    }
                }
                Instr::Call(callee) => {
                    sync!();
                    let arity = program.funcs[callee as usize].param_count;
                    try_vm!(self.enter(&program, callee, arity));
                    func = callee;
                    code = &program.funcs[func as usize].code;
                    frame_total = program.funcs[func as usize].frame.total;
                    native = program.native_func(func);
                    base = self.frames.last().expect("active frame").frame_base;
                    pc = 0;
                }
                Instr::CallBuiltin(b) => {
                    // Builtins observe and charge the architectural
                    // state (fuel via `charge`, context via `ctx`).
                    sync!();
                    self.profile.builtin_calls += 1;
                    let result = try_vm!(builtins::dispatch(self, b));
                    fuel = self.fuel;
                    self.stack.push(result);
                }
                Instr::Ret => {
                    let ret = self.pop();
                    try_vm!(self.space.pop_frame());
                    let fr = self.frames.pop().expect("active frame");
                    self.stack.truncate(fr.stack_floor);
                    if self.frames.is_empty() {
                        self.fuel = fuel;
                        return Ok(ret);
                    }
                    self.stack.push(ret);
                    let caller = self.frames.last().expect("active frame");
                    func = caller.func;
                    pc = caller.pc;
                    base = caller.frame_base;
                    code = &program.funcs[func as usize].code;
                    frame_total = program.funcs[func as usize].frame.total;
                    native = program.native_func(func);
                }
            }
        }
    }

    /// The native tier's one executor: runs the region at `pc` and then
    /// region after region, chained through their terminators'
    /// pre-resolved successors, for as long as the next one exists and
    /// the remaining fuel covers its whole `charge` — without returning
    /// to the dispatch loop in between. Returns the pc and fuel the
    /// interpreter resumes with (unchanged when `pc` enters no region).
    ///
    /// It holds a [`NativeView`] of the space while it stays on the hit
    /// path: frame-slot operands index the committed frame window,
    /// checked ops complete through the view with the hit path's exact
    /// counters. A view miss (violation, out-of-bounds descriptor,
    /// uncommitted bytes) drops the view, runs the interpreter's full
    /// routine on `&mut self` — continuation code, manufactured values,
    /// log records and all — then re-takes the view and resumes behind
    /// the op. Each region is charged up front, and the bookkeeping
    /// lives in locals: instructions retired are the fuel spent, the
    /// per-access extras and the profile counts accumulate beside it,
    /// and all of it is written to the machine where the stay ends —
    /// exit or fault (the miss path only ever adds to the machine's
    /// counters, so it needs no write-back). A fault refunds
    /// `charge - spent` from the op's pre-baked seam, spills the live
    /// registers back to the operand stack, and writes fuel and the
    /// seam's pc back to the architectural state, so the post-fault
    /// image is the baseline tier's.
    // Its own symbol: the interpreter loop keeps its own register
    // allocation, and this function's placement is what ROADMAP item 2
    // asks to be read beside an `mc_copy` number.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn run_native(
        &mut self,
        nf: &NativeFunc,
        func: u32,
        base: u64,
        frame_total: u64,
        pc: u32,
        mut fuel: u64,
        regs: &mut RegFile,
    ) -> Result<(u32, u64), VmFault> {
        // `NO_REGION` is past every index.
        let entered = nf.entry.get(pc as usize);
        let entered = entered.and_then(|&ri| nf.regions.get(ri as usize));
        let Some(mut region) = entered.filter(|r| fuel >= r.charge) else {
            return Ok((pc, fuel));
        };
        let (ptr_extra, mem_extra) = if self.checked {
            (cost::PTR_CHECK_EXTRA, cost::MEM_CHECK_EXTRA)
        } else {
            (0, 0)
        };
        let mut view = self.space.native_view(base, frame_total);
        let fuel_in = fuel;
        let (mut extras, mut entries, mut ops) = (0u64, 0u64, 0u64);

        // Writes the stay's bookkeeping to the machine.
        macro_rules! settle {
            () => {{
                let retired = fuel_in - fuel;
                self.stats.instrs += retired;
                self.stats.cycles += retired * cost::BASE + extras;
                self.profile.native_instrs += retired;
                self.profile.region_entries += entries;
                self.profile.native_ops += ops;
            }};
        }
        // The miss path. `$e` borrows the whole machine, which ends the
        // old view's borrows (and its memo) — it is never read again,
        // only replaced.
        macro_rules! full {
            ($e:expr) => {{
                self.profile.view_misses += 1;
                let out = $e;
                view = self.space.native_view(base, frame_total);
                out
            }};
        }
        macro_rules! fault {
            ($seam:expr, $spill:expr, $e:expr) => {{
                self.stack.extend_from_slice(&regs[..$spill as usize]);
                fuel += region.charge - $seam.spent;
                settle!();
                self.profile.faults += 1;
                self.fuel = fuel;
                self.frames.last_mut().expect("active frame").pc = $seam.pc;
                return Err($e);
            }};
        }
        macro_rules! val {
            ($src:expr) => {
                match $src {
                    Src::Reg(r) => regs[r as usize],
                    Src::Slot8(off) => view.local_get(off, AccessSize::B8) as i64,
                    Src::Slot { off, size, signed } => slot_get(&view, off, size, signed),
                    Src::Const(c) => c,
                    Src::Addr(off) => (base + off as u64) as i64,
                }
            };
        }
        // A guest load: `$hit` through the view, else the full access
        // at `$target` (evaluated on the whole machine).
        macro_rules! load {
            ($hit:expr, $target:expr, $size:expr, $seam:expr, $spill:expr) => {
                match $hit {
                    Some(raw) => {
                        extras += mem_extra;
                        raw
                    }
                    None => {
                        let ctx = AccessCtx { func, pc: $seam.pc };
                        match full!({
                            let target = $target;
                            self.g_load_at(target, $size, ctx)
                        }) {
                            Ok(raw) => raw,
                            Err(e) => fault!($seam, $spill, e),
                        }
                    }
                }
            };
        }
        macro_rules! store {
            ($hit:expr, $target:expr, $size:expr, $value:expr, $seam:expr, $spill:expr) => {
                if $hit {
                    extras += mem_extra;
                } else {
                    let ctx = AccessCtx { func, pc: $seam.pc };
                    if let Err(e) = full!({
                        let target = $target;
                        self.g_store_at(target, $size, $value, ctx)
                    }) {
                        fault!($seam, $spill, e)
                    }
                }
            };
        }

        fuel -= region.charge;
        let next_pc = loop {
            entries += 1;
            ops += region.dispatches as u64;
            // One value at a time: a slice copy here is a libc `memcpy`
            // call for what is almost always zero to three values.
            for r in (0..region.consumes as usize).rev() {
                regs[r] = self.stack.pop().expect("evaluation stack underflow");
            }
            for op in &region.ops {
                match *op {
                    NOp::Mov { dst, src } => regs[dst as usize] = val!(src),
                    NOp::Swap { a, b } => regs.swap(a as usize, b as usize),
                    NOp::Rot3 { a, b, c } => {
                        let t = regs[a as usize];
                        regs[a as usize] = regs[b as usize];
                        regs[b as usize] = regs[c as usize];
                        regs[c as usize] = t;
                    }
                    NOp::GlobalAddr { dst, idx } => {
                        regs[dst as usize] = self.global_addrs[idx as usize] as i64;
                    }
                    NOp::StrAddr { dst, idx } => {
                        regs[dst as usize] = self.string_addrs[idx as usize] as i64;
                    }
                    NOp::StoreLocal { src, off, size } => {
                        let v = val!(src);
                        view.local_put(off, size, v as u64);
                    }
                    NOp::Inc {
                        off,
                        delta,
                        size,
                        signed,
                    } => inc_local(&mut view, off, delta, size, signed),
                    NOp::Alu { dst, a, b, op } => regs[dst as usize] = op.eval(val!(a), val!(b)),
                    NOp::Cmp { dst, a, b, op } => {
                        regs[dst as usize] = op.eval(val!(a), val!(b)) as i64;
                    }
                    NOp::Div {
                        dst,
                        a,
                        b,
                        signed,
                        rem,
                        seam,
                        spill,
                    } => {
                        let (a, b) = (regs[a as usize], regs[b as usize]);
                        if b == 0 {
                            fault!(seam, spill, VmFault::DivideByZero);
                        }
                        regs[dst as usize] = match (signed, rem) {
                            (true, false) => a.overflowing_div(b).0,
                            (false, false) => ((a as u64) / (b as u64)) as i64,
                            (true, true) => a.overflowing_rem(b).0,
                            (false, true) => ((a as u64) % (b as u64)) as i64,
                        };
                    }
                    NOp::Neg { at } => regs[at as usize] = regs[at as usize].wrapping_neg(),
                    NOp::BitNot { at } => regs[at as usize] = !regs[at as usize],
                    NOp::Not { at } => regs[at as usize] = (regs[at as usize] == 0) as i64,
                    NOp::Normalize { at, size, signed } => {
                        regs[at as usize] = extend(regs[at as usize] as u64, size, signed);
                    }
                    NOp::EffAddr { at } => {
                        regs[at as usize] = view.effective_addr(regs[at as usize] as u64) as i64;
                    }
                    NOp::PtrDiff { dst, a, b, esz } => {
                        let l = view.effective_addr(regs[a as usize] as u64) as i64;
                        let r = view.effective_addr(regs[b as usize] as u64) as i64;
                        regs[dst as usize] = l.wrapping_sub(r) / esz.max(1) as i64;
                    }
                    NOp::PtrAdd {
                        dst,
                        ptr,
                        count,
                        esz,
                    } => {
                        let p = val!(ptr) as u64;
                        let delta = val!(count).wrapping_mul(esz as i64);
                        extras += ptr_extra;
                        regs[dst as usize] = match view.ptr_add(p, delta) {
                            Some(out) => out,
                            None => full!(self.space.ptr_add(p, delta)),
                        } as i64;
                    }
                    NOp::Load {
                        dst,
                        addr,
                        size,
                        signed,
                        seam,
                        spill,
                    } => {
                        let a = val!(addr) as u64;
                        let raw = load!(view.load(a, size), a, size, seam, spill);
                        regs[dst as usize] = extend(raw, size, signed);
                    }
                    NOp::Store {
                        addr,
                        val,
                        size,
                        seam,
                        spill,
                    } => {
                        let a = val!(addr) as u64;
                        let v = val!(val) as u64;
                        store!(view.store(a, size, v), a, size, v, seam, spill);
                    }
                    NOp::IdxLoad {
                        dst,
                        ptr,
                        count,
                        esz,
                        size,
                        signed,
                        seam,
                        spill,
                    } => {
                        let p = val!(ptr) as u64;
                        let delta = val!(count).wrapping_mul(esz as i64);
                        extras += ptr_extra;
                        let raw = load!(
                            view.idx_load(p, delta, size),
                            self.space.ptr_add(p, delta),
                            size,
                            seam,
                            spill
                        );
                        regs[dst as usize] = extend(raw, size, signed);
                    }
                    NOp::IdxStore {
                        ptr,
                        count,
                        val,
                        esz,
                        size,
                        seam,
                        spill,
                    } => {
                        let p = val!(ptr) as u64;
                        let delta = val!(count).wrapping_mul(esz as i64);
                        let v = val!(val) as u64;
                        extras += ptr_extra;
                        store!(
                            view.idx_store(p, delta, size, v),
                            self.space.ptr_add(p, delta),
                            size,
                            v,
                            seam,
                            spill
                        );
                    }
                }
            }
            let next = match region.term {
                Term::Goto(next) => next,
                Term::Branch {
                    a,
                    b,
                    op,
                    taken,
                    fall,
                } => {
                    if op.eval(val!(a), val!(b)) {
                        taken
                    } else {
                        fall
                    }
                }
                Term::IncBranch {
                    off,
                    delta,
                    size,
                    signed,
                    a,
                    b,
                    op,
                    taken,
                    fall,
                } => {
                    inc_local(&mut view, off, delta, size, signed);
                    if op.eval(val!(a), val!(b)) {
                        taken
                    } else {
                        fall
                    }
                }
            };
            for &v in &regs[..region.produces as usize] {
                self.stack.push(v);
            }
            match nf.regions.get(next.region as usize) {
                Some(to) if fuel >= to.charge + next.skip as u64 => {
                    fuel -= to.charge + next.skip as u64;
                    region = to;
                }
                // A region starts there, but fuel does not cover it.
                Some(_) => {
                    self.profile.fuel_short_exits += 1;
                    break next.pc;
                }
                // No region: a call, builtin or return boundary.
                None => {
                    self.profile.no_region_exits += 1;
                    break next.pc;
                }
            }
        };
        settle!();
        Ok((next_pc, fuel))
    }

    /// Enters `fid`, whose `argc` arguments are the top of the operand
    /// stack (last on top): registers the frame's slots, copies the
    /// arguments in and pops them. Touches the host allocator not at
    /// all.
    fn enter(&mut self, program: &ProgramImage, fid: u32, argc: usize) -> Result<(), VmFault> {
        let func = &program.funcs[fid as usize];
        let slots = &func.frame.slots;
        self.stats.calls += 1;
        self.stats.cycles += cost::CALL_EXTRA;
        if self.checked {
            self.stats.cycles += slots.len() as u64 * cost::LOCAL_REG_EXTRA;
            self.profile.locals_registered += slots.len() as u64;
        }
        let base = self.space.push_frame(func.frame.total)?;
        for &(off, size) in slots {
            self.space.register_local(base, off, size);
        }
        let floor = self.stack.len() - argc;
        for (&arg, &(off, size)) in self.stack[floor..].iter().zip(slots) {
            let acc = AccessSize::from_bytes(size.clamp(1, 8).next_power_of_two().min(8));
            let ok = self.space.write_raw(base + off, acc, arg as u64);
            debug_assert!(ok, "parameter slot must be mapped");
        }
        self.stack.truncate(floor);
        self.frames.push(Frame {
            func: fid,
            pc: 0,
            frame_base: base,
            stack_floor: floor,
        });
        Ok(())
    }

    /// Pops one value (the dispatch loop; builtin argument marshalling).
    #[inline]
    pub(crate) fn pop(&mut self) -> i64 {
        self.stack.pop().expect("evaluation stack underflow")
    }

    #[inline]
    fn bin(&mut self, f: impl Fn(i64, i64) -> i64) {
        let b = self.pop();
        let a = self.pop();
        self.stack.push(f(a, b));
    }

    pub(crate) fn ctx(&self) -> AccessCtx {
        match self.frames.last() {
            Some(f) => AccessCtx {
                func: f.func,
                pc: f.pc,
            },
            None => AccessCtx::default(),
        }
    }

    // ------------------------------------------------------------------
    // Guest-semantic accesses (shared with builtins).
    // ------------------------------------------------------------------

    /// Checked guest load (policy applies), charging cycles. Context
    /// comes from the architectural frame — the builtins' entry point;
    /// the dispatch loop passes its cached context to
    /// [`Machine::g_load_at`] directly.
    pub(crate) fn g_load(&mut self, addr: u64, size: AccessSize) -> Result<u64, VmFault> {
        let ctx = self.ctx();
        self.g_load_at(addr, size, ctx)
    }

    /// Checked guest load with an explicit access context.
    #[inline]
    pub(crate) fn g_load_at(
        &mut self,
        addr: u64,
        size: AccessSize,
        ctx: AccessCtx,
    ) -> Result<u64, VmFault> {
        if self.checked {
            self.stats.cycles += cost::MEM_CHECK_EXTRA;
        }
        let out = self.space.load(addr, size, ctx)?;
        if out.violation {
            self.stats.cycles += cost::VIOLATION_EXTRA;
        }
        Ok(out.value)
    }

    /// Checked guest store (policy applies), charging cycles. See
    /// [`Machine::g_load`] for the context split.
    pub(crate) fn g_store(
        &mut self,
        addr: u64,
        size: AccessSize,
        value: u64,
    ) -> Result<(), VmFault> {
        let ctx = self.ctx();
        self.g_store_at(addr, size, value, ctx)
    }

    /// Checked guest store with an explicit access context.
    #[inline]
    pub(crate) fn g_store_at(
        &mut self,
        addr: u64,
        size: AccessSize,
        value: u64,
        ctx: AccessCtx,
    ) -> Result<(), VmFault> {
        if self.checked {
            self.stats.cycles += cost::MEM_CHECK_EXTRA;
        }
        let out = self.space.store(addr, size, value, ctx)?;
        if out.violation {
            self.stats.cycles += cost::VIOLATION_EXTRA;
        }
        Ok(())
    }

    /// Checked pointer arithmetic (for pointers produced by builtins).
    pub(crate) fn g_ptr_add(&mut self, ptr: u64, delta: i64) -> u64 {
        if self.checked {
            self.stats.cycles += cost::PTR_CHECK_EXTRA;
        }
        self.space.ptr_add(ptr, delta)
    }

    /// How many of the next `want` byte-wise builtin iterations may be
    /// taken as one span: none on the baseline tier, whose builtins are
    /// the byte-wise reference, and never more than fuel covers — so
    /// exhaustion still lands on a byte-wise `charge`.
    pub(crate) fn span_budget(&self, want: u64) -> u64 {
        if self.program.native().is_some() {
            want.min(self.fuel)
        } else {
            0
        }
    }

    /// Retires `k` builtin iterations at once, each a `charge(1)` plus
    /// `adds` checked pointer additions and `loads + stores` one-byte
    /// accesses that all hit: exactly what `k` byte-wise rounds of
    /// [`Machine::charge`], [`Machine::g_ptr_add`], [`Machine::g_load`]
    /// and [`Machine::g_store`] advance. `k` comes out of
    /// [`Machine::span_budget`], so fuel covers it.
    pub(crate) fn retire_span(&mut self, k: u64, adds: u64, loads: u64, stores: u64) {
        let extras = if self.checked {
            adds * cost::PTR_CHECK_EXTRA + (loads + stores) * cost::MEM_CHECK_EXTRA
        } else {
            0
        };
        self.stats.instrs += k;
        self.stats.cycles += k * (cost::BASE + extras);
        self.fuel -= k;
        self.space.count_run(k * loads, k * stores);
        self.profile.builtin_instrs += k;
        self.profile.span_instrs += k;
    }

    /// Charges `n` budgeted instructions from within a builtin loop.
    pub(crate) fn charge(&mut self, n: u64) -> Result<(), VmFault> {
        self.profile.builtin_instrs += n;
        self.stats.instrs += n;
        self.stats.cycles += n * cost::BASE;
        if self.fuel < n {
            self.fuel = 0;
            return Err(VmFault::FuelExhausted);
        }
        self.fuel -= n;
        Ok(())
    }

    /// Charges modelled I/O time.
    pub(crate) fn charge_io(&mut self, bytes: u64) {
        let c = cost::IO_LATENCY + bytes * cost::IO_PER_BYTE;
        self.stats.cycles += c;
        self.stats.io_cycles += c;
    }

    pub(crate) fn pop_input(&mut self) -> Option<Vec<u8>> {
        self.input.pop_front()
    }

    pub(crate) fn push_output(&mut self, bytes: &[u8]) {
        self.output.extend_from_slice(bytes);
    }

    pub(crate) fn push_output_byte(&mut self, b: u8) {
        self.output.push(b);
    }
}

/// The native executor's scratch registers: one per `u8` register index,
/// so indexing needs no bounds check (lowering uses the first
/// `foc_compiler::native::NATIVE_REGS`).
type RegFile = [i64; 256];

/// A narrow frame slot read and extended in one decode: each arm knows
/// its width, so the window read and the extension share one branch (an
/// 8-byte slot is sealed to `Src::Slot8` and never gets here).
#[inline(always)]
fn slot_get(view: &NativeView<'_>, off: u32, size: AccessSize, signed: bool) -> i64 {
    use AccessSize::{B1, B2, B4, B8};
    match (size, signed) {
        (B8, _) => view.local_get(off, B8) as i64,
        (B4, true) => view.local_get(off, B4) as u32 as i32 as i64,
        (B4, false) => view.local_get(off, B4) as i64,
        (B1, true) => view.local_get(off, B1) as u8 as i8 as i64,
        (B1, false) => view.local_get(off, B1) as i64,
        (B2, true) => view.local_get(off, B2) as u16 as i16 as i64,
        (B2, false) => view.local_get(off, B2) as i64,
    }
}

/// Direct-local increment statement against the frame window.
#[inline(always)]
fn inc_local(view: &mut NativeView<'_>, off: u32, delta: i64, size: AccessSize, signed: bool) {
    let mut new = extend(view.local_get(off, size), size, signed).wrapping_add(delta);
    if size != AccessSize::B8 {
        new = extend(new as u64, size, signed);
    }
    view.local_put(off, size, new as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_memory::Mode;

    fn run(src: &str, func: &str, args: &[i64]) -> i64 {
        run_mode(src, func, args, Mode::BoundsCheck)
    }

    fn run_mode(src: &str, func: &str, args: &[i64], mode: Mode) -> i64 {
        let mut m = Machine::from_source(src, MachineConfig::with_mode(mode)).expect("compile");
        match m.call(func, args) {
            Ok(v) => v,
            Err(e) => panic!("run failed: {e}"),
        }
    }

    /// Runs one function under every execution tier at the given fuel
    /// and asserts identical outcomes: the result or fault, and the
    /// whole [`Observation`].
    fn assert_tier_parity(src: &str, func: &str, args: &[i64], mode: Mode, fuel: u64) {
        let [baseline, native] = foc_compiler::ExecTier::ALL.map(|tier| {
            let image = foc_compiler::compile_image_tier(src, tier).expect("compile");
            let mut m =
                Machine::load(image, MachineConfig::with_mode(mode).with_fuel(fuel)).expect("load");
            (m.call(func, args), m.observe())
        });
        assert_eq!(
            baseline, native,
            "native diverges from baseline for {func} at fuel {fuel}"
        );
    }

    #[test]
    fn native_tier_matches_baseline_across_fuel_and_modes() {
        let src = "long spin(long n) { int xs[2]; long i; long acc = 0; \
                   for (i = 0; i < n; i++) acc += xs[5]; return acc; }";
        for mode in [
            Mode::Standard,
            Mode::BoundsCheck,
            Mode::FailureOblivious,
            Mode::Boundless,
            Mode::Redirect,
        ] {
            assert_tier_parity(src, "spin", &[6], mode, 1_000_000);
        }
        // Sweep fuel across every mid-shape exhaustion point of the
        // first loop iterations: the native tier must deopt to the same
        // fault pc, counts, and log prefix as the baseline.
        // Standard mode additionally faults on the OOB read itself, so
        // sweeping it covers the accumulate op's mid-shape fault-refund
        // seam (refund the components behind the faulting load) at
        // every interleaving of fuel exhaustion and fault.
        for fuel in 0..160 {
            assert_tier_parity(src, "spin", &[6], Mode::FailureOblivious, fuel);
            assert_tier_parity(src, "spin", &[6], Mode::Standard, fuel);
        }
    }

    #[test]
    fn native_tier_matches_baseline_on_mixed_shapes() {
        let src = "int f(int n) { \
                     int xs[4]; int i; int acc; int *p; \
                     acc = 0; p = &xs[1]; xs[1] = 5; \
                     for (i = 0; i < n; i++) { acc = acc + *p + (i << 1) - (i & 3); } \
                     xs[6] = acc; \
                     return acc + xs[6] + *p; }";
        for mode in [Mode::FailureOblivious, Mode::Boundless, Mode::Redirect] {
            assert_tier_parity(src, "f", &[9], mode, 1_000_000);
        }
        for fuel in 0..220 {
            assert_tier_parity(src, "f", &[9], Mode::FailureOblivious, fuel);
        }
    }

    /// A length is the guest's word. `memmove` and `emit_output` stage
    /// bytes in a host buffer; sizing that buffer from the argument
    /// aborted the host (`capacity overflow`) before the first byte was
    /// checked. The call must end the way the mode ends a wild copy.
    #[test]
    fn wild_guest_lengths_end_in_a_fault_not_a_host_panic() {
        let src = "int f(int n) { char a[8]; char b[8]; memmove(a, b, n); return 0; }\n\
                   int g(long n) { char a[8]; emit_output(a, n); return 0; }";
        for mode in Mode::ALL {
            for (func, n) in [("f", -1), ("g", i64::MAX)] {
                assert_tier_parity(src, func, &[n], mode, 5_000);
                let config = MachineConfig::with_mode(mode).with_fuel(5_000);
                let mut m = Machine::from_source(src, config).expect("compile");
                let fault = m.call(func, &[n]).expect_err("the copy cannot complete");
                match mode {
                    Mode::BoundsCheck => assert!(matches!(fault, VmFault::Mem(_)), "{fault:?}"),
                    Mode::Standard => {}
                    _ => assert_eq!(fault, VmFault::FuelExhausted, "{mode:?} {func}"),
                }
                assert!(m.output().is_empty(), "a copy that faults emits nothing");
            }
        }
    }

    /// A size is the guest's word too. Sizes within a granule, a header
    /// or a heap base of `2^64` used to wrap the allocator's arithmetic:
    /// a zero-capacity block, a size word of `0xFFFF_FFFF_FFFF_FFF0`, a
    /// unit reaching across the address space, or a host overflow panic.
    /// Each must end as the allocation `malloc(i64::MAX)` ends — out of
    /// memory — on the bump path and (after a `free`) on the first-fit
    /// path, with the heap as it was.
    #[test]
    fn wild_guest_sizes_end_out_of_memory_with_the_heap_intact() {
        use foc_memory::{HeapError, MemFault};
        let src = "long f(long n, long reuse) { \
                     char *keep = (char *) malloc(48); char *q = (char *) malloc(48); char *p; \
                     keep[0] = 'k'; if (reuse) free(q); \
                     p = (char *) malloc(n); if (p == 0) return 1; p[0] = 'x'; return 0; }\n\
                   long g(long n, long reuse) { \
                     char *keep = (char *) malloc(48); char *q = (char *) malloc(48); \
                     keep[0] = 'k'; if (reuse) free(q); \
                     keep = (char *) realloc(keep, n); if (keep == 0) return 1; return 0; }";
        let sizes = [-1, -15, -16, -17, -32, -0x1000_0000, i64::MIN, i64::MAX];
        for mode in Mode::ALL {
            for func in ["f", "g"] {
                for n in sizes {
                    for reuse in [0, 1] {
                        let what = format!("{mode:?} {func}({n:#x}, {reuse})");
                        assert_tier_parity(src, func, &[n, reuse], mode, 5_000);
                        let config = MachineConfig::with_mode(mode).with_fuel(5_000);
                        let mut m = Machine::from_source(src, config).expect("compile");
                        assert_eq!(
                            m.call(func, &[n, reuse]),
                            Err(VmFault::Mem(MemFault::Heap(HeapError::OutOfMemory))),
                            "{what}"
                        );
                        // `keep`, and `q` unless freed, are still the
                        // only blocks; the freed one is handed out again.
                        let space = m.space_mut();
                        assert_eq!(space.heap_live(), 2 - reuse as u64, "{what}");
                        let p = space.malloc(48).expect("the heap is still usable");
                        assert_eq!(space.heap_live(), 3 - reuse as u64, "{what}");
                        space.free(p, AccessCtx::default()).expect("and so is free");
                    }
                }
            }
        }
    }

    /// Runs that reach the `SCAN_CAP` edge: one span fills four
    /// mebibytes and the scans stop at the cap, so the span arithmetic
    /// (`k` × the per-iteration charge) runs at the largest `k` a
    /// string builtin can reach — which is what the overflow-checks CI
    /// job is there to watch.
    #[test]
    fn spans_at_the_scan_cap_edge_match_the_byte_wise_walk() {
        let src = "long f(long n) { char *p = (char *) malloc(n); long t; \
                   memset(p, 'a', n); t = strlen(p); \
                   if (strchr(p, 'b')) t = t + 1; \
                   return t + strncmp(p, p + 8, n); }";
        let cap = 1i64 << 22;
        for mode in [Mode::FailureOblivious, Mode::Standard] {
            assert_tier_parity(src, "f", &[cap + 64], mode, 100_000_000);
        }
        assert_eq!(run_mode(src, "f", &[cap + 64], Mode::FailureOblivious), cap);
    }

    #[test]
    fn exec_profile_is_inert_and_accounts_for_native_work() {
        // Hits, a view miss per out-of-bounds read, and a builtin
        // boundary per iteration.
        let src = "long f(long n) { long xs[4]; long i; long t = 0; \
                   for (i = 0; i < n; i++) { xs[i % 4] = i; t = t + xs[i % 6]; print_int(t); } \
                   return t; }";
        let run = |read_profile: bool| {
            let image = foc_compiler::compile_image_tier(src, foc_compiler::ExecTier::Native)
                .expect("compile");
            let mut m = Machine::load(image, MachineConfig::with_mode(Mode::FailureOblivious))
                .expect("load");
            let mut seen = Vec::new();
            for n in [3, 12] {
                seen.push(m.call("f", &[n]));
                if read_profile {
                    let _ = m.exec_profile();
                }
            }
            (seen, m.take_output(), m.stats(), *m.space().stats(), m)
        };
        let (seen, output, stats, space, m) = run(true);
        let (seen2, output2, stats2, space2, _) = run(false);
        assert_eq!(
            (seen, output, stats, space),
            (seen2, output2, stats2, space2)
        );
        let profile = m.exec_profile();
        assert!(profile.native_instrs > 0 && profile.native_instrs <= stats.instrs);
        assert!(profile.region_entries > 0);
        assert_eq!(profile.view_misses, space.invalid_reads);
        assert!(profile.no_region_exits >= 15, "one per print_int call");
        assert_eq!(profile.faults, 0);
        assert_eq!(profile.builtin_calls, 15, "one per print_int call");
        assert_eq!(profile.builtin_instrs, 0, "print_int walks no guest bytes");
        assert_eq!(
            (stats.calls, profile.locals_registered),
            (2, 8),
            "two entries of f: n, xs, i, t"
        );
        // The baseline stream has no regions to be resident in, and its
        // builtins walk byte by byte.
        let src = "long f(long n) { char b[8]; memset(b, 0, n); return strlen(b); }";
        let mut base = Machine::from_source(src, MachineConfig::default()).expect("compile");
        base.call("f", &[8]).expect("runs");
        let profile = base.exec_profile();
        assert_eq!(profile.native_instrs, 0);
        assert_eq!((profile.builtin_calls, profile.builtin_instrs), (2, 9));
        assert_eq!(profile.span_instrs, 0);
    }

    #[test]
    fn arithmetic_and_return() {
        assert_eq!(run("int f() { return 2 + 3 * 4; }", "f", &[]), 14);
        assert_eq!(
            run("int f(int a, int b) { return a - b; }", "f", &[10, 4]),
            6
        );
        assert_eq!(run("int f() { return 7 / 2; }", "f", &[]), 3);
        assert_eq!(run("int f() { return -7 / 2; }", "f", &[]), -3);
        assert_eq!(run("int f() { return 7 % 3; }", "f", &[]), 1);
    }

    #[test]
    fn unsigned_vs_signed_division() {
        assert_eq!(
            run(
                "int f(unsigned int a, unsigned int b) { return a / b; }",
                "f",
                &[0xFFFF_FFF0u32 as i64, 2]
            ),
            0x7FFF_FFF8
        );
        assert_eq!(
            run("int f(int a, int b) { return a / b; }", "f", &[-16, 2]),
            -8
        );
    }

    #[test]
    fn char_sign_extension_matters() {
        // The Sendmail-critical behaviour: a char holding 0xFF compares
        // equal to -1 after promotion to int.
        let src = "int f() { char c = 0xFF; if (c == -1) return 1; return 0; }";
        assert_eq!(run(src, "f", &[]), 1);
        let src = "int f() { unsigned char c = 0xFF; if (c == -1) return 1; return 0; }";
        assert_eq!(run(src, "f", &[]), 0);
    }

    #[test]
    fn locals_arrays_and_loops() {
        let src = "int f(int n) {\n\
                     int i; int acc = 0; int xs[16];\n\
                     for (i = 0; i < n; i++) xs[i] = i * i;\n\
                     for (i = 0; i < n; i++) acc += xs[i];\n\
                     return acc;\n\
                   }";
        assert_eq!(run(src, "f", &[5]), 1 + 4 + 9 + 16);
    }

    #[test]
    fn pointers_and_deref() {
        let src = "int f() {\n\
                     int x = 5;\n\
                     int *p = &x;\n\
                     *p = 9;\n\
                     return x + *p;\n\
                   }";
        assert_eq!(run(src, "f", &[]), 18);
    }

    #[test]
    fn recursion_factorial() {
        let src = "long fact(long n) { if (n <= 1) return 1; return n * fact(n - 1); }";
        assert_eq!(run(src, "fact", &[10]), 3_628_800);
    }

    #[test]
    fn struct_fields_round_trip() {
        let src = "struct pt { int x; int y; char name[8]; };\n\
                   int f() {\n\
                     struct pt p;\n\
                     p.x = 3; p.y = 4;\n\
                     p.name[0] = 'a';\n\
                     struct pt *q = &p;\n\
                     q->y = 40;\n\
                     return p.x + p.y + p.name[0];\n\
                   }";
        assert_eq!(run(src, "f", &[]), 3 + 40 + 97);
    }

    #[test]
    fn globals_and_string_literals() {
        let src = "int counter = 100;\n\
                   char tab[4] = \"ab\";\n\
                   char *msg = \"xyz\";\n\
                   int f() {\n\
                     counter += 1;\n\
                     return counter + tab[1] + msg[2];\n\
                   }";
        assert_eq!(run(src, "f", &[]), 101 + 98 + 122);
    }

    #[test]
    fn global_state_persists_across_calls() {
        let src = "int n = 0; int bump() { n += 1; return n; }";
        let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
        assert_eq!(m.call("bump", &[]).unwrap(), 1);
        assert_eq!(m.call("bump", &[]).unwrap(), 2);
        assert_eq!(m.call("bump", &[]).unwrap(), 3);
    }

    #[test]
    fn malloc_free_round_trip() {
        let src = "int f() {\n\
                     int *p = (int *) malloc(10 * sizeof(int));\n\
                     int i;\n\
                     for (i = 0; i < 10; i++) p[i] = i;\n\
                     int acc = 0;\n\
                     for (i = 0; i < 10; i++) acc += p[i];\n\
                     free(p);\n\
                     return acc;\n\
                   }";
        assert_eq!(run(src, "f", &[]), 45);
    }

    #[test]
    fn string_builtins() {
        let src = "int f() {\n\
                     char buf[32];\n\
                     strcpy(buf, \"hello\");\n\
                     strcat(buf, \" world\");\n\
                     return strlen(buf) + (strcmp(buf, \"hello world\") == 0 ? 100 : 0);\n\
                   }";
        assert_eq!(run(src, "f", &[]), 11 + 100);
    }

    #[test]
    fn strchr_returns_usable_pointer() {
        let src = "int f() {\n\
                     char *s = \"path/to/file\";\n\
                     char *p = strchr(s, '/');\n\
                     if (!p) return -1;\n\
                     return p - s;\n\
                   }";
        assert_eq!(run(src, "f", &[]), 4);
    }

    #[test]
    fn memcpy_memset_memcmp() {
        let src = "int f() {\n\
                     char a[16]; char b[16];\n\
                     memset(a, 'x', 16);\n\
                     memcpy(b, a, 16);\n\
                     return memcmp(a, b, 16) == 0 && b[15] == 'x';\n\
                   }";
        assert_eq!(run(src, "f", &[]), 1);
    }

    #[test]
    fn output_and_input_builtins() {
        let src = "int echo() {\n\
                     char buf[64];\n\
                     long n = read_input(buf, 63);\n\
                     if (n <= 0) return -1;\n\
                     buf[n] = '\\0';\n\
                     print_str(buf);\n\
                     print_int(n);\n\
                     return (int) n;\n\
                   }";
        let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
        m.push_input(b"ping".to_vec());
        assert_eq!(m.call("echo", &[]).unwrap(), 4);
        assert_eq!(m.take_output(), b"ping4".to_vec());
        // EOF returns -1.
        assert_eq!(m.call("echo", &[]).unwrap(), -1);
    }

    #[test]
    fn switch_dispatch() {
        let src = "int f(int c) {\n\
                     int r = 0;\n\
                     switch (c) {\n\
                       case 1: r = 10; break;\n\
                       case 2: r = 20; /* fall through */\n\
                       case 3: r += 1; break;\n\
                       default: r = -1;\n\
                     }\n\
                     return r;\n\
                   }";
        assert_eq!(run(src, "f", &[1]), 10);
        assert_eq!(run(src, "f", &[2]), 21);
        assert_eq!(run(src, "f", &[3]), 1);
        assert_eq!(run(src, "f", &[9]), -1);
    }

    #[test]
    fn goto_figure1_bail_pattern() {
        let src = "int f(int x) {\n\
                     int *buf = (int *) malloc(4);\n\
                     if (x < 0) goto bail;\n\
                     *buf = x;\n\
                     int v = *buf;\n\
                     free(buf);\n\
                     return v;\n\
                   bail:\n\
                     free(buf);\n\
                     return -1;\n\
                   }";
        assert_eq!(run(src, "f", &[7]), 7);
        assert_eq!(run(src, "f", &[-3]), -1);
    }

    #[test]
    fn division_by_zero_faults() {
        let src = "int f(int d) { return 10 / d; }";
        let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
        assert_eq!(m.call("f", &[0]), Err(VmFault::DivideByZero));
        assert!(m.is_dead());
        assert_eq!(m.call("f", &[2]), Err(VmFault::MachineDead));
    }

    #[test]
    fn fuel_exhaustion_detects_infinite_loops() {
        let src = "int f() { while (1) {} return 0; }";
        let mut m = Machine::from_source(
            src,
            MachineConfig {
                fuel_per_call: 10_000,
                ..MachineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(m.call("f", &[]), Err(VmFault::FuelExhausted));
    }

    #[test]
    fn exit_and_abort() {
        let src = "int f(int x) { if (x) exit(3); abort(); return 0; }";
        let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
        assert_eq!(m.call("f", &[1]), Err(VmFault::Exit(3)));
        let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
        assert_eq!(m.call("f", &[0]), Err(VmFault::Abort));
    }

    #[test]
    fn stack_overflow_from_unbounded_recursion() {
        let src = "int f(int n) { char pad[512]; pad[0] = (char) n; return f(n + 1) + pad[0]; }";
        let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
        let err = m.call("f", &[0]).unwrap_err();
        assert_eq!(err, VmFault::Mem(foc_memory::MemFault::StackOverflow));
    }

    #[test]
    fn overflow_behaviour_differs_by_mode() {
        // Classic stack smash: write 64 bytes into an 8-byte buffer. `i`
        // is declared first so it sits below the buffer and the overflow
        // runs upward into the frame guard, not into the loop counter.
        let src = "int f() {\n\
                     int i;\n\
                     char buf[8];\n\
                     for (i = 0; i < 64; i++) buf[i] = 'A';\n\
                     return 7;\n\
                   }";
        // Standard: the frame canary is trampled → stack smash at return.
        let mut m = Machine::from_source(src, MachineConfig::with_mode(Mode::Standard)).unwrap();
        let err = m.call("f", &[]).unwrap_err();
        assert!(err.is_segfault_like(), "got {err}");
        // Bounds Check: memory error at the first out-of-bounds store.
        let mut m = Machine::from_source(src, MachineConfig::with_mode(Mode::BoundsCheck)).unwrap();
        let err = m.call("f", &[]).unwrap_err();
        assert!(err.is_memory_error(), "got {err}");
        // Failure-oblivious: writes discarded, function completes.
        let mut m =
            Machine::from_source(src, MachineConfig::with_mode(Mode::FailureOblivious)).unwrap();
        assert_eq!(m.call("f", &[]).unwrap(), 7);
        assert_eq!(m.space().error_log().total_writes(), 64 - 8);
    }

    #[test]
    fn failure_oblivious_reads_get_manufactured_sequence() {
        let src = "int f() {\n\
                     int xs[2];\n\
                     xs[0] = 11; xs[1] = 22;\n\
                     return xs[5];\n\
                   }";
        let mut m =
            Machine::from_source(src, MachineConfig::with_mode(Mode::FailureOblivious)).unwrap();
        assert_eq!(m.call("f", &[]).unwrap(), 0); // first manufactured value
        assert_eq!(m.call("f", &[]).unwrap(), 1); // second
        assert_eq!(m.call("f", &[]).unwrap(), 2); // third
    }

    #[test]
    fn comparisons_on_oob_pointers_work() {
        // CRED semantics: one-past-end pointers participate in arithmetic
        // and comparisons without faulting.
        let src = "int f() {\n\
                     char buf[4];\n\
                     char *p = buf;\n\
                     char *end = buf + 4;\n\
                     int n = 0;\n\
                     while (p < end) { *p = 'x'; p++; n++; }\n\
                     return n + (end - buf);\n\
                   }";
        assert_eq!(run(src, "f", &[]), 8);
        assert_eq!(run_mode(src, "f", &[], Mode::FailureOblivious), 8);
        assert_eq!(run_mode(src, "f", &[], Mode::Standard), 8);
    }

    #[test]
    fn virtual_clock_charges_more_for_checked_modes() {
        let src = "int f() {\n\
                     int xs[64]; int i; int acc = 0;\n\
                     for (i = 0; i < 64; i++) xs[i] = i;\n\
                     for (i = 0; i < 64; i++) acc += xs[i];\n\
                     return acc;\n\
                   }";
        let mut std = Machine::from_source(src, MachineConfig::with_mode(Mode::Standard)).unwrap();
        std.call("f", &[]).unwrap();
        let mut fo =
            Machine::from_source(src, MachineConfig::with_mode(Mode::FailureOblivious)).unwrap();
        fo.call("f", &[]).unwrap();
        assert!(
            fo.stats().cycles > std.stats().cycles,
            "checked execution must cost more cycles"
        );
        assert_eq!(
            fo.stats().instrs,
            std.stats().instrs,
            "same instruction path"
        );
    }

    #[test]
    fn io_wait_charges_io_cycles() {
        let src = "int f() { io_wait(1000); return 0; }";
        let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
        m.call("f", &[]).unwrap();
        assert!(m.stats().io_cycles >= 1000 * crate::cost::IO_PER_BYTE);
    }

    #[test]
    fn driver_cstring_helpers() {
        let src = "long f(char *s) { return strlen(s); }";
        let mut m = Machine::from_source(src, MachineConfig::default()).unwrap();
        let p = m.alloc_cstring(b"four").unwrap();
        assert_eq!(m.call("f", &[p as i64]).unwrap(), 4);
        assert_eq!(m.read_cstring(p), b"four".to_vec());
        m.free_guest(p).unwrap();
    }

    #[test]
    fn nested_calls_and_eval_stack_discipline() {
        let src = "int g(int x) { return x * 2; }\n\
                   int f(int a) { return g(a) + g(a + 1) * g(a + 2); }";
        assert_eq!(run(src, "f", &[3]), 6 + 8 * 10);
    }

    #[test]
    fn postfix_and_prefix_semantics() {
        let src = "int f() {\n\
                     int x = 5;\n\
                     int a = x++;\n\
                     int b = ++x;\n\
                     int c = x--;\n\
                     int d = --x;\n\
                     return a * 1000 + b * 100 + c * 10 + d;\n\
                   }";
        assert_eq!(run(src, "f", &[]), 5 * 1000 + 7 * 100 + 7 * 10 + 5);
    }

    #[test]
    fn pointer_increment_in_expression() {
        let src = "int f() {\n\
                     char buf[8];\n\
                     char *p = buf;\n\
                     *p++ = 'a';\n\
                     *p++ = 'b';\n\
                     *p = '\\0';\n\
                     return buf[0] * 256 + buf[1];\n\
                   }";
        assert_eq!(run(src, "f", &[]), 97 * 256 + 98);
    }
}
