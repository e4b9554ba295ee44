//! The libc shim layer.
//!
//! These are the runtime functions the guest can call without declaring
//! them. All string/memory builtins perform *byte-wise guest accesses*
//! through the policy layer, so `strcpy` into a too-small buffer behaves
//! per mode exactly like a hand-written copy loop would: Standard mode
//! tramples memory, Bounds Check terminates, failure-oblivious discards
//! the overflowing stores. This mirrors CRED, which wraps the C library
//! so library code participates in checking.
//!
//! # Byte-wise is the definition, runs are how the native tier gets there
//!
//! Every builtin that touches guest memory is written once, in `walk`,
//! as the walks it is made of (`Walks`: a scan, a comparison, a copy,
//! a store walk, …). A walk's *byte-wise iteration* — `charge(1)`, one
//! checked `ptr_add` per operand, the checked one-byte accesses, the
//! builtin's own decision on the byte — is written once and defines the
//! builtin: its violation, manufacture, discard, redirect and fuel-out
//! behaviour all happen there and nowhere else. On the baseline tier
//! that iteration is the only path, which keeps the baseline
//! interpreter the CRED reference every equivalence battery,
//! `BootSpec::oracle` and the oracle `mode_sweep --check` compare
//! against.
//!
//! On the native tier a walk first asks for a *run*
//! ([`foc_memory::Runs`]): the longest stretch of the walk, from the
//! current index, over which every `ptr_add` would return the plain
//! address and every one-byte access would hit — resolved with one
//! object-table lookup per operand instead of one or two per byte. Its
//! *span step* then takes `k = min(run of each operand, bytes wanted,
//! fuel left)` iterations at once over the host bytes (`SCAN_CAP` is part
//! of "bytes wanted"), in two parts: a *decision* (`scan_span`,
//! `compare_span`, `copy_plan`, a store walk's run) — how many
//! iterations the run covers, whether the walk ends there, and its
//! result — and an *effect* (`copy_move`, `fill_span`,
//! `echo_span`). Each span step is written once, over either answerer
//! of the run questions.
//!
//! The machine (`Machine`'s `Walks`) loops decision → effect →
//! byte-wise iteration, and `Machine::retire_span` advances `RunStats`
//! and `SpaceStats` by exactly what `k` byte-wise iterations advance
//! them. Where `k` is zero — the byte that leaves its unit, an
//! out-of-bounds descriptor operand, a freed unit, source and
//! destination closer than one byte apart, no fuel, never-written
//! source bytes — it runs one byte-wise iteration and asks again. A run
//! therefore only ever skips work whose outcome is already known; it
//! decides nothing.
//!
//! # A call completed on the native view
//!
//! A native stay that reaches a builtin call (`in_view`) does not end
//! there when the view can complete the whole call: the same `walk`,
//! over `Stay`, which takes each walk's *first* decision over the
//! view's runs and keeps it only when the walk ends inside it — every
//! iteration a hit inside one run per operand, in a held window, the
//! verdict (the NUL, the first difference, or `n`) inside the run, a
//! copy no longer than its operands are apart, and fuel for the call and
//! every iteration. Its effects wait until every decision is in, so a
//! call that misses anywhere changes nothing and the interpreter runs it
//! as before. Builtins that touch no guest memory (`word`) always
//! complete; `malloc`, `free`, `realloc`, `read_input`, `abort`, `exit`
//! and `io_wait` stay at the boundary.

use std::io::Write as _;
use std::ops::ControlFlow::{self, Break, Continue};

use foc_lang::hir::Builtin;
use foc_memory::{AccessSize, NativeView, Run, Runs};

use crate::cost;
use crate::fault::VmFault;
use crate::machine::Machine;

/// Upper bound for NUL scans so a pathological Standard-mode scan cannot
/// walk the whole address space byte by byte.
const SCAN_CAP: u64 = 1 << 22;

/// Most bytes one span of a copy moves: copies stage through a host
/// buffer of this size, longer ones chain spans.
const COPY_CHUNK: usize = 512;

/// Checked pointer additions and one-byte loads and stores, all hits:
/// what one iteration of a walk does beside its `charge(1)`, or what a
/// whole call did.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Accesses {
    pub adds: u64,
    pub loads: u64,
    pub stores: u64,
}

impl Accesses {
    /// Adds `k` of `each`.
    fn take(&mut self, k: u64, each: Accesses) {
        self.adds += k * each.adds;
        self.loads += k * each.loads;
        self.stores += k * each.stores;
    }

    /// The cycles they cost beyond `cost::BASE`, in a checked mode.
    pub(crate) fn check_cycles(self) -> u64 {
        self.adds * cost::PTR_CHECK_EXTRA + (self.loads + self.stores) * cost::MEM_CHECK_EXTRA
    }
}

/// One iteration of [`Walks::scan`]: a `ptr_add` and a load.
const SCAN: Accesses = Accesses {
    adds: 1,
    loads: 1,
    stores: 0,
};
/// One iteration of [`Walks::compare`]: two `ptr_add`s and two loads.
const COMPARE: Accesses = Accesses {
    adds: 2,
    loads: 2,
    stores: 0,
};
/// One iteration of a copy: two `ptr_add`s, a load and a store.
const COPY: Accesses = Accesses {
    adds: 2,
    loads: 1,
    stores: 1,
};
/// One iteration of [`Walks::store_bytes`]: a `ptr_add` and a store.
const STORE: Accesses = Accesses {
    adds: 1,
    loads: 0,
    stores: 1,
};

/// Executes a builtin: pops its arguments from the evaluation stack and
/// returns its result value (0 for `void` builtins).
pub(crate) fn dispatch(m: &mut Machine, b: Builtin) -> Result<i64, VmFault> {
    let argc = b.arity();
    let mut args = [0i64; 3];
    for i in (0..argc).rev() {
        args[i] = m.pop();
    }
    let [a0, a1, _] = args;
    match b {
        Builtin::Malloc => {
            let p = m.space_mut().malloc(a0 as u64)?;
            Ok(p as i64)
        }
        Builtin::Free => {
            let ctx = m.ctx();
            m.space_mut().free(a0 as u64, ctx)?;
            Ok(0)
        }
        Builtin::Realloc => {
            let ctx = m.ctx();
            let p = m.space_mut().realloc(a0 as u64, a1 as u64, ctx)?;
            Ok(p as i64)
        }
        Builtin::Abort => Err(VmFault::Abort),
        Builtin::Exit => Err(VmFault::Exit(a0 as i32)),
        Builtin::ReadInput => {
            let cap = a1.max(0) as u64;
            let Some(chunk) = m.pop_input() else {
                return Ok(-1);
            };
            let n = (chunk.len() as u64).min(cap);
            store_bytes(m, a0 as u64, 0, n, Fill::Bytes(&chunk))?;
            m.charge_io(n as i64);
            Ok(n as i64)
        }
        Builtin::IoWait => {
            m.charge_io(a0);
            Ok(0)
        }
        _ => match word(b, a0, m.output_mut()) {
            Some(v) => Ok(v),
            None => Ok(walk(m, b, args)?.expect("every builtin has an arm")),
        },
    }
}

/// The builtins that touch no guest memory: their result, with whatever
/// they print appended to `out`; `None` for every other builtin.
fn word(b: Builtin, a0: i64, out: &mut Vec<u8>) -> Option<i64> {
    Some(match b {
        Builtin::PrintInt => {
            write!(out, "{a0}").expect("a Vec takes every byte");
            0
        }
        Builtin::Putchar => {
            out.push(a0 as u8);
            a0 & 0xFF
        }
        Builtin::Isspace => matches!(a0 as u8, b' ' | b'\t' | b'\n' | b'\r' | 0x0B | 0x0C) as i64,
        Builtin::Isdigit => (a0 as u8).is_ascii_digit() as i64,
        Builtin::Isalpha => (a0 as u8).is_ascii_alphabetic() as i64,
        Builtin::Isprint => matches!(a0 as u8, 0x20..=0x7E) as i64,
        // A value outside `unsigned char` (EOF among them) comes back as is.
        Builtin::Toupper => u8::try_from(a0).map_or(a0, |b| b.to_ascii_uppercase() as i64),
        Builtin::Tolower => u8::try_from(a0).map_or(a0, |b| b.to_ascii_lowercase() as i64),
        _ => return None,
    })
}

/// The builtins made of walks over guest memory, each written once over
/// either path ([`Walks`]): the call's result, or `None` for every other
/// builtin.
fn walk<W: Walks>(w: &mut W, b: Builtin, [a0, a1, a2]: [i64; 3]) -> Result<Option<i64>, W::Stop> {
    let (p0, p1) = (a0 as u64, a1 as u64);
    Ok(Some(match b {
        Builtin::Strlen => w.scan_nul(p0)? as i64,
        Builtin::Strcpy => {
            w.copy(p0, p1, SCAN_CAP, true)?;
            a0
        }
        Builtin::Strncpy => {
            // C semantics: copy at most n bytes; if src is shorter, pad
            // with NULs to exactly n bytes.
            let n = a2 as u64;
            let copied = w.copy(p0, p1, n.min(SCAN_CAP), true)?;
            w.store_bytes(p0, copied, n, 0)?;
            a0
        }
        Builtin::Strcat => {
            let end = w.scan_nul(p0)?;
            let dst = w.ptr_add(p0, end as i64)?;
            w.copy(dst, p1, SCAN_CAP, true)?;
            a0
        }
        Builtin::Strncat => {
            let end = w.scan_nul(p0)?;
            let dst = w.ptr_add(p0, end as i64)?;
            let copied = w.copy_until_nul(dst, p1, (a2 as u64).min(SCAN_CAP))?;
            let term = w.ptr_add(dst, copied as i64)?;
            w.store_byte(term, 0)?;
            a0
        }
        Builtin::Strcmp => w.compare(p0, p1, SCAN_CAP, true)?,
        Builtin::Strncmp => w.compare(p0, p1, (a2 as u64).min(SCAN_CAP), true)?,
        Builtin::Strchr => {
            let want = a1 as u8;
            let hit = w.scan(p0, SCAN_CAP + 1, Echo::No, |_, p, b| {
                if b == want {
                    Break(p as i64)
                } else if b == 0 {
                    Break(0)
                } else {
                    Continue(())
                }
            })?;
            hit.unwrap_or(0)
        }
        Builtin::Strrchr => {
            let want = a1 as u8;
            let mut found = 0i64;
            w.scan(p0, SCAN_CAP + 1, Echo::No, |_, p, b| {
                if b == want {
                    found = p as i64;
                }
                if b == 0 {
                    Break(())
                } else {
                    Continue(())
                }
            })?;
            found
        }
        Builtin::Memcpy => {
            w.copy(p0, p1, a2 as u64, false)?;
            a0
        }
        Builtin::Memmove => {
            w.move_bytes(p0, p1, a2 as u64)?;
            a0
        }
        Builtin::Memset => {
            w.store_bytes(p0, 0, a2 as u64, a1 as u8)?;
            a0
        }
        Builtin::Memcmp => w.compare(p0, p1, a2 as u64, false)?,
        Builtin::PrintStr => {
            w.scan(p0, SCAN_CAP + 1, Echo::AsRead, |i, _, b| {
                if b == 0 || i >= SCAN_CAP {
                    Break(())
                } else {
                    Continue(())
                }
            })?;
            0
        }
        Builtin::EmitOutput => {
            let n = a1.max(0) as u64;
            w.scan(p0, n, Echo::Whole, |_, _, _| Continue::<()>(()))?;
            w.charge_io(n as i64);
            0
        }
        Builtin::Atoi => {
            // C's: any leading white space, at most one sign, then digits.
            let (mut value, mut sign, mut begun) = (0i64, 1i64, false);
            w.scan(p0, SCAN_CAP + 1, Echo::No, |_, _, b| {
                match b {
                    b' ' | b'\t' | b'\n' | b'\r' | 0x0B | 0x0C if !begun => {}
                    b'-' | b'+' if !begun => {
                        (sign, begun) = (if b == b'-' { -1 } else { 1 }, true);
                    }
                    b'0'..=b'9' => {
                        begun = true;
                        value = value.wrapping_mul(10).wrapping_add((b - b'0') as i64);
                    }
                    _ => return Break(()),
                }
                Continue(())
            })?;
            sign.wrapping_mul(value) as i32 as i64
        }
        _ => return Ok(None),
    }))
}

/// Where a scan's bytes go beside its step.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Echo {
    /// Nowhere.
    No,
    /// To the output as they are read, each byte its step continues on,
    /// so whatever a fault part-way leaves behind stays printed.
    AsRead,
    /// To the output, all of them, or none if the walk faults.
    Whole,
}

/// The walks the builtins in [`walk`] are made of, as the machine runs
/// them (to the end, byte-wise where no run serves) and as a [`Stay`]
/// decides them (one span each, or a miss).
trait Walks {
    /// Why a call stopped short: the machine's fault, or the view's miss.
    type Stop;

    /// Loads bytes `0..n` of `s` in order, handing each to `step` as
    /// `(index, pointer, byte)` until it breaks; `None` when all `n` were
    /// read. One iteration is one `ptr_add` and one load.
    fn scan<R>(
        &mut self,
        s: u64,
        n: u64,
        echo: Echo,
        step: impl FnMut(u64, u64, u8) -> ControlFlow<R>,
    ) -> Result<Option<R>, Self::Stop>;

    /// Lexicographic comparison of at most `n` bytes of `a` and `b`,
    /// stopping at a shared NUL when `stop_at_nul`. One iteration is two
    /// `ptr_add`s and two loads.
    fn compare(&mut self, a: u64, b: u64, n: u64, stop_at_nul: bool) -> Result<i64, Self::Stop>;

    /// Copies at most `n` bytes from `src` to `dst`, stopping after the
    /// NUL when `stop_at_nul`; returns the number of bytes copied.
    fn copy(&mut self, dst: u64, src: u64, n: u64, stop_at_nul: bool) -> Result<u64, Self::Stop>;

    /// Copies at most `n` bytes stopping *before* the NUL; returns bytes
    /// copied. The iteration that meets the NUL is a `ptr_add` and a load
    /// with no store, so it is never part of a span.
    fn copy_until_nul(&mut self, dst: u64, src: u64, n: u64) -> Result<u64, Self::Stop>;

    /// Stores `byte` over bytes `from..to` of `dst`. One iteration is one
    /// `ptr_add` and one store.
    fn store_bytes(&mut self, dst: u64, from: u64, to: u64, byte: u8) -> Result<(), Self::Stop>;

    /// `memmove`: a scan of `n` source bytes, then a store walk of them
    /// over `dst`.
    fn move_bytes(&mut self, dst: u64, src: u64, n: u64) -> Result<(), Self::Stop>;

    /// Checked pointer arithmetic outside any iteration (uncharged).
    fn ptr_add(&mut self, p: u64, delta: i64) -> Result<u64, Self::Stop>;

    /// A checked one-byte store outside any iteration (uncharged).
    fn store_byte(&mut self, p: u64, byte: u8) -> Result<(), Self::Stop>;

    /// Charges one modelled I/O operation of `bytes` bytes.
    fn charge_io(&mut self, bytes: i64);

    /// [`Walks::scan`] to the NUL: the string's length.
    fn scan_nul(&mut self, s: u64) -> Result<u64, Self::Stop> {
        let end = self.scan(s, SCAN_CAP + 1, Echo::No, |i, _, b| {
            if b == 0 {
                Break(i)
            } else {
                Continue(())
            }
        })?;
        Ok(end.unwrap_or(SCAN_CAP))
    }
}

// ----------------------------------------------------------------------
// Span steps: each decision and each effect, over either answerer.
// ----------------------------------------------------------------------

/// The decision of one span of a scan: the bytes of the run at `s + i`,
/// at most `want`, handed to `step` until it breaks. Returns how many
/// iterations the span covers and the break, if the walk ends there.
fn scan_span<R>(
    rs: &mut impl Runs,
    s: u64,
    i: u64,
    want: u64,
    step: &mut impl FnMut(u64, u64, u8) -> ControlFlow<R>,
) -> (u64, Option<R>) {
    let run = rs.run(s, i, want);
    let mut k = 0u64;
    for &b in rs.run_bytes(run) {
        let flow = step(i + k, run.addr + k, b);
        k += 1;
        if let Break(r) = flow {
            return (k, Some(r));
        }
    }
    (k, None)
}

/// The effect of a scan span that echoes: its first `len` bytes from
/// `addr` appended to `out`.
fn echo_span(rs: &impl Runs, out: &mut Vec<u8>, addr: u64, len: u64) {
    out.extend_from_slice(rs.run_bytes(Run { addr, len }));
}

/// A comparison's decision on one byte pair.
fn verdict(x: u8, y: u8, stop_at_nul: bool) -> Option<i64> {
    if x != y {
        Some(if x < y { -1 } else { 1 })
    } else if stop_at_nul && x == 0 {
        Some(0)
    } else {
        None
    }
}

/// The decision of one span of a comparison from index `i`: how many
/// iterations, at most `want`, the two runs cover, and the verdict, if
/// the walk ends there. It has no effect.
fn compare_span(
    rs: &mut impl Runs,
    a: u64,
    b: u64,
    i: u64,
    want: u64,
    stop_at_nul: bool,
) -> (u64, Option<i64>) {
    let ra = rs.run(a, i, want);
    let rb = rs.run(b, i, ra.len);
    let (xs, ys) = (rs.run_bytes(ra), rs.run_bytes(rb));
    let decided = xs
        .iter()
        .zip(ys)
        .enumerate()
        .find_map(|(j, (&x, &y))| verdict(x, y, stop_at_nul).map(|v| (j as u64 + 1, v)));
    match decided {
        Some((k, v)) => (k, Some(v)),
        None => (xs.len().min(ys.len()) as u64, None),
    }
}

/// One span of a copy, decided: its first `k` bytes move from `from` to
/// `to`, and `nul` says the walk meets the source's NUL in it.
#[derive(Clone, Copy)]
struct Plan {
    to: Run,
    from: Run,
    k: usize,
    nul: bool,
}

/// The decision of one span of a copy from index `i`: at most `want`
/// bytes from `src + i` to `dst + i`, as many as `keep` wants of the
/// source bytes in hand (and whether the walk meets the NUL there). The
/// span is no longer than the distance between the operands, so the
/// bytes it reads are not among the bytes it writes and staging them
/// equals the byte-by-byte forward copy whatever the overlap; nor than
/// [`COPY_CHUNK`], the staging buffer.
fn copy_plan(
    rs: &mut impl Runs,
    dst: u64,
    src: u64,
    i: u64,
    want: u64,
    keep: impl Fn(&[u8]) -> (usize, bool),
) -> Plan {
    let apart = dst.abs_diff(src);
    let want = want.min(COPY_CHUNK as u64).min(apart);
    let empty = Run { addr: dst, len: 0 };
    if want == 0 {
        return Plan {
            to: empty,
            from: empty,
            k: 0,
            nul: false,
        };
    }
    let to = rs.run(dst, i, want);
    let from = rs.run(src, i, to.len);
    let (k, nul) = keep(rs.run_bytes(from));
    Plan { to, from, k, nul }
}

/// A copy's `keep` that moves through the NUL when `stop_at_nul`.
fn through_nul(stop_at_nul: bool) -> impl Fn(&[u8]) -> (usize, bool) {
    move |bytes| match bytes.iter().position(|&b| stop_at_nul && b == 0) {
        Some(j) => (j + 1, true),
        None => (bytes.len(), false),
    }
}

/// A copy's `keep` that stops before the NUL.
fn before_nul(bytes: &[u8]) -> (usize, bool) {
    match bytes.iter().position(|&b| b == 0) {
        Some(j) => (j, true),
        None => (bytes.len(), false),
    }
}

/// The effect of a copy span: its `k` bytes staged through `buf`.
fn copy_move(rs: &mut impl Runs, buf: &mut [u8; COPY_CHUNK], plan: &Plan) {
    let k = plan.k;
    buf[..k].copy_from_slice(&rs.run_bytes(plan.from)[..k]);
    let to = Run {
        len: k as u64,
        ..plan.to
    };
    rs.run_bytes_mut(to).copy_from_slice(&buf[..k]);
}

/// What a store walk writes at index `i`.
#[derive(Clone, Copy)]
enum Fill<'a> {
    /// The same byte everywhere.
    Byte(u8),
    /// `bytes[i]`; the slice covers every index stored.
    Bytes(&'a [u8]),
}

/// The effect of a store span: `run` holds indices `i..`, filled.
fn fill_span(rs: &mut impl Runs, run: Run, i: u64, fill: Fill<'_>) {
    let out = rs.run_bytes_mut(run);
    match fill {
        Fill::Byte(b) => out.fill(b),
        Fill::Bytes(bytes) => out.copy_from_slice(&bytes[i as usize..(i + run.len) as usize]),
    }
}

// ----------------------------------------------------------------------
// The machine: every walk to its end.
// ----------------------------------------------------------------------

impl Walks for Machine {
    type Stop = VmFault;

    fn scan<R>(
        &mut self,
        s: u64,
        n: u64,
        echo: Echo,
        mut step: impl FnMut(u64, u64, u8) -> ControlFlow<R>,
    ) -> Result<Option<R>, VmFault> {
        let mark = self.output().len();
        let walked = scan(self, s, n, echo != Echo::No, &mut step);
        if walked.is_err() && echo == Echo::Whole {
            self.output_mut().truncate(mark);
        }
        walked
    }

    fn compare(&mut self, a: u64, b: u64, n: u64, stop_at_nul: bool) -> Result<i64, VmFault> {
        let mut i = 0u64;
        while i < n {
            let want = self.span_budget(n - i);
            if want > 0 {
                let (k, v) = compare_span(self.space_mut(), a, b, i, want, stop_at_nul);
                self.retire_span(k, COMPARE);
                if let Some(v) = v {
                    return Ok(v);
                }
                i += k;
                if k > 0 {
                    continue;
                }
            }
            self.charge(1)?;
            let pa = self.g_ptr_add(a, i as i64);
            let pb = self.g_ptr_add(b, i as i64);
            let x = self.g_load(pa, AccessSize::B1)? as u8;
            let y = self.g_load(pb, AccessSize::B1)? as u8;
            if let Some(v) = verdict(x, y, stop_at_nul) {
                return Ok(v);
            }
            i += 1;
        }
        Ok(0)
    }

    fn copy(&mut self, dst: u64, src: u64, n: u64, stop_at_nul: bool) -> Result<u64, VmFault> {
        let mut buf = [0u8; COPY_CHUNK];
        let mut i = 0u64;
        while i < n {
            let want = self.span_budget(n - i);
            let plan = copy_plan(
                self.space_mut(),
                dst,
                src,
                i,
                want,
                through_nul(stop_at_nul),
            );
            if plan.k > 0 {
                copy_move(self.space_mut(), &mut buf, &plan);
                self.retire_span(plan.k as u64, COPY);
                i += plan.k as u64;
                if plan.nul {
                    return Ok(i);
                }
                continue;
            }
            self.charge(1)?;
            let s = self.g_ptr_add(src, i as i64);
            let d = self.g_ptr_add(dst, i as i64);
            let b = self.g_load(s, AccessSize::B1)?;
            self.g_store(d, AccessSize::B1, b)?;
            i += 1;
            if stop_at_nul && b & 0xFF == 0 {
                return Ok(i);
            }
        }
        Ok(i)
    }

    fn copy_until_nul(&mut self, dst: u64, src: u64, n: u64) -> Result<u64, VmFault> {
        let mut buf = [0u8; COPY_CHUNK];
        let mut i = 0u64;
        while i < n {
            let want = self.span_budget(n - i);
            let plan = copy_plan(self.space_mut(), dst, src, i, want, before_nul);
            if plan.k > 0 {
                copy_move(self.space_mut(), &mut buf, &plan);
                self.retire_span(plan.k as u64, COPY);
                i += plan.k as u64;
                continue;
            }
            self.charge(1)?;
            let s = self.g_ptr_add(src, i as i64);
            let b = self.g_load(s, AccessSize::B1)? as u8;
            if b == 0 {
                break;
            }
            let d = self.g_ptr_add(dst, i as i64);
            self.g_store(d, AccessSize::B1, b as u64)?;
            i += 1;
        }
        Ok(i)
    }

    fn store_bytes(&mut self, dst: u64, from: u64, to: u64, byte: u8) -> Result<(), VmFault> {
        store_bytes(self, dst, from, to, Fill::Byte(byte))
    }

    fn move_bytes(&mut self, dst: u64, src: u64, n: u64) -> Result<(), VmFault> {
        // Stage through a host buffer: correct for overlap, and both
        // directions remain fully guest-checked. The buffer grows with
        // the bytes actually loaded — `n` is the guest's word, and fuel
        // or the mode ends a wild one long before it is reached.
        let mut tmp = Vec::new();
        scan(self, src, n, false, &mut |_, _, b| {
            tmp.push(b);
            Continue::<()>(())
        })?;
        store_bytes(self, dst, 0, n, Fill::Bytes(&tmp))
    }

    fn ptr_add(&mut self, p: u64, delta: i64) -> Result<u64, VmFault> {
        Ok(self.g_ptr_add(p, delta))
    }

    fn store_byte(&mut self, p: u64, byte: u8) -> Result<(), VmFault> {
        self.g_store(p, AccessSize::B1, byte as u64)
    }

    fn charge_io(&mut self, bytes: i64) {
        Machine::charge_io(self, bytes);
    }
}

/// The machine's scan, echoing each byte its step continues on when
/// `echo`.
fn scan<R>(
    m: &mut Machine,
    s: u64,
    n: u64,
    echo: bool,
    step: &mut impl FnMut(u64, u64, u8) -> ControlFlow<R>,
) -> Result<Option<R>, VmFault> {
    let mut i = 0u64;
    while i < n {
        let want = m.span_budget(n - i);
        if want > 0 {
            let (space, out) = m.space_and_output();
            let (k, end) = scan_span(space, s, i, want, step);
            if echo {
                echo_span(space, out, s.wrapping_add(i), k - end.is_some() as u64);
            }
            m.retire_span(k, SCAN);
            if end.is_some() {
                return Ok(end);
            }
            i += k;
            if k > 0 {
                continue;
            }
        }
        m.charge(1)?;
        let p = m.g_ptr_add(s, i as i64);
        let b = m.g_load(p, AccessSize::B1)? as u8;
        if let Break(r) = step(i, p, b) {
            return Ok(Some(r));
        }
        if echo {
            m.output_mut().push(b);
        }
        i += 1;
    }
    Ok(None)
}

/// The machine's store walk over bytes `from..to` of `dst`.
fn store_bytes(
    m: &mut Machine,
    dst: u64,
    from: u64,
    to: u64,
    fill: Fill<'_>,
) -> Result<(), VmFault> {
    let mut i = from;
    while i < to {
        let want = m.span_budget(to - i);
        if want > 0 {
            let run = m.space_mut().run(dst, i, want);
            if run.len > 0 {
                fill_span(m.space_mut(), run, i, fill);
                m.retire_span(run.len, STORE);
                i += run.len;
                continue;
            }
        }
        m.charge(1)?;
        let d = m.g_ptr_add(dst, i as i64);
        let b = match fill {
            Fill::Byte(b) => b,
            Fill::Bytes(bytes) => bytes[i as usize],
        };
        m.g_store(d, AccessSize::B1, b as u64)?;
        i += 1;
    }
    Ok(())
}

// ----------------------------------------------------------------------
// The view: a whole call in one decision per walk, or nothing.
// ----------------------------------------------------------------------

/// A builtin call the view completed inside a native stay.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Done {
    /// The call's result.
    pub result: i64,
    /// Byte iterations its walks retired, all span-wise.
    pub iters: u64,
    /// Their accesses, and the uncharged ones beside them
    /// (`strcat`'s pointer addition, `strncat`'s terminator).
    pub accesses: Accesses,
    /// Bytes of modelled I/O it charged (`emit_output`).
    pub io: Option<i64>,
}

/// The view didn't complete a call; it changed nothing.
struct Miss;

/// An effect a [`Stay`] holds back until every walk of its call is
/// decided.
#[derive(Clone, Copy)]
enum Effect {
    /// A copy span (or `memmove`'s bytes, scanned and stored in one run
    /// each).
    Move(Plan),
    /// A store run filled with one byte.
    Fill(Run, u8),
    /// Scanned bytes appended to the output.
    Echo(Run),
}

/// A builtin call decided on the view: [`Walks`] as one span each. Every
/// walk takes its first decision only — the one the machine's loop would
/// take first, over runs no longer than the space's — and the call
/// misses unless the walk ends inside it. Effects wait in `effects`,
/// in the machine's order: no walk of any builtin reads bytes an
/// earlier walk of the same call wrote, so deciding them all first
/// reads what the machine reads.
struct Stay<'s, 'v> {
    view: &'s mut NativeView<'v>,
    /// Iterations the fuel still covers, the call's own charge taken.
    left: u64,
    iters: u64,
    accesses: Accesses,
    effects: [Option<Effect>; 2],
    io: Option<i64>,
}

impl Stay<'_, '_> {
    /// Takes `k` iterations of `each` from the fuel.
    fn take(&mut self, k: u64, each: Accesses) {
        self.left -= k;
        self.iters += k;
        self.accesses.take(k, each);
    }

    /// Holds `effect` back, in order.
    fn defer(&mut self, effect: Effect) -> Result<(), Miss> {
        let slot = self.effects.iter_mut().find(|e| e.is_none()).ok_or(Miss)?;
        *slot = Some(effect);
        Ok(())
    }

    /// The run of a store walk over `from..to` of `dst`, when one covers
    /// it all.
    fn store_run(&mut self, dst: u64, from: u64, to: u64) -> Result<Run, Miss> {
        let n = to.saturating_sub(from);
        let run = self.view.run(dst, from, n.min(self.left));
        self.take(run.len, STORE);
        if run.len == n {
            Ok(run)
        } else {
            Err(Miss)
        }
    }

    /// Applies the held effects in order and counts the accesses.
    fn finish(self, result: i64, out: &mut Vec<u8>) -> Done {
        let mut buf = [0u8; COPY_CHUNK];
        for effect in self.effects.into_iter().flatten() {
            match effect {
                Effect::Move(plan) => copy_move(self.view, &mut buf, &plan),
                Effect::Fill(run, byte) => fill_span(self.view, run, 0, Fill::Byte(byte)),
                Effect::Echo(run) => echo_span(self.view, out, run.addr, run.len),
            }
        }
        let a = self.accesses;
        self.view.count_run(a.loads, a.stores);
        Done {
            result,
            iters: self.iters,
            accesses: a,
            io: self.io,
        }
    }
}

impl Walks for Stay<'_, '_> {
    type Stop = Miss;

    fn scan<R>(
        &mut self,
        s: u64,
        n: u64,
        echo: Echo,
        mut step: impl FnMut(u64, u64, u8) -> ControlFlow<R>,
    ) -> Result<Option<R>, Miss> {
        let (k, end) = scan_span(self.view, s, 0, n.min(self.left), &mut step);
        self.take(k, SCAN);
        if end.is_none() && k < n {
            return Err(Miss);
        }
        if echo != Echo::No {
            let len = k - end.is_some() as u64;
            self.defer(Effect::Echo(Run { addr: s, len }))?;
        }
        Ok(end)
    }

    fn compare(&mut self, a: u64, b: u64, n: u64, stop_at_nul: bool) -> Result<i64, Miss> {
        let (k, v) = compare_span(self.view, a, b, 0, n.min(self.left), stop_at_nul);
        self.take(k, COMPARE);
        v.or((k == n).then_some(0)).ok_or(Miss)
    }

    fn copy(&mut self, dst: u64, src: u64, n: u64, stop_at_nul: bool) -> Result<u64, Miss> {
        let plan = copy_plan(
            self.view,
            dst,
            src,
            0,
            n.min(self.left),
            through_nul(stop_at_nul),
        );
        let k = plan.k as u64;
        self.take(k, COPY);
        if !plan.nul && k < n {
            return Err(Miss);
        }
        self.defer(Effect::Move(plan))?;
        Ok(k)
    }

    fn copy_until_nul(&mut self, dst: u64, src: u64, n: u64) -> Result<u64, Miss> {
        let plan = copy_plan(self.view, dst, src, 0, n.min(self.left), before_nul);
        let k = plan.k as u64;
        self.take(k, COPY);
        if plan.nul {
            // The machine's next iteration meets the NUL byte-wise: a
            // hit of the source run, with a load and no store.
            if self.left == 0 {
                return Err(Miss);
            }
            self.take(1, SCAN);
        } else if k < n {
            return Err(Miss);
        }
        self.defer(Effect::Move(plan))?;
        Ok(k)
    }

    fn store_bytes(&mut self, dst: u64, from: u64, to: u64, byte: u8) -> Result<(), Miss> {
        let run = self.store_run(dst, from, to)?;
        self.defer(Effect::Fill(run, byte))
    }

    fn move_bytes(&mut self, dst: u64, src: u64, n: u64) -> Result<(), Miss> {
        if n > COPY_CHUNK as u64 {
            return Err(Miss);
        }
        let (k, _) = scan_span(self.view, src, 0, n.min(self.left), &mut |_, _, _| {
            Continue::<()>(())
        });
        self.take(k, SCAN);
        if k < n {
            return Err(Miss);
        }
        let to = self.store_run(dst, 0, n)?;
        let from = Run { addr: src, len: n };
        self.defer(Effect::Move(Plan {
            to,
            from,
            k: n as usize,
            nul: false,
        }))
    }

    fn ptr_add(&mut self, p: u64, delta: i64) -> Result<u64, Miss> {
        self.accesses.adds += 1;
        self.view.ptr_add(p, delta).ok_or(Miss)
    }

    fn store_byte(&mut self, p: u64, byte: u8) -> Result<(), Miss> {
        // A hit exactly when the byte is a run of its own unit.
        let run = self.view.run(p, 0, 1);
        if run.len != 1 {
            return Err(Miss);
        }
        self.accesses.stores += 1;
        self.defer(Effect::Fill(run, byte))
    }

    fn charge_io(&mut self, bytes: i64) {
        self.io = Some(bytes);
    }
}

/// Completes the builtin call `b(args)` on the native view, with `left`
/// iterations of fuel after the call's own, or changes nothing (`None`):
/// the same [`walk`] as the machine's, over a [`Stay`], then its effects
/// and its accesses ([`NativeView::count_run`]); a builtin that touches
/// no guest memory is [`word`]. Output is appended to `out` directly.
pub(crate) fn in_view(
    view: &mut NativeView<'_>,
    b: Builtin,
    args: [i64; 3],
    left: u64,
    out: &mut Vec<u8>,
) -> Option<Done> {
    if let Some(result) = word(b, args[0], out) {
        return Some(Done {
            result,
            iters: 0,
            accesses: Accesses::default(),
            io: None,
        });
    }
    let mut stay = Stay {
        view,
        left,
        iters: 0,
        accesses: Accesses::default(),
        effects: [None; 2],
        io: None,
    };
    let result = walk(&mut stay, b, args).ok()??;
    Some(stay.finish(result, out))
}
