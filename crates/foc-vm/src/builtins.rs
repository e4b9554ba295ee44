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
//! Every byte loop lives in one of five walkers ([`scan`], [`compare`],
//! [`copy`], [`copy_until_nul`], [`store_bytes`]). A walker's *byte-wise
//! iteration* — `charge(1)`, one checked `ptr_add` per operand, the
//! checked one-byte accesses, the builtin's own decision on the byte —
//! is written once and defines the builtin: its violation, manufacture,
//! discard, redirect and fuel-out behaviour all happen there and nowhere
//! else. On the baseline tier that iteration is the only path, which
//! keeps the baseline interpreter the CRED reference every equivalence
//! battery, `BootSpec::oracle` and the oracle `mode_sweep --check`
//! compare against.
//!
//! On the native tier a walker first asks the space for a *run*
//! ([`foc_memory::MemorySpace::run`]): the longest stretch of the walk,
//! from the current index, over which every `ptr_add` would return the
//! plain address and every one-byte access would hit — resolved with
//! one object-table lookup per operand instead of one or two per byte.
//! It then takes `k = min(run of each operand, bytes wanted, fuel
//! left)` iterations at once over the host bytes (`SCAN_CAP` is part of
//! "bytes wanted") and [`Machine::retire_span`] advances `RunStats` and
//! `SpaceStats` by exactly what `k` byte-wise iterations advance them.
//! Where `k` is zero — the byte that leaves its unit, an out-of-bounds
//! descriptor operand, a freed unit, source and destination closer
//! than one byte apart, no fuel, never-written source bytes — the
//! walker runs one byte-wise iteration and asks again. A run therefore
//! only ever skips work whose outcome is already known; it decides
//! nothing.

use std::ops::ControlFlow::{self, Break, Continue};

use foc_lang::hir::Builtin;
use foc_memory::{AccessSize, Run};

use crate::fault::VmFault;
use crate::machine::Machine;

/// Upper bound for NUL scans so a pathological Standard-mode scan cannot
/// walk the whole address space byte by byte.
const SCAN_CAP: u64 = 1 << 22;

/// Most bytes one span of a copy moves: copies stage through a host
/// buffer of this size, longer ones chain spans.
const COPY_CHUNK: usize = 512;

/// Executes a builtin: pops its arguments from the evaluation stack and
/// returns its result value (0 for `void` builtins).
pub(crate) fn dispatch(m: &mut Machine, b: Builtin) -> Result<i64, VmFault> {
    let argc = b.arity();
    let mut args = [0i64; 3];
    for i in (0..argc).rev() {
        args[i] = m.pop();
    }
    let a0 = args[0];
    let a1 = args[1];
    let a2 = args[2];
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
        Builtin::Strlen => {
            let n = scan_nul(m, a0 as u64)?;
            Ok(n as i64)
        }
        Builtin::Strcpy => {
            copy(m, a0 as u64, a1 as u64, SCAN_CAP, true)?;
            Ok(a0)
        }
        Builtin::Strncpy => {
            // C semantics: copy at most n bytes; if src is shorter, pad
            // with NULs to exactly n bytes.
            let n = a2 as u64;
            let copied = copy(m, a0 as u64, a1 as u64, n.min(SCAN_CAP), true)?;
            store_bytes(m, a0 as u64, copied, n, Fill::Byte(0))?;
            Ok(a0)
        }
        Builtin::Strcat => {
            let end = scan_nul(m, a0 as u64)?;
            let dst = m.g_ptr_add(a0 as u64, end as i64);
            copy(m, dst, a1 as u64, SCAN_CAP, true)?;
            Ok(a0)
        }
        Builtin::Strncat => {
            let end = scan_nul(m, a0 as u64)?;
            let dst = m.g_ptr_add(a0 as u64, end as i64);
            let n = a2 as u64;
            let copied = copy_until_nul(m, dst, a1 as u64, n.min(SCAN_CAP))?;
            let term = m.g_ptr_add(dst, copied as i64);
            m.g_store(term, AccessSize::B1, 0)?;
            Ok(a0)
        }
        Builtin::Strcmp => compare(m, a0 as u64, a1 as u64, SCAN_CAP, true),
        Builtin::Strncmp => compare(m, a0 as u64, a1 as u64, (a2 as u64).min(SCAN_CAP), true),
        Builtin::Strchr => {
            let want = a1 as u8;
            let hit = scan(m, a0 as u64, SCAN_CAP + 1, |_, p, b| {
                if b == want {
                    Break(p as i64)
                } else if b == 0 {
                    Break(0)
                } else {
                    Continue(())
                }
            })?;
            Ok(hit.unwrap_or(0))
        }
        Builtin::Strrchr => {
            let want = a1 as u8;
            let mut found = 0i64;
            scan(m, a0 as u64, SCAN_CAP + 1, |_, p, b| {
                if b == want {
                    found = p as i64;
                }
                if b == 0 {
                    Break(())
                } else {
                    Continue(())
                }
            })?;
            Ok(found)
        }
        Builtin::Memcpy => {
            copy(m, a0 as u64, a1 as u64, a2 as u64, false)?;
            Ok(a0)
        }
        Builtin::Memmove => {
            let n = a2 as u64;
            // Stage through a host buffer: correct for overlap, and both
            // directions remain fully guest-checked. The buffer grows
            // with the bytes actually loaded — `n` is the guest's word,
            // and fuel or the mode ends a wild one long before it is
            // reached.
            let mut tmp = Vec::new();
            scan(m, a1 as u64, n, |_, _, b| {
                tmp.push(b);
                Continue::<()>(())
            })?;
            store_bytes(m, a0 as u64, 0, n, Fill::Bytes(&tmp))?;
            Ok(a0)
        }
        Builtin::Memset => {
            store_bytes(m, a0 as u64, 0, a2 as u64, Fill::Byte(a1 as u8))?;
            Ok(a0)
        }
        Builtin::Memcmp => compare(m, a0 as u64, a1 as u64, a2 as u64, false),
        Builtin::PrintStr => {
            // Bytes reach the output as they are read, so whatever a
            // fault part-way leaves behind stays printed.
            let mut out = Vec::new();
            let walked = scan(m, a0 as u64, SCAN_CAP + 1, |i, _, b| {
                if b == 0 || i >= SCAN_CAP {
                    return Break(());
                }
                out.push(b);
                Continue(())
            });
            m.push_output(&out);
            walked?;
            Ok(0)
        }
        Builtin::PrintInt => {
            let s = a0.to_string();
            m.push_output(s.as_bytes());
            Ok(0)
        }
        Builtin::Putchar => {
            m.push_output_byte(a0 as u8);
            Ok(a0 & 0xFF)
        }
        Builtin::Abort => Err(VmFault::Abort),
        Builtin::Exit => Err(VmFault::Exit(a0 as i32)),
        Builtin::Isspace => {
            Ok(matches!(a0 as u8, b' ' | b'\t' | b'\n' | b'\r' | 0x0B | 0x0C) as i64)
        }
        Builtin::Isdigit => Ok((a0 as u8).is_ascii_digit() as i64),
        Builtin::Isalpha => Ok((a0 as u8).is_ascii_alphabetic() as i64),
        Builtin::Isprint => Ok(matches!(a0 as u8, 0x20..=0x7E) as i64),
        Builtin::Toupper => Ok((a0 as u8).to_ascii_uppercase() as i64),
        Builtin::Tolower => Ok((a0 as u8).to_ascii_lowercase() as i64),
        Builtin::Atoi => {
            let mut value: i64 = 0;
            let mut sign = 1i64;
            let mut seen_digit = false;
            scan(m, a0 as u64, SCAN_CAP + 1, |i, _, b| {
                match b {
                    b' ' | b'\t' if !seen_digit && sign == 1 && value == 0 && i < 64 => {}
                    b'-' if !seen_digit && value == 0 && sign == 1 => sign = -1,
                    b'+' if !seen_digit && value == 0 => {}
                    b'0'..=b'9' => {
                        seen_digit = true;
                        value = value.wrapping_mul(10).wrapping_add((b - b'0') as i64);
                    }
                    _ => return Break(()),
                }
                Continue(())
            })?;
            Ok(sign.wrapping_mul(value) as i32 as i64)
        }
        Builtin::ReadInput => {
            let cap = a1.max(0) as u64;
            let Some(chunk) = m.pop_input() else {
                return Ok(-1);
            };
            let n = (chunk.len() as u64).min(cap);
            store_bytes(m, a0 as u64, 0, n, Fill::Bytes(&chunk))?;
            m.charge_io(n);
            Ok(n as i64)
        }
        Builtin::EmitOutput => {
            let n = a1.max(0) as u64;
            // Grows with the bytes actually loaded, like `memmove`'s.
            let mut bytes = Vec::new();
            scan(m, a0 as u64, n, |_, _, b| {
                bytes.push(b);
                Continue::<()>(())
            })?;
            m.push_output(&bytes);
            m.charge_io(n);
            Ok(0)
        }
        Builtin::IoWait => {
            m.charge_io(a0.max(0) as u64);
            Ok(0)
        }
    }
}

/// Length of the NUL-terminated string at `s` (guest-checked scan).
fn scan_nul(m: &mut Machine, s: u64) -> Result<u64, VmFault> {
    let end = scan(m, s, SCAN_CAP + 1, |i, _, b| {
        if b == 0 {
            Break(i)
        } else {
            Continue(())
        }
    })?;
    Ok(end.unwrap_or(SCAN_CAP))
}

/// Loads bytes `0..n` of `s` in order, handing each to `step` as
/// `(index, pointer, byte)` until it breaks; `None` when all `n` were
/// read. One iteration is one `ptr_add` and one load.
fn scan<R>(
    m: &mut Machine,
    s: u64,
    n: u64,
    mut step: impl FnMut(u64, u64, u8) -> ControlFlow<R>,
) -> Result<Option<R>, VmFault> {
    let mut i = 0u64;
    while i < n {
        let want = m.span_budget(n - i);
        if want > 0 {
            let run = m.space_mut().run(s, i, want);
            let mut k = 0u64;
            let mut out = None;
            for &b in m.space().run_bytes(run) {
                let flow = step(i + k, run.addr + k, b);
                k += 1;
                if let Break(r) = flow {
                    out = Some(r);
                    break;
                }
            }
            m.retire_span(k, 1, 1, 0);
            if out.is_some() {
                return Ok(out);
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
        i += 1;
    }
    Ok(None)
}

/// Lexicographic comparison of at most `n` bytes of `a` and `b`,
/// stopping at a shared NUL when `stop_at_nul`. One iteration is two
/// `ptr_add`s and two loads.
fn compare(m: &mut Machine, a: u64, b: u64, n: u64, stop_at_nul: bool) -> Result<i64, VmFault> {
    let verdict = |x: u8, y: u8| {
        if x != y {
            Some(if x < y { -1 } else { 1 })
        } else if stop_at_nul && x == 0 {
            Some(0)
        } else {
            None
        }
    };
    let mut i = 0u64;
    while i < n {
        let want = m.span_budget(n - i);
        if want > 0 {
            let ra = m.space_mut().run(a, i, want);
            let rb = m.space_mut().run(b, i, ra.len);
            let (xs, ys) = (m.space().run_bytes(ra), m.space().run_bytes(rb));
            let decided = xs
                .iter()
                .zip(ys)
                .enumerate()
                .find_map(|(j, (&x, &y))| verdict(x, y).map(|v| (j as u64 + 1, v)));
            let k = decided.map_or(xs.len().min(ys.len()) as u64, |(k, _)| k);
            m.retire_span(k, 2, 2, 0);
            if let Some((_, v)) = decided {
                return Ok(v);
            }
            i += k;
            if k > 0 {
                continue;
            }
        }
        m.charge(1)?;
        let pa = m.g_ptr_add(a, i as i64);
        let pb = m.g_ptr_add(b, i as i64);
        let x = m.g_load(pa, AccessSize::B1)? as u8;
        let y = m.g_load(pb, AccessSize::B1)? as u8;
        if let Some(v) = verdict(x, y) {
            return Ok(v);
        }
        i += 1;
    }
    Ok(0)
}

/// The span step of both copies: moves up to `left` bytes from
/// `src + i` to `dst + i` through `buf`, as many as `keep` wants of the
/// source bytes in hand, and returns how many it moved. One iteration
/// is two `ptr_add`s, a load and a store. The span is no longer than
/// the distance between the operands, so the bytes it reads are not
/// among the bytes it writes and staging them equals the byte-by-byte
/// forward copy whatever the overlap.
fn copy_span(
    m: &mut Machine,
    buf: &mut [u8; COPY_CHUNK],
    dst: u64,
    src: u64,
    i: u64,
    left: u64,
    keep: impl Fn(&[u8]) -> usize,
) -> usize {
    let apart = dst.abs_diff(src);
    let want = m.span_budget(left.min(COPY_CHUNK as u64).min(apart));
    if want == 0 {
        return 0;
    }
    let to = m.space_mut().run(dst, i, want);
    let from = m.space_mut().run(src, i, to.len);
    let loaded = m.space().run_bytes(from);
    let k = keep(loaded);
    if k == 0 {
        return 0;
    }
    buf[..k].copy_from_slice(&loaded[..k]);
    let to = Run {
        len: k as u64,
        ..to
    };
    m.space_mut().run_bytes_mut(to).copy_from_slice(&buf[..k]);
    m.retire_span(k as u64, 2, 1, 1);
    k
}

/// Copies at most `n` bytes from `src` to `dst`, stopping after the NUL
/// when `stop_at_nul`; returns the number of bytes copied.
fn copy(m: &mut Machine, dst: u64, src: u64, n: u64, stop_at_nul: bool) -> Result<u64, VmFault> {
    let mut buf = [0u8; COPY_CHUNK];
    let mut i = 0u64;
    while i < n {
        let k = copy_span(m, &mut buf, dst, src, i, n - i, |bytes| {
            let nul = bytes.iter().position(|&b| stop_at_nul && b == 0);
            nul.map_or(bytes.len(), |j| j + 1)
        });
        if k > 0 {
            i += k as u64;
            if stop_at_nul && buf[k - 1] == 0 {
                return Ok(i);
            }
            continue;
        }
        m.charge(1)?;
        let s = m.g_ptr_add(src, i as i64);
        let d = m.g_ptr_add(dst, i as i64);
        let b = m.g_load(s, AccessSize::B1)?;
        m.g_store(d, AccessSize::B1, b)?;
        i += 1;
        if stop_at_nul && b & 0xFF == 0 {
            return Ok(i);
        }
    }
    Ok(i)
}

/// Copies at most `n` bytes stopping *before* the NUL; returns bytes
/// copied. The iteration that meets the NUL is a `ptr_add` and a load
/// with no store, so it is never part of a span.
fn copy_until_nul(m: &mut Machine, dst: u64, src: u64, n: u64) -> Result<u64, VmFault> {
    let mut buf = [0u8; COPY_CHUNK];
    let mut i = 0u64;
    while i < n {
        let k = copy_span(m, &mut buf, dst, src, i, n - i, |bytes| {
            let nul = bytes.iter().position(|&b| b == 0);
            nul.unwrap_or(bytes.len())
        });
        if k > 0 {
            i += k as u64;
            continue;
        }
        m.charge(1)?;
        let s = m.g_ptr_add(src, i as i64);
        let b = m.g_load(s, AccessSize::B1)? as u8;
        if b == 0 {
            break;
        }
        let d = m.g_ptr_add(dst, i as i64);
        m.g_store(d, AccessSize::B1, b as u64)?;
        i += 1;
    }
    Ok(i)
}

/// What [`store_bytes`] writes at index `i`.
#[derive(Clone, Copy)]
enum Fill<'a> {
    /// The same byte everywhere.
    Byte(u8),
    /// `bytes[i]`; the slice covers every index stored.
    Bytes(&'a [u8]),
}

/// Stores bytes `from..to` of `dst`. One iteration is one `ptr_add` and
/// one store.
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
                let out = m.space_mut().run_bytes_mut(run);
                match fill {
                    Fill::Byte(b) => out.fill(b),
                    Fill::Bytes(bytes) => {
                        out.copy_from_slice(&bytes[i as usize..(i + run.len) as usize])
                    }
                }
                m.retire_span(run.len, 1, 0, 1);
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
