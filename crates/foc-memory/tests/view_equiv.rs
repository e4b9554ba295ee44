//! The native view equals the space.
//!
//! [`NativeView`](foc_memory::NativeView) is the hit path the native
//! execution tier holds across micro-ops. Its contract is stated against
//! the space's own full routines, so it is tested against them: on two
//! clones of one churned space, each view method and the routine it
//! stands in for must agree.
//!
//! * A view **hit** returns the routine's value (no violation) and
//!   leaves counters, every region byte and the error log equal to the
//!   routine's.
//! * A view **miss** leaves the space as it found it — counters, bytes
//!   and log — so the caller's fallback drives the substrate exactly
//!   once.
//! * A store outside a region's committed window is a miss; the
//!   fallback commits the window and the next view store hits.
//!
//! [`MemorySpace::run`] — many one-byte hits answered by one lookup, the
//! libc shim's primitive — is held to the same standard, against the
//! byte-wise `ptr_add` + `load`/`store` walk it stands in for.

use proptest::prelude::*;

use foc_memory::addr::{HEAP_BASE, STACK_BASE};
use foc_memory::{
    AccessCtx, AccessSize, MemConfig, MemoryErrorRecord, MemorySpace, Mode, SpaceStats, TableKind,
};

const CTX: AccessCtx = AccessCtx { func: 3, pc: 7 };
const GLOBAL_LEN: usize = 16 << 10;
const HEAP_LEN: usize = 256 << 10;
const STACK_LEN: usize = 64 << 10;
const SIZES: [AccessSize; 4] = [
    AccessSize::B1,
    AccessSize::B2,
    AccessSize::B4,
    AccessSize::B8,
];

fn config(mode: Mode, table: TableKind) -> MemConfig {
    sized_config(mode, table, HEAP_LEN, STACK_LEN)
}

fn sized_config(mode: Mode, table: TableKind, heap_len: usize, stack_len: usize) -> MemConfig {
    MemConfig {
        mode,
        global_len: GLOBAL_LEN,
        heap_len,
        stack_len,
        table,
        ..MemConfig::default()
    }
}

/// Everything about a space a guest or an operator can observe.
#[derive(Debug, PartialEq)]
struct Snapshot {
    stats: SpaceStats,
    globals: Vec<u8>,
    heap: Vec<u8>,
    stack: Vec<u8>,
    log_total: u64,
    log: Vec<MemoryErrorRecord>,
}

fn snapshot(s: &MemorySpace) -> Snapshot {
    sized_snapshot(s, HEAP_LEN, STACK_LEN)
}

fn sized_snapshot(s: &MemorySpace, heap_len: usize, stack_len: usize) -> Snapshot {
    let bytes = |base: u64, len: usize| s.read_bytes_raw(base, len as u64).expect("region");
    Snapshot {
        stats: *s.stats(),
        globals: bytes(foc_memory::addr::GLOBAL_BASE, GLOBAL_LEN),
        heap: bytes(HEAP_BASE, heap_len),
        stack: bytes(STACK_BASE, stack_len),
        log_total: s.error_log().total(),
        log: s.error_log().records().to_vec(),
    }
}

/// A churned space plus what the probes aim at.
struct World {
    space: MemorySpace,
    /// Pointers worth probing: unit bases and edges, descriptors, wild
    /// values, the top of the address space.
    pointers: Vec<u64>,
    /// The innermost frame's window (an empty one at the stack top when
    /// no frame is pushed).
    frame: (u64, u64),
}

/// Applies an alloc/free/frame script. Each step is `(kind, amount)`.
fn churn(mode: Mode, table: TableKind, script: &[(u8, u64)]) -> World {
    let mut space = MemorySpace::new(config(mode, table));
    let g = space.alloc_global(40, "g").expect("global fits");
    let mut live: Vec<(u64, u64)> = vec![(g, 40)];
    let mut heap: Vec<(u64, u64)> = Vec::new();
    let mut frames: Vec<(u64, u64, usize)> = Vec::new();
    for &(kind, amount) in script {
        match kind % 5 {
            0 | 1 => {
                let size = 1 + amount % 300;
                if let Ok(p) = space.malloc(size) {
                    space.write_raw(p, AccessSize::B1, amount);
                    heap.push((p, size));
                }
            }
            2 => {
                if !heap.is_empty() {
                    let (p, _) = heap.swap_remove(amount as usize % heap.len());
                    space.free(p, CTX).expect("live block frees");
                }
            }
            3 => {
                if frames.len() < 6 {
                    let total = 32 + (amount % 8) * 16;
                    let base = space.push_frame(total).expect("stack has room");
                    let before = live.len();
                    space.register_local(base, 0, 8);
                    space.register_local(base, 16, total - 16);
                    live.push((base, 8));
                    live.push((base + 16, total - 16));
                    space.write_raw(base + 16, AccessSize::B8, amount);
                    frames.push((base, total, before));
                }
            }
            _ => {
                if let Some((_, _, before)) = frames.pop() {
                    space.pop_frame().expect("canary intact");
                    live.truncate(before);
                }
            }
        }
    }
    live.extend(heap);
    let mut pointers = vec![
        0,
        8,
        HEAP_BASE + HEAP_LEN as u64 - 4,
        STACK_BASE + 24,
        1 << 63,
        u64::MAX - 8,
        u64::MAX - 7,
        u64::MAX,
    ];
    for &(base, size) in &live {
        pointers.extend([
            base,
            base + size / 2,
            base + size - 1,
            base + size,
            base - 1,
        ]);
        // An out-of-bounds descriptor (the base pointer itself in
        // Standard mode, which interns nothing).
        pointers.push(space.ptr_add(base, size as i64 + 16));
    }
    let frame = frames
        .last()
        .map_or((STACK_BASE + STACK_LEN as u64, 0), |&(b, t, _)| (b, t));
    World {
        space,
        pointers,
        frame,
    }
}

/// One probe: the view method on clone `a`, the routine on clone `b`.
fn check_probe(w: &World, ptr: u64, delta: i64, size: AccessSize, value: u64) {
    let before = snapshot(&w.space);
    let (base, total) = w.frame;
    let target = ptr.wrapping_add(delta as u64);
    let what = format!("ptr {ptr:#x} delta {delta} size {size:?}");

    // Hit: equal value and equal space. Miss: `a` untouched.
    let settle = |name: &str, hit: bool, a: &MemorySpace, b: &MemorySpace| {
        if hit {
            assert_eq!(snapshot(a), snapshot(b), "{name} hit diverges: {what}");
        } else {
            assert_eq!(snapshot(a), before, "{name} miss touched the space: {what}");
        }
    };

    let (mut a, mut b) = (w.space.clone(), w.space.clone());
    let got = a.native_view(base, total).load(ptr, size);
    if let Some(v) = got {
        let out = b.load(ptr, size, CTX).expect("a view hit cannot fault");
        assert_eq!((v, false), (out.value, out.violation), "load: {what}");
    }
    settle("load", got.is_some(), &a, &b);

    let (mut a, mut b) = (w.space.clone(), w.space.clone());
    let hit = a.native_view(base, total).store(ptr, size, value);
    if hit {
        let out = b
            .store(ptr, size, value, CTX)
            .expect("a view hit cannot fault");
        assert!(!out.violation, "store: {what}");
    }
    settle("store", hit, &a, &b);

    let (mut a, mut b) = (w.space.clone(), w.space.clone());
    let got = a.native_view(base, total).idx_load(ptr, delta, size);
    if let Some(v) = got {
        let derived = b.ptr_add(ptr, delta);
        assert_eq!(derived, target, "idx_load derivation: {what}");
        let out = b.load(derived, size, CTX).expect("a view hit cannot fault");
        assert_eq!((v, false), (out.value, out.violation), "idx_load: {what}");
    }
    settle("idx_load", got.is_some(), &a, &b);

    let (mut a, mut b) = (w.space.clone(), w.space.clone());
    let hit = a
        .native_view(base, total)
        .idx_store(ptr, delta, size, value);
    if hit {
        let derived = b.ptr_add(ptr, delta);
        assert_eq!(derived, target, "idx_store derivation: {what}");
        let out = b
            .store(derived, size, value, CTX)
            .expect("a view hit cannot fault");
        assert!(!out.violation, "idx_store: {what}");
    }
    settle("idx_store", hit, &a, &b);

    let (mut a, mut b) = (w.space.clone(), w.space.clone());
    let got = a.native_view(base, total).ptr_add(ptr, delta);
    if let Some(out) = got {
        assert_eq!(out, b.ptr_add(ptr, delta), "ptr_add: {what}");
    }
    settle("ptr_add", got.is_some(), &a, &b);

    assert_eq!(
        a.native_view(base, total).effective_addr(ptr),
        w.space.effective_addr(ptr),
        "effective_addr: {what}"
    );
}

/// One run probe against the byte-wise walk it summarises: the probe
/// itself moves nothing; a non-empty run is exactly the walk's prefix
/// of plain-address hits (an empty one may also mean "no provenance",
/// where the walk can still stumble into a unit); and acting on the run
/// plus [`MemorySpace::count_run`] leaves the space where that many
/// byte-wise loads, then stores, leave it.
fn check_run(w: &World, ptr: u64, off: u64, want: u64, value: u8) {
    let what = format!("ptr {ptr:#x} off {off:#x} want {want}");
    let before = snapshot(&w.space);
    let mut a = w.space.clone();
    let run = a.run(ptr, off, want);
    assert_eq!(snapshot(&a), before, "the probe moved something: {what}");
    assert!(run.len <= want, "{what}");
    assert_eq!(run.addr, ptr.wrapping_add(off), "{what}");

    let walk_target = |i: u64| ptr.wrapping_add(off).wrapping_add(i);
    let walk_delta = |i: u64| off.wrapping_add(i) as i64;
    let mut b = w.space.clone();
    let mut prefix = 0;
    while prefix < want {
        let p = b.ptr_add(ptr, walk_delta(prefix));
        let hit = p == walk_target(prefix)
            && matches!(b.load(p, AccessSize::B1, CTX), Ok(out) if !out.violation)
            && matches!(b.store(p, AccessSize::B1, 0, CTX), Ok(out) if !out.violation);
        if !hit {
            break;
        }
        prefix += 1;
    }
    assert!(run.len <= prefix, "run overshoots the walk: {what}");
    if run.len > 0 {
        assert_eq!(run.len, prefix, "run stops short of the walk: {what}");
    }

    // Loads: the committed bytes in hand are the bytes the walk loads.
    let mut c = w.space.clone();
    let held = a.run_bytes(run).to_vec();
    for (i, &byte) in held.iter().enumerate() {
        let p = c.ptr_add(ptr, walk_delta(i as u64));
        let out = c.load(p, AccessSize::B1, CTX).expect("inside the run");
        assert_eq!((out.value, out.violation), (byte as u64, false), "{what}");
    }
    a.count_run(held.len() as u64, 0);
    assert_eq!(snapshot(&a), snapshot(&c), "span loads diverge: {what}");

    // Stores: filling the run is storing each byte.
    if run.len > 0 {
        a.run_bytes_mut(run).fill(value);
        a.count_run(0, run.len);
        for i in 0..run.len {
            let p = c.ptr_add(ptr, walk_delta(i));
            let out = c.store(p, AccessSize::B1, value as u64, CTX);
            assert_eq!(out.map(|o| o.violation), Ok(false), "{what}");
        }
        assert_eq!(snapshot(&a), snapshot(&c), "span stores diverge: {what}");
    }
}

/// The shapes the shim leans on, one by one: a run is the rest of the
/// unit, and there is none from a descriptor, a freed unit, a pointer
/// without provenance, or an offset that leaves the unit — including
/// offsets and pointers that only land inside by wrapping `2^64`.
#[test]
fn runs_end_where_the_unit_does_and_start_nowhere_else() {
    for mode in Mode::ALL {
        for table in TableKind::ALL {
            let mut s = MemorySpace::new(config(mode, table));
            let p = s.malloc(24).expect("heap has room");
            let q = s.malloc(24).expect("heap has room");
            let len = |s: &mut MemorySpace, base, off, want| s.run(base, off, want).len;
            assert_eq!(len(&mut s, p, 0, 8), 8, "{mode:?}: want caps the run");
            assert_eq!(len(&mut s, p, 20, 0), 0, "{mode:?}: nothing wanted");
            assert_eq!(
                len(&mut s, p + 23, 0, 9),
                if mode.is_checked() { 1 } else { 9 }
            );
            assert_eq!(len(&mut s, p + 4, u64::MAX, 2), 2, "{mode:?}: offset -1");
            // Plain arithmetic wraps to `p`; checked arithmetic has no
            // unit to derive it from.
            let wrapped = if mode.is_checked() { 0 } else { 2 };
            assert_eq!(len(&mut s, u64::MAX - 3, p + 4, 2), wrapped, "{mode:?}");
            assert_eq!(len(&mut s, u64::MAX, 0, u64::MAX), 0, "{mode:?}");
            if !mode.is_checked() {
                continue;
            }
            assert_eq!(
                len(&mut s, p, 4, u64::MAX),
                20,
                "{mode:?}: rest of the unit"
            );
            assert_eq!(len(&mut s, p, 24, 1), 0, "{mode:?}: one past the end");
            assert_eq!(len(&mut s, p, q - p, 1), 0, "{mode:?}: into a neighbour");
            assert_eq!(len(&mut s, p - 1, 1, 1), 0, "{mode:?}: no provenance");
            let outside = s.ptr_add(p, 30);
            assert_eq!(len(&mut s, outside, 0, 1), 0, "{mode:?}: descriptor");
            assert_eq!(len(&mut s, outside, (-10i64) as u64, 1), 0, "{mode:?}");
            s.free(q, CTX).expect("live block frees");
            assert_eq!(len(&mut s, q, 0, 1), 0, "{mode:?}: freed unit");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn runs_equal_the_byte_wise_walk(
        script in proptest::collection::vec((0u8..5, 0u64..4096), 1..48),
        probes in proptest::collection::vec(
            (any::<u64>(), 0u64..80, 0u8..6, 0u64..400, any::<u8>()),
            4..12,
        ),
    ) {
        for mode in Mode::ALL {
            for table in TableKind::ALL {
                let w = churn(mode, table, &script);
                for &(pick, small, kind, want, value) in &probes {
                    let ptr = w.pointers[pick as usize % w.pointers.len()];
                    let off = match kind {
                        // Walks across `2^64` during the run.
                        0 => ptr.wrapping_neg().wrapping_sub(8),
                        1 => small.wrapping_neg(),
                        2 => i64::MAX as u64,
                        _ => small,
                    };
                    check_run(&w, ptr, off, want, value);
                }
            }
        }
    }

    #[test]
    fn view_methods_equal_the_space_routines(
        script in proptest::collection::vec((0u8..5, 0u64..4096), 1..48),
        probes in proptest::collection::vec(
            (any::<u64>(), -80i64..80, 0usize..4, 0u8..6, any::<u64>()),
            4..12,
        ),
    ) {
        for mode in [Mode::FailureOblivious, Mode::BoundsCheck, Mode::Standard] {
            for table in TableKind::ALL {
                let w = churn(mode, table, &script);
                for &(pick, small, size, kind, value) in &probes {
                    let ptr = w.pointers[pick as usize % w.pointers.len()];
                    let delta = match kind {
                        // Lands on `2^64 - 8`: the access end wraps to 0.
                        0 => (ptr as i64).wrapping_neg().wrapping_sub(8),
                        1 => i64::MAX,
                        2 => i64::MIN,
                        _ => small,
                    };
                    check_probe(&w, ptr, delta, SIZES[size], value);
                }
            }
        }
    }

    /// One view held across accesses that alternate between four units
    /// in three regions: every change of unit is a memo miss answered by
    /// the table and a memo refill, and the space the view leaves behind
    /// — counter for counter, byte for byte — is the one the full
    /// routines leave. A pointer into one unit never reaches a neighbour
    /// the memo happens to remember.
    #[test]
    fn one_view_alternating_between_units_refills_its_memo_like_the_space(
        steps in proptest::collection::vec(
            (0usize..4, 0u64..64, 0usize..4, any::<bool>(), any::<u64>()),
            8..64,
        ),
    ) {
        for mode in [Mode::FailureOblivious, Mode::BoundsCheck, Mode::Standard] {
            for table in TableKind::ALL {
                let mut a = MemorySpace::new(config(mode, table));
                let g = a.alloc_global(40, "g").expect("global fits");
                let (h1, h2) = (a.malloc(64).expect("room"), a.malloc(24).expect("room"));
                let frame = a.push_frame(48).expect("stack has room");
                a.register_local(frame, 0, 8);
                a.register_local(frame, 16, 32);
                let units = [(g, 40), (h1, 64), (h2, 24), (frame + 16, 32)];
                for &(base, size) in &units {
                    prop_assert!(a.write_bytes_raw(base, &vec![0x5a; size as usize]));
                }
                let mut b = a.clone();
                let mut view = a.native_view(frame, 48);
                // A round-robin prefix, so every run alternates over all
                // four whatever the generator picked.
                let round_robin = (0..8).map(|i| (i % 4, i as u64 * 5, 3, i % 2 == 0, i as u64));
                for (pick, at, size, is_store, value) in round_robin.chain(steps.iter().copied()) {
                    let ((base, len), size) = (units[pick], SIZES[size]);
                    let delta = (at % (len - size.bytes() + 1)) as i64;
                    let derived = b.ptr_add(base, delta);
                    if is_store {
                        prop_assert!(view.idx_store(base, delta, size, value));
                        prop_assert_eq!(b.store(derived, size, value, CTX).map(|o| o.violation), Ok(false));
                    } else {
                        let want = b.load(derived, size, CTX).expect("in bounds");
                        prop_assert_eq!(view.idx_load(base, delta, size), Some(want.value));
                    }
                    if mode.is_checked() {
                        let (other, _) = units[(pick + 1) % 4];
                        let reach = other.wrapping_sub(base) as i64;
                        prop_assert_eq!(view.idx_load(other, reach.wrapping_neg(), size), None);
                        prop_assert!(!view.idx_store(base, reach, size, value));
                    }
                }
                prop_assert_eq!(snapshot(&a), snapshot(&b));
            }
        }
    }

    /// Frame slots through the view are the stack bytes raw access sees.
    #[test]
    fn frame_slots_are_the_stack_bytes(
        total in 1u64..20,
        slot in 0u32..16,
        size in 0usize..4,
        value in any::<u64>(),
    ) {
        let total = total * 16;
        let off = (slot * 8) % (total as u32 - 8);
        let mut a = MemorySpace::new(config(Mode::FailureOblivious, TableKind::Flat));
        let base = a.push_frame(total).expect("stack has room");
        let mut b = a.clone();
        let mut view = a.native_view(base, total);
        view.local_put(off, SIZES[size], value);
        let seen = view.local_get(off, SIZES[size]);
        prop_assert!(b.write_raw(base + off as u64, SIZES[size], value));
        prop_assert_eq!(Some(seen), b.read_raw(base + off as u64, SIZES[size]));
        prop_assert_eq!(snapshot(&a), snapshot(&b));
    }
}

/// A store the committed window does not cover is a miss that changes
/// nothing; the full routine commits the chunk, after which the view
/// serves the same address. Reads of never-written bytes miss the same
/// way (the routine answers zero without committing).
#[test]
fn uncommitted_chunks_miss_until_the_fallback_commits_them() {
    const HEAP: usize = 2 << 20;
    const STACK: usize = 1 << 20;
    for mode in [Mode::FailureOblivious, Mode::Standard] {
        let mut s = MemorySpace::new(sized_config(mode, TableKind::Flat, HEAP, STACK));
        let block = s.malloc(1 << 20).expect("heap has room");
        let top = STACK_BASE + STACK as u64;
        let frame = s.push_frame(512 << 10).expect("stack has room");
        s.register_local(frame, 0, 512 << 10);
        for addr in [block + (600 << 10), frame + 64] {
            let before = sized_snapshot(&s, HEAP, STACK);
            assert!(
                !s.native_view(top, 0).store(addr, AccessSize::B8, 7),
                "{mode:?}: a store outside the committed window must miss"
            );
            assert_eq!(
                s.native_view(top, 0).load(addr, AccessSize::B8),
                None,
                "{mode:?}: a read outside the committed window must miss"
            );
            assert_eq!(
                sized_snapshot(&s, HEAP, STACK),
                before,
                "{mode:?}: misses change nothing"
            );
            assert_eq!(s.load(addr, AccessSize::B8, CTX).map(|r| r.value), Ok(0));
            s.store(addr, AccessSize::B8, 7, CTX).expect("in bounds");
            assert!(s.native_view(top, 0).store(addr, AccessSize::B8, 9));
            assert_eq!(s.native_view(top, 0).load(addr, AccessSize::B8), Some(9));
        }
    }
}
