//! Host allocations on the request paths the benchmark workloads drive,
//! counted per thread by a global allocator: a served Apache request or a
//! Pine read allocates its response and nothing else (the libc shim's
//! output reaches the machine's buffer with no staging copy), and a
//! Bounds Check Apache attack plus the in-place restart behind it
//! allocates and frees nothing at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use foc_memory::Mode;
use foc_servers::{apache, image, pine, workload, BootSpec, Server, ServerKind};

/// Counts each thread's allocations, frees and reallocations.
struct Counting;

thread_local! {
    static COUNTS: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
}

fn bump(i: usize) {
    // A thread being torn down has no counter left; its calls go uncounted.
    let _ = COUNTS.try_with(|c| {
        let mut v = c.get();
        v[i] += 1;
        c.set(v);
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(0);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(1);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        bump(2);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.realloc(ptr, layout, size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` allocated, freed and reallocated on this thread, beside its
/// result (dropped by the caller, outside the count).
fn counted<R>(f: impl FnOnce() -> R) -> (R, [u64; 3]) {
    let before = COUNTS.with(Cell::get);
    let out = f();
    let after = COUNTS.with(Cell::get);
    (out, std::array::from_fn(|i| after[i] - before[i]))
}

#[test]
fn a_request_allocates_only_its_response() {
    let urls: [&[u8]; 4] = [
        b"/index.html",
        b"/rw/index.html",
        b"/big.bin",
        b"/nosuchpage.html",
    ];
    let mut worker =
        apache::ApacheWorker::boot_spec(&BootSpec::new(ServerKind::Apache, Mode::FailureOblivious));
    for round in 0..3 {
        for url in urls {
            let (served, [allocs, frees, reallocs]) = counted(|| worker.get(url));
            assert!(served.outcome.survived());
            if round > 0 {
                let what = String::from_utf8_lossy(url);
                assert_eq!((allocs, frees, reallocs), (1, 0, 0), "Apache GET {what}");
            }
        }
    }
    let spec = BootSpec::new(ServerKind::Pine, Mode::FailureOblivious);
    let mut mail = pine::Pine::boot_spec(&spec, image::standard_pine_mailbox().clone());
    let from = workload::from_field(1);
    mail.deliver(&from, b"new mail", &workload::lorem(300, 1));
    for round in 0..3 {
        for message in 0..image::PINE_SEED_MESSAGES as i64 {
            let (read, [allocs, frees, reallocs]) = counted(|| mail.read(message));
            assert!(read.outcome.survived());
            if round > 0 {
                assert_eq!((allocs, frees, reallocs), (1, 0, 0), "Pine read {message}");
            }
        }
    }
}

#[test]
fn a_bounds_check_attack_and_its_restart_allocate_nothing() {
    let spec = BootSpec::new(ServerKind::Apache, Mode::BoundsCheck);
    let frozen = image::boot_checkpoint(ServerKind::Apache, &spec);
    let Server::Apache(frozen) = &*frozen else {
        unreachable!("an Apache checkpoint holds an Apache worker");
    };
    let mut worker = frozen.clone();
    let attack = apache::attack_url();
    for round in 0..4 {
        let (died, counts) = counted(|| {
            let died = worker.get(&attack);
            worker.restore_from(frozen);
            died
        });
        assert!(!died.outcome.survived(), "the attack kills the child");
        if round > 0 {
            assert_eq!(counts, [0, 0, 0], "attack + restart {round}");
        }
    }
}
