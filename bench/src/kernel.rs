//! The reference kernel: ~40 ms of work owned by the harness, run in
//! alternation with the timed reps so their times can be scaled to a
//! nominal host speed (see [`crate::stats::scaled_fastest`]).
//!
//! It calls no repository code — a change to the system under test can
//! never move it. Most of it is arithmetic on eight independent
//! register chains. That choice is empirical: on the shared two-core
//! host this was developed on, identical farm reps run in phases that
//! differ by up to 1.9x in pure user time, with no faults and no
//! run-queue wait — the signature of a busy sibling hardware thread —
//! and of the candidates tried (a serial dispatch loop, a stack-machine
//! interpreter, pointer chases through L2, L3 and DRAM, bulk copies)
//! only throughput-bound arithmetic slowed by the same factor as the
//! farm's interpreter. Bulk copies (checkpoint restores) are kept as a
//! small part, so a host that is slow at those shows too.
//!
//! The kernel allocates once and frees nothing while the benchmark
//! runs: what the allocator does with freed memory changes the farm's
//! speed (see [`crate::host::retain_freed_memory`]), and the reference
//! must not be what decides that.

use std::hint::black_box;
use std::time::Instant;

const CHAIN_STEPS: u64 = 12_000_000;
const COPY_BYTES: usize = 4 << 20;
const COPIES: usize = 6;

/// The kernel's fixed inputs, built once per process.
pub struct Kernel {
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Default for Kernel {
    fn default() -> Kernel {
        Kernel::new()
    }
}

impl Kernel {
    /// Builds the copy buffers.
    pub fn new() -> Kernel {
        Kernel {
            src: (0..COPY_BYTES).map(|i| i as u8).collect(),
            dst: vec![0; COPY_BYTES],
        }
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();

        let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for step in 0..black_box(CHAIN_STEPS) {
            for (lane, x) in chains.iter_mut().enumerate() {
                *x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(step ^ lane as u64);
            }
        }
        black_box(chains);

        for _ in 0..COPIES {
            self.dst.copy_from_slice(black_box(&self.src));
            black_box(&mut self.dst);
        }

        started.elapsed().as_secs_f64()
    }
}
