//! Property-based tests over the core invariants.
//!
//! The central claims under test:
//!
//! 1. bounds-checked executions **never corrupt** data outside the
//!    accessed data unit, whatever the access pattern;
//! 2. the object table is a faithful interval map under arbitrary
//!    insert/remove/lookup interleavings;
//! 3. the allocator never hands out overlapping blocks;
//! 4. the manufactured-value sequence covers all small integers.
//!
//! That a failure-oblivious guest never faults on its memory errors, and
//! that a guest without any computes the same in every mode, is stated
//! over generated programs (`crates/foc-servers/tests/equiv/gen.rs`).

use proptest::prelude::*;

use std::collections::btree_map::{BTreeMap, Entry};

use failure_oblivious::memory::{
    AccessCtx, AccessSize, FlatTable, Manufacturer, MemConfig, MemorySpace, Mode, Placement, Table,
    TableKind, UnitId, ValueSequence,
};
use failure_oblivious::{Machine, MachineConfig};

const CTX: AccessCtx = AccessCtx { func: 0, pc: 0 };

/// First byte of a 32-byte slot: the low 56 slots count up from 0, the
/// top 8 end at `u64::MAX`, so the containment test runs at the top of
/// the address space too. A slot's low half holds at most one run, its
/// high half at most one unit registered on its own (in the top slot,
/// one that ends at `u64::MAX`).
fn slot_base(slot: u64) -> u64 {
    if slot < 56 {
        slot * 32
    } else {
        u64::MAX - (64 - slot) * 32 + 1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every table kind through the `Table` enum a space holds, and a
    /// `FlatTable` built by its own constructor rather than with room,
    /// agree with an ordered-map model on arbitrary interleavings of
    /// unit inserts and removes, frame-shaped runs pushed and popped
    /// like a stack, and lookups.
    #[test]
    fn object_tables_agree(ops in proptest::collection::vec((0u8..5, 0u64..64, 0u64..16), 1..200)) {
        let mut tables: Vec<Table> = TableKind::ALL
            .map(Table::new)
            .into_iter()
            .chain([Table::Flat(FlatTable::new())])
            .collect();
        // The reference: greatest base at or below the address, then the
        // bounds test.
        let mut model: BTreeMap<u64, Placement> = BTreeMap::new();
        // Live runs, most recent last, by the slot whose low half holds
        // each.
        let mut runs: Vec<(u64, Vec<Placement>)> = Vec::new();
        for (i, (op, slot, shape)) in ops.into_iter().enumerate() {
            let base = slot_base(slot);
            let single = base + 16;
            let unit = |j: u64| UnitId((i as u64 * 4 + j) as u32);
            match op {
                0 => {
                    if let Entry::Vacant(at) = model.entry(single) {
                        let p = *at.insert(Placement { base: single, size: 16, unit: unit(0) });
                        tables.iter_mut().for_each(|t| t.insert(p.base, p.size, p.unit));
                    }
                }
                1 => {
                    let want = model.remove(&single);
                    for t in &mut tables {
                        prop_assert_eq!(t.remove(single), want);
                    }
                }
                2 => {
                    // Every third byte of the slot, its last, the byte
                    // before it and the top of the address space.
                    let probes = (0..32).step_by(3).chain([31]).map(|off| base + off);
                    for probe in probes.chain([base.wrapping_sub(1), u64::MAX]) {
                        let want = model
                            .range(..=probe)
                            .next_back()
                            .map(|(_, p)| *p)
                            .filter(|p| probe - p.base < p.size);
                        for t in &mut tables {
                            prop_assert_eq!(t.lookup(probe), want, "probe {}", probe);
                        }
                    }
                }
                3 => {
                    // A frame: 1–4 base-sorted units of 1–4 bytes at
                    // 4-byte strides in the slot's low half, a gap no
                    // live unit is in.
                    if runs.iter().all(|&(s, _)| s != slot) {
                        let run: Vec<Placement> = (0..1 + shape % 4)
                            .map(|j| Placement {
                                base: base + 4 * j,
                                size: 1 + (shape / 4 + j) % 4,
                                unit: unit(j),
                            })
                            .collect();
                        model.extend(run.iter().map(|p| (p.base, *p)));
                        tables.iter_mut().for_each(|t| t.insert_run(&run));
                        runs.push((slot, run));
                    }
                }
                _ => {
                    if let Some((_, run)) = runs.pop() {
                        run.iter().for_each(|p| {
                            model.remove(&p.base);
                        });
                        for t in &mut tables {
                            prop_assert!(t.remove_run(&run), "the run is registered");
                        }
                    }
                }
            }
        }
        for t in &tables {
            prop_assert_eq!(t.len(), model.len());
        }
    }

    /// The allocator never hands out overlapping blocks, across arbitrary
    /// malloc/free interleavings and sizes.
    #[test]
    fn allocator_blocks_never_overlap(ops in proptest::collection::vec((any::<bool>(), 1u64..300), 1..150)) {
        let mut space = MemorySpace::new(MemConfig::with_mode(Mode::Standard));
        let mut live: Vec<(u64, u64)> = Vec::new();
        for (is_alloc, size) in ops {
            if is_alloc || live.is_empty() {
                if let Ok(p) = space.malloc(size) {
                    for &(q, qsize) in &live {
                        let disjoint = p + size <= q || q + qsize <= p;
                        prop_assert!(disjoint, "overlap: [{p}, +{size}) vs [{q}, +{qsize})");
                    }
                    live.push((p, size));
                }
            } else {
                let (p, _) = live.swap_remove(0);
                space.free(p, CTX).unwrap();
            }
        }
    }

    /// Bounds-checked stores through arbitrary offsets never reach any
    /// other data unit: the victim's contents are invariant.
    #[test]
    fn checked_stores_cannot_corrupt_neighbours(
        offsets in proptest::collection::vec(-512i64..512, 1..64),
    ) {
        let mut space = MemorySpace::new(MemConfig::with_mode(Mode::FailureOblivious));
        let victim = space.malloc(32).unwrap();
        for i in 0..4 {
            space.store(victim + i * 8, AccessSize::B8, 0xA5A5_0000 + i, CTX).unwrap();
        }
        let attacker = space.malloc(16).unwrap();
        for off in offsets {
            let p = space.ptr_add(attacker, off);
            // Never a fault in FO mode; OOB writes are discarded.
            space.store(p, AccessSize::B8, 0xDEAD_BEEF, CTX).unwrap();
        }
        for i in 0..4 {
            let v = space.load(victim + i * 8, AccessSize::B8, CTX).unwrap();
            prop_assert_eq!(v.value, 0xA5A5_0000 + i, "victim word {} corrupted", i);
        }
    }

    /// Pointer arithmetic round trip: wandering out of bounds and back
    /// always restores an ordinary, dereferenceable pointer.
    #[test]
    fn oob_pointer_round_trip(walk in proptest::collection::vec(-64i64..64, 1..40)) {
        let mut space = MemorySpace::new(MemConfig::with_mode(Mode::BoundsCheck));
        let p = space.malloc(16).unwrap();
        space.store(p, AccessSize::B1, 0x7E, CTX).unwrap();
        let mut q = p;
        let mut logical: i64 = 0;
        for step in walk {
            q = space.ptr_add(q, step);
            logical += step;
            prop_assert_eq!(space.effective_addr(q), p.wrapping_add(logical as u64));
        }
        // Walk back to the base and dereference.
        let back = space.ptr_add(q, -logical);
        prop_assert_eq!(back, p);
        prop_assert_eq!(space.load(back, AccessSize::B1, CTX).unwrap().value, 0x7E);
    }

    /// The cycling sequence visits every value below its wrap limit.
    #[test]
    fn manufactured_sequence_covers_small_integers(wrap in 3u64..64) {
        let mut m = Manufacturer::new(ValueSequence::Cycling { wrap });
        let mut seen = vec![false; wrap as usize];
        for _ in 0..(wrap * 3 + 3) {
            let v = m.next_value();
            prop_assert!(v < wrap, "value {} exceeds wrap {}", v, wrap);
            seen[v as usize] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// For every `(size, signed)` and every 8 bytes of frame content, the
    /// operand the native executor decodes — the sealed 8-byte kind or a
    /// narrower slot — reads what `LoadLocal` pushes on the baseline tier.
    #[test]
    fn sealed_frame_operands_read_what_load_local_pushes(
        content in any::<i64>(),
        other in any::<i64>(),
        second in any::<bool>(),
    ) {
        use failure_oblivious::compiler::native::{NOp, Src};
        use failure_oblivious::compiler::{CompiledFunc, CompiledProgram, FrameLayout, Instr, ProgramImage};
        let off = if second { 8 } else { 0 };
        let args = if second { [other, content] } else { [content, other] };
        for size in [AccessSize::B1, AccessSize::B2, AccessSize::B4, AccessSize::B8] {
            for signed in [false, true] {
                let program = CompiledProgram {
                    funcs: vec![CompiledFunc {
                        name: "f".to_owned(),
                        param_count: 2,
                        frame: FrameLayout { slots: vec![(0, 8), (8, 8)], total: 16 },
                        code: vec![Instr::LoadLocal(off, size, signed), Instr::Ret],
                    }],
                    ..CompiledProgram::default()
                };
                let native = ProgramImage::with_native(program.clone());
                let ops = &native.native_func(0).expect("native image").regions[0].ops;
                let sealed = matches!(ops[..], [NOp::Mov { src: Src::Slot8(at), .. }] if at == off);
                prop_assert_eq!(sealed, size == AccessSize::B8, "{:?}", ops);
                let run = |image: ProgramImage| {
                    let mut m = Machine::load(image, MachineConfig::default()).unwrap();
                    (m.call("f", &args), m.observe())
                };
                prop_assert_eq!(run(native), run(ProgramImage::new(program)));
            }
        }
    }
}
