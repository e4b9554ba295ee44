//! Property-based tests over the core invariants.
//!
//! The central claims under test:
//!
//! 1. a failure-oblivious execution **never faults** on memory errors —
//!    arbitrary pointer abuse is survived;
//! 2. bounds-checked executions **never corrupt** data outside the
//!    accessed data unit, whatever the access pattern;
//! 3. the object table is a faithful interval map under arbitrary
//!    insert/remove/lookup interleavings;
//! 4. the allocator never hands out overlapping blocks;
//! 5. the manufactured-value sequence covers all small integers.

use proptest::prelude::*;

use std::collections::btree_map::{BTreeMap, Entry};

use failure_oblivious::memory::{
    AccessCtx, AccessSize, FlatTable, Manufacturer, MemConfig, MemorySpace, Mode, Placement,
    SplayTable, Table, TableKind, UnitId, ValueSequence,
};
use failure_oblivious::{Machine, MachineConfig};

const CTX: AccessCtx = AccessCtx { func: 0, pc: 0 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both table structures, driven directly and through the `Table`
    /// enum a space holds, agree with an ordered-map model on arbitrary
    /// op sequences.
    #[test]
    fn object_tables_agree(ops in proptest::collection::vec((0u8..3, 0u64..64), 1..200)) {
        let mut splay = SplayTable::new();
        let mut flat = FlatTable::new();
        let mut held = TableKind::ALL.map(Table::new);
        // The reference: greatest base at or below the address, then the
        // bounds test.
        let mut model: BTreeMap<u64, Placement> = BTreeMap::new();
        for (i, (op, slot)) in ops.into_iter().enumerate() {
            // Non-overlapping 16-byte ranges at 32-byte strides.
            let base = slot * 32;
            match op {
                0 => {
                    if let Entry::Vacant(slot) = model.entry(base) {
                        let unit = UnitId(i as u32);
                        splay.insert(base, 16, unit);
                        flat.insert(base, 16, unit);
                        for t in &mut held {
                            t.insert(base, 16, unit);
                        }
                        slot.insert(Placement {
                            base,
                            size: 16,
                            unit,
                        });
                    }
                }
                1 => {
                    let want = model.remove(&base);
                    prop_assert_eq!(splay.remove(base), want);
                    prop_assert_eq!(flat.remove(base), want);
                    for t in &mut held {
                        prop_assert_eq!(t.remove(base), want);
                    }
                }
                _ => {
                    // Probe a few addresses around the slot.
                    for probe in [base, base + 8, base + 15, base + 16, base + 24] {
                        let want = model
                            .range(..=probe)
                            .next_back()
                            .map(|(_, pl)| *pl)
                            .filter(|pl| probe < pl.base + pl.size);
                        prop_assert_eq!(splay.lookup(probe), want, "probe {}", probe);
                        prop_assert_eq!(flat.lookup(probe), want, "probe {}", probe);
                        for t in &mut held {
                            prop_assert_eq!(t.lookup(probe), want, "probe {}", probe);
                        }
                    }
                }
            }
        }
        prop_assert_eq!(splay.len(), model.len());
        prop_assert_eq!(flat.len(), model.len());
        for t in &held {
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

    /// Guest programs performing random in-bounds array traffic compute
    /// identical results in every mode (checking is semantics-preserving).
    #[test]
    fn modes_agree_on_random_array_programs(
        writes in proptest::collection::vec((0u8..32, 0i64..1000), 1..24),
    ) {
        let mut body = String::from("int main() { long xs[32]; int i; for (i = 0; i < 32; i++) xs[i] = 0;\n");
        for (idx, val) in &writes {
            body.push_str(&format!("xs[{idx}] = xs[{idx}] * 7 + {val};\n"));
        }
        body.push_str("long acc = 0; for (i = 0; i < 32; i++) acc = acc * 31 + xs[i]; return (int)(acc % 1000000); }");
        let mut results = Vec::new();
        for mode in Mode::ALL {
            let mut m = Machine::from_source(&body, MachineConfig::with_mode(mode)).unwrap();
            results.push(m.call("main", &[]).unwrap());
        }
        for w in results.windows(2) {
            prop_assert_eq!(w[0], w[1]);
        }
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

    /// A failure-oblivious guest hammering a random out-of-bounds index
    /// pattern never faults and always runs to completion.
    #[test]
    fn fo_guest_never_faults_on_wild_indices(
        indices in proptest::collection::vec(-100i64..200, 1..24),
    ) {
        let mut body = String::from(
            "int main() { int xs[8]; int acc = 0; int i; for (i = 0; i < 8; i++) xs[i] = i;\n",
        );
        for idx in &indices {
            body.push_str(&format!("xs[{idx}] = acc; acc += xs[{idx}];\n"));
        }
        body.push_str("return acc & 0xFFFF; }");
        let mut m =
            Machine::from_source(&body, MachineConfig::with_mode(Mode::FailureOblivious)).unwrap();
        let r = m.call("main", &[]);
        prop_assert!(r.is_ok(), "FO must not fault: {:?}", r);
    }
}
