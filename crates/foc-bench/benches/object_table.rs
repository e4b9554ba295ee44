//! Criterion micro-benchmarks: the shipped sorted-vector object table
//! against the oracle splay tree, each driven through the `Table` enum a
//! space holds, under server-like access traces (real wall time — this
//! is the one place the repository measures host performance rather
//! than virtual time).
//!
//! The table holds as many units as a guest server does (a few dozen;
//! `tests/substrate_props.rs` pins the bound). The local trace is what
//! both structures are built for — long runs on one unit, served by the
//! vector's last-hit memo and the tree's splayed root; the
//! uniform-random trace defeats both.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use foc_memory::{Table, TableKind, UnitId};

const UNITS: u64 = 32;

fn populated(kind: TableKind) -> Table {
    let mut t = Table::new(kind);
    for i in 0..UNITS {
        t.insert(i * 64, 48, UnitId(i as u32));
    }
    t
}

/// A server-like trace: long runs of accesses to the same few units.
fn local_trace() -> Vec<u64> {
    let mut trace = Vec::with_capacity(10_000);
    let mut unit = 7u64;
    for i in 0..10_000u64 {
        if i % 200 == 0 {
            unit = (unit * 31 + 17) % UNITS;
        }
        trace.push(unit * 64 + (i % 48));
    }
    trace
}

/// A uniform-random trace (adversarial for memo and splayed root alike).
fn random_trace() -> Vec<u64> {
    let mut x = 0x12345678u64;
    (0..10_000)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % (UNITS * 64)
        })
        .collect()
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("object_table_lookup");
    for (trace_name, trace) in [("local", local_trace()), ("random", random_trace())] {
        for kind in TableKind::ALL {
            let id = BenchmarkId::new(kind.name(), trace_name);
            group.bench_with_input(id, &trace, |b, trace| {
                let mut t = populated(kind);
                b.iter(|| {
                    let mut hits = 0u64;
                    for &addr in trace {
                        if t.lookup(std::hint::black_box(addr)).is_some() {
                            hits += 1;
                        }
                    }
                    hits
                });
            });
        }
    }
    group.finish();
}

fn bench_churn(c: &mut Criterion) {
    // Allocation churn: insert/remove cycles as malloc/free drives them.
    let mut group = c.benchmark_group("object_table_churn");
    for kind in TableKind::ALL {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut t = Table::new(kind);
                for round in 0..64u64 {
                    for i in 0..UNITS {
                        t.insert(i * 64 + round, 32, UnitId(i as u32));
                    }
                    for i in 0..UNITS {
                        t.remove(i * 64 + round);
                    }
                }
                t.len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lookup, bench_churn);
criterion_main!(benches);
