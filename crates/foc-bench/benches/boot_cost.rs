//! Criterion benchmark for the boot/restart cost the shared-image layer
//! eliminates: compiling a server from MiniC source on every boot
//! versus loading the interned [`foc_compiler::ProgramImage`].
//!
//! This is the capacity-planning number behind the farm's restart
//! supervision — a farm under persistent attack restarts constantly, so
//! the ratio between these two bars is the ratio between a farm that
//! spends its cores compiling and one that spends them serving.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use foc_memory::Mode;
use foc_servers::apache::ApacheWorker;
use foc_servers::farm::ServerKind;
use foc_servers::mutt::Mutt;
use foc_servers::BootSpec;

fn bench_compile_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("boot_cost");
    for kind in [ServerKind::Apache, ServerKind::Mutt] {
        group.bench_with_input(
            BenchmarkId::new("compile", kind.name()),
            &kind,
            |b, &kind| b.iter(|| kind.fresh_image()),
        );
    }
    group.finish();
}

fn bench_apache_boot(c: &mut Criterion) {
    let mut group = c.benchmark_group("boot_cost");
    group.bench_function("apache/cold_compile_boot", |b| {
        b.iter(|| {
            let spec = BootSpec::new(ServerKind::Apache, Mode::FailureOblivious);
            ApacheWorker::boot_image_spec(&ServerKind::Apache.fresh_image(), &spec)
        })
    });
    // Populate the cache outside the timed region.
    let _ = ServerKind::Apache.image();
    group.bench_function("apache/cached_image_boot", |b| {
        b.iter(|| ApacheWorker::boot(Mode::FailureOblivious))
    });
    group.finish();
}

fn bench_mutt_boot(c: &mut Criterion) {
    let mut group = c.benchmark_group("boot_cost");
    group.bench_function("mutt/cold_compile_boot", |b| {
        b.iter(|| {
            let spec = BootSpec::new(ServerKind::Mutt, Mode::FailureOblivious);
            Mutt::boot_image_spec(&ServerKind::Mutt.fresh_image(), &spec, 2)
        })
    });
    let _ = ServerKind::Mutt.image();
    group.bench_function("mutt/cached_image_boot", |b| {
        b.iter(|| Mutt::boot(Mode::FailureOblivious, 2))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compile_only,
    bench_apache_boot,
    bench_mutt_boot
);
criterion_main!(benches);
