//! The harness's request streams: determinism, and the pinned mix.

use foc_farm_bench::replay::{mix, mix_deviation, nominal_mix, pick_farm_seed, Op, Stream};
use foc_farm_bench::workloads::WORKLOADS;
use foc_servers::farm::ServerKind;

fn stream(kind: ServerKind, seed: u64, n: usize) -> Vec<Op> {
    let mut stream = Stream::new(kind, (1, 8), seed, 0);
    (0..n)
        .map(|_| {
            let attack = stream.draw_attack();
            let op = stream.generate(attack);
            stream.observe(&op, true);
            op
        })
        .collect()
}

#[test]
fn the_same_seed_gives_the_same_stream() {
    for kind in [ServerKind::Apache, ServerKind::Pine, ServerKind::Mc] {
        assert_eq!(
            stream(kind, 42, 200),
            stream(kind, 42, 200),
            "{}",
            kind.name()
        );
    }
}

#[test]
fn another_seed_gives_another_stream() {
    for kind in [ServerKind::Apache, ServerKind::Pine, ServerKind::Mc] {
        assert_ne!(
            stream(kind, 42, 200),
            stream(kind, 43, 200),
            "{}",
            kind.name()
        );
    }
}

#[test]
fn servers_of_one_farm_get_unrelated_streams() {
    let mut a = Stream::new(ServerKind::Pine, (1, 8), 42, 0);
    let mut b = Stream::new(ServerKind::Pine, (1, 8), 42, 1);
    let draws = |s: &mut Stream| -> Vec<Op> {
        (0..50)
            .map(|_| {
                let attack = s.draw_attack();
                s.generate(attack)
            })
            .collect()
    };
    assert_ne!(draws(&mut a), draws(&mut b));
}

#[test]
fn every_request_class_occurs_at_about_its_weight() {
    for workload in &WORKLOADS {
        let config = workload.config(1, false);
        let counts = mix(&config, 0xABCDEF);
        let nominal = nominal_mix(&config);
        assert_eq!(
            counts.iter().sum::<u64>() as usize,
            config.servers * config.requests_per_server
        );
        assert!((nominal.iter().sum::<f64>() - counts.iter().sum::<u64>() as f64).abs() < 1e-6);
        // Chi-square with four degrees of freedom: 20 is the 99.95th
        // percentile, so a faithful transcription of the weights passes.
        if counts.iter().sum::<u64>() >= 1000 {
            assert!(
                mix_deviation(&counts, &nominal) < 20.0,
                "{}: {counts:?} against {nominal:?}",
                workload.name
            );
        }
    }
}

#[test]
fn the_farm_seed_is_a_function_of_the_harness_seed() {
    let config = WORKLOADS[0].config(1, false);
    assert_eq!(pick_farm_seed(&config, 7), pick_farm_seed(&config, 7));
    assert_ne!(pick_farm_seed(&config, 7), pick_farm_seed(&config, 8));
}

#[test]
fn the_picked_seed_pins_the_mix() {
    // Across harness seeds the picked streams carry nearly the same
    // number of requests of every class; arbitrary seeds do not.
    for workload in &WORKLOADS {
        let base = workload.config(1, false);
        let nominal = nominal_mix(&base);
        let picked: Vec<f64> = (1..=8)
            .map(|seed| mix_deviation(&mix(&base, pick_farm_seed(&base, seed)), &nominal))
            .collect();
        let arbitrary: Vec<f64> = (1..=8)
            .map(|seed| mix_deviation(&mix(&base, seed), &nominal))
            .collect();
        let worst = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
        assert!(
            worst(&picked) < worst(&arbitrary),
            "{}: picked {picked:?}, arbitrary {arbitrary:?}",
            workload.name
        );
    }
}
