//! `BENCHMARK.json` and the harness must name the same workloads and
//! metrics, with the same units: the driver rejects a run whose result
//! line strays from the file.

use foc_farm_bench::metrics::{END_TO_END, PER_LAYER};
use foc_farm_bench::workloads::WORKLOADS;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The text of the top-level array `key`.
fn section(key: &str) -> &'static str {
    let start = BENCHMARK
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"));
    let rest = &BENCHMARK[start..];
    &rest[..rest
        .find("\n  ]")
        .expect("array closes at top-level indent")]
}

fn names(section: &str) -> Vec<&str> {
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').unwrap()])
        .collect()
}

#[test]
fn workloads_match() {
    let listed = names(section("workloads"));
    let ours: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed, ours);
}

#[test]
fn metrics_match_by_name_and_unit() {
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let text = section(key);
        let ours: Vec<_> = table.iter().map(|(name, _)| *name).collect();
        assert_eq!(names(text), ours, "{key}");
        for (name, unit) in table {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{key}: {name} is not listed with unit {unit}"
            );
        }
    }
}

#[test]
fn setup_has_the_largest_bound() {
    let bounds: Vec<(&str, f64)> = section("end_to_end")
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| {
            let name = &rest[..rest.find('"').unwrap()];
            let bound = rest.split("\"bound\": ").nth(1).unwrap();
            let bound = bound[..bound.find('}').unwrap()].trim().parse().unwrap();
            (name, bound)
        })
        .collect();
    let setup = bounds.iter().find(|(n, _)| *n == "setup_s").unwrap().1;
    assert!(bounds.iter().all(|&(_, b)| b <= setup && b <= 0.25));
}
