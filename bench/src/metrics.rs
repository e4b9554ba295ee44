//! Named metrics and the result line the driver reads.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Names and units of the end-to-end metrics (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_rps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("vcycles_per_req", "cycles"),
];

/// Names and units of the per-layer metrics (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 35] = [
    ("lang.frontend_ms", "ms"),
    ("compiler.lower_ms", "ms"),
    ("compiler.tier_ms", "ms"),
    ("compiler.image_instrs", "count"),
    ("image.cold_boot_us", "us"),
    ("image.restore_us", "us"),
    ("supervisor.restarts_per_kreq", "count"),
    ("supervisor.restart_us", "us"),
    ("vm.instrs_per_req", "count"),
    ("vm.calls_per_kinstr", "count"),
    ("vm.io_cycle_share", "ratio"),
    ("vm.ns_per_instr", "ns"),
    ("memory.checked_per_kinstr", "count"),
    ("memory.invalid_per_kreq", "count"),
    ("memory.mallocs_per_kreq", "count"),
    ("memory.hit_ns", "ns"),
    ("memory.violation_ns", "ns"),
    ("memory.malloc_free_ns", "ns"),
    ("memory.clone_us", "us"),
    ("memory.est_share", "ratio"),
    ("driver.req_p50_us", "us"),
    ("driver.req_p99_us", "us"),
    ("driver.fo_over_std", "ratio"),
    ("farm.guest_share", "ratio"),
    ("farm.boot_share", "ratio"),
    ("farm.unattributed_share", "ratio"),
    ("farm.speedup_t2", "ratio"),
    ("farm.cpu_per_wall", "ratio"),
    ("conn.overhead_us_per_req", "us"),
    ("conn.edge_share", "ratio"),
    ("host.nproc", "count"),
    ("host.rep_wall_p50_ms", "ms"),
    ("host.rep_wall_p90_ms", "ms"),
    ("host.noise_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Builds a run's metric list from `(name, value)` pairs, taking units
/// from `table` and insisting that exactly the table's names appear.
///
/// # Panics
///
/// Panics on a missing, unknown or repeated name (a harness bug).
pub fn collect(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    assert_eq!(
        values.len(),
        table.len(),
        "metric count differs from its table"
    );
    table
        .iter()
        .map(|&(name, unit)| {
            let mut found = values.iter().filter(|(n, _)| *n == name);
            let value = found
                .next()
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            assert!(found.next().is_none(), "metric {name} measured twice");
            Metric { name, unit, value }
        })
        .collect()
}

/// JSON number with every digit the measurement has. Non-finite values
/// have no JSON spelling; they become `null` and the run is incorrect.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// The run's last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}
