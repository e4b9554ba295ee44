//! `restart_cost`, `native_cost` and `conn_cost`: one measurement and
//! its gate each. What each measures is documented where it is
//! measured (`farm_report`); what each gates, on its gate below.

use foc_bench::check::{check_gate, Args};
use foc_bench::farm_report::{
    conn_cost_smoke, measure_conn_cost, measure_native_cost, measure_restart_cost,
    measure_violation_throughput, ConnCost, NativeCost, RestartCost, ViolationThroughput,
    CONN_SLO_K, CONN_SMOKE_FLOOD, CONN_SMOKE_POOL, CONN_SMOKE_REQUESTS, CONN_SMOKE_SERVERS,
};

fn print_restart(cost: &RestartCost, violation: &ViolationThroughput) {
    eprintln!(
        "  cold boot+replay   {:>10.0} ns ± {:.0} ({} reps)",
        cost.cold_ns, cost.cold_ci95_ns, cost.reps
    );
    eprintln!(
        "  checkpoint restore {:>10.0} ns ± {:.0}  ({:.1}x faster; {} committed bytes copied)",
        cost.restore_ns,
        cost.restore_ci95_ns,
        cost.speedup(),
        cost.checkpoint_bytes
    );
    eprintln!(
        "  apache restore     {:>10.0} ns ± {:.0}  (shipped default, Bounds Check; {} bytes)",
        cost.apache_restore_ns, cost.apache_restore_ci95_ns, cost.apache_checkpoint_bytes
    );
    eprintln!(
        "  manufactured loop  {:>10.1} Minstr/s ± {:.1} ({} instrs/run)",
        violation.minstr_per_s, violation.minstr_ci95, violation.instrs
    );
}

/// The boot-checkpoint gate (mirroring the PR 2 boot-cost gate):
/// restoring a frozen boot snapshot must beat a cold boot plus
/// environment replay by at least 5×, or the O(1)-restart claim has
/// regressed; and the manufactured-loop measurement must run at all.
/// The log also shows the ungated Apache restore and the committed
/// bytes each restore copied: a restore costs what the process touched,
/// and a byte count that jumps is the first sign that rule has broken.
pub fn restart_gate(_: &Args) -> Result<String, String> {
    eprintln!("restart_cost --check: checkpoint restore vs cold boot+replay ...");
    let cost = measure_restart_cost(8);
    let violation = measure_violation_throughput(2);
    print_restart(&cost, &violation);
    check_gate(
        "checkpoint restore over cold boot+replay",
        cost.speedup(),
        5.0,
        &format!(
            "cold {:.0}ns vs restore {:.0}ns",
            cost.cold_ns, cost.restore_ns
        ),
    )?;
    if violation.minstr_per_s <= 0.0 {
        return Err("violation-throughput measurement produced no rate".to_string());
    }
    Ok(format!(
        "{:.1}x restore speedup, {:.1} Minstr/s manufactured loop",
        cost.speedup(),
        violation.minstr_per_s
    ))
}

fn print_tiers(cost: &NativeCost) {
    eprintln!(
        "  baseline tier {:>8.1} Minstr/s ± {:.1} ({} instrs/run, {} reps)",
        cost.baseline.minstr_per_s,
        cost.baseline.minstr_ci95,
        cost.baseline.instrs,
        cost.baseline.reps
    );
    eprintln!(
        "  native tier   {:>8.1} Minstr/s ± {:.1}  ({:.2}x baseline)",
        cost.native.minstr_per_s,
        cost.native.minstr_ci95,
        cost.speedup()
    );
}

/// The native-cost gate: AOT-lowered region execution must beat the
/// baseline interpreter by ≥2.5× on the dispatch-bound local arithmetic
/// loop, both tiers retiring identical instruction counts; 2.5× holds
/// with room on noisy CI hosts. (The counted copy loop is judged end to
/// end by `mc_copy` and, deterministically, by `residency --check`'s
/// `batched%` floor.)
pub fn native_gate(_: &Args) -> Result<String, String> {
    let what = "native region execution over the baseline interpreter";
    eprintln!("native_cost --check: {what} ...");
    let cost = measure_native_cost(8);
    print_tiers(&cost);
    if cost.native.instrs != cost.baseline.instrs {
        return Err(format!(
            "tiers must retire identical instruction counts on the dispatch loop: \
             baseline {} vs native {}",
            cost.baseline.instrs, cost.native.instrs
        ));
    }
    check_gate(
        what,
        cost.speedup(),
        2.5,
        &format!(
            "{:.1} vs {:.1} Minstr/s",
            cost.native.minstr_per_s, cost.baseline.minstr_per_s
        ),
    )?;
    Ok(format!(
        "{:.2}x dispatch loop native over baseline",
        cost.speedup()
    ))
}

/// The CI bar on the socket edge's overhead: clean socket transport
/// must stay within this factor of the in-process wall time. The
/// measured overhead is well under 2× on the development host (the
/// framing layer moves a few hundred bytes per request through bounded
/// buffers); 4× holds with room on noisy CI hosts.
const OVERHEAD_CEILING: f64 = 4.0;

/// The CI floor on the connection-level SLO, in basis points: at least
/// 75% of completed requests within 4× the median service latency.
/// The Apache workload's measured value sits above 90% (the heavy tail
/// is the big-file GET plus attack recoveries); 7500 leaves room for
/// workload drift without letting a latency regression hide.
const SLO_FLOOR_BP: u64 = 7_500;

fn print_conn(cost: &ConnCost) {
    eprintln!(
        "  in-process       {:>7.2} ms ± {:.2} ({:.0} req/s host, {} servers x {} reqs, {} reps)",
        cost.in_process.wall_ms,
        cost.in_process.wall_ms_ci95,
        cost.in_process.host_rps,
        cost.servers,
        cost.requests,
        cost.in_process.reps
    );
    eprintln!(
        "  socket           {:>7.2} ms ± {:.2} ({:.0} req/s host, {:.2}x in-process)",
        cost.socket.wall_ms,
        cost.socket.wall_ms_ci95,
        cost.socket.host_rps,
        cost.socket_overhead()
    );
    eprintln!(
        "  socket-slow-loris{:>7.2} ms ± {:.2} ({:.0} req/s host)",
        cost.slow_loris.wall_ms, cost.slow_loris.wall_ms_ci95, cost.slow_loris.host_rps
    );
    eprintln!(
        "  socket-disconnect{:>7.2} ms ± {:.2} ({:.0} req/s host)",
        cost.disconnect.wall_ms, cost.disconnect.wall_ms_ci95, cost.disconnect.host_rps
    );
    eprintln!(
        "  SLO: {} bp of completed requests within {}x median service latency",
        cost.slo_within_bp, CONN_SLO_K
    );
}

/// The connection-edge gate, four assertions:
/// 1. every socket scenario reproduces the in-process report
///    byte-for-byte — framing, backpressure, and readiness loops are
///    transport, never content (checked inside the measurement);
/// 2. clean socket transport stays within [`OVERHEAD_CEILING`] of the
///    in-process wall time;
/// 3. the connection-level SLO holds: ≥ [`SLO_FLOOR_BP`] basis points
///    of completed requests land within 4× the median service latency;
/// 4. a 100k-connection smoke farm — 256 servers × 404 connection
///    attempts each, accept-queue floods included — loses no request.
pub fn conn_gate(_: &Args) -> Result<String, String> {
    eprintln!("conn_cost --check: socket edge vs in-process, report equality enforced ...");
    let cost = measure_conn_cost(4)?;
    print_conn(&cost);
    if cost.socket_overhead() > OVERHEAD_CEILING {
        return Err(format!(
            "socket transport overhead blew its ceiling: {:.2} vs {:.2} ms is {:.2}x \
             in-process, ceiling {OVERHEAD_CEILING}x",
            cost.socket.wall_ms,
            cost.in_process.wall_ms,
            cost.socket_overhead()
        ));
    }
    if cost.slo_within_bp < SLO_FLOOR_BP {
        return Err(format!(
            "connection-level SLO broke: {} bp of completed requests within {}x median \
             service latency, floor {} bp",
            cost.slo_within_bp, CONN_SLO_K, SLO_FLOOR_BP
        ));
    }
    let connections_per_server = CONN_SMOKE_POOL + CONN_SMOKE_FLOOD;
    eprintln!(
        "conn_cost --check: connection smoke, {} servers x {} connection attempts ...",
        CONN_SMOKE_SERVERS, connections_per_server
    );
    let (report, connections) = conn_cost_smoke();
    eprintln!(
        "  {} simulated connections, {}/{} requests completed, {:.1} ms",
        connections, report.stats.completed, report.stats.requests, report.host_wall_ms
    );
    if connections < 100_000 {
        return Err(format!(
            "connection smoke opened only {connections} connections; the gate requires 100k+"
        ));
    }
    let expected = (CONN_SMOKE_SERVERS * CONN_SMOKE_REQUESTS) as u64;
    if report.stats.requests != expected {
        return Err(format!(
            "connection smoke issued {} requests, want {expected}",
            report.stats.requests
        ));
    }
    if report.stats.completed + report.stats.dropped != report.stats.requests {
        return Err(format!(
            "connection smoke lost requests: {} completed + {} dropped != {} issued",
            report.stats.completed, report.stats.dropped, report.stats.requests
        ));
    }
    Ok(format!(
        "{:.2}x socket overhead, {} bp SLO, {} connections",
        cost.socket_overhead(),
        cost.slo_within_bp,
        connections
    ))
}
