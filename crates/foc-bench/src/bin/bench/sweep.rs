//! `mode_sweep`: the mode search-space sweep driver. Runs the full
//! recovery-mode × value-sequence × fuel grid over all five servers and
//! the benign + §4/§5.1 attack input library, classifies every run into
//! the stable outcome taxonomy, and maintains the committed matrix record
//! (`SWEEP_matrix.json` + rendered `SWEEP_matrix.md`).

use foc_bench::check::Args;
use foc_bench::paper::diff_report;
use foc_bench::sweep_report::{rendered, MATRIX_MD_PATH, MATRIX_PATH};
use foc_memory::Mode;
use foc_servers::conn::{Edge, SocketEdge};
use foc_servers::sweep::{grid, reference_transcripts, run_cells, SweepMatrix, INPUT_LIBRARY};
use foc_servers::{BootSpec, ServerKind};

/// Inputs a sweep worker runs before yielding its cell back.
const SLICE_INPUTS: usize = 4;

/// The configurations the gate renders the whole matrix at, each a base
/// spec constructor and an edge: what ships, the reference oracle
/// (baseline tier over the reference table), and the socket edge.
type GatePoint = (&'static str, fn(ServerKind, Mode) -> BootSpec, Edge);

fn gate_points() -> [GatePoint; 3] {
    [
        ("shipped", BootSpec::new, Edge::InProcess),
        ("oracle", BootSpec::oracle, Edge::InProcess),
        (
            "socket edge",
            BootSpec::new,
            Edge::Socket(SocketEdge::default()),
        ),
    ]
}

/// The whole grid, run on `base` over `edge` with `threads` workers.
fn sweep(base: fn(ServerKind, Mode) -> BootSpec, edge: &Edge, threads: usize) -> SweepMatrix {
    let reference = reference_transcripts(base, edge);
    let cells = run_cells(&grid(), &reference, base, edge, threads, SLICE_INPUTS);
    SweepMatrix { reference, cells }
}

/// The outcome-matrix gate: renders the whole grid afresh at every one
/// of [`gate_points`] and holds both committed files to it line for
/// line, so any semantic drift in the recovery substrate — or a
/// configuration that stops being observably the same — fails with a
/// one-line diagnostic naming the file and line.
pub fn gate(args: &Args) -> Result<String, String> {
    let points = gate_points();
    eprintln!(
        "mode_sweep --check: {} cells x {} inputs at {} points ...",
        grid().len(),
        INPUT_LIBRARY.len(),
        points.len()
    );
    let mut lines = 0;
    for (name, base, edge) in &points {
        lines = 0;
        for (path, fresh) in rendered(&sweep(*base, edge, args.threads)) {
            let committed = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read committed {path}: {e}"))?;
            lines += diff_report(path, &committed, &fresh).map_err(|e| {
                format!("{name}: {e} (`bench mode_sweep` re-records a change that is meant)")
            })?;
        }
    }
    Ok(format!(
        "{} cells, {lines} lines of {MATRIX_PATH} + {MATRIX_MD_PATH} match at {}",
        grid().len(),
        points.map(|(name, ..)| name).join(", ")
    ))
}

/// The full grid on `--threads N` workers (default 4), on what ships:
/// writes both matrix files.
pub fn full(args: &Args) -> Result<(), String> {
    let threads = args.threads;
    eprintln!(
        "mode_sweep: {} cells x {} inputs on {threads} threads",
        grid().len(),
        INPUT_LIBRARY.len()
    );
    let matrix = sweep(BootSpec::new, &Edge::InProcess, threads);
    for (path, text) in rendered(&matrix) {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }

    // Class histogram, for the console.
    let mut counts = std::collections::BTreeMap::new();
    for cell in &matrix.cells {
        for run in &cell.runs {
            *counts.entry(run.class.name()).or_insert(0usize) += 1;
        }
    }
    for (class, n) in &counts {
        println!("  {class:<22} {n:>5}");
    }
    println!(
        "wrote {MATRIX_PATH} + {MATRIX_MD_PATH} ({} cells)",
        matrix.cells.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row deleted by accident fails here, not in review.
    #[test]
    fn the_gate_covers_the_shipped_default_the_oracle_tier_and_the_socket_edge() {
        use foc_memory::TableKind;
        use foc_servers::farm::FarmConfig;
        use foc_servers::ExecTier;

        let (kind, mode) = (ServerKind::Apache, Mode::FailureOblivious);
        let shipped = FarmConfig::new(kind, mode);
        let points = gate_points();
        let at = |spec: BootSpec, edge: &Edge| {
            points
                .iter()
                .any(|(_, base, e)| base(kind, mode) == spec && e == edge)
        };
        assert!(at(shipped.boot_spec(), &shipped.edge), "what ships");
        // The oracle point boots the oracle's tier *and* its table.
        let oracle = BootSpec::oracle(kind, mode);
        assert_eq!(
            (oracle.tier, oracle.table),
            (ExecTier::Baseline, TableKind::Reference)
        );
        assert!(at(oracle, &Edge::InProcess), "the oracle tier and table");
        assert!(
            points.iter().any(|(_, _, e)| matches!(e, Edge::Socket(_))),
            "the socket edge"
        );
    }
}
