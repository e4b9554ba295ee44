//! `mode_sweep`: the mode search-space sweep driver. Runs the full
//! recovery-mode × value-sequence × fuel × table-backend grid over all
//! five servers and the benign + §4/§5.1 attack input library,
//! classifies every run into the stable outcome taxonomy, and maintains
//! the committed matrix record (`SWEEP_matrix.json` + rendered
//! `SWEEP_matrix.md`).

use std::time::Instant;

use foc_bench::check::{record_farm_row, Args};
use foc_bench::farm_report::{mode_sweep_fingerprint, mode_sweep_row_json};
use foc_bench::sweep_report::{
    diff_against_committed, merge_cells, parse_matrix_json, render_matrix_json,
    render_matrix_markdown, split_resume, MATRIX_MD_PATH, MATRIX_PATH,
};
use foc_compiler::ExecTier;
use foc_servers::conn::{Edge, SocketEdge};
use foc_servers::sweep::{reference_transcripts, run_cells, SweepGrid, SweepMatrix, INPUT_LIBRARY};

/// Cells per incremental chunk: small enough that an interrupt loses
/// little work, large enough that the work-stealing pool stays busy.
const CHUNK_CELLS: usize = 12;

/// Inputs a sweep worker runs before yielding its cell back.
const SLICE_INPUTS: usize = 4;

/// The configurations the gate drives the pinned sub-grid on: what
/// ships, the interpreted oracle tier, and the socket edge. (The object
/// table is a cell coordinate, so both tables run at every point.)
fn gate_points() -> [(&'static str, ExecTier, Edge); 3] {
    [
        ("shipped", ExecTier::default(), Edge::InProcess),
        ("baseline oracle", ExecTier::Baseline, Edge::InProcess),
        (
            "socket edge",
            ExecTier::default(),
            Edge::Socket(SocketEdge::default()),
        ),
    ]
}

/// The outcome-matrix gate: re-runs the pinned sweep sub-grid fresh and
/// diffs outcome classes + transcripts against the committed
/// `SWEEP_matrix.json`, so any semantic drift in the recovery substrate
/// fails with a one-line diagnostic. Cell fingerprints exclude tier and
/// edge by construction, so the same committed bytes must come back at
/// every one of [`gate_points`].
pub fn gate(args: &Args) -> Result<String, String> {
    let committed = std::fs::read_to_string(MATRIX_PATH)
        .map_err(|e| format!("cannot read committed {MATRIX_PATH}: {e}"))?;
    let committed = parse_matrix_json(&committed)?;
    let grid = SweepGrid::pinned();
    let mut cells = grid.cells();
    // Plus the pinned manufactured-loop fuel-out cell: a constant-1
    // sequence MC scan exercises the batched violation path at full
    // storm intensity, and its transcript must still match the
    // committed matrix byte for byte.
    cells.extend(SweepGrid::pinned_extra_cells());
    let points = gate_points();
    eprintln!(
        "mode_sweep --check: pinned sub-grid, {} cells x {} inputs at {} points ...",
        cells.len(),
        INPUT_LIBRARY.len(),
        points.len()
    );
    let mut compared = 0;
    for (name, tier, edge) in &points {
        let reference = reference_transcripts(*tier, edge);
        let fresh = run_cells(&cells, &reference, *tier, edge, args.threads, SLICE_INPUTS);
        compared = diff_against_committed(&committed, &reference, &fresh)
            .map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(format!(
        "{} cells, {} x {compared} runs match the committed matrix ({})",
        cells.len(),
        points.len(),
        points.map(|(name, ..)| name).join(", ")
    ))
}

/// The full grid on `--threads N` workers (default 4). Writes the
/// matrix after every chunk of cells, so an interrupted run leaves a
/// valid partial file; on completion renders the markdown matrix and
/// upserts a wall-time row into `BENCH_farm.json`'s `mode_sweep_runs`
/// trajectory. `--resume` reuses every cell of the existing
/// `SWEEP_matrix.json` whose fingerprint matches the current sweep
/// contract (and whose file-level reference transcripts match a fresh
/// computation), runs only the missing cells, and produces a file
/// byte-identical to a from-scratch run.
pub fn full(args: &Args) -> Result<(), String> {
    let threads = args.threads;
    let grid = SweepGrid::full();
    let all = grid.cells();
    let started = Instant::now();
    let (tier, edge) = (ExecTier::default(), Edge::InProcess);
    let reference = reference_transcripts(tier, &edge);

    let parsed = if args.has("--resume") {
        match std::fs::read_to_string(MATRIX_PATH) {
            Ok(text) => match parse_matrix_json(&text) {
                Ok(parsed) => Some(parsed),
                Err(e) => {
                    eprintln!("mode_sweep: ignoring unreadable {MATRIX_PATH}: {e}");
                    None
                }
            },
            Err(_) => None,
        }
    } else {
        None
    };
    let (reused, missing) = split_resume(&all, parsed.as_ref(), &reference);
    eprintln!(
        "mode_sweep: {} cells x {} inputs ({} reused, {} to run, {} threads)",
        all.len(),
        INPUT_LIBRARY.len(),
        reused.len(),
        missing.len(),
        threads
    );

    // Run the missing cells chunk by chunk, writing the partial matrix
    // after each chunk so an interrupted sweep can resume.
    let mut done = reused;
    for (i, chunk) in missing.chunks(CHUNK_CELLS).enumerate() {
        let fresh = run_cells(chunk, &reference, tier, &edge, threads, SLICE_INPUTS);
        done.extend(fresh);
        // Partial file: completed cells only, canonical grid order.
        let completed: Vec<_> = all
            .iter()
            .filter(|spec| done.iter().any(|c| c.cell == **spec))
            .copied()
            .collect();
        let partial = SweepMatrix {
            grid: grid.clone(),
            reference: reference.clone(),
            cells: merge_cells(&completed, vec![done.clone()]),
        };
        std::fs::write(MATRIX_PATH, render_matrix_json(&partial)).expect("write matrix");
        eprintln!(
            "  chunk {}/{}: {} / {} cells done ({:.0?})",
            i + 1,
            missing.len().div_ceil(CHUNK_CELLS),
            partial.cells.len(),
            all.len(),
            started.elapsed()
        );
    }

    let resumed_cells = all.len() - missing.len();
    let matrix = SweepMatrix {
        grid,
        reference,
        cells: merge_cells(&all, vec![done]),
    };
    std::fs::write(MATRIX_PATH, render_matrix_json(&matrix)).expect("write matrix");
    std::fs::write(MATRIX_MD_PATH, render_matrix_markdown(&matrix)).expect("write markdown");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

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
        "wrote {MATRIX_PATH} + {MATRIX_MD_PATH} ({} cells, {:.1}s)",
        matrix.cells.len(),
        wall_ms / 1e3
    );

    // Record the sweep's own cost in the farm trajectory. The
    // fingerprint keys the row to the sweep shape + compiled images, so
    // re-running on an unchanged tree upserts instead of duplicating.
    let row = mode_sweep_row_json(
        matrix.cells.len(),
        resumed_cells,
        INPUT_LIBRARY.len(),
        threads,
        wall_ms,
        &mode_sweep_fingerprint(matrix.cells.len(), INPUT_LIBRARY.len(), threads),
    );
    record_farm_row("mode_sweep", "mode_sweep_runs", &row).map_err(|e| {
        format!(
            "{e} ({MATRIX_PATH} and {MATRIX_MD_PATH} are written; only the trajectory row is lost)"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row deleted by accident fails here, not in review.
    #[test]
    fn the_gate_covers_the_shipped_default_the_oracle_tier_and_the_socket_edge() {
        use foc_memory::Mode;
        use foc_servers::farm::{FarmConfig, ServerKind};

        let shipped = FarmConfig::new(ServerKind::Apache, Mode::FailureOblivious);
        let points = gate_points();
        let at = |tier, edge: &Edge| points.iter().any(|(_, t, e)| *t == tier && e == edge);
        assert!(at(shipped.boot_spec().tier, &shipped.edge), "what ships");
        assert!(at(ExecTier::Baseline, &Edge::InProcess), "the oracle tier");
        assert!(
            points.iter().any(|(_, _, e)| matches!(e, Edge::Socket(_))),
            "the socket edge"
        );
    }
}
