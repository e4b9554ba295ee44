//! The sweep's determinism contract, end to end through the report
//! layer:
//!
//! 1. **Byte-identical matrices.** Running the same cells twice — at
//!    different thread counts and scheduling grains — renders exactly
//!    the same `SWEEP_matrix.json` and `SWEEP_matrix.md` bytes. This is
//!    what lets `mode_sweep --check` hold the committed files line for
//!    line.
//! 2. **The oracle reproduces what ships**: the object table (and the
//!    tier) is a gate point, not a coordinate, so the same cells under
//!    `BootSpec::oracle` (baseline tier, reference table) are the same
//!    matrix.
//! 3. **Outcome classes are scheduling-invariant** (property test over
//!    thread count and slice grain): classification is a pure function
//!    of the cell coordinates.

use proptest::prelude::*;

use foc_bench::sweep_report::{render_matrix_json, render_matrix_markdown};
use foc_memory::{Mode, ValueSequence};
use foc_servers::conn::Edge;
use foc_servers::sweep::{
    grid, reference_transcripts, run_cell, run_cells, CellResult, CellSpec, FuelBudget,
    SweepMatrix, INPUT_LIBRARY,
};
use foc_servers::BootSpec;

/// The grid filtered to a shape small enough for tests but wide enough
/// to hit every class: Standard (policy kills), Bounds Check (restart
/// exhaustion), Failure Oblivious (continuation), two sequences
/// (divergence), tight fuel (fuel-outs).
fn test_cells() -> Vec<CellSpec> {
    grid()
        .into_iter()
        .filter(|c| {
            matches!(
                c.mode,
                Mode::Standard | Mode::BoundsCheck | Mode::FailureOblivious
            ) && matches!(
                c.sequence,
                ValueSequence::Zero | ValueSequence::Cycling { wrap: 256 }
            ) && c.fuel == FuelBudget::Tight
        })
        .collect()
}

/// The reference transcripts on the shipped default.
fn reference() -> Vec<u64> {
    reference_transcripts(BootSpec::new, &Edge::InProcess)
}

/// A scheduled run of `cells` on the shipped default.
fn run(cells: &[CellSpec], reference: &[u64], threads: usize, slice: usize) -> Vec<CellResult> {
    run_cells(
        cells,
        reference,
        BootSpec::new,
        &Edge::InProcess,
        threads,
        slice,
    )
}

fn matrix_for(cells: &[CellSpec], threads: usize, slice: usize) -> SweepMatrix {
    let reference = reference();
    let cells = run(cells, &reference, threads, slice);
    SweepMatrix { reference, cells }
}

#[test]
fn same_grid_twice_renders_byte_identical_json() {
    let cells = test_cells();
    let a = render_matrix_json(&matrix_for(&cells, 1, usize::MAX));
    let b = render_matrix_json(&matrix_for(&cells, 4, 2));
    assert_eq!(a, b, "two sweeps of one substrate must render identically");
    // The markdown rendering is deterministic too.
    assert_eq!(
        render_matrix_markdown(&matrix_for(&cells, 1, 3)),
        render_matrix_markdown(&matrix_for(&cells, 3, 1)),
    );
}

#[test]
fn backend_axis_never_changes_outcome_classes() {
    // The object table is not a cell coordinate: the oracle (the
    // reference table, on the baseline tier) must reproduce what ships — classes,
    // transcripts and reference alike. `mode_sweep --check` holds the
    // whole grid to this; here, the filtered cells.
    let cells = test_cells();
    let edge = Edge::InProcess;
    let reference = reference_transcripts(BootSpec::oracle, &edge);
    let oracle = SweepMatrix {
        cells: run_cells(&cells, &reference, BootSpec::oracle, &edge, 2, 8),
        reference,
    };
    assert_eq!(oracle, matrix_for(&cells, 2, 8));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Outcome classes (and transcripts) are invariant under the
    /// executor's thread count and slice grain, for a random scheduling
    /// shape and a random slice of the filtered grid.
    #[test]
    fn outcome_classes_are_scheduling_invariant(
        threads in 1usize..6,
        slice in 1usize..(INPUT_LIBRARY.len() + 4),
        skip in 0usize..6,
    ) {
        let reference = reference();
        let cells: Vec<CellSpec> = test_cells().into_iter().skip(skip).take(3).collect();
        let scheduled = run(&cells, &reference, threads, slice);
        let sequential: Vec<_> = cells
            .iter()
            .map(|c| run_cell(c, &reference, BootSpec::new, &Edge::InProcess))
            .collect();
        prop_assert_eq!(scheduled, sequential);
    }
}
