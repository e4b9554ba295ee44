//! The mode search-space matrix report: `SWEEP_matrix.json` and its
//! human-readable `SWEEP_matrix.md` companion.
//!
//! The JSON record is the repository's strongest regression oracle: it
//! pins the outcome class and transcript hash of every (server, input,
//! cell) run of the sweep grid, and `mode_sweep --check` renders the
//! whole grid afresh at each of its gate points and holds both files to
//! the committed bytes line for line. Both renders are deterministic —
//! canonical grid order, no timestamps, no wall times — so two sweeps of
//! the same substrate produce byte-identical files.

use foc_servers::sweep::{mode_slug, reference_cell, CellResult, SweepMatrix, INPUT_LIBRARY};

/// Where the committed matrix lives, relative to the repository root.
pub const MATRIX_PATH: &str = "SWEEP_matrix.json";

/// Where the rendered markdown matrix lives.
pub const MATRIX_MD_PATH: &str = "SWEEP_matrix.md";

fn transcripts_field(hashes: impl Iterator<Item = u64>) -> String {
    let hex: Vec<String> = hashes.map(|v| format!("{v:016x}")).collect();
    hex.join(" ")
}

fn cell_line(result: &CellResult) -> String {
    let classes: Vec<&str> = result.runs.iter().map(|r| r.class.code()).collect();
    format!(
        "    {{\"cell\": \"{}\", \"classes\": \"{}\", \"transcripts\": \"{}\"}}",
        result.cell.label(),
        classes.join(" "),
        transcripts_field(result.runs.iter().map(|r| r.transcript)),
    )
}

/// Renders the matrix record, one cell object per line.
pub fn render_matrix_json(matrix: &SweepMatrix) -> String {
    let inputs: Vec<String> = INPUT_LIBRARY
        .iter()
        .map(|i| format!("\"{}/{}\"", i.kind.name(), i.name))
        .collect();
    let cells: Vec<String> = matrix.cells.iter().map(cell_line).collect();
    format!(
        concat!(
            "{{\n  \"sweep\": \"mode-search-space\",\n",
            "  \"inputs\": [{}],\n",
            "  \"reference\": {{\"cell\": \"{}\", \"transcripts\": \"{}\"}},\n",
            "  \"cells\": [\n{}\n  ]\n}}\n"
        ),
        inputs.join(", "),
        reference_cell().label(),
        transcripts_field(matrix.reference.iter().copied()),
        cells.join(",\n"),
    )
}

/// Renders the markdown matrix: one table per server, one row per
/// cell (mode × sequence × fuel), columns = that server's inputs, cells
/// = one-letter outcome classes.
pub fn render_matrix_markdown(matrix: &SweepMatrix) -> String {
    let mut out = String::new();
    out.push_str("# Mode search-space sweep matrix\n\n");
    out.push_str(
        "Generated by `cargo run --release -p foc-bench --bin bench -- mode_sweep`. \
         Do not edit by hand.\n\n",
    );
    out.push_str("Outcome classes:\n\n");
    for class in foc_servers::sweep::OutcomeClass::ALL {
        out.push_str(&format!("* **{}** — {}\n", class.code(), class.name()));
    }
    out.push_str(&format!(
        "\nReference cell: `{}`. {} cells × {} inputs.\n",
        reference_cell().label(),
        matrix.cells.len(),
        INPUT_LIBRARY.len(),
    ));

    let mut kinds = Vec::new();
    for input in INPUT_LIBRARY {
        if !kinds.contains(&input.kind) {
            kinds.push(input.kind);
        }
    }
    for kind in kinds {
        let cols: Vec<usize> = (0..INPUT_LIBRARY.len())
            .filter(|&i| INPUT_LIBRARY[i].kind == kind)
            .collect();
        out.push_str(&format!(
            "\n## {}\n\n| mode | sequence | fuel |",
            kind.name()
        ));
        for &c in &cols {
            out.push_str(&format!(" {} |", INPUT_LIBRARY[c].name));
        }
        out.push_str(&format!("\n|---|---|---|{}\n", "---|".repeat(cols.len())));
        for result in &matrix.cells {
            let cell = result.cell;
            out.push_str(&format!(
                "| {} | {} | {} |",
                mode_slug(cell.mode),
                cell.sequence.label(),
                cell.fuel.label(),
            ));
            for &c in &cols {
                out.push_str(&format!(" {} |", result.runs[c].class.code()));
            }
            out.push('\n');
        }
    }
    out
}

/// Both committed files of `matrix`, each beside the path it lives at.
pub fn rendered(matrix: &SweepMatrix) -> [(&'static str, String); 2] {
    [
        (MATRIX_PATH, render_matrix_json(matrix)),
        (MATRIX_MD_PATH, render_matrix_markdown(matrix)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::diff_report;
    use foc_memory::{Mode, ValueSequence};
    use foc_servers::conn::Edge;
    use foc_servers::sweep::{grid, reference_transcripts, run_cells, FuelBudget, OutcomeClass};
    use foc_servers::BootSpec;

    fn tiny_matrix() -> SweepMatrix {
        let edge = Edge::InProcess;
        let reference = reference_transcripts(BootSpec::new, &edge);
        let cells: Vec<_> = grid()
            .into_iter()
            .filter(|c| {
                matches!(c.mode, Mode::Standard | Mode::FailureOblivious)
                    && c.sequence == ValueSequence::Zero
                    && c.fuel == FuelBudget::Tight
            })
            .collect();
        let cells = run_cells(&cells, &reference, BootSpec::new, &edge, 2, 4);
        SweepMatrix { reference, cells }
    }

    #[test]
    fn markdown_contains_every_server_and_class_legend() {
        let matrix = tiny_matrix();
        let md = render_matrix_markdown(&matrix);
        for kind in foc_servers::ServerKind::ALL {
            assert!(
                md.contains(&format!("## {}", kind.name())),
                "{}",
                kind.name()
            );
        }
        for class in OutcomeClass::ALL {
            assert!(md.contains(class.name()), "{}", class.name());
        }
        // One row per cell, named by its three coordinates.
        assert!(md.contains("| failure-oblivious | zero | tight |"));
    }

    /// The gate's line diff names the file and the line a hand-edited
    /// class sits on, in one line — for either committed file.
    #[test]
    fn diff_reports_class_drift_in_one_line() {
        let matrix = tiny_matrix();
        for (path, fresh) in rendered(&matrix) {
            assert_eq!(diff_report(path, &fresh, &fresh), Ok(fresh.lines().count()));
            // The first standard cell's first class (Pine's benign
            // session, clean), edited by hand.
            let mut lines: Vec<String> = fresh.lines().map(String::from).collect();
            let at = lines.iter().position(|l| l.contains("standard")).unwrap();
            lines[at] = lines[at].replacen('C', "F", 1);
            let edited = lines.join("\n") + "\n";
            assert_ne!(edited, fresh, "{path}: the edit landed");
            let msg = diff_report(path, &edited, &fresh).expect_err("edited");
            assert!(
                msg.starts_with(&format!("{path} line {} ", at + 1)) && !msg.contains('\n'),
                "{msg}"
            );
        }
    }
}
