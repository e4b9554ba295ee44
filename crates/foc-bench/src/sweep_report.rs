//! The mode search-space matrix report: rendering, parsing, resume
//! bookkeeping, and drift diffing for `SWEEP_matrix.json` and its
//! human-readable `SWEEP_matrix.md` companion.
//!
//! The JSON record is the repository's strongest regression oracle: it
//! pins the outcome class and transcript hash of every (server, input,
//! cell) run of the full sweep grid, and `mode_sweep --check` re-runs a
//! pinned sub-grid against it on every CI build. It is rendered
//! deterministically — canonical grid order, no timestamps, no wall
//! times — so two complete sweeps of the same substrate produce
//! byte-identical files, which is what makes `--resume` sound: a cell
//! already present with a matching fingerprint never needs re-running.
//!
//! The format is deliberately line-oriented (one cell object per line)
//! and parsed with a small field extractor instead of a JSON library:
//! the build environment is offline, the schema is flat, and the parser
//! only ever reads files this module itself wrote.

use foc_servers::sweep::{
    reference_cell, CellResult, CellSpec, OutcomeClass, SweepMatrix, SweepRun, INPUT_LIBRARY,
    SWEEP_SCHEMA,
};

/// Where the committed matrix lives, relative to the repository root.
pub const MATRIX_PATH: &str = "SWEEP_matrix.json";

/// Where the rendered markdown matrix lives.
pub const MATRIX_MD_PATH: &str = "SWEEP_matrix.md";

// ---------------------------------------------------------------------
// Rendering.
// ---------------------------------------------------------------------

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn transcripts_field(hashes: impl Iterator<Item = u64>) -> String {
    hashes.map(hex).collect::<Vec<_>>().join(" ")
}

fn cell_line(result: &CellResult) -> String {
    let classes: Vec<&str> = result.runs.iter().map(|r| r.class.code()).collect();
    format!(
        concat!(
            "    {{\"cell\": \"{}\", \"fingerprint\": \"{}\", ",
            "\"classes\": \"{}\", \"transcripts\": \"{}\"}}"
        ),
        result.cell.label(),
        hex(result.cell.fingerprint()),
        classes.join(" "),
        transcripts_field(result.runs.iter().map(|r| r.transcript)),
    )
}

/// Renders the matrix record. Deterministic: two sweeps of the same
/// substrate over the same grid produce byte-identical output.
pub fn render_matrix_json(matrix: &SweepMatrix) -> String {
    let inputs: Vec<String> = INPUT_LIBRARY
        .iter()
        .map(|i| format!("\"{}/{}\"", i.kind.name(), i.name))
        .collect();
    let mut out = String::new();
    out.push_str("{\n  \"sweep\": \"mode-search-space\",\n");
    out.push_str(&format!("  \"schema\": {SWEEP_SCHEMA},\n"));
    out.push_str(&format!("  \"inputs\": [{}],\n", inputs.join(", ")));
    out.push_str(&format!(
        "  \"reference\": {{\"cell\": \"{}\", \"transcripts\": \"{}\"}},\n",
        reference_cell().label(),
        transcripts_field(matrix.reference.iter().copied()),
    ));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in matrix.cells.iter().enumerate() {
        out.push_str(&cell_line(cell));
        if i + 1 < matrix.cells.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the markdown matrix: one table per server, rows =
/// mode × sequence × fuel (backends collapsed where they agree — the
/// backend axis is a pure-performance knob, so disagreement is itself a
/// finding and gets its own rows), columns = that server's inputs,
/// cells = one-letter outcome classes.
pub fn render_matrix_markdown(matrix: &SweepMatrix) -> String {
    let mut out = String::new();
    out.push_str("# Mode search-space sweep matrix\n\n");
    out.push_str(
        "Generated by `cargo run --release -p foc-bench --bin mode_sweep`. \
         Do not edit by hand.\n\n",
    );
    out.push_str("Outcome classes:\n\n");
    for class in OutcomeClass::ALL {
        out.push_str(&format!("* **{}** — {}\n", class.code(), class.name()));
    }
    out.push_str(&format!(
        "\nReference cell: `{}`. {} cells × {} inputs.\n",
        reference_cell().label(),
        matrix.cells.len(),
        INPUT_LIBRARY.len(),
    ));

    let kinds: Vec<_> = {
        let mut seen = Vec::new();
        for input in INPUT_LIBRARY {
            if !seen.contains(&input.kind) {
                seen.push(input.kind);
            }
        }
        seen
    };
    for kind in kinds {
        let cols: Vec<usize> = (0..INPUT_LIBRARY.len())
            .filter(|&i| INPUT_LIBRARY[i].kind == kind)
            .collect();
        out.push_str(&format!("\n## {}\n\n", kind.name()));
        out.push_str("| mode | sequence | fuel | backends |");
        for &c in &cols {
            out.push_str(&format!(" {} |", INPUT_LIBRARY[c].name));
        }
        out.push('\n');
        out.push_str("|---|---|---|---|");
        for _ in &cols {
            out.push_str("---|");
        }
        out.push('\n');

        // Group cells by (mode, sequence, fuel); collapse the backend
        // axis when every backend produced the same class row.
        let mut groups: Vec<(CellSpec, Vec<&CellResult>)> = Vec::new();
        for cell in &matrix.cells {
            let key = cell.cell;
            match groups.iter_mut().find(|(k, _)| {
                k.mode == key.mode && k.sequence == key.sequence && k.fuel == key.fuel
            }) {
                Some((_, members)) => members.push(cell),
                None => groups.push((key, vec![cell])),
            }
        }
        for (key, members) in &groups {
            let class_row = |m: &CellResult| -> Vec<&'static str> {
                cols.iter().map(|&c| m.runs[c].class.code()).collect()
            };
            let first = class_row(members[0]);
            let agree = members.iter().all(|m| class_row(m) == first);
            let rows: Vec<(String, Vec<&'static str>)> = if agree {
                vec![("all".to_string(), first)]
            } else {
                members
                    .iter()
                    .map(|m| (m.cell.table.name().to_string(), class_row(m)))
                    .collect()
            };
            for (backend, classes) in rows {
                out.push_str(&format!(
                    "| {} | {} | {} | {} |",
                    foc_servers::sweep::mode_slug(key.mode),
                    key.sequence.label(),
                    key.fuel.label(),
                    backend,
                ));
                for class in classes {
                    out.push_str(&format!(" {class} |"));
                }
                out.push('\n');
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------

/// One cell as read back from a committed or partial matrix file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedCell {
    /// The parsed cell coordinates.
    pub cell: CellSpec,
    /// The recorded fingerprint.
    pub fingerprint: u64,
    /// The recorded runs (class + transcript per library input).
    pub runs: Vec<SweepRun>,
}

/// A matrix file read back into memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedMatrix {
    /// Recorded schema version.
    pub schema: u32,
    /// Recorded input names (`Kind/name`).
    pub inputs: Vec<String>,
    /// Recorded reference transcripts.
    pub reference: Vec<u64>,
    /// Recorded cells, file order.
    pub cells: Vec<ParsedCell>,
}

/// Extracts the string value of `"key": "…"` from a single line.
pub(crate) fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\": \"");
    let start = line.find(&marker)? + marker.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

fn parse_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex {s:?}: {e}"))
}

fn parse_transcripts(field: &str) -> Result<Vec<u64>, String> {
    field.split_whitespace().map(parse_hex).collect()
}

/// Parses a matrix file previously written by [`render_matrix_json`].
/// Tolerates truncated `cells` arrays (an interrupted sweep writes the
/// completed prefix) but rejects structurally damaged cell lines.
pub fn parse_matrix_json(text: &str) -> Result<ParsedMatrix, String> {
    let mut schema = None;
    let mut inputs = Vec::new();
    let mut reference = Vec::new();
    let mut cells = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim().trim_end_matches(',');
        if let Some(rest) = trimmed.strip_prefix("\"schema\": ") {
            schema = Some(
                rest.parse::<u32>()
                    .map_err(|e| format!("bad schema: {e}"))?,
            );
        } else if trimmed.starts_with("\"inputs\": [") {
            inputs = trimmed
                .trim_start_matches("\"inputs\": [")
                .trim_end_matches(']')
                .split(", ")
                .map(|s| s.trim_matches('"').to_string())
                .filter(|s| !s.is_empty())
                .collect();
        } else if trimmed.starts_with("\"reference\": ") {
            let field =
                str_field(trimmed, "transcripts").ok_or("reference line lacks transcripts")?;
            reference = parse_transcripts(field)?;
        } else if trimmed.starts_with("{\"cell\": ") {
            let label = str_field(trimmed, "cell").ok_or("cell line lacks cell label")?;
            let fingerprint =
                parse_hex(str_field(trimmed, "fingerprint").ok_or("cell line lacks fingerprint")?)?;
            let classes: Vec<OutcomeClass> = str_field(trimmed, "classes")
                .ok_or("cell line lacks classes")?
                .split_whitespace()
                .map(|c| c.parse())
                .collect::<Result<_, _>>()?;
            let transcripts = parse_transcripts(
                str_field(trimmed, "transcripts").ok_or("cell line lacks transcripts")?,
            )?;
            if classes.len() != transcripts.len() {
                return Err(format!(
                    "cell {label}: {} classes but {} transcripts",
                    classes.len(),
                    transcripts.len()
                ));
            }
            cells.push(ParsedCell {
                cell: CellSpec::parse(label)?,
                fingerprint,
                runs: classes
                    .into_iter()
                    .zip(transcripts)
                    .map(|(class, transcript)| SweepRun { class, transcript })
                    .collect(),
            });
        }
    }
    Ok(ParsedMatrix {
        schema: schema.ok_or("matrix file lacks a schema line")?,
        inputs,
        reference,
        cells,
    })
}

// ---------------------------------------------------------------------
// Resume.
// ---------------------------------------------------------------------

/// Splits a grid into cells whose results can be reused from a
/// previously-written matrix and cells that still need running.
///
/// A recorded cell is reusable only when (a) the whole file was
/// produced against the same reference transcripts we would compute
/// today — otherwise the substrate drifted and *nothing* is reusable —
/// and (b) its fingerprint matches the current semantic contract and
/// its run count matches the library.
pub fn split_resume(
    grid_cells: &[CellSpec],
    parsed: Option<&ParsedMatrix>,
    fresh_reference: &[u64],
) -> (Vec<CellResult>, Vec<CellSpec>) {
    let Some(parsed) = parsed else {
        return (Vec::new(), grid_cells.to_vec());
    };
    if parsed.schema != SWEEP_SCHEMA || parsed.reference != fresh_reference {
        return (Vec::new(), grid_cells.to_vec());
    }
    let mut reused = Vec::new();
    let mut missing = Vec::new();
    for spec in grid_cells {
        let hit = parsed.cells.iter().find(|c| {
            c.cell == *spec
                && c.fingerprint == spec.fingerprint()
                && c.runs.len() == INPUT_LIBRARY.len()
        });
        match hit {
            Some(c) => reused.push(CellResult {
                cell: *spec,
                runs: c.runs.clone(),
            }),
            None => missing.push(*spec),
        }
    }
    (reused, missing)
}

/// Merges reused and freshly-run cells back into canonical grid order.
///
/// # Panics
///
/// Panics when a grid cell is missing from the union (a harness bug).
pub fn merge_cells(grid_cells: &[CellSpec], parts: Vec<Vec<CellResult>>) -> Vec<CellResult> {
    let mut pool: Vec<CellResult> = parts.into_iter().flatten().collect();
    grid_cells
        .iter()
        .map(|spec| {
            let at = pool
                .iter()
                .position(|c| c.cell == *spec)
                .unwrap_or_else(|| panic!("cell {} missing after merge", spec.label()));
            pool.swap_remove(at)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Drift diffing (`mode_sweep --check`).
// ---------------------------------------------------------------------

/// Compares freshly-computed cells against the committed matrix,
/// failing on the first semantic difference: a missing cell, a
/// fingerprint (contract) change, an outcome-class change, or a
/// transcript change. Returns the number of (cell, input) runs
/// compared. The error is a single line naming the first drifted run.
pub fn diff_against_committed(
    committed: &ParsedMatrix,
    fresh_reference: &[u64],
    fresh: &[CellResult],
) -> Result<usize, String> {
    if committed.schema != SWEEP_SCHEMA {
        return Err(format!(
            "committed matrix has schema {} but this build speaks {SWEEP_SCHEMA} — regenerate with mode_sweep",
            committed.schema
        ));
    }
    if committed.reference != fresh_reference {
        return Err(
            "reference transcripts drifted: the substrate no longer reproduces the committed \
             reference cell — regenerate SWEEP_matrix.json with mode_sweep"
                .to_string(),
        );
    }
    let mut compared = 0;
    for cell in fresh {
        let label = cell.cell.label();
        let Some(rec) = committed.cells.iter().find(|c| c.cell == cell.cell) else {
            return Err(format!("cell {label} is not in the committed matrix"));
        };
        if rec.fingerprint != cell.cell.fingerprint() {
            return Err(format!(
                "cell {label}: fingerprint {} committed but {} computed — sweep contract changed, regenerate",
                hex(rec.fingerprint),
                hex(cell.cell.fingerprint())
            ));
        }
        if rec.runs.len() != cell.runs.len() {
            // A zip would silently compare only the common prefix and
            // pass a truncated committed cell through the gate.
            return Err(format!(
                "cell {label}: committed matrix records {} runs but the library has {} — regenerate",
                rec.runs.len(),
                cell.runs.len()
            ));
        }
        for (i, (got, want)) in cell.runs.iter().zip(&rec.runs).enumerate() {
            let input = &INPUT_LIBRARY[i];
            if got.class != want.class {
                return Err(format!(
                    "outcome drift at {label} {}/{}: committed {} but got {}",
                    input.kind.name(),
                    input.name,
                    want.class.name(),
                    got.class.name()
                ));
            }
            if got.transcript != want.transcript {
                return Err(format!(
                    "transcript drift at {label} {}/{}: committed {} but got {} (class {} unchanged)",
                    input.kind.name(),
                    input.name,
                    hex(want.transcript),
                    hex(got.transcript),
                    got.class.name()
                ));
            }
            compared += 1;
        }
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_compiler::ExecTier;
    use foc_servers::conn::Edge;
    use foc_servers::sweep::{reference_transcripts, run_cells, SweepGrid, SweepMatrix};

    fn tiny_matrix() -> SweepMatrix {
        let (tier, edge) = (ExecTier::default(), Edge::InProcess);
        let reference = reference_transcripts(tier, &edge);
        let grid = SweepGrid {
            modes: vec![
                foc_memory::Mode::Standard,
                foc_memory::Mode::FailureOblivious,
            ],
            sequences: vec![foc_memory::ValueSequence::Zero],
            fuels: vec![foc_servers::sweep::FuelBudget::Tight],
            tables: vec![foc_memory::TableKind::Splay],
        };
        let cells = run_cells(&grid.cells(), &reference, tier, &edge, 2, 4);
        SweepMatrix {
            grid,
            reference,
            cells,
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let matrix = tiny_matrix();
        let json = render_matrix_json(&matrix);
        let parsed = parse_matrix_json(&json).expect("parse");
        assert_eq!(parsed.schema, SWEEP_SCHEMA);
        assert_eq!(parsed.inputs.len(), INPUT_LIBRARY.len());
        assert_eq!(parsed.reference, matrix.reference);
        assert_eq!(parsed.cells.len(), matrix.cells.len());
        for (p, c) in parsed.cells.iter().zip(&matrix.cells) {
            assert_eq!(p.cell, c.cell);
            assert_eq!(p.fingerprint, c.cell.fingerprint());
            assert_eq!(p.runs, c.runs);
        }
    }

    #[test]
    fn diff_accepts_the_matrix_it_was_rendered_from() {
        let matrix = tiny_matrix();
        let parsed = parse_matrix_json(&render_matrix_json(&matrix)).unwrap();
        let compared =
            diff_against_committed(&parsed, &matrix.reference, &matrix.cells).expect("no drift");
        assert_eq!(compared, matrix.cells.len() * INPUT_LIBRARY.len());
    }

    #[test]
    fn diff_reports_class_drift_in_one_line() {
        let matrix = tiny_matrix();
        let mut parsed = parse_matrix_json(&render_matrix_json(&matrix)).unwrap();
        parsed.cells[0].runs[0].class = OutcomeClass::FuelOut;
        let err = diff_against_committed(&parsed, &matrix.reference, &matrix.cells).unwrap_err();
        assert!(err.contains("outcome drift"), "{err}");
        assert!(!err.contains('\n'), "diagnostic must be one line: {err}");
    }

    #[test]
    fn resume_reuses_only_fingerprint_matched_cells() {
        let matrix = tiny_matrix();
        let all = matrix.grid.cells();
        let parsed = parse_matrix_json(&render_matrix_json(&matrix)).unwrap();
        // Complete file: everything reusable.
        let (reused, missing) = split_resume(&all, Some(&parsed), &matrix.reference);
        assert_eq!(reused.len(), all.len());
        assert!(missing.is_empty());
        // Truncated file: the tail must be re-run.
        let mut truncated = parsed.clone();
        truncated.cells.pop();
        let (reused, missing) = split_resume(&all, Some(&truncated), &matrix.reference);
        assert_eq!(reused.len(), all.len() - 1);
        assert_eq!(missing.len(), 1);
        // Drifted reference: nothing is reusable.
        let mut wrong = matrix.reference.clone();
        wrong[0] ^= 1;
        let (reused, missing) = split_resume(&all, Some(&parsed), &wrong);
        assert!(reused.is_empty());
        assert_eq!(missing.len(), all.len());
        // Merge restores canonical order from scattered parts.
        let (reused, missing) = split_resume(&all, Some(&truncated), &matrix.reference);
        let (tier, edge) = (ExecTier::default(), Edge::InProcess);
        let fresh = run_cells(&missing, &matrix.reference, tier, &edge, 1, 8);
        let merged = merge_cells(&all, vec![reused, fresh]);
        assert_eq!(merged, matrix.cells);
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
        // The tiny matrix has one backend, so every group agrees.
        assert!(md.contains("| all |"));
    }
}
