//! The paper's evaluation as text: every table `bench paper <name>`
//! prints, the full report `bench paper` prints, and the committed copy
//! of that report, `PAPER_tables.md`, which `bench paper --check` holds
//! a fresh render against. Every number in the report is virtual cycles
//! or a count, so it repeats exactly on every host, tier, table and
//! edge — the reproduction's Figures 2–6 and §4 outcomes have the
//! regression gate `SWEEP_matrix.json` gives the sweep.

use std::fmt::Write as _;

use foc_memory::{summarize, Mode};
use foc_servers::{sendmail, supervisor, workload, BootSpec, ServerKind};

use crate::{
    ablation_values, apache_throughput, fig2_pine, fig3_apache, fig4_sendmail, fig5_mc, fig6_mutt,
    render_rpt_table, render_security_matrix, render_throughput, variants_matrix, RptRow,
    MC_SIZE_SCALE,
};

/// The committed full report, relative to the repository root.
pub const REPORT_PATH: &str = "PAPER_tables.md";

/// A table's name and what renders it.
type Table = (&'static str, fn() -> String);

/// Every table, in the order the paper presents them.
pub const TABLES: [Table; 11] = [
    ("fig2_pine", || figure(2, "Pine", fig2_pine())),
    ("fig3_apache", || figure(3, "Apache", fig3_apache())),
    ("fig4_sendmail", || figure(4, "Sendmail", fig4_sendmail())),
    ("fig5_mc", || figure(5, "Midnight Commander", fig5_mc())),
    ("fig6_mutt", || figure(6, "Mutt", fig6_mutt())),
    ("apache_throughput", throughput_table),
    ("security_matrix", security_table),
    ("ablation_values", ablation_table),
    ("variants_matrix", variants_table),
    ("restart_study", restart_study),
    ("stability_run", stability_run),
];

/// Renders the table called `name` as its own page, or names the tables
/// there are.
pub fn table(name: &str) -> Result<String, String> {
    match TABLES.iter().find(|t| t.0 == name) {
        Some((_, render)) => Ok(render()),
        None => {
            let names: Vec<&str> = TABLES.iter().map(|t| t.0).collect();
            Err(format!(
                "no table named {name:?} (tables: {})",
                names.join(", ")
            ))
        }
    }
}

/// Figure `n`, request processing times for `server`, as the paper
/// titles it.
fn figure(n: u32, server: &str, rows: Vec<RptRow>) -> String {
    let title = format!("Figure {n}: Request Processing Times for {server} (milliseconds)");
    let mut out = render_rpt_table(&title, &rows);
    if n == 5 {
        let _ = writeln!(
            out,
            "(file sizes scaled 1:{MC_SIZE_SCALE}; slowdowns are scale-invariant)"
        );
    }
    out
}

/// Regenerates the §4.3.2 throughput-under-attack experiment.
fn throughput_table() -> String {
    format!(
        "Apache throughput under attack (50% attack URLs, 50% legitimate):\n\n{}",
        render_throughput(&apache_throughput(400))
    )
}

/// Regenerates the qualitative security & resilience results of §4.
fn security_table() -> String {
    format!(
        "Security & resilience matrix (attack behaviour per compiler version):\n\n{}",
        render_security_matrix()
    )
}

/// Regenerates the §3 manufactured-value-sequence ablation.
fn ablation_table() -> String {
    let mut out = format!(
        "Manufactured-value ablation: MC '/' scan over a name with no slash\n\n\
         {:<20} {:>12} {:>18}\n",
        "strategy", "terminates", "manufactured reads"
    );
    for r in ablation_values() {
        let _ = writeln!(
            out,
            "{:<20} {:>12} {:>18}",
            r.strategy,
            if r.terminated { "yes" } else { "HANGS" },
            r.reads
        );
    }
    out
}

/// Regenerates the §5.1 variants experiment: do boundless memory blocks
/// and redirection also keep the servers running acceptably?
fn variants_table() -> String {
    let mut out = format!(
        "§5.1 variants: server survives its attack and keeps serving\n\n\
         {:<20} {:>8} {:>8} {:>10} {:>6} {:>6}\n",
        "variant", "Pine", "Apache", "Sendmail", "MC", "Mutt"
    );
    for (mode, cells) in variants_matrix() {
        let mark = |i: usize| if cells[i].1 { "yes" } else { "NO" };
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>8} {:>10} {:>6} {:>6}",
            mode.name(),
            mark(0),
            mark(1),
            mark(2),
            mark(3),
            mark(4)
        );
    }
    out
}

/// Regenerates the §4.7 discussion: restart-on-crash supervision versus
/// failure-oblivious execution when the error trigger persists in the
/// environment (poisoned mailbox, blank config line, wake-up error,
/// malicious startup folder).
fn restart_study() -> String {
    let mut out = format!(
        "Restart supervision with persistent triggers (§4.7)\n\
         (supervisor budget: {} restarts)\n\n\
         {:<10} {:<18} {:>9} {:>10}\n",
        supervisor::RESTART_BUDGET,
        "server",
        "version",
        "restarts",
        "recovered"
    );
    for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
        for s in supervisor::study(mode) {
            let _ = writeln!(
                out,
                "{:<10} {:<18} {:>9} {:>10}",
                s.server,
                s.mode.name(),
                s.attempts,
                if s.recovered { "yes" } else { "NO" }
            );
        }
    }
    out.push_str(
        "\nBounds Check + restart never recovers: the trigger is waiting\n\
         for every restarted process during initialization. The\n\
         failure-oblivious versions never need the supervisor at all.\n",
    );
    out
}

/// Compressed stability study (§4.x.4): a long failure-oblivious
/// Sendmail run with attacks interleaved, ending with the
/// administrator's error-log digest the paper's §3 describes.
fn stability_run() -> String {
    let mut sm =
        sendmail::Sendmail::boot_spec(&BootSpec::new(ServerKind::Sendmail, Mode::FailureOblivious));
    assert!(sm.usable());
    let mut delivered = 0u64;
    let mut rejected = 0u64;
    for i in 0..500u64 {
        sm.wakeup();
        if i % 7 == 0 {
            if sm.mail_from(&sendmail::attack_address(150)).outcome.ret() == Some(501) {
                rejected += 1;
            }
        } else {
            let r = sm.receive(
                &workload::sendmail_address(i),
                &workload::sendmail_address(7000 + i),
                &workload::lorem(100 + (i as usize % 16) * 250, i),
            );
            assert_eq!(r.outcome.ret(), Some(250), "message {i}");
            delivered += 1;
        }
    }
    let space = sm.process().machine().space();
    format!(
        "sendmail stability run: 500 cycles\n  \
         delivered: {delivered}   attacks rejected: {rejected}\n  \
         live data units: {}\n\n\
         administrator's error-log digest:\n{}\n\
         The top site is the daemon wake-up loop — the 'steady stream of\n\
         memory errors during its normal execution' of §4.4.4, identified\n\
         exactly the way the paper's log analysis identified it.\n",
        space.live_units(),
        summarize(space.error_log()).render()
    )
}

/// Runs every experiment and renders the complete paper-versus-measured
/// report: all of [`TABLES`], in order.
pub fn report() -> String {
    let pages: Vec<String> = TABLES.iter().map(|(_, render)| render()).collect();
    format!(
        "# Failure-Oblivious Computing: full experiment sweep\n\n{}",
        pages.join("\n")
    )
}

/// Holds a `fresh` render against the `committed` contents of the file
/// at `path` (this report, or either sweep matrix file): the number of
/// matching lines, or a one-line diagnostic naming the file and the
/// first line that differs.
pub fn diff_report(path: &str, committed: &str, fresh: &str) -> Result<usize, String> {
    let want: Vec<&str> = committed.lines().collect();
    let got: Vec<&str> = fresh.lines().collect();
    let lines = want.len().max(got.len());
    let Some(at) = (0..lines).find(|&i| want.get(i) != got.get(i)) else {
        return Ok(lines);
    };
    let show = |line: Option<&&str>| line.map_or("nothing".to_string(), |l| format!("{l:?}"));
    Err(format!(
        "{path} line {} holds {} where a fresh run prints {}",
        at + 1,
        show(want.get(at)),
        show(got.get(at))
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_table_renders_and_unknown_names_do_not() {
        for (name, _) in TABLES {
            let page = table(name).expect("a named table renders");
            assert!(page.ends_with('\n') && page.lines().count() > 3, "{name}");
        }
        let msg = table("all_experiments").expect_err("not a table");
        assert!(
            msg.contains("tables: fig2_pine, ") && msg.ends_with("stability_run)"),
            "{msg}"
        );
    }

    #[test]
    fn committed_report_matches_a_fresh_render_and_an_edited_cell_is_named() {
        let path = format!("{}/../../{REPORT_PATH}", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(path).expect("committed PAPER_tables.md");
        let fresh = report();
        assert_eq!(
            diff_report(REPORT_PATH, &committed, &fresh),
            Ok(fresh.lines().count())
        );
        // The same experiments run again print the same bytes.
        assert_eq!(report(), fresh);
        // One figure cell edited by hand: one line, naming where.
        let at = committed.lines().position(|l| l.starts_with("Compose"));
        let at = at.expect("Figure 2 has a Compose row") + 1;
        let edited = committed.replacen("Compose ", "Compose 9", 1);
        let msg = diff_report(REPORT_PATH, &edited, &fresh).expect_err("edited");
        assert!(
            msg.starts_with(&format!("{REPORT_PATH} line {at} ")) && !msg.contains('\n'),
            "{msg}"
        );
        // A truncated or over-long file is named too.
        let longer = format!("{committed}extra\n");
        assert!(diff_report(REPORT_PATH, &longer, &fresh).is_err());
        let over = format!("{fresh}extra\n");
        assert!(diff_report(REPORT_PATH, &committed, &over).is_err());
    }
}
