//! Shared harness for the table-regeneration binaries.
//!
//! Every `table*` binary prints its rows in the paper's format, compares
//! each quantitative claim against the model, and exits non-zero if any
//! band check fails — so `for t in table*; do cargo run --bin $t; done`
//! doubles as a regression suite for the reproduction.
//!
//! Pass `--json` to any binary to additionally emit a machine-readable
//! `BENCH_<name>.json` **in the repository root** (see [`artifact_path`]):
//! every recorded check with its measured value and band, plus the
//! pass/fail totals. CI and tooling consume these instead of scraping
//! stdout; anchoring the path keeps committed artifacts from drifting
//! into crate subdirectories when a binary runs from somewhere else.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trt;

use std::fmt::Write as _;
use std::process::ExitCode;

/// A printable table.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "row arity");
        self.rows.push(cells.to_vec());
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "=== {} ===", self.title);
        for (c, w) in self.columns.iter().zip(&widths) {
            let _ = write!(out, "{c:>w$}  ");
        }
        out.push('\n');
        for row in &self.rows {
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(out, "{cell:>w$}  ");
            }
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// One recorded check: its name, outcome, and (for band checks) the
/// measured value and accepted band.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRecord {
    /// The check's human-readable name.
    pub name: String,
    /// Whether the check passed.
    pub ok: bool,
    /// The measured value (band checks only).
    pub value: Option<f64>,
    /// Lower bound of the accepted band (band checks only).
    pub lo: Option<f64>,
    /// Upper bound of the accepted band (band checks only).
    pub hi: Option<f64>,
}

/// Collects pass/fail band checks and reports at the end.
#[derive(Debug, Default)]
pub struct Checker {
    checks: Vec<CheckRecord>,
}

impl Checker {
    /// An empty checker.
    pub fn new() -> Self {
        Checker::default()
    }

    /// Record a named boolean check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        println!("  [{}] {name}", if ok { "ok" } else { "FAIL" });
        self.checks.push(CheckRecord {
            name,
            ok,
            value: None,
            lo: None,
            hi: None,
        });
    }

    /// Check that `value` lies within `[lo, hi]`.
    pub fn check_band(&mut self, name: impl Into<String>, value: f64, lo: f64, hi: f64) {
        let name = name.into();
        let ok = (lo..=hi).contains(&value);
        println!(
            "  [{}] {name}: {value:.3} (band {lo:.3}..{hi:.3})",
            if ok { "ok" } else { "FAIL" }
        );
        self.checks.push(CheckRecord {
            name,
            ok,
            value: Some(value),
            lo: Some(lo),
            hi: Some(hi),
        });
    }

    /// [`check_band`](Self::check_band) over a host wall-clock reading:
    /// stdout shows the verdict and the band, the reading itself goes to
    /// stderr and the JSON artifact — so a table's stdout stays a pure
    /// function of the simulation and replays byte for byte.
    pub fn check_band_wall(&mut self, name: impl Into<String>, value: f64, lo: f64, hi: f64) {
        let name = name.into();
        let ok = (lo..=hi).contains(&value);
        println!(
            "  [{}] {name} (band {lo:.3}..{hi:.3})",
            if ok { "ok" } else { "FAIL" }
        );
        eprintln!("  {name}: {value:.3}");
        self.checks.push(CheckRecord {
            name,
            ok,
            value: Some(value),
            lo: Some(lo),
            hi: Some(hi),
        });
    }

    /// Everything recorded so far.
    pub fn records(&self) -> &[CheckRecord] {
        &self.checks
    }

    /// Print the summary and report the outcome **without exiting**:
    /// `Ok(())` when every check passed, otherwise `Err` with the names of
    /// the failed checks. Library/test callers use this; binaries map it
    /// to an exit code via [`conclude`].
    pub fn finish_report(self) -> Result<(), Vec<String>> {
        let failed: Vec<String> = self
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.name.clone())
            .collect();
        let total = self.checks.len();
        if failed.is_empty() {
            println!("\nall {total} band checks passed ✓");
            Ok(())
        } else {
            println!(
                "\n{} of {total} band checks FAILED: {failed:?}",
                failed.len()
            );
            Err(failed)
        }
    }

    /// Serialize all records as a JSON document (hand-rolled — the
    /// offline build has no `serde_json`).
    pub fn to_json(&self, bench: &str) -> String {
        let failed = self.checks.iter().filter(|c| !c.ok).count();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"bench\": \"{}\",\n  \"total\": {},\n  \"failed\": {},\n  \"checks\": [",
            json_escape(bench),
            self.checks.len(),
            failed
        );
        for (i, c) in self.checks.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\": \"{}\", \"ok\": {}, \"value\": {}, \"lo\": {}, \"hi\": {}}}",
                if i == 0 { "" } else { "," },
                json_escape(&c.name),
                c.ok,
                json_num(c.value),
                json_num(c.lo),
                json_num(c.hi)
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// The canonical location of a `BENCH_<bench>.json` artifact: the
/// repository root, regardless of the working directory the binary was
/// launched from. Every `--json` export writes here and nowhere else —
/// committed artifacts must never drift into crate subdirectories.
pub fn artifact_path(bench: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{bench}.json"))
}

/// Write a checker's records to the canonical [`artifact_path`],
/// reporting the outcome on stdout/stderr.
pub fn write_artifact(bench: &str, checker: &Checker) {
    let path = artifact_path(bench);
    match std::fs::write(&path, checker.to_json(bench)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Finish a benchmark binary: when `--json` was passed on the command
/// line, write `BENCH_<bench>.json` (at the repo-root [`artifact_path`])
/// with every record; then print the summary and turn the outcome into
/// the process exit code (instead of calling `process::exit`, so
/// destructors and test harnesses run).
pub fn conclude(bench: &str, checker: Checker) -> ExitCode {
    if std::env::args().any(|a| a == "--json") {
        write_artifact(bench, &checker);
    }
    match checker.finish_report() {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}

/// Escape a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an optional float as a JSON value (`null` when absent or
/// non-finite, which JSON cannot represent).
fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

/// Format a float with the given precision.
pub fn f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("T", &["a", "long-col"]);
        t.row(&["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("=== T ==="));
        assert!(s.contains("long-col"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_enforced() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn checker_accumulates() {
        let mut c = Checker::new();
        c.check("x", true);
        c.check_band("y", 5.0, 4.0, 6.0);
        assert_eq!(c.records().len(), 2);
        assert_eq!(c.records()[1].value, Some(5.0));
        assert!(c.finish_report().is_ok());
    }

    #[test]
    fn failed_checks_are_reported_not_exited() {
        let mut c = Checker::new();
        c.check("good", true);
        c.check_band("bad", 9.0, 0.0, 1.0);
        let failed = c.finish_report().unwrap_err();
        assert_eq!(failed, vec!["bad".to_string()]);
    }

    #[test]
    fn json_export_is_well_formed() {
        let mut c = Checker::new();
        c.check("bool \"check\"", true);
        c.check_band("band", 2.5, 1.0, 3.0);
        let j = c.to_json("demo");
        assert!(j.contains("\"bench\": \"demo\""));
        assert!(j.contains("\"total\": 2"));
        assert!(j.contains("\"failed\": 0"));
        assert!(j.contains("bool \\\"check\\\""));
        assert!(j.contains("\"value\": 2.5"));
        assert!(j.contains("\"value\": null"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn formatting_helper() {
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn artifact_path_is_anchored_at_the_repo_root() {
        let p = artifact_path("demo");
        assert!(p.ends_with("../../BENCH_demo.json"), "{}", p.display());
        // The anchor must resolve to the workspace root: the directory
        // holding the top-level Cargo.toml.
        assert!(p.parent().unwrap().join("Cargo.toml").exists());
    }
}
