//! Machine-readable figure baselines.
//!
//! The simulated sweeps are deterministic bit for bit (virtual time, fixed
//! workloads — see `tests/determinism.rs`), so their series can be committed
//! as JSON snapshots (`BENCH_*.json` at the repo root) and *diffed exactly*
//! in CI instead of only panic-checked. A drifting number is then a visible
//! regression (or a deliberate change, regenerated with `--json`).
//!
//! The `brmi-bench` binary accepts, for every sweep with a baseline:
//!
//! * `--json PATH` — write the run's series as JSON to `PATH`;
//! * `--check PATH` — compare the run's series against the baseline at
//!   `PATH`, exiting nonzero with a line-level diff on mismatch.
//!
//! The JSON is hand-rolled (and hand-compared) because the container build
//! has no registry access for serde; the format is one object per figure
//! with `id`, `title`, `x_label`, `x` and named `series` arrays.

use std::process::ExitCode;

use crate::{Figure, MultiFigure};

/// One figure's series in baseline form, shared by [`Figure`] (two fixed
/// series) and [`MultiFigure`] (any number).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesTable {
    /// Figure id, e.g. `"fig05"`.
    pub id: String,
    /// Caption.
    pub title: String,
    /// Meaning of the x axis.
    pub x_label: String,
    /// Sweep points.
    pub x: Vec<u32>,
    /// Named series, milliseconds per sweep point.
    pub series: Vec<(String, Vec<f64>)>,
}

impl From<&Figure> for SeriesTable {
    fn from(figure: &Figure) -> Self {
        SeriesTable {
            id: figure.id.to_owned(),
            title: figure.title.clone(),
            x_label: figure.x_label.to_owned(),
            x: figure.x.clone(),
            series: vec![
                ("RMI".to_owned(), figure.rmi_ms.clone()),
                ("BRMI".to_owned(), figure.brmi_ms.clone()),
            ],
        }
    }
}

impl From<&MultiFigure> for SeriesTable {
    fn from(figure: &MultiFigure) -> Self {
        SeriesTable {
            id: figure.id.to_owned(),
            title: figure.title.clone(),
            x_label: figure.x_label.to_owned(),
            x: figure.x.clone(),
            series: figure
                .series
                .iter()
                .map(|(name, values)| ((*name).to_owned(), values.clone()))
                .collect(),
        }
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a millisecond value with enough precision to be lossless for the
/// magnitudes the sweeps produce. Fixed notation keeps the files diffable.
fn format_ms(ms: f64) -> String {
    format!("{ms:.9}")
}

/// Renders the tables as pretty-printed JSON, one figure object per entry.
pub fn render_json(tables: &[SeriesTable]) -> String {
    let mut out = String::from("[\n");
    for (i, table) in tables.iter().enumerate() {
        out.push_str("  {\n");
        out.push_str(&format!("    \"id\": \"{}\",\n", escape_json(&table.id)));
        out.push_str(&format!(
            "    \"title\": \"{}\",\n",
            escape_json(&table.title)
        ));
        out.push_str(&format!(
            "    \"x_label\": \"{}\",\n",
            escape_json(&table.x_label)
        ));
        let xs: Vec<String> = table.x.iter().map(u32::to_string).collect();
        out.push_str(&format!("    \"x\": [{}],\n", xs.join(", ")));
        out.push_str("    \"series\": {\n");
        for (j, (name, values)) in table.series.iter().enumerate() {
            let row: Vec<String> = values.iter().map(|&v| format_ms(v)).collect();
            out.push_str(&format!(
                "      \"{}\": [{}]{}\n",
                escape_json(name),
                row.join(", "),
                if j + 1 == table.series.len() { "" } else { "," }
            ));
        }
        out.push_str("    }\n");
        out.push_str(if i + 1 == tables.len() {
            "  }\n"
        } else {
            "  },\n"
        });
    }
    out.push_str("]\n");
    out
}

/// Compares a freshly rendered JSON document against a committed baseline.
///
/// The sweeps are deterministic, so the comparison is an exact line diff;
/// the first few mismatching lines are reported for context.
///
/// # Errors
///
/// Returns a human-readable report when the documents differ.
pub fn compare_json(current: &str, baseline: &str) -> Result<(), String> {
    if current == baseline {
        return Ok(());
    }
    let mut report = String::from("figure series differ from the committed baseline:\n");
    let mut shown = 0;
    let mut current_lines = current.lines();
    let mut baseline_lines = baseline.lines();
    let mut line_no = 0usize;
    while shown < 8 {
        line_no += 1;
        match (baseline_lines.next(), current_lines.next()) {
            (None, None) => break,
            (expected, got) if expected == got => continue,
            (expected, got) => {
                report.push_str(&format!(
                    "  line {line_no}:\n    baseline: {}\n    current:  {}\n",
                    expected.unwrap_or("<missing>"),
                    got.unwrap_or("<missing>"),
                ));
                shown += 1;
            }
        }
    }
    if shown == 0 {
        report.push_str("  (documents differ only in trailing whitespace)\n");
    }
    report.push_str(
        "regenerate with `--json <BENCH_file>` if the change is intentional \
         (and explain the perf delta in the PR)\n",
    );
    Err(report)
}

/// Handles the `--json PATH` / `--check PATH` arguments of the
/// `brmi-bench` binary. Returns the process exit code: failure when a `--check`
/// mismatches or a file cannot be read/written.
pub fn run_cli(tables: &[SeriesTable], args: &[String]) -> ExitCode {
    let rendered = render_json(tables);
    let mut code = ExitCode::SUCCESS;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => {
                let Some(path) = iter.next() else {
                    eprintln!("--json requires a path");
                    return ExitCode::FAILURE;
                };
                if let Err(err) = std::fs::write(path, &rendered) {
                    eprintln!("failed to write {path}: {err}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {path}");
            }
            "--check" => {
                let Some(path) = iter.next() else {
                    eprintln!("--check requires a path");
                    return ExitCode::FAILURE;
                };
                let baseline = match std::fs::read_to_string(path) {
                    Ok(contents) => contents,
                    Err(err) => {
                        eprintln!("failed to read {path}: {err}");
                        return ExitCode::FAILURE;
                    }
                };
                match compare_json(&rendered, &baseline) {
                    Ok(()) => println!("matches baseline {path}"),
                    Err(report) => {
                        eprint!("{report}");
                        code = ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("unknown argument: {other} (expected --json PATH or --check PATH)");
                return ExitCode::FAILURE;
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<SeriesTable> {
        vec![SeriesTable {
            id: "fig99".into(),
            title: "Sample \"quoted\"".into(),
            x_label: "calls".into(),
            x: vec![1, 2],
            series: vec![
                ("RMI".into(), vec![1.5, 2.25]),
                ("BRMI".into(), vec![0.5, 0.75]),
            ],
        }]
    }

    #[test]
    fn render_is_stable_and_escaped() {
        let doc = render_json(&sample());
        assert!(doc.contains("\"id\": \"fig99\""));
        assert!(doc.contains("Sample \\\"quoted\\\""));
        assert!(doc.contains("\"RMI\": [1.500000000, 2.250000000]"));
        assert_eq!(doc, render_json(&sample()), "rendering must be stable");
    }

    #[test]
    fn compare_accepts_identical_documents() {
        let doc = render_json(&sample());
        assert!(compare_json(&doc, &doc).is_ok());
    }

    #[test]
    fn compare_reports_the_differing_line() {
        let doc = render_json(&sample());
        let mut tables = sample();
        tables[0].series[0].1[1] = 9.0;
        let changed = render_json(&tables);
        let report = compare_json(&changed, &doc).unwrap_err();
        assert!(report.contains("baseline:"), "report: {report}");
        assert!(report.contains("9.000000000"), "report: {report}");
    }

    #[test]
    fn figure_conversion_names_both_series() {
        let figure = Figure {
            id: "fig01",
            title: "t".into(),
            x_label: "x",
            x: vec![1],
            rmi_ms: vec![2.0],
            brmi_ms: vec![1.0],
        };
        let table = SeriesTable::from(&figure);
        assert_eq!(table.series[0].0, "RMI");
        assert_eq!(table.series[1].0, "BRMI");
    }
}
