//! Table rendering and paper-vs-measured comparison.
//!
//! Every benchmark harness prints its result next to the paper's published
//! number plus the ratio, and `EXPERIMENTS.md` is generated from the same
//! data — so the reproduction status is always inspectable.

use serde::{Serialize, Value};
use std::fmt::Write as _;

/// One experiment cell: the paper's number vs ours.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Row/series label.
    pub label: String,
    /// Value published in the paper (`None` for cells the paper leaves
    /// blank or marks ×).
    pub paper: Option<f64>,
    /// Our measured value (`None` = not applicable on this device).
    pub measured: Option<f64>,
    /// Unit string for display.
    pub unit: &'static str,
}

impl Cell {
    /// Construct a full cell.
    pub fn new(label: impl Into<String>, paper: f64, measured: f64, unit: &'static str) -> Self {
        Cell {
            label: label.into(),
            paper: Some(paper),
            measured: Some(measured),
            unit,
        }
    }

    /// measured/paper, when both exist.
    pub fn ratio(&self) -> Option<f64> {
        match (self.paper, self.measured) {
            (Some(p), Some(m)) if p != 0.0 => Some(m / p),
            _ => None,
        }
    }

    /// Does the measurement land within `tol` (relative) of the paper?
    pub fn within(&self, tol: f64) -> Option<bool> {
        self.ratio().map(|r| (r - 1.0).abs() <= tol)
    }
}

/// A comparison table for one paper table/figure.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// e.g. `Table IV`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Cells in display order.
    pub cells: Vec<Cell>,
    /// Free-form notes (substitutions, caveats).
    pub notes: Vec<String>,
}

/// `experiments.json` keeps each struct's field order, unlike the
/// sorted-key documents built with `hopper_obs::json::obj`.
fn ordered_object(fields: [(&str, Value); 4]) -> Value {
    Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
}

impl Serialize for Cell {
    fn to_value(&self) -> Value {
        ordered_object([
            ("label", self.label.to_value()),
            ("paper", self.paper.to_value()),
            ("measured", self.measured.to_value()),
            ("unit", self.unit.to_value()),
        ])
    }
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        ordered_object([
            ("id", self.id.to_value()),
            ("title", self.title.to_value()),
            ("cells", self.cells.to_value()),
            ("notes", self.notes.to_value()),
        ])
    }
}

impl Report {
    /// Start a report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            cells: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a fully-populated cell.
    pub fn push(
        &mut self,
        label: impl Into<String>,
        paper: f64,
        measured: f64,
        unit: &'static str,
    ) {
        self.cells.push(Cell::new(label, paper, measured, unit));
    }

    /// Add a measured-only cell (no paper reference).
    pub fn push_measured(&mut self, label: impl Into<String>, measured: f64, unit: &'static str) {
        self.cells.push(Cell {
            label: label.into(),
            paper: None,
            measured: Some(measured),
            unit,
        });
    }

    /// Add a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Fraction of comparable cells within `tol` relative error.
    pub fn pass_rate(&self, tol: f64) -> f64 {
        let comparable: Vec<bool> = self.cells.iter().filter_map(|c| c.within(tol)).collect();
        if comparable.is_empty() {
            return 1.0;
        }
        comparable.iter().filter(|&&b| b).count() as f64 / comparable.len() as f64
    }

    /// Worst relative deviation among comparable cells.
    pub fn worst_ratio_dev(&self) -> f64 {
        self.cells
            .iter()
            .filter_map(|c| c.ratio())
            .map(|r| (r - 1.0).abs())
            .fold(0.0, f64::max)
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let width = self
            .cells
            .iter()
            .map(|c| c.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = writeln!(
            out,
            "{:width$}  {:>12}  {:>12}  {:>7}  unit",
            "row", "paper", "measured", "ratio",
        );
        for c in &self.cells {
            let paper = c.paper.map_or("—".to_string(), |v| format!("{v:.1}"));
            let meas = c.measured.map_or("—".to_string(), |v| format!("{v:.1}"));
            let ratio = c.ratio().map_or("—".to_string(), |r| format!("{r:.2}×"));
            let _ = writeln!(
                out,
                "{:width$}  {paper:>12}  {meas:>12}  {ratio:>7}  {}",
                c.label, c.unit
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Render as a Markdown section for EXPERIMENTS.md.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "| row | paper | measured | ratio | unit |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for c in &self.cells {
            let paper = c.paper.map_or("—".to_string(), |v| format!("{v:.1}"));
            let meas = c.measured.map_or("—".to_string(), |v| format!("{v:.1}"));
            let ratio = c.ratio().map_or("—".to_string(), |r| format!("{r:.2}×"));
            let _ = writeln!(
                out,
                "| {} | {paper} | {meas} | {ratio} | {} |",
                c.label, c.unit
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "\n*Note: {n}*");
        }
        let _ = writeln!(out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_and_tolerance() {
        let c = Cell::new("x", 100.0, 104.0, "clk");
        assert_eq!(c.ratio(), Some(1.04));
        assert_eq!(c.within(0.05), Some(true));
        assert_eq!(c.within(0.03), Some(false));
        let blank = Cell {
            label: "y".into(),
            paper: None,
            measured: Some(1.0),
            unit: "",
        };
        assert_eq!(blank.ratio(), None);
        assert_eq!(blank.within(0.1), None);
    }

    #[test]
    fn pass_rate_ignores_incomparable() {
        let mut r = Report::new("T", "t");
        r.push("a", 10.0, 10.5, "u");
        r.push("b", 10.0, 20.0, "u");
        r.push_measured("c", 5.0, "u");
        assert_eq!(r.pass_rate(0.10), 0.5);
        assert!((r.worst_ratio_dev() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_all_rows() {
        let mut r = Report::new("Table IV", "latency");
        r.push("L1", 40.7, 41.0, "clk");
        r.note("calibrated");
        let text = r.render();
        assert!(text.contains("Table IV"));
        assert!(text.contains("L1"));
        assert!(text.contains("note: calibrated"));
        let md = r.render_markdown();
        assert!(md.contains("| L1 | 40.7 | 41.0 |"));
        // Fields in declaration order, as experiments.json has them.
        let json = r.to_value().to_string();
        let cell = r#"{"label":"L1","paper":40.7,"measured":41.0,"unit":"clk"}"#;
        let want = format!(
            r#"{{"id":"Table IV","title":"latency","cells":[{cell}],"notes":["calibrated"]}}"#
        );
        assert_eq!(json, want);
    }
}
