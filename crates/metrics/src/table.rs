//! Plain-text table rendering for the figure harnesses.
//!
//! The harness binaries print each figure's data as an aligned ASCII table —
//! the rows/series the paper plots — so results diff cleanly and paste into
//! EXPERIMENTS.md.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Pad on the right (labels).
    Left,
    /// Pad on the left (numbers).
    Right,
}

/// An ASCII table under construction.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given title and column headers. The first
    /// column is left-aligned, the rest right-aligned (label + numbers), the
    /// common case for figure data; override with [`Table::aligns`].
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        let aligns = std::iter::once(Align::Left)
            .chain(std::iter::repeat(Align::Right))
            .take(headers.len())
            .collect();
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            aligns,
            rows: Vec::new(),
        }
    }

    /// Override column alignments.
    ///
    /// # Panics
    /// Panics if the count does not match the header count.
    pub fn aligns(mut self, aligns: &[Align]) -> Self {
        assert_eq!(aligns.len(), self.headers.len(), "alignment count mismatch");
        self.aligns = aligns.to_vec();
        self
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string (also available via `Display`).
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let fmt_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            let mut line = String::from("|");
            for i in 0..ncols {
                match aligns[i] {
                    Align::Left => {
                        let _ = write!(line, " {:<w$} |", cells[i], w = widths[i]);
                    }
                    Align::Right => {
                        let _ = write!(line, " {:>w$} |", cells[i], w = widths[i]);
                    }
                }
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths, &self.aligns));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths, &self.aligns));
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Format a float with `digits` decimal places — the standard cell shape.
pub fn num(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Format a fraction as a percentage with one decimal, e.g. `4.6%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("demo", &["combo", "wait"]);
        t.row(&["HH".to_string(), "61.0".to_string()]);
        t.row(&["YY-long".to_string(), "7.5".to_string()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| combo   | wait |"));
        assert!(s.contains("| HH      | 61.0 |"));
        assert!(s.contains("| YY-long |  7.5 |"));
        let sep_line = s.lines().nth(2).unwrap();
        assert!(sep_line.chars().all(|c| c == '|' || c == '-'));
    }

    #[test]
    fn rows_track_len() {
        let mut t = Table::new("", &["a"]);
        assert!(t.is_empty());
        t.row(&["x".to_string()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn custom_alignment() {
        let mut t = Table::new("", &["a", "b"]).aligns(&[Align::Right, Align::Left]);
        t.row(&["1".to_string(), "x".to_string()]);
        let line = t.render().lines().nth(2).unwrap().to_string();
        assert!(line.contains("| 1 | x |"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(num(2.54321, 2), "2.54");
        assert_eq!(pct(0.046), "4.6%");
    }
}
