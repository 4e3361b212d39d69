//! Minimal markdown table rendering (no serde needed — the tables are
//! small and the format trivial).

use std::fmt::Write as _;

/// A rectangular table with a header row.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header width.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            out.push('|');
            for (w, cell) in widths.iter().zip(cells) {
                let _ = write!(out, " {cell:<w$} |");
            }
            out.push('\n');
        };
        render_row(&mut out, &self.header);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Formats an `f64` compactly for tables: up to 3 decimals, `inf` for
/// infinities, `-` for NaN.
pub fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "inf" } else { "-inf" }.to_string()
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering_aligns() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.push_row(vec!["1", "2"]);
        t.push_row(vec!["wider-cell", "3"]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a"));
        assert!(md.contains("| wider-cell | 3"));
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("|--"));
        // All lines equal width (aligned).
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a"]);
        t.push_row(vec!["1", "2"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(1.23456), "1.235");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-inf");
        assert_eq!(fmt_f64(f64::NAN), "-");
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(vec!["a"]);
        assert!(t.is_empty());
        t.push_row(vec!["1"]);
        assert_eq!(t.len(), 1);
    }
}
