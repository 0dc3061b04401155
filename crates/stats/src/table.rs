//! Plain-text table rendering for the bench binaries.
//!
//! The figure/table regeneration binaries print aligned ASCII tables (the
//! "same rows/series the paper reports"); this module keeps the formatting
//! in one place.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple ASCII table builder.
#[derive(Debug, Clone)]
pub struct Table {
    title: Option<String>,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers (all right-aligned
    /// except the first).
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let aligns = headers
            .iter()
            .enumerate()
            .map(|(i, _)| if i == 0 { Align::Left } else { Align::Right })
            .collect();
        Self {
            title: None,
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Sets a title printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    /// If the cell count differs from the header count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "{t}");
        }
        let rule: String = {
            let mut r = String::from("+");
            for w in &widths {
                r.push_str(&"-".repeat(w + 2));
                r.push('+');
            }
            r
        };
        let fmt_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            let mut line = String::from("|");
            for i in 0..cols {
                let w = widths[i];
                match aligns[i] {
                    Align::Left => {
                        let _ = write!(line, " {:<w$} |", cells[i], w = w);
                    }
                    Align::Right => {
                        let _ = write!(line, " {:>w$} |", cells[i], w = w);
                    }
                }
            }
            line
        };
        let _ = writeln!(out, "{rule}");
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths, &self.aligns));
        let _ = writeln!(out, "{rule}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths, &self.aligns));
        }
        let _ = writeln!(out, "{rule}");
        out
    }
}

/// Formats a float with the given number of decimals.
pub fn f(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["load", "thr", "lat"]).with_title("demo");
        t.row(vec!["0.1", "0.099", "23.0"]);
        t.row(vec!["0.9", "0.71", "410.5"]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("| load |"));
        // Numbers right-aligned under their headers.
        assert!(s.contains("0.099"));
        let lines: Vec<&str> = s.lines().collect();
        // title + rule + header + rule + 2 rows + rule = 7 lines
        assert_eq!(lines.len(), 7);
        let width = lines[1].len();
        assert!(lines[2..].iter().all(|l| l.len() == width));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn helpers_format() {
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn empty_table_renders_headers() {
        let t = Table::new(vec!["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        let s = t.render();
        assert!(s.contains("| x |"));
    }
}
