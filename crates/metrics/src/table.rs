//! Plain-text table rendering for the experiment binaries.

use std::fmt::Write as _;

/// A simple column-aligned ASCII table.
///
/// ```
/// use bursty_metrics::Table;
/// let mut t = Table::new(&["pattern", "QUEUE", "RP"]);
/// t.row(&["Rb = Re".into(), "35".into(), "50".into()]);
/// let s = t.render();
/// assert!(s.contains("pattern"));
/// assert!(s.contains("Rb = Re"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

impl Table {
    /// Renders the table as GitHub-flavored Markdown (used by the
    /// report generator).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let escape = |s: &str| s.replace('|', "\\|");
        out.push('|');
        for h in &self.headers {
            let _ = write!(out, " {} |", escape(h));
        }
        out.push('\n');
        out.push('|');
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push('|');
            for cell in row {
                let _ = write!(out, " {} |", escape(cell));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["12345".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_mismatched_row() {
        let mut t = Table::new(&["only"]);
        t.row(&["a".into(), "b".into()]);
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(&["h1", "h2"]);
        assert!(t.rows.is_empty());
        assert_eq!(t.render().lines().count(), 2);
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a|b".into(), "1".into()]);
        let md = t.render_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| name | value |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| a\\|b | 1 |");
    }
}
