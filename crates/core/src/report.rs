//! Plain-text table rendering for the table/figure regenerators.

use core::fmt::Write as _;

/// A simple aligned-column text table.
///
/// ```
/// use spur_core::report::Table;
///
/// let mut t = Table::new("Table X: Demo");
/// t.headers(&["name", "value"]);
/// t.row(vec!["a".into(), "1".into()]);
/// let text = t.render();
/// assert!(text.contains("Table X: Demo"));
/// assert!(text.contains("a"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title line.
    pub fn new(title: &str) -> Self {
        Table {
            title: title.to_string(),
            headers: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the header row.
    pub fn headers(&mut self, headers: &[&str]) -> &mut Self {
        self.headers = headers.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width disagrees with the header width.
    pub fn row(&mut self, row: Vec<String>) -> &mut Self {
        assert!(
            self.headers.is_empty() || row.len() == self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
        self
    }

    /// Renders the table as CSV (header row first), for plotting tools.
    /// Cells containing commas or quotes are quoted per RFC 4180.
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        if !self.headers.is_empty() {
            out.push_str(
                &self
                    .headers
                    .iter()
                    .map(|h| esc(h))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
        let _ = writeln!(out, "{}", "=".repeat(self.title.len().max(total)));
        if !self.headers.is_empty() {
            let cells: Vec<String> = self
                .headers
                .iter()
                .enumerate()
                .map(|(i, h)| format!("{:<width$}", h, width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }
}

/// Formats a ratio as the paper's "(1.16)" relative notation.
pub(crate) fn fmt_rel(value: f64) -> String {
    format!("({value:.2})")
}

/// Formats a percentage with no decimals, as Table 3.5 does.
pub(crate) fn fmt_pct(value: f64) -> String {
    format!("{value:.0}%")
}

/// Formats a percentage with one decimal, as Table 3.5's last column
/// does.
pub(crate) fn fmt_pct1(value: f64) -> String {
    format!("{value:.1}%")
}

/// Formats a cycle count in millions with three significant figures, as
/// Table 3.4 does.
pub(crate) fn fmt_millions(value: f64) -> String {
    if value >= 100.0 {
        format!("{value:.0}")
    } else if value >= 10.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T");
        t.headers(&["aa", "b"]);
        t.row(vec!["x".into(), "yyyy".into()]);
        t.row(vec!["longer".into(), "z".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[2].starts_with("aa"));
        // Columns align: "yyyy" and "z" start at the same offset.
        let ypos = lines[4].find("yyyy").unwrap();
        let zpos = lines[5].find('z').unwrap();
        assert_eq!(ypos, zpos);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("T");
        t.headers(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_rel(1.163), "(1.16)");
        assert_eq!(fmt_pct(18.4), "18%");
        assert_eq!(fmt_pct1(2.84), "2.8%");
        assert_eq!(fmt_millions(1.444), "1.44");
        assert_eq!(fmt_millions(35.3), "35.3");
        assert_eq!(fmt_millions(135.3), "135");
    }

    #[test]
    fn csv_output_escapes_and_orders() {
        let mut t = Table::new("T");
        t.headers(&["a", "b"]);
        t.row(vec!["1,5".into(), "plain".into()]);
        t.row(vec!["say \"hi\"".into(), "x".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "a,b");
        assert_eq!(lines[1], "\"1,5\",plain");
        assert_eq!(lines[2], "\"say \"\"hi\"\"\",x");
    }

    #[test]
    fn empty_table_renders_title_only() {
        let t = Table::new("Empty");
        assert!(t.render().contains("Empty"));
    }
}
