//! A minimal plain-text table formatter for the bench harness.
//!
//! The harness prints the paper's tables and figure series as aligned text
//! so `cargo run -p tt-bench --bin figure3` output can be compared to the
//! paper side by side.

use std::fmt;

/// A simple column-aligned text table.
///
/// # Example
///
/// ```
/// use tt_base::table::Table;
/// let mut t = Table::new(vec!["app", "ratio"]);
/// t.row(vec!["em3d".to_string(), "0.97".to_string()]);
/// let s = t.to_string();
/// assert!(s.contains("em3d"));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows
    /// extend the column count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let all_rows = std::iter::once(&self.headers).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let print_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i + 1 == widths.len() {
                    writeln!(f, "{cell}")?;
                } else {
                    write!(f, "{cell:w$}  ")?;
                }
            }
            Ok(())
        };
        print_row(f, &self.headers)?;
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(rule))?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligns_columns() {
        let mut t = Table::new(vec!["name", "v"]);
        t.row(vec!["longer-name".into(), "1".into()]);
        t.row(vec!["x".into(), "22".into()]);
        let s = t.to_string();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Both value cells start at the same column.
        let col = lines[2].find('1').unwrap();
        assert_eq!(lines[3].find("22").unwrap(), col);
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x".into(), "extra".into()]);
        let s = t.to_string();
        assert!(s.contains("extra"));
        assert_eq!(s.lines().count(), 3, "header, rule, one data row");
    }
}
