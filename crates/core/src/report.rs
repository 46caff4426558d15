//! Fixed-width and Markdown table rendering for experiment reports.
//!
//! Each experiment driver's `report_body` lays out its one table with
//! [`Table`] and the cell helpers here; the `rogue-bench` harness, the
//! examples and the scenario compiler print what it renders, and
//! EXPERIMENTS.md records the same rows.

/// A simple left-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as a GitHub-flavored Markdown table (pipes escaped).
    pub fn to_markdown(&self) -> String {
        let escape = |s: &str| s.replace('|', "\\|");
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            out.push('|');
            for cell in cells {
                out.push(' ');
                out.push_str(&escape(cell));
                out.push_str(" |");
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        out.push('|');
        for _ in &self.header {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format a boolean as the table-friendly YES/no.
pub fn yn(b: bool) -> String {
    if b {
        "YES".into()
    } else {
        "no".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["policy", "captured", "trojaned"]);
        t.row(&["open".into(), "100%".into(), "YES".into()]);
        t.row(&["vpn-all (udp)".into(), "100%".into(), "no".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("policy"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("open"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn markdown_shape() {
        let mut t = Table::new(&["scenario", "precision"]);
        t.row(&["rogue-ap".into(), "100.0%".into()]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "| scenario | precision |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| rogue-ap | 100.0% |");
    }

    #[test]
    fn markdown_escapes_pipes() {
        let mut t = Table::new(&["k"]);
        t.row(&["a|b".into()]);
        assert!(t.to_markdown().contains("a\\|b"));
    }

    #[test]
    fn helpers() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(1.0), "100.0%");
        assert_eq!(yn(true), "YES");
        assert_eq!(yn(false), "no");
    }
}
