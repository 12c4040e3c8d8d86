//! Plain-text table rendering for experiment output.

/// Renders rows as an aligned plain-text table.
///
/// Column widths are measured in characters, not bytes — `format!`'s
/// width specifier pads by character count, so byte-measured widths
/// would misalign any column containing non-ASCII text (µ, ±, …).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let width_of = |s: &str| s.chars().count();
    let mut widths: Vec<usize> = headers.iter().map(|h| width_of(h)).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(width_of(cell));
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:>width$}", cell, width = widths[i]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Formats a float with fixed precision, rendering NaN and ±∞ as "-"
/// (an undefined or degenerate statistic, e.g. the min/max of an empty
/// run set).
pub fn fmt_f(v: f64, prec: usize) -> String {
    if v.is_finite() {
        format!("{v:.prec$}")
    } else {
        "-".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["x", "value"],
            &[
                vec!["1".into(), "10.00".into()],
                vec!["100".into(), "3.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("x"));
        assert!(lines[0].contains("value"));
        assert!(lines[2].trim_start().starts_with('1'));
    }

    #[test]
    fn table_aligns_non_ascii_headers_by_chars_not_bytes() {
        // "µs" is 3 bytes but 2 chars; byte-measured widths would pad the
        // header column wider than its cells and break the alignment.
        let t = render_table(
            &["µs", "garbage ±"],
            &[
                vec!["1".into(), "10.00".into()],
                vec!["100".into(), "3.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        let header_width = lines[0].chars().count();
        for data in &lines[2..] {
            assert_eq!(
                data.chars().count(),
                header_width,
                "row {data:?} misaligned with header {:?}",
                lines[0]
            );
        }
        // The rule matches the rendered character width too.
        assert_eq!(lines[1].chars().count(), header_width);
    }

    #[test]
    fn fmt_f_handles_nan_and_infinities() {
        assert_eq!(fmt_f(f64::NAN, 2), "-");
        assert_eq!(fmt_f(f64::INFINITY, 2), "-");
        assert_eq!(fmt_f(f64::NEG_INFINITY, 2), "-");
        assert_eq!(fmt_f(1.2345, 2), "1.23");
    }
}
