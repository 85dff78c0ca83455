//! Shared scaffolding for the experiment harness.

/// Format a rate as a fixed-width table cell.
pub fn fmt_rate(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{:>9.0}", v)
    } else if v >= 100.0 {
        format!("{:>9.1}", v)
    } else {
        format!("{:>9.2}", v)
    }
}

/// Print a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}
