//! Shared scaffolding for the experiment harness, and the two baselines
//! only the experiments run: the §2 one-, two- and three-transaction
//! client designs ([`designs`], E3) and the §6 persistent application-lock
//! table ([`app_lock`], E6).

pub mod app_lock;
pub mod designs;

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
