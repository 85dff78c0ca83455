//! One output schema for every workload: a table for people, one `report`
//! JSON line carrying the environment, sample counts and round spreads (two
//! files diff key by key), and the driver's result line last.

use crate::spec::{END_TO_END, PER_LAYER};

/// Middle value of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `p`-th percentile (nearest rank) of pooled nanosecond samples, in µs.
pub fn percentile_us(ns: &mut [u32], p: f64) -> f64 {
    assert!(!ns.is_empty(), "percentile of no samples");
    ns.sort_unstable();
    let rank = ((p / 100.0) * ns.len() as f64).ceil() as usize;
    f64::from(ns[rank.clamp(1, ns.len()) - 1]) / 1_000.0
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// How many samples the value summarises (rounds for a median over
    /// rounds, requests for a pooled percentile, 1 for a single reading).
    pub samples: usize,
    /// `(max - min) / median` over the run's rounds; a diagnostic of how
    /// steady the run was, absent when there is a single sample.
    pub round_spread: Option<f64>,
    /// The per-round values behind a median over rounds, in round order.
    pub per_round: Vec<f64>,
}

impl Metric {
    /// The median over rounds, with the spread over those rounds.
    pub fn of_rounds(name: &'static str, per_round: &[f64]) -> Metric {
        let med = median(per_round);
        let max = per_round.iter().copied().fold(f64::MIN, f64::max);
        let min = per_round.iter().copied().fold(f64::MAX, f64::min);
        Metric {
            name,
            value: med,
            samples: per_round.len(),
            round_spread: (per_round.len() > 1 && med != 0.0).then(|| (max - min) / med),
            per_round: per_round.to_vec(),
        }
    }

    /// A value that summarises `samples` observations some other way.
    pub fn single(name: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            value,
            samples,
            round_spread: None,
            per_round: Vec::new(),
        }
    }
}

/// Where and how the run was made.
pub struct Env {
    pub nproc: usize,
    pub rustc: &'static str,
    pub commit: String,
    pub profile: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub rounds: usize,
    pub requests_per_round: usize,
    pub accounts: u32,
    pub body_bytes: usize,
}

/// A finished run.
pub struct Report {
    pub workload: &'static str,
    pub trace: bool,
    pub env: Env,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the table.
    pub failures: Vec<String>,
    pub wall_s: f64,
    pub warmup_s: f64,
    pub metrics: Vec<Metric>,
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the spec tables"))
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

impl Report {
    /// Print the table, the report line and, last, the driver's line.
    pub fn print(&self) {
        let e = &self.env;
        println!(
            "# {} trace={} seed={} rounds={} requests/round={} nproc={} {} {}",
            self.workload,
            u8::from(self.trace),
            e.seed,
            e.rounds,
            e.requests_per_round,
            e.nproc,
            e.profile,
            e.rustc
        );
        for m in &self.metrics {
            let spread = m.round_spread.map_or(String::new(), |s| {
                format!("  round spread {:.2}%", s * 100.0)
            });
            println!(
                "{:<40} {:>16.4} {:<6} n={}{}",
                m.name,
                m.value,
                unit_of(m.name),
                m.samples,
                spread
            );
        }
        println!(
            "attempted {}  failed {}  wall {:.2} s  warm-up {:.2} s",
            self.attempted, self.failed, self.wall_s, self.warmup_s
        );
        for f in &self.failures {
            println!("FAILED: {f}");
        }

        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}, \"round_spread\": {}, \"per_round\": {:?}}}",
                    m.name,
                    m.value,
                    unit_of(m.name),
                    m.samples,
                    m.round_spread.map_or("null".into(), |s| s.to_string()),
                    m.per_round
                )
            })
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        println!(
            "{{\"schema\": \"rrq-perf/1\", \"workload\": \"{}\", \"trace\": {}, \
             \"env\": {{\"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"profile\": \"{}\", \
             \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"rounds\": {}, \"requests_per_round\": {}, \
             \"accounts\": {}, \"body_bytes\": {}}}, \
             \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"wall_s\": {}, \"warmup_s\": {}, \
             \"metrics\": {{{}}}}}",
            self.workload,
            self.trace,
            e.nproc,
            escape(e.rustc),
            escape(&e.commit),
            e.profile,
            e.seed,
            e.seconds,
            e.smoke,
            e.rounds,
            e.requests_per_round,
            e.accounts,
            e.body_bytes,
            self.attempted,
            self.failed,
            failures.join(", "),
            self.wall_s,
            self.warmup_s,
            metrics.join(", ")
        );

        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    m.value,
                    unit_of(m.name)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status (the benchmark needs Linux)")
}

/// The commit of the checkout the benchmark runs in, read from `.git` without
/// starting a process; "unknown" where there is no repository (the driver's
/// checkouts).
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
