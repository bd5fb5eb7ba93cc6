//! Samples, percentiles and the metric report one workload run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Timing samples of one quantity, in the unit they were pushed in.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Nearest-rank percentile, `p` in [0, 100]; 0 for no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        v[idx.min(v.len() - 1)]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

/// One reported metric: its value, unit and how many samples it rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one workload run reports: metrics by name, the output
/// checks attempted and failed (with the failures' descriptions), and
/// free-form facts about the run (sizes, counts) for the human report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub info: BTreeMap<String, String>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metrics.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples: n,
            },
        );
    }

    /// Record one output check; `Err` carries what went wrong.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failures.push(e);
        }
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.insert(key.into(), value.to_string());
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// One-line JSON rendering read by `run.py`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"metrics\":{");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
                quote(name),
                num(m.value),
                quote(m.unit),
                m.samples
            );
        }
        let _ = write!(
            s,
            "}},\"attempted\":{},\"failed\":{},\"failures\":[",
            self.attempted,
            self.failed()
        );
        // A broken run can fail thousands of checks; the first few say why.
        for (i, f) in self.failures.iter().take(20).enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&quote(f));
        }
        s.push_str("],\"info\":{");
        for (i, (k, v)) in self.info.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{}", quote(k), quote(v));
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number (non-finite values become `null`, which
/// `run.py` rejects as a broken metric).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Milliseconds in a `Duration`-like seconds value.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = Samples::new();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn report_json_escapes_and_counts() {
        let mut r = Report::new();
        r.metric("op_ms", 1.5, "ms", 3);
        r.check(Ok(()));
        r.check(Err("bad \"x\"".into()));
        let j = r.to_json();
        assert!(j.contains("\"op_ms\":{\"value\":1.5,\"unit\":\"ms\",\"samples\":3}"));
        assert!(j.contains("\"attempted\":2,\"failed\":1"));
        assert!(j.contains("bad \\\"x\\\""));
    }
}
