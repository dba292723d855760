//! Order statistics and the run's report: every metric by name with its
//! unit, the recorded run facts, and the final one-line JSON result.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs.to_vec()), 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// What a run prints.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    facts: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn fact(&mut self, name: &str, value: impl std::fmt::Display) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            eprintln!("[e2ebench] FAIL: {what}");
        }
        self.problems.push(what);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints the human-readable lines, the facts line and, last, the
    /// JSON result line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
            .collect();
        println!("facts {{{}}}", facts.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(*value),
                    json_string(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
