//! Summary statistics, the per-run result line, and the span trace.

use std::fmt::Write as _;
use std::time::Instant;

/// Median of a sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null` so the line stays
/// valid JSON (and the consumer sees the metric is missing).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// What one run reports: the operation count, failures, whether every
/// output check passed, and the metrics with their units.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn new() -> RunResult {
        RunResult {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records one operation's outcome.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Marks the run incorrect with a reason on stderr.
    pub fn fail_check(&mut self, what: &str) {
        eprintln!("CHECK FAILED: {what}");
        self.correct = false;
    }

    /// Prints every metric on its own line, then the JSON result line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        println!(
            "operations attempted={} failed={} correct={}",
            self.attempted, self.failed, self.correct
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// One timed call into a layer, recorded by the benchmark around the
/// public function it calls.
struct Span {
    name: String,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span trace, written out once when the traced run ends.
pub struct Trace {
    t0: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.t0.elapsed().as_nanos();
        let out = f();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: self.t0.elapsed().as_nanos(),
        });
        out
    }

    /// Total seconds of every span with this name.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Total seconds of all spans.
    pub fn all_s(&self) -> f64 {
        self.spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes the spans as a JSON array of `{name, start_ns, end_ns}`
    /// objects, in the order they ended.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "  {{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    json_str(&s.name),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
    }
}

/// `f` inside a span when the run is traced, plainly otherwise.
pub fn timed<T>(trace: Option<&mut Trace>, name: &str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(t) => t.span(name, f),
        None => f(),
    }
}
