//! Order statistics and the result printout.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was obtained, for the human-readable line.
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: note.into(),
        }
    }
}

/// Linear-interpolated quantile of `values` (`q` in `0..=1`); NaN when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p99.9/p99/p95/p90/p75/p50 with at least ten of `n`
/// observations beyond it, in per-mille.
pub fn tail_permille(n: usize) -> u32 {
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&pm| n * (1000 - pm as usize) / 1000 >= 10)
        .unwrap_or(500)
}

/// Prints one line per metric, then the result object as the last line.
pub fn print(metrics: &[Metric], attempted: u64, failed: u64, correct: bool) {
    for m in metrics {
        println!(
            "{:<34} {:>16} {:<10} {}",
            m.name,
            fmt(m.value),
            m.unit,
            m.note
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn fmt(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// Every digit of a finite value; JSON has no NaN, so a value that could
/// not be measured is written as `null` (and the run is marked failed).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_keeps_ten_beyond() {
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(1000), 990);
        assert_eq!(tail_permille(3072), 990);
        assert_eq!(tail_permille(10_000), 999);
        assert_eq!(tail_permille(5), 500);
    }
}
