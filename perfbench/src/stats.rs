//! Sample summaries and the metric report the benchmark prints.

/// Arithmetic mean (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Smallest value (0 for an empty sample).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// `(q1, median, q3)` with the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`, so the printed quartiles match the
/// ones a reader computes from the raw samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let n = v.len();
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// One reported metric: its value, unit, and the samples it summarises
/// (printed as quartiles when there are several).
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Everything a workload run produces.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Output-check failures, one line each.
    pub errors: Vec<String>,
}

impl Report {
    /// An end-to-end metric reported as the median of its samples.
    pub fn e2e(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        let value = median(&samples);
        self.e2e_value(name, unit, value, samples);
    }

    /// An end-to-end metric whose value is computed from its samples
    /// by the workload (e.g. a mean over demand draws).
    pub fn e2e_value(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: Vec<f64>,
    ) {
        self.end_to_end.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.per_layer.push(Metric {
            name,
            unit,
            value,
            samples: vec![value],
        });
    }

    /// Count one checked operation; a false `ok` marks it failed and
    /// records why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0]), 4.0);
    }
}
