//! One run's result: the metrics by name, the verdict on the outputs,
//! and the three ways it is written out (the one-line result the
//! acceptance pipeline reads, a table for people, a JSON file).

use crate::json::quote;
use crate::spec::Workload;
use crate::stats::SliceSummary;

/// Orders `metrics` as `declared` lists them.
///
/// # Panics
///
/// Panics when a declared metric was not measured, an undeclared one
/// was, or a unit differs: the binary and `BENCHMARK.json` must not
/// drift apart, and the smoke test pins `declared` to the file.
pub fn in_declared_order(
    declared: &[(&'static str, &'static str)],
    metrics: Vec<Metric>,
) -> Vec<Metric> {
    for m in &metrics {
        assert!(
            declared.contains(&(m.name, m.unit)),
            "metric {} [{}] is not declared",
            m.name,
            m.unit
        );
    }
    declared
        .iter()
        .map(|(name, _)| {
            metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("declared metric {name} was not measured"))
                .clone()
        })
        .collect()
}

/// One measured metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The reported value: the best slice for a time-like metric, the
    /// count or ratio itself for an exact one.
    pub value: f64,
    /// Per-slice spread of a time-like metric (absent for exact ones).
    pub slices: Option<SliceSummary>,
}

impl Metric {
    /// A metric that is a count or a ratio of counts.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            slices: None,
        }
    }

    /// A time-like metric measured once per slice; reports the best slice.
    pub fn best_slice(
        name: &'static str,
        unit: &'static str,
        per_slice: &[f64],
        higher_is_better: bool,
    ) -> Metric {
        let summary = SliceSummary::of(per_slice, higher_is_better);
        Metric {
            name,
            unit,
            value: summary.best,
            slices: Some(summary),
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The workload as run (smoke runs carry the cut-down constants).
    pub workload: Workload,
    /// The `--seed` the inputs were generated from.
    pub seed: u64,
    /// Whether this was the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// Shots submitted for decoding in the measured slices.
    pub attempted: u64,
    /// Attempted shots that produced no usable commit: shed, failed in
    /// the decoder, or never answered.
    pub failed: u64,
    /// Output checks that did not hold; empty means `correct: true`.
    pub problems: Vec<String>,
    /// The metrics the result line carries.
    pub metrics: Vec<Metric>,
    /// Metrics measured along the way but not part of this run's result
    /// line (a traced run still measures the end-to-end set on its
    /// untraced slices).
    pub also: Vec<Metric>,
    /// Facts about the run worth keeping beside the numbers: the
    /// Hamming-weight histogram of the traffic, sample counts, slices.
    pub notes: Vec<(&'static str, String)>,
}

/// `"name": {"value": …, "unit": …}`, with the slice spread appended when
/// `with_slices`. A non-finite value is written as 0 (and makes the run
/// incorrect): the line must stay JSON.
fn metric_json(m: &Metric, with_slices: bool) -> String {
    let mut s = format!(
        "{}: {{\"value\": {}, \"unit\": {}",
        quote(m.name),
        if m.value.is_finite() { m.value } else { 0.0 },
        quote(m.unit)
    );
    if let Some(sl) = m.slices.as_ref().filter(|_| with_slices) {
        s.push_str(&format!(
            ", \"slice_median\": {}, \"slice_q1\": {}, \"slice_q3\": {}, \"slices\": {:?}",
            sl.median, sl.q1, sl.q3, sl.values
        ));
    }
    s.push('}');
    s
}

impl RunReport {
    /// Whether every output check held and every metric is a number.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line result: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric exactly `value` and `unit`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self.metrics.iter().map(|m| metric_json(m, false)).collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run as a table: every metric by name with its unit, the slice
    /// spread beside each time-like one.
    pub fn table(&self) -> String {
        let w = &self.workload;
        let mut out = format!(
            "# {} seed={} trace={}\n# why: {}\n",
            w.name, self.seed, self.traced as u8, w.why
        );
        for (k, v) in &self.notes {
            out.push_str(&format!("# {k}: {v}\n"));
        }
        out.push_str(&format!(
            "{:<44} {:>16} {:<9} {}\n",
            "metric", "value", "unit", "slices: median [q1, q3]"
        ));
        for m in self.metrics.iter().chain(&self.also) {
            let spread = m.slices.as_ref().map_or_else(
                || "exact".to_string(),
                |s| {
                    format!(
                        "{:.6} [{:.6}, {:.6}] n={}",
                        s.median,
                        s.q1,
                        s.q3,
                        s.values.len()
                    )
                },
            );
            out.push_str(&format!(
                "{:<44} {:>16.6} {:<9} {}\n",
                m.name, m.value, m.unit, spread
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("INCORRECT: {p}\n"));
        }
        out
    }

    /// The whole run as one JSON document (`--out`).
    pub fn full_json(&self) -> String {
        let w = &self.workload;
        let list = |ms: &[Metric]| {
            ms.iter()
                .map(|m| metric_json(m, true))
                .collect::<Vec<_>>()
                .join(",\n    ")
        };
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| quote(p)).collect();
        format!(
            "{{\n  \"workload\": {},\n  \"why\": {},\n  \"seed\": {},\n  \"traced\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [{}],\n  \"constants\": {{\"distance\": {}, \"rounds\": {}, \"p\": {}, \"window\": {}, \"commit\": {}, \"tenants\": {}, \"pool_shots\": {}, \"passes\": {}, \"shots_per_s\": {}, \"limit_us\": {}}},\n  \"notes\": {{{}}},\n  \"metrics\": {{\n    {}\n  }},\n  \"also\": {{\n    {}\n  }}\n}}\n",
            quote(w.name),
            quote(w.why),
            self.seed,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            problems.join(", "),
            w.distance,
            w.rounds,
            w.p,
            w.window,
            w.commit,
            w.tenants,
            w.pool_shots,
            w.passes,
            w.shots_per_s,
            w.limit_us,
            notes.join(", "),
            list(&self.metrics),
            list(&self.also),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::spec::WORKLOADS;

    fn report(problems: Vec<String>) -> RunReport {
        RunReport {
            workload: WORKLOADS[0],
            seed: 3,
            traced: false,
            attempted: 100,
            failed: 0,
            problems,
            metrics: vec![
                Metric::best_slice("rounds_per_s", "rounds/s", &[10.0, 12.5, 11.0], true),
                Metric::exact("delivered_fraction", "ratio", 1.0),
            ],
            also: vec![Metric::exact("extra", "count", 2.0)],
            notes: vec![("pool_hw", "0:5 1:\"3\"".into())],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = report(Vec::new()).result_line();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.members().len(), 2, "`also` stays out of the result line");
        let r = m.get("rounds_per_s").unwrap();
        assert_eq!(r.members().len(), 2);
        assert_eq!(r.get("value").unwrap().as_f64(), Some(12.5));
        assert_eq!(r.get("unit").unwrap().as_str(), Some("rounds/s"));
    }

    #[test]
    fn a_problem_or_a_nan_makes_the_run_incorrect() {
        assert!(!report(vec!["slice 2 diverged".into()]).correct());
        let mut nan = report(Vec::new());
        nan.metrics[1].value = f64::NAN;
        assert!(!nan.correct());
        assert!(json::parse(&nan.result_line()).is_ok());
    }

    #[test]
    fn full_json_parses_and_the_table_names_every_metric() {
        let r = report(vec!["bad".into()]);
        let v = json::parse(&r.full_json()).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some(WORKLOADS[0].name));
        assert_eq!(
            v.get("metrics")
                .unwrap()
                .get("rounds_per_s")
                .unwrap()
                .get("slice_median")
                .unwrap()
                .as_f64(),
            Some(11.0)
        );
        let table = r.table();
        for name in [
            "rounds_per_s",
            "delivered_fraction",
            "extra",
            "INCORRECT: bad",
        ] {
            assert!(table.contains(name), "{name} missing from\n{table}");
        }
    }
}
