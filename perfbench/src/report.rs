//! Metric registry, per-workload metric sets, and the one-line JSON result.
//!
//! `BENCHMARK.json` lists the same names and units; a test keeps the two in
//! step. Every end-to-end metric is measured on every workload's own
//! operation (its definition per workload is in `METHODS.md`). Per-layer
//! metrics belong to the workloads that call into their layer: a traced
//! run reports the others as exactly 0 — "no calls into this layer" — and
//! a workload that tried to measure a layer it does not exercise is a bug
//! the renderer refuses.

use std::collections::BTreeMap;

use crate::Workload;

/// One metric: name and unit.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("op_p50_ms", "ms"),
    m("ops_per_s", "1/s"),
    m("rss_mb", "MB"),
];

/// Reported by every traced run (0 where the workload makes no call into
/// the layer).
pub const PER_LAYER: &[MetricDef] = &[
    m("solver.subsolve_s", "s"),
    m("solver.slowest_grid_s", "s"),
    m("solver.prolong_s", "s"),
    m("solver.steps", "count"),
    m("solver.lin_iters", "count"),
    m("solver.refactorizations", "count"),
    m("solver.flops", "count"),
    m("solver.gflops_per_s", "GFLOP/s"),
    m("solver.seq_solve_s", "s"),
    m("renovation.submit_s", "s"),
    m("renovation.coord_residual_s", "s"),
    m("renovation.speedup", "x"),
    m("renovation.codec_us", "us"),
    m("renovation.codec_bytes", "B"),
    m("transport.frame_us", "us"),
    m("transport.bytes_per_job", "B"),
    m("serve.proto_us", "us"),
    m("serve.admission_us", "us"),
    m("serve.journal_us", "us"),
    m("serve.journal_bytes_per_job", "B"),
    m("serve.unloaded_rtt_ms", "ms"),
    m("serve.queue_wait_ms", "ms"),
    m("serve.residual_ms", "ms"),
    m("serve.latency_tail_ms", "ms"),
    m("serve.rss_growth_kb_per_job", "kB"),
    m("serve.late_over_early_throughput", "ratio"),
    m("manifold.workers_created", "count"),
    m("cluster.distributed_s", "s"),
    m("cluster.fleet_s", "s"),
    m("cluster.sharded_s", "s"),
    m("cluster.dispatches", "count"),
    m("cluster.steals", "count"),
    m("protocol.shard_plan_s", "s"),
    m("trace.overhead_pct", "%"),
    m("trace.unexplained_pct", "%"),
];

const SOLVER: &[&str] = &[
    "solver.subsolve_s",
    "solver.slowest_grid_s",
    "solver.prolong_s",
    "solver.steps",
    "solver.lin_iters",
    "solver.refactorizations",
    "solver.flops",
    "solver.gflops_per_s",
];

const TRACE: &[&str] = &["trace.overhead_pct", "trace.unexplained_pct"];

/// The per-layer metrics a workload measures in a traced run.
pub fn layer_metrics(w: Workload) -> Vec<&'static str> {
    let own: &[&str] = match w {
        Workload::SolveBatch => &[
            "solver.seq_solve_s",
            "renovation.submit_s",
            "renovation.coord_residual_s",
            "renovation.speedup",
            "manifold.workers_created",
        ],
        Workload::ServeProcs => &[
            "renovation.submit_s",
            "renovation.codec_us",
            "renovation.codec_bytes",
            "transport.frame_us",
            "transport.bytes_per_job",
            "serve.proto_us",
            "serve.admission_us",
            "serve.journal_us",
            "serve.journal_bytes_per_job",
            "serve.unloaded_rtt_ms",
            "serve.queue_wait_ms",
            "serve.residual_ms",
            "serve.latency_tail_ms",
            "serve.rss_growth_kb_per_job",
            "serve.late_over_early_throughput",
            "manifold.workers_created",
        ],
        Workload::SimSweep => &[
            "cluster.distributed_s",
            "cluster.fleet_s",
            "cluster.sharded_s",
            "cluster.dispatches",
            "cluster.steals",
            "protocol.shard_plan_s",
        ],
    };
    let solver: &[&str] = match w {
        Workload::SimSweep => &[],
        Workload::SolveBatch | Workload::ServeProcs => SOLVER,
    };
    solver.iter().chain(own).chain(TRACE).copied().collect()
}

/// Verified-operation accounting plus the measured metric values of one
/// run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Count one verified operation; `ok == false` is a failed one.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another report's operation counts into this one.
    pub fn absorb_counts(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: every metric of the mode's table, in table order.
    /// Errs when a metric the workload exercises is missing or not finite,
    /// or when a value was measured for a metric outside the workload's
    /// set.
    pub fn render(&self, w: Workload, trace: bool) -> Result<String, String> {
        let (table, exercised): (&[MetricDef], Vec<&str>) = if trace {
            (PER_LAYER, layer_metrics(w))
        } else {
            (END_TO_END, END_TO_END.iter().map(|d| d.name).collect())
        };
        if let Some(stray) = self.values.keys().find(|k| !exercised.contains(k)) {
            return Err(format!(
                "{} measured {stray}, which it does not exercise",
                w.name()
            ));
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, d) in table.iter().enumerate() {
            let value = match self.values.get(d.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => return Err(format!("{} = {v} is not finite", d.name)),
                None if exercised.contains(&d.name) => {
                    return Err(format!("{} did not measure {}", w.name(), d.name))
                }
                None => 0.0,
            };
            let sep = if i == 0 { "" } else { ", " };
            out.push_str(&format!(
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Is `name` a well-formed metric name: 1–64 of `[A-Za-z0-9_.-]`, starting
    /// with a letter or digit?
    pub fn valid_name(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok_char)
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                d.unit.len() <= 16 && d.unit.chars().all(unit_ok),
                "bad unit {}",
                d.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(!valid_name("has space") && !valid_name(".lead") && !valid_name(""));
    }

    /// Every string value following `"key": "` in `text`, in order.
    fn string_values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\": \"");
        text.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &text[i + pat.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_registered_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).unwrap();
        // Names in file order: the workloads, then the end-to-end and the
        // per-layer metrics; every metric has a unit.
        let want: Vec<&str> = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
            .collect();
        assert_eq!(string_values(&spec, "name"), want);
        let units: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.unit).collect();
        assert_eq!(string_values(&spec, "unit"), units);
        // Bounds in (0, 0.25], the largest on setup_s (listed first).
        assert_eq!(END_TO_END[0].name, "setup_s");
        let bounds: Vec<f64> = spec
            .match_indices("\"bound\": ")
            .map(|(i, m)| {
                let rest = &spec[i + m.len()..];
                let end = rest.find(|c: char| c != '.' && !c.is_ascii_digit());
                rest[..end.unwrap()].parse().unwrap()
            })
            .collect();
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
        assert!(
            bounds.iter().all(|b| *b <= bounds[0]),
            "setup_s must carry the largest bound"
        );
    }

    #[test]
    fn every_layer_metric_belongs_to_some_workload() {
        for d in PER_LAYER {
            assert!(
                Workload::ALL
                    .iter()
                    .any(|w| layer_metrics(*w).contains(&d.name)),
                "{} is measured by no workload",
                d.name
            );
        }
        for w in Workload::ALL {
            for name in layer_metrics(w) {
                assert!(
                    PER_LAYER.iter().any(|d| d.name == name),
                    "{name} not registered"
                );
            }
        }
    }

    #[test]
    fn a_workload_never_emits_a_layer_it_does_not_exercise() {
        let mut r = Report::default();
        r.record(true);
        for name in layer_metrics(Workload::SimSweep) {
            r.set(name, 1.5);
        }
        let line = r.render(Workload::SimSweep, true).unwrap();
        // Measured layers carry their value; the solver is reported as
        // "no calls" (0), never as a measurement.
        assert!(line.contains("\"cluster.fleet_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"solver.subsolve_s\": {\"value\": 0, \"unit\": \"s\"}"));
        // Measuring a layer outside the workload's set is refused.
        r.set("solver.subsolve_s", 0.2);
        assert!(r.render(Workload::SimSweep, true).is_err());
    }

    #[test]
    fn a_missing_exercised_metric_is_an_error() {
        let mut r = Report::default();
        r.record(true);
        r.set("setup_s", 1.0);
        assert!(r.render(Workload::SolveBatch, false).is_err());
        for d in END_TO_END {
            r.set(d.name, 2.0);
        }
        assert!(r.render(Workload::SolveBatch, false).is_ok());
        r.set("rss_mb", f64::NAN);
        assert!(r.render(Workload::SolveBatch, false).is_err());
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = Report::default();
        assert!(!r.correct(), "a run with no attempts is not correct");
        r.record(true);
        assert!(r.correct());
        r.record(false);
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
    }
}
