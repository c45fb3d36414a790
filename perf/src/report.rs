//! Metric names, units and the final result line.

use o4a_exec::json::{obj, Json};
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1`. Layers a workload does
/// not exercise read 0, and so does a tail percentile whose sample count
/// (`.n`) leaves fewer than ten samples beyond it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("llm.construct_s", "s"),
    ("llm.requests", "count"),
    ("llm.validate_calls", "count"),
    ("llm.validate_s", "s"),
    ("core.setup_s", "s"),
    ("core.generate_us.p50", "us"),
    ("core.generate_us.p99", "us"),
    ("core.generate_us.n", "count"),
    ("core.generate_s", "s"),
    ("core.case_bytes_mean", "bytes"),
    ("core.invalid_fill_rate", "ratio"),
    ("solvers.analyze_us.oxiz.p50", "us"),
    ("solvers.analyze_us.oxiz.p99", "us"),
    ("solvers.analyze_us.oxiz.n", "count"),
    ("solvers.analyze_us.cervo.p50", "us"),
    ("solvers.analyze_us.cervo.p99", "us"),
    ("solvers.analyze_us.cervo.n", "count"),
    ("solvers.analyze_s.oxiz", "s"),
    ("solvers.analyze_s.cervo", "s"),
    ("solvers.check_us.oxiz.p50", "us"),
    ("solvers.check_us.oxiz.p99", "us"),
    ("solvers.check_us.oxiz.max", "us"),
    ("solvers.check_us.oxiz.n", "count"),
    ("solvers.check_us.cervo.p50", "us"),
    ("solvers.check_us.cervo.p99", "us"),
    ("solvers.check_us.cervo.max", "us"),
    ("solvers.check_us.cervo.n", "count"),
    ("solvers.check_s.oxiz", "s"),
    ("solvers.check_s.cervo", "s"),
    ("solvers.steps.oxiz", "count"),
    ("solvers.steps.cervo", "count"),
    ("solvers.assignments.oxiz", "count"),
    ("solvers.assignments.cervo", "count"),
    ("solvers.outcome.sat", "count"),
    ("solvers.outcome.unsat", "count"),
    ("solvers.outcome.unknown", "count"),
    ("solvers.outcome.error", "count"),
    ("solvers.outcome.crash", "count"),
    ("solvers.outcome.timeout", "count"),
    ("core.judge_us.p50", "us"),
    ("core.judge_us.p99", "us"),
    ("core.judge_us.n", "count"),
    ("core.judge_s", "s"),
    ("core.apply_us.p50", "us"),
    ("core.apply_us.p99", "us"),
    ("core.apply_us.n", "count"),
    ("core.apply_s", "s"),
    ("core.snapshots", "count"),
    ("core.findings", "count"),
    ("pipe.roundtrip_us.p50", "us"),
    ("pipe.roundtrip_us.p99", "us"),
    ("pipe.roundtrip_us.n", "count"),
    ("pipe.processes_spawned", "count"),
    ("pipe.respawns", "count"),
    ("pipe.scopes_pushed", "count"),
    ("cache.open_s", "s"),
    ("cache.lookup_us.p50", "us"),
    ("cache.lookup_us.p99", "us"),
    ("cache.lookup_us.n", "count"),
    ("cache.lookup_s", "s"),
    ("cache.record_us.p50", "us"),
    ("cache.record_us.p99", "us"),
    ("cache.record_us.n", "count"),
    ("cache.record_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("store.append_us.p50", "us"),
    ("store.append_us.p90", "us"),
    ("store.append_us.n", "count"),
    ("store.append_s", "s"),
    ("store.appends", "count"),
    ("exec.other_s", "s"),
    ("dist.leases_granted", "count"),
    ("dist.leases_reissued", "count"),
    ("dist.worker_deaths", "count"),
    ("dist.workers_spawned", "count"),
    ("dist.worker_cases_per_s.min", "1/s"),
    ("dist.worker_cases_per_s.max", "1/s"),
    ("dist.tail_s", "s"),
    ("dist.merge_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.probe_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.failed_frac", "ratio"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// The last line of a run: the result object the benchmark contract
/// fixes. Panics when a metric of `table` is missing or an extra one is
/// present, so a run can never print a partial set.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    metrics: &Metrics,
) -> String {
    assert_eq!(
        metrics.keys().map(String::as_str).collect::<Vec<_>>(),
        {
            let mut names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            names.sort_unstable();
            names
        },
        "the run measured another metric set than it must print"
    );
    let values = table
        .iter()
        .map(|&(name, unit)| {
            let value = obj(vec![
                ("value", Json::F64(metrics[name])),
                ("unit", Json::Str(unit.to_string())),
            ]);
            (name.to_string(), value)
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(values)),
    ])
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use o4a_exec::json::parse;

    /// The metric lists and units here are the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", PER_LAYER)] {
            let declared: Vec<(&str, &str)> = spec
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, table, "{key}");
        }
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let metrics: Metrics = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (name.to_string(), i as f64 + 0.25))
            .collect();
        let line = result_line(true, 10, 0, &END_TO_END, &metrics);
        let parsed = parse(&line).expect("result line is JSON");
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(10));
        let setup = parsed.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(
            setup.and_then(|s| s.get("value")).and_then(Json::as_f64),
            Some(0.25)
        );
        assert_eq!(
            setup.and_then(|s| s.get("unit")).and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    #[should_panic(expected = "another metric set")]
    fn a_missing_metric_is_refused() {
        result_line(true, 1, 0, &END_TO_END, &Metrics::new());
    }
}
