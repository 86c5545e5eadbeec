//! The benchmark's own checks, on a few hundred queries per workload:
//! same seed gives identical simulated outcomes, the traced run equals the
//! untraced one, every metric `BENCHMARK.json` names is emitted with its
//! unit, and nothing depends on the default seed.

use nashdb_obs::{parse_json, JsonValue};
use nashdb_perfbench::{
    digest, measure_end_to_end, measure_layers, run_obs_only, run_traced, run_untraced, Kind,
    Metric, Outcome, Setup, Size,
};

const SMALL: Size = Size {
    queries: Some(300),
    instances: Some(2),
};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let json = parse_json(&text).expect("BENCHMARK.json parses");
    let Some(JsonValue::Array(metrics)) = json.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect()
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .unwrap_or_else(|| panic!("{name} not emitted"))
}

fn sim_values(outcome: &Outcome) -> Vec<(&'static str, u64)> {
    outcome
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("sim_") || m.name == "completed_frac")
        .map(|m: &Metric| (m.name, m.value.to_bits()))
        .collect()
}

#[test]
fn same_seed_gives_identical_simulated_outcomes() {
    for kind in Kind::ALL {
        let a = measure_end_to_end(kind, 42, 0.0, SMALL);
        let b = measure_end_to_end(kind, 42, 0.0, SMALL);
        assert!(
            a.correct && b.correct,
            "{}: {:?} {:?}",
            kind.name(),
            a.notes,
            b.notes
        );
        assert_eq!(a.failed, 0, "{}", kind.name());
        assert_eq!(sim_values(&a), sim_values(&b), "{}", kind.name());
    }
}

#[test]
fn traced_run_equals_untraced_run() {
    for kind in Kind::ALL {
        let setup = Setup::new(kind, 42, SMALL);
        for instance in &setup.instances {
            let untraced = run_untraced(instance);
            let obs_only = run_obs_only(instance);
            let (traced, sample) = run_traced(instance);
            assert_eq!(
                digest(&untraced.metrics),
                digest(&obs_only.metrics),
                "{}",
                kind.name()
            );
            assert_eq!(
                digest(&untraced.metrics),
                digest(&traced),
                "{}",
                kind.name()
            );
            assert_eq!(untraced.metrics.queries, traced.queries, "{}", kind.name());
            assert_eq!(sample.router.bad_scans, 0, "{}", kind.name());
            assert_eq!(
                sample.router.scans,
                instance.scheduled() as u64,
                "{}",
                kind.name()
            );
        }
        let layers = measure_layers(kind, 42, 0.0, SMALL);
        assert!(layers.correct, "{}: {:?}", kind.name(), layers.notes);
    }
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for kind in Kind::ALL {
        let e2e = measure_end_to_end(kind, 42, 0.0, SMALL);
        assert_eq!(emitted(&e2e), declared("end_to_end"), "{}", kind.name());
        let layers = measure_layers(kind, 42, 0.0, SMALL);
        assert_eq!(emitted(&layers), declared("per_layer"), "{}", kind.name());
        for outcome in [&e2e, &layers] {
            let line = parse_json(&outcome.to_json()).expect("result line parses");
            let keys: Vec<&str> = match &line {
                JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("result is not an object: {other:?}"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(line.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
        }
        for m in &e2e.metrics {
            assert!(m.value > 0.0, "{} {} is {}", kind.name(), m.name, m.value);
        }
    }
}

#[test]
fn a_non_default_seed_runs_clean_and_changes_the_inputs() {
    for kind in Kind::ALL {
        let default = measure_end_to_end(kind, 42, 0.0, SMALL);
        let other = measure_end_to_end(kind, 7, 0.0, SMALL);
        assert!(other.correct, "{}: {:?}", kind.name(), other.notes);
        assert_eq!(other.failed, 0, "{}", kind.name());
        assert_ne!(sim_values(&default), sim_values(&other), "{}", kind.name());
        let layers = measure_layers(kind, 7, 0.0, SMALL);
        assert!(layers.correct, "{}: {:?}", kind.name(), layers.notes);
    }
}

/// The per-layer shares are ratios within one run, and the margins are wide
/// (routing ~0.5-0.7 against scheme <0.1 where it should lead; scheme ~0.4
/// on `drift-realistic` against <0.1 elsewhere), so host noise cannot flip
/// them.
#[test]
fn traced_run_confirms_each_workload_purpose() {
    let mut scheme_share = Vec::new();
    for kind in Kind::ALL {
        let layers = measure_layers(kind, 42, 0.0, SMALL);
        let share = |name| value(&layers, name);
        let scans_per_call = share("routing.scans_per_call");
        if kind == Kind::BurstTpch {
            assert!(scans_per_call > 1.0, "{scans_per_call}");
        } else {
            assert!(
                (scans_per_call - 1.0).abs() < 1e-12,
                "{}: {scans_per_call}",
                kind.name()
            );
        }
        if kind != Kind::DriftRealistic {
            let routing = share("routing.share");
            for other in ["distributor.observe_share", "distributor.scheme_share"] {
                assert!(
                    routing > share(other),
                    "{}: routing {routing} <= {other}",
                    kind.name()
                );
            }
        }
        scheme_share.push((kind, share("distributor.scheme_share")));
    }
    let drift = scheme_share
        .iter()
        .find(|(k, _)| *k == Kind::DriftRealistic)
        .map(|s| s.1);
    for (kind, share) in &scheme_share {
        if *kind != Kind::DriftRealistic {
            assert!(
                drift > Some(*share),
                "{}: scheme share {share} >= drift {drift:?}",
                kind.name()
            );
        }
    }
}
