//! `nashdb-bench` — CI bench utilities: a deterministic observability smoke
//! run and a snapshot validator.
//!
//! ```text
//! nashdb-bench smoke --seed 42 --obs-out BENCH_PR.json
//! nashdb-bench smoke --stable        # scrub wall-clock for byte-stable output
//! nashdb-bench perf --obs-out BENCH_PR.json
//! nashdb-bench scenarios --seed 42 --obs-out SCENARIO_PR.json
//! nashdb-bench validate BENCH_PR.json
//! nashdb-bench validate --scenarios SCENARIO_PR.json
//! nashdb-bench compare BENCH_PERF.json BENCH_BASELINE.json
//! nashdb-bench compare --scenarios SCENARIO_PR.json SCENARIO_BASELINE.json
//! ```
//!
//! Exit codes: 0 success, 1 validation/coverage/regression failure, 2 usage
//! error.

use std::process::exit;

use nashdb_bench::compare::{compare, compare_scenarios, DEFAULT_MAX_REGRESSION};
use nashdb_bench::perf::{perf_snapshot, PerfConfig, PERF_STAGES};
use nashdb_bench::scenarios::{run_scenarios, ScenarioConfig};
use nashdb_bench::smoke::{run_smoke, SmokeConfig, REQUIRED_STAGES};
use nashdb_obs::{ObsSnapshot, ScenarioArtifact};

const HELP: &str = "\
nashdb-bench — observability smoke/perf runs and snapshot validation

USAGE:
  nashdb-bench smoke [OPTIONS]     run the fixed-seed smoke workload and
                                   emit its observability snapshot
  nashdb-bench perf [OPTIONS]      time the routing / scheme-lookup /
                                   fragmentation / packing hot paths on a
                                   fixed-seed workload and emit the
                                   comparison as a snapshot
  nashdb-bench scenarios [OPTIONS] sweep the scenario matrix (workload ×
                                   drift × node mix × replication budget ×
                                   fault schedule), run NashDB and both
                                   baselines per cell, and emit the
                                   Pareto-marked artifact
  nashdb-bench validate FILE       parse and schema-check a snapshot file
                                   (perf snapshots are recognized by their
                                   kind=perf label and checked against the
                                   perf schema)
  nashdb-bench validate --scenarios FILE
                                   parse and schema-check a scenario
                                   artifact
  nashdb-bench compare CURRENT BASELINE
                                   diff the optimized-path timing gauges of
                                   two perf snapshots; fail if any tracked
                                   gauge regressed beyond the allowance
  nashdb-bench compare --scenarios CURRENT BASELINE
                                   diff two scenario artifacts; fail if
                                   NashDB fell off the Pareto frontier in
                                   any cell where the baseline has it on

SMOKE OPTIONS:
  --seed N          workload RNG seed (default 42)
  --queries N       query count (default 150)
  --size-gb N       database size in GB-equivalents (default 4)
  --obs-out FILE    write the JSON snapshot here (default: stdout)
  --stable          scrub wall-clock timings so same-seed runs are
                    byte-identical (sim-time metrics are kept)

PERF OPTIONS:
  --seed N          problem RNG seed (default 42)
  --fragments N     fragment requests per scan (default 64)
  --nodes N         cluster nodes (default 16)
  --scans N         scans per timing pass (default 400)
  --batch-scans N   scans per batch in the batch-routing scaling workload
                    (default 10000)
  --batch-nodes N   cluster nodes in the batch-routing scaling workload
                    (default 512; each scan reads inside one 16-node
                    zone)
  --min-routing-speedup X
                    fail (exit 1) if the incremental router is not at
                    least X times faster than the naive reference
  --min-batch-speedup X
                    fail (exit 1) if route_batch is not at least X times
                    faster than the per-scan incremental loop on the
                    scaling workload
  --best-of N       repeat the whole suite N times, keep each gauge's
                    minimum (default 1; CI uses 3 — the minimum is the
                    stable estimator on contended shared runners)
  --obs-out FILE    write the JSON snapshot here (default: BENCH_PR.json)

SCENARIOS OPTIONS:
  --seed N          workload RNG seed shared by every cell (default 42)
  --queries N       approximate queries per cell (default 60)
  --size-gb N       database size per cell in GB-equivalents (default 24)
  --quick           sweep only a 5-cell corner of the matrix, one with a
                    crash schedule (debug runs)
  --keep-timings    keep host wall-clock per cell instead of scrubbing it
                    (scrubbing is the default so same-seed artifacts are
                    byte-identical)
  --obs-out FILE    write the JSON artifact here (default: stdout)

COMPARE OPTIONS:
  --max-regression X
                    allowed fractional slowdown per tracked gauge before
                    the gate fails (default 0.25; perf mode only)

  -h, --help        this text
";

struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        if let Some(i) = self.0.iter().position(|a| a == name) {
            self.0.remove(i);
            true
        } else {
            false
        }
    }

    fn value(&mut self, name: &str) -> Option<String> {
        let i = self.0.iter().position(|a| a == name)?;
        if i + 1 >= self.0.len() {
            die(&format!("{name} requires a value"));
        }
        let v = self.0.remove(i + 1);
        self.0.remove(i);
        Some(v)
    }

    fn parse<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        self.value(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                die(&format!("invalid value {v:?} for {name}"));
            })
        })
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\nrun with --help for usage");
    exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    exit(1)
}

fn main() {
    let mut args = Args(std::env::args().skip(1).collect());
    if args.flag("--help") || args.flag("-h") {
        print!("{HELP}");
        return;
    }
    if args.0.is_empty() {
        die("need a subcommand: smoke | validate");
    }
    match args.0.remove(0).as_str() {
        "smoke" => smoke(args),
        "perf" => perf(args),
        "scenarios" => scenarios(args),
        "validate" => validate(args),
        "compare" => compare_cmd(args),
        other => die(&format!("unknown subcommand {other:?}")),
    }
}

fn scenarios(mut args: Args) {
    let cfg = ScenarioConfig {
        seed: args.parse("--seed").unwrap_or(42),
        queries: args.parse("--queries").unwrap_or(60),
        size_gb: args.parse("--size-gb").unwrap_or(24),
        quick: args.flag("--quick"),
        keep_timings: args.flag("--keep-timings"),
    };
    let out = args.value("--obs-out");
    if !args.0.is_empty() {
        die(&format!("unrecognized arguments: {:?}", args.0));
    }

    let artifact = match run_scenarios(&cfg) {
        Ok(artifact) => artifact,
        Err(e) => fail(&format!("scenario sweep failed: {e}")),
    };

    // The serialized artifact must round-trip through its own schema
    // validator and re-serialize byte-identically before it is published.
    let json = artifact.to_json_string();
    match ScenarioArtifact::from_json_str(&json) {
        Ok(parsed) if parsed.to_json_string() == json => {}
        Ok(_) => fail("scenario artifact did not round-trip byte-identically"),
        Err(e) => fail(&format!("scenario artifact failed its own schema: {e}")),
    }

    let on_front = artifact
        .cells
        .iter()
        .filter(|c| c.system("nashdb").is_some_and(|s| s.on_front))
        .count();
    eprintln!(
        "scenarios ok: seed {} — {} cells × {} systems, nashdb on the frontier in {}",
        cfg.seed,
        artifact.cells.len(),
        artifact.cells.first().map_or(0, |c| c.systems.len()),
        on_front
    );
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                fail(&format!("writing {path}: {e}"));
            }
            eprintln!("artifact written to {path}");
        }
        None => print!("{json}"),
    }
}

fn smoke(mut args: Args) {
    let cfg = SmokeConfig {
        seed: args.parse("--seed").unwrap_or(42),
        queries: args.parse("--queries").unwrap_or(150),
        size_gb: args.parse("--size-gb").unwrap_or(4),
        stable: args.flag("--stable"),
    };
    let out = args.value("--obs-out");
    if !args.0.is_empty() {
        die(&format!("unrecognized arguments: {:?}", args.0));
    }

    let snap = run_smoke(&cfg);

    // Stage coverage: every pipeline stage must have emitted something.
    let missing = snap.missing_stages(REQUIRED_STAGES);
    if !missing.is_empty() {
        fail(&format!("pipeline stages emitted no metrics: {missing:?}"));
    }

    // The serialized form must round-trip through the schema validator and
    // re-serialize byte-identically (no float formatting drift).
    let json = snap.to_json_string();
    match ObsSnapshot::from_json_str(&json) {
        Ok(parsed) if parsed.to_json_string() == json => {}
        Ok(_) => fail("snapshot did not round-trip byte-identically"),
        Err(e) => fail(&format!("snapshot failed its own schema: {e}")),
    }

    eprintln!(
        "smoke ok: seed {} — {} counters, {} gauges, {} histograms, {} spans",
        cfg.seed,
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
        snap.spans.len()
    );
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                fail(&format!("writing {path}: {e}"));
            }
            eprintln!("snapshot written to {path}");
        }
        None => print!("{json}"),
    }
}

fn perf(mut args: Args) {
    let cfg = PerfConfig {
        seed: args.parse("--seed").unwrap_or(42),
        fragments: args.parse("--fragments").unwrap_or(64),
        nodes: args.parse("--nodes").unwrap_or(16),
        scans: args.parse("--scans").unwrap_or(400),
        batch_scans: args.parse("--batch-scans").unwrap_or(10_000),
        batch_nodes: args.parse("--batch-nodes").unwrap_or(512),
        best_of: args.parse("--best-of").unwrap_or(1),
        ..PerfConfig::default()
    };
    if cfg.best_of == 0 {
        die("--best-of must be at least 1");
    }
    let min_speedup: Option<f64> = args.parse("--min-routing-speedup");
    let min_batch_speedup: Option<f64> = args.parse("--min-batch-speedup");
    let out = args
        .value("--obs-out")
        .unwrap_or_else(|| "BENCH_PR.json".to_owned());
    if !args.0.is_empty() {
        die(&format!("unrecognized arguments: {:?}", args.0));
    }

    let snap = perf_snapshot(&cfg);
    let missing = snap.missing_stages(PERF_STAGES);
    if !missing.is_empty() {
        fail(&format!("perf stages emitted no metrics: {missing:?}"));
    }
    let routing = snap.gauge("perf.routing.speedup").unwrap_or(0.0);
    let batch = snap.gauge("perf.routing.batch_speedup").unwrap_or(0.0);
    let lookup = snap.gauge("perf.lookup.speedup").unwrap_or(0.0);
    eprintln!(
        "perf ok: seed {} — routing {:.1}x faster than naive reference, \
         batch routing {:.1}x faster than per-scan, indexed lookups \
         {:.1}x faster than linear scans",
        cfg.seed, routing, batch, lookup
    );
    if let Some(min) = min_speedup {
        if routing < min {
            fail(&format!(
                "routing speedup {routing:.2}x is below the required {min}x"
            ));
        }
    }
    if let Some(min) = min_batch_speedup {
        if batch < min {
            fail(&format!(
                "batch routing speedup {batch:.2}x is below the required {min}x"
            ));
        }
    }
    let json = snap.to_json_string();
    if let Err(e) = std::fs::write(&out, &json) {
        fail(&format!("writing {out}: {e}"));
    }
    eprintln!("snapshot written to {out}");
}

fn load_snapshot(path: &str) -> ObsSnapshot {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => fail(&format!("reading {path}: {e}")),
    };
    match ObsSnapshot::from_json_str(&raw) {
        Ok(snap) => snap,
        Err(e) => fail(&format!("{path}: {e}")),
    }
}

fn load_scenarios(path: &str) -> ScenarioArtifact {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => fail(&format!("reading {path}: {e}")),
    };
    match ScenarioArtifact::from_json_str(&raw) {
        Ok(artifact) => artifact,
        Err(e) => fail(&format!("{path}: {e}")),
    }
}

fn compare_scenarios_cmd(mut args: Args) {
    if args.0.len() != 2 {
        die("compare --scenarios takes exactly two arguments: CURRENT BASELINE");
    }
    let current_path = args.0.remove(0);
    let baseline_path = args.0.remove(0);
    let current = load_scenarios(&current_path);
    let baseline = load_scenarios(&baseline_path);

    let report = match compare_scenarios(&current, &baseline) {
        Ok(report) => report,
        Err(e) => fail(&format!("{current_path} vs {baseline_path}: {e}")),
    };
    for cell in &report.gained_frontier {
        eprintln!(
            "note: nashdb joined the Pareto frontier in {cell} — consider refreshing {baseline_path}"
        );
    }
    for d in &report.dominance_drops {
        eprintln!(
            "warn: nashdb dominates {} system(s) in {} (baseline: {})",
            d.current, d.cell, d.baseline
        );
    }
    if !report.passed() {
        for cell in &report.lost_frontier {
            eprintln!("REGRESSION: nashdb fell off the Pareto frontier in {cell}");
        }
        fail(&format!(
            "nashdb lost Pareto-frontier membership in {} cell(s) of {}",
            report.lost_frontier.len(),
            baseline_path
        ));
    }
    eprintln!(
        "compare ok: nashdb keeps its frontier position in all {} baseline cells of {}",
        report.cells, baseline_path
    );
}

fn compare_cmd(mut args: Args) {
    if args.flag("--scenarios") {
        compare_scenarios_cmd(args);
        return;
    }
    let max_regression: f64 = args
        .parse("--max-regression")
        .unwrap_or(DEFAULT_MAX_REGRESSION);
    if args.0.len() != 2 {
        die("compare takes exactly two arguments: CURRENT BASELINE");
    }
    let current_path = args.0.remove(0);
    let baseline_path = args.0.remove(0);
    let current = load_snapshot(&current_path);
    let baseline = load_snapshot(&baseline_path);

    let report = match compare(&current, &baseline) {
        Ok(report) => report,
        Err(e) => fail(&format!("{current_path} vs {baseline_path}: {e}")),
    };
    for d in &report.deltas {
        eprintln!(
            "  {:<32} {:>12.0} ns -> {:>12.0} ns  ({:+.1}%)",
            d.name,
            d.baseline_ns,
            d.current_ns,
            d.change * 100.0
        );
    }
    for d in report.improvements(max_regression) {
        eprintln!(
            "note: {} is {:.0}% faster than the baseline — consider refreshing {}",
            d.name,
            -d.change * 100.0,
            baseline_path
        );
    }
    let regressions = report.regressions(max_regression);
    if !regressions.is_empty() {
        for d in &regressions {
            eprintln!(
                "REGRESSION: {} went from {:.0} ns to {:.0} ns ({:+.1}%, allowed {:+.0}%)",
                d.name,
                d.baseline_ns,
                d.current_ns,
                d.change * 100.0,
                max_regression * 100.0
            );
        }
        fail(&format!(
            "{} tracked gauge(s) regressed beyond {:.0}%",
            regressions.len(),
            max_regression * 100.0
        ));
    }
    eprintln!(
        "compare ok: {} tracked gauges within {:.0}% of {}",
        report.deltas.len(),
        max_regression * 100.0,
        baseline_path
    );
}

fn validate(mut args: Args) {
    if args.flag("--scenarios") {
        if args.0.len() != 1 {
            die("validate --scenarios takes exactly one FILE argument");
        }
        let path = args.0.remove(0);
        let artifact = load_scenarios(&path);
        println!(
            "{path}: valid scenario artifact (version {}) — {} cells × {} systems",
            artifact.version,
            artifact.cells.len(),
            artifact.cells.first().map_or(0, |c| c.systems.len())
        );
        return;
    }
    if args.0.len() != 1 {
        die("validate takes exactly one FILE argument");
    }
    let path = args.0.remove(0);
    let raw = match std::fs::read_to_string(&path) {
        Ok(raw) => raw,
        Err(e) => fail(&format!("reading {path}: {e}")),
    };
    let snap = match ObsSnapshot::from_json_str(&raw) {
        Ok(snap) => snap,
        Err(e) => fail(&format!("{path}: {e}")),
    };
    // Perf snapshots label themselves; everything else is a pipeline run
    // and must cover the full stage list.
    let is_perf = snap.labels.iter().any(|(k, v)| k == "kind" && v == "perf");
    let required = if is_perf {
        PERF_STAGES
    } else {
        REQUIRED_STAGES
    };
    let missing = snap.missing_stages(required);
    if !missing.is_empty() {
        fail(&format!(
            "{path}: pipeline stages emitted no metrics: {missing:?}"
        ));
    }
    println!(
        "{path}: valid snapshot (version {}) — {} counters, {} gauges, {} histograms, {} spans",
        snap.version,
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
        snap.spans.len()
    );
}
