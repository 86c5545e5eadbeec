//! End-to-end benchmark of `nashdb::run_workload`.
//!
//! One process drives the same public entry `nashdb-cli` uses —
//! `ExpEnv::for_workload` economics, `NashDbDistributor` and `MaxOfMins`,
//! then [`nashdb::run_workload`] — on a named, seeded workload, as fast as it
//! can: a closed loop with one caller on the host, over an open-loop arrival
//! schedule in simulated time. An untraced measurement reports the
//! end-to-end metrics; a traced measurement (`--trace 1`) reports per-layer
//! metrics taken from outside the library. See `NOTES.md` for every metric
//! and workload.

pub mod layers;
pub mod workloads;

use std::time::Instant;

use nashdb::run_workload;
use nashdb_cluster::Metrics;
use nashdb_obs::ObsSession;

use layers::{TimedDistributor, TimedRouter, TraceSample};
pub use workloads::{instance_seed, Instance, Kind, Setup, Size};

/// Set-ups of each instance timed before each timed pass; `setup_s` sums
/// each instance's fastest set-up.
pub const SETUPS_PER_PASS: usize = 3;

/// Wall ns since `t`, saturating.
fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Host wall time of one untraced `run_workload` call and what it returned.
#[derive(Debug)]
pub struct Run {
    /// Wall ns of the `run_workload` call alone.
    pub wall_ns: u64,
    /// The simulated run's measurements.
    pub metrics: Metrics,
}

/// Runs one instance once with the bare library types. Tracing is off
/// unless the caller holds an [`ObsSession`].
pub fn run_untraced(instance: &Instance) -> Run {
    let mut dist = instance.distributor();
    let router = instance.router();
    let t = Instant::now();
    let metrics = run_workload(&instance.workload, &mut dist, &router, &instance.env.run);
    Run {
        wall_ns: ns_since(t),
        metrics,
    }
}

/// Runs one instance once under an [`ObsSession`] with the bare library
/// types, so its wall time holds the library's own tracing and nothing else.
pub fn run_obs_only(instance: &Instance) -> Run {
    let session = ObsSession::start();
    let run = run_untraced(instance);
    drop(session.finish());
    run
}

/// Runs one instance once under an [`ObsSession`] with the timing wrappers
/// around the distributor and router.
pub fn run_traced(instance: &Instance) -> (Metrics, TraceSample) {
    let mut dist = TimedDistributor::new(instance.distributor());
    let router = TimedRouter::new(instance.router());
    let pool = nashdb_par::pool_stats();
    let session = ObsSession::start();
    let t = Instant::now();
    let metrics = run_workload(&instance.workload, &mut dist, &router, &instance.env.run);
    let wall_ns = ns_since(t);
    let snapshot = session.finish();
    let after = nashdb_par::pool_stats();
    let sample = TraceSample {
        wall_ns,
        distributor: dist.stats,
        router: router.into_stats(),
        snapshot,
        par_rounds: after.parallel_rounds - pool.parallel_rounds,
        par_chunks: after.chunks_executed - pool.chunks_executed,
    };
    (metrics, sample)
}

/// The simulated outcomes of a run, or their median over the instances of
/// a pass. They are deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// `Metrics::total_cost`, in 1/100 cent.
    pub cost: f64,
    /// Exact median simulated query latency, s.
    pub latency_p50_s: f64,
    /// Exact 99th-percentile simulated query latency, s.
    pub latency_p99_s: f64,
    /// Tuples moved by reconfigurations, in units of 1e9.
    pub transfer_gtuples: f64,
    /// Queries scheduled.
    pub scheduled: u64,
    /// Queries that completed.
    pub completed: u64,
    /// Queries `run_workload` abandoned.
    pub abandoned: u64,
}

impl SimOutcome {
    /// The outcomes of one run that scheduled `scheduled` queries. Latency
    /// percentiles are the exact ones `Metrics` sorts every query for; the
    /// log2-bucketed obs histogram is never consulted.
    pub fn of(metrics: &Metrics, scheduled: usize) -> SimOutcome {
        SimOutcome {
            cost: metrics.total_cost,
            latency_p50_s: metrics.latency_percentile_secs(50.0).unwrap_or(0.0),
            latency_p99_s: metrics.latency_percentile_secs(99.0).unwrap_or(0.0),
            transfer_gtuples: metrics.total_transfer() as f64 / 1e9,
            scheduled: scheduled as u64,
            completed: metrics.queries.len() as u64,
            abandoned: metrics.availability.queries_abandoned,
        }
    }

    /// The median outcome per instance over `runs`, each field on its own
    /// (a single instance with a heavy tail does not move it); query counts
    /// are summed.
    pub fn median(runs: &[SimOutcome]) -> SimOutcome {
        let mid = |f: fn(&SimOutcome) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
        SimOutcome {
            cost: mid(|r| r.cost),
            latency_p50_s: mid(|r| r.latency_p50_s),
            latency_p99_s: mid(|r| r.latency_p99_s),
            transfer_gtuples: mid(|r| r.transfer_gtuples),
            scheduled: runs.iter().map(|r| r.scheduled).sum(),
            completed: runs.iter().map(|r| r.completed).sum(),
            abandoned: runs.iter().map(|r| r.abandoned).sum(),
        }
    }

    /// Every scheduled query either completed or was abandoned.
    pub fn conserved(&self) -> bool {
        self.completed + self.abandoned == self.scheduled
    }

    /// Share of scheduled queries that completed.
    pub fn completed_frac(&self) -> f64 {
        self.completed as f64 / self.scheduled.max(1) as f64
    }
}

/// FNV-1a digest of everything a run's [`Metrics`] holds: query records,
/// cost, transfers, throughput buckets, utilization and availability.
pub fn digest(m: &Metrics) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(m.queries.len() as u64);
    for q in &m.queries {
        eat(q.id.get());
        eat(q.arrival.as_nanos());
        eat(q.completion.as_nanos());
        eat(u64::from(q.span));
    }
    eat(m.transfers.len() as u64);
    for &(at, tuples) in &m.transfers {
        eat(at.as_nanos());
        eat(tuples);
    }
    for (at, v) in m.read_throughput.buckets() {
        eat(at.as_nanos());
        eat(v.to_bits());
    }
    eat(m.total_cost.to_bits());
    eat(m.reconfigurations);
    eat(m.peak_nodes as u64);
    for u in &m.node_utilization {
        eat(u.to_bits());
    }
    let a = &m.availability;
    for x in [
        a.queries_failed,
        a.queries_retried,
        a.queries_abandoned,
        a.node_crashes,
        a.node_restarts,
        a.faults_skipped,
        a.jobs_lost,
        a.tuples_lost,
        a.reads_wasted,
        a.degraded.as_nanos(),
    ] {
        eat(x);
    }
    h
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// What one invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Queries scheduled over every `run_workload` call made.
    pub attempted: u64,
    /// Of those, queries that did not complete.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines (digests, failed checks) printed before the
    /// result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
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
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number in JSON syntax with every digit Rust's shortest
/// round-trip form gives; non-finite values (never expected) become 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Median of `values` (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest of `values`; 0 when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `min/median/max` of `values`, for the human-readable notes.
fn spread_note(values: &[f64]) -> String {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "min {:.6} median {:.6} max {max:.6}",
        min(values),
        median(values)
    )
}

/// Checks shared by both modes, folded into `correct` and `notes`.
#[derive(Debug, Default)]
struct Checks {
    correct: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn new() -> Self {
        Checks {
            correct: true,
            ..Checks::default()
        }
    }

    fn require(&mut self, ok: bool, what: String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("check failed: {what}"));
        }
    }

    /// Accounts one run of `instance` and checks it conserves queries and
    /// reproduces the instance's reference digest.
    fn run(&mut self, instance: &Instance, metrics: &Metrics, want: u64, label: &str) {
        let outcome = SimOutcome::of(metrics, instance.scheduled());
        let got = digest(metrics);
        self.attempted += outcome.scheduled;
        self.failed += outcome.scheduled - outcome.completed.min(outcome.scheduled);
        self.require(
            outcome.conserved(),
            format!(
                "{label}: completed {} + abandoned {} != scheduled {}",
                outcome.completed, outcome.abandoned, outcome.scheduled
            ),
        );
        self.require(
            got == want,
            format!("{label}: metrics digest {got:016x} != reference {want:016x}"),
        );
    }

    fn finish(self, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            correct: self.correct,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
            notes: self.notes,
        }
    }
}

/// Runs `f` at least once, and again while one more iteration, as long as
/// the slowest so far, still ends within `seconds`; returns the
/// per-iteration results. A run therefore never overshoots its budget by a
/// whole pass.
fn repeat_for<T>(seconds: f64, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut slowest = 0.0_f64;
    loop {
        let t = Instant::now();
        out.push(f());
        slowest = slowest.max(t.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() + slowest > seconds {
            return out;
        }
    }
}

/// The untraced measurement: one untimed warm-up run, then timed passes
/// over every instance within `seconds`. Before each pass every instance is
/// set up `SETUPS_PER_PASS` times more, each timed on its own, and the last
/// of these set-ups is the one the pass plays.
///
/// Host speed drifts in spells of seconds, so each instance is reduced to
/// its fastest run and fastest set-up, the ones least slowed by other load
/// on the host. `ns_per_scan` is the sum over instances of the fastest run
/// wall time, divided by the queries of one pass; `setup_s` is the sum of
/// the fastest set-ups. The simulated outcomes are the first pass's, as
/// medians over instances. Each run is checked as soon as it ends and its
/// `Metrics` dropped.
pub fn measure_end_to_end(kind: Kind, seed: u64, seconds: f64, size: Size) -> Outcome {
    let mut setup = Setup::new(kind, seed, size);
    let mut checks = Checks::new();
    let mut reference = References::new(setup.instances.len());
    let warm = run_untraced(&setup.instances[0]);
    reference.check(
        &mut checks,
        &setup.instances[0],
        0,
        &warm.metrics,
        "warm-up run",
    );
    drop(warm);

    let k = setup.instances.len();
    let mut setup_secs: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut wall_ns: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut first_pass = Vec::with_capacity(k);
    let passes = repeat_for(seconds, || {
        for (j, instance) in setup.instances.iter_mut().enumerate() {
            for _ in 0..SETUPS_PER_PASS {
                let (fresh, secs) = Instance::timed(kind, instance_seed(seed, j), size);
                setup_secs[j].push(secs);
                *instance = fresh;
            }
        }
        for (j, instance) in setup.instances.iter().enumerate() {
            let run = run_untraced(instance);
            let label = format!("pass {} run {j}", wall_ns[j].len());
            reference.check(&mut checks, instance, j, &run.metrics, &label);
            if first_pass.len() < k {
                first_pass.push(SimOutcome::of(&run.metrics, instance.scheduled()));
            }
            wall_ns[j].push(run.wall_ns as f64);
        }
    });
    let sim = SimOutcome::median(&first_pass);
    let pass_ns: f64 = wall_ns.iter().map(|w| min(w)).sum();
    let ns_per_scan = pass_ns / setup.scheduled().max(1) as f64;
    let setup_s: f64 = setup_secs.iter().map(|s| min(s)).sum();
    checks
        .notes
        .push(format!("digests untraced={}", reference.hex()));
    for (j, (instance, w)) in setup.instances.iter().zip(&wall_ns).enumerate() {
        let per_scan: Vec<f64> = w
            .iter()
            .map(|ns| ns / instance.scheduled().max(1) as f64)
            .collect();
        checks.notes.push(format!(
            "instance {j}: ns_per_scan {}; setup s {}",
            spread_note(&per_scan),
            spread_note(&setup_secs[j])
        ));
    }
    checks.notes.push(format!("timed passes: {}", passes.len()));

    let metrics = [
        ("ns_per_scan", ns_per_scan, "ns"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("sim_cost", sim.cost, "cent/100"),
        ("sim_latency_p50_s", sim.latency_p50_s, "s"),
        ("sim_latency_p99_s", sim.latency_p99_s, "s"),
        ("sim_transfer_gtuples", sim.transfer_gtuples, "Gtuples"),
        ("completed_frac", sim.completed_frac(), "ratio"),
    ]
    .map(|(name, value, unit)| Metric { name, value, unit })
    .to_vec();
    checks.finish(metrics)
}

/// Each instance's reference digest: that of its first run.
struct References {
    digests: Vec<Option<u64>>,
}

impl References {
    fn new(instances: usize) -> Self {
        References {
            digests: vec![None; instances],
        }
    }

    /// Checks a run of `instance`, the `j`-th, against its reference, which
    /// the first run sets.
    fn check(
        &mut self,
        checks: &mut Checks,
        instance: &Instance,
        j: usize,
        metrics: &Metrics,
        label: &str,
    ) {
        let want = *self.digests[j].get_or_insert_with(|| digest(metrics));
        checks.run(instance, metrics, want, label);
    }

    fn hex(&self) -> String {
        self.digests
            .iter()
            .flatten()
            .map(|d| format!("{d:016x}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// The traced measurement: for each instance in turn, an untraced run, a
/// run under an `ObsSession` with the bare library types, and a traced run
/// with the timing wrappers, in whole cycles over the instances within
/// `seconds`. Every run must reproduce the instance's first untraced
/// digest, and the router wrapper must accept every assignment.
/// `obs.overhead_ratio` compares the bare traced runs with the untraced
/// ones, so the wrappers' own cost stays out of it.
pub fn measure_layers(kind: Kind, seed: u64, seconds: f64, size: Size) -> Outcome {
    let setup = Setup::new(kind, seed, size);
    let mut checks = Checks::new();
    let mut reference = References::new(setup.instances.len());
    let mut untraced_ns = Vec::new();
    let mut obs_only_ns = Vec::new();
    let mut samples = Vec::new();
    let cycles = repeat_for(seconds, || {
        for (j, instance) in setup.instances.iter().enumerate() {
            let i = samples.len();
            let untraced = run_untraced(instance);
            let label = format!("untraced run {i}");
            reference.check(&mut checks, instance, j, &untraced.metrics, &label);
            let obs_only = run_obs_only(instance);
            let label = format!("obs-only run {i}");
            reference.check(&mut checks, instance, j, &obs_only.metrics, &label);
            let (traced, sample) = run_traced(instance);
            reference.check(
                &mut checks,
                instance,
                j,
                &traced,
                &format!("traced run {i}"),
            );
            checks.require(
                sample.router.bad_scans == 0,
                format!(
                    "traced run {i}: {} misrouted scans",
                    sample.router.bad_scans
                ),
            );
            checks.require(
                sample.router.scans == instance.scheduled() as u64,
                format!(
                    "traced run {i}: router saw {} scans for {} queries",
                    sample.router.scans,
                    instance.scheduled()
                ),
            );
            if i < setup.instances.len() {
                checks.notes.push(format!(
                    "instance {j}: digest untraced={:016x} traced={:016x}",
                    digest(&untraced.metrics),
                    digest(&traced)
                ));
            }
            untraced_ns.push(untraced.wall_ns as f64);
            obs_only_ns.push(obs_only.wall_ns as f64);
            samples.push(sample);
        }
    });
    checks.notes.push(format!(
        "traced cycles: {} runs: {}",
        cycles.len(),
        samples.len()
    ));

    let overhead = median(&obs_only_ns) / median(&untraced_ns).max(1.0);
    let metrics = layers::layer_metrics(&samples, overhead);
    checks.finish(metrics)
}

/// Peak resident set of this process, MB (`VmHWM`); 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host this binary runs on: worker parallelism, CPU model, and the
/// compiler that built it. Absolute times compare only between matching
/// fingerprints.
pub fn host_fingerprint() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "{{\"host\": {{\"available_parallelism\": {parallelism}, \"cpu_model\": \"{}\", \"rustc\": \"{}\"}}}}",
        cpu.replace(['"', '\\'], ""),
        env!("PERFBENCH_RUSTC_VERSION").replace(['"', '\\'], "")
    )
}
