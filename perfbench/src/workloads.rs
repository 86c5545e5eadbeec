//! The three benchmark workloads and their set-up.
//!
//! Arrivals form an open loop in simulated time: every arrival instant is
//! fixed by the generator before the run starts, whatever the completions.
//! The program under test receives only the generated [`Workload`].

use nashdb::{NashDbDistributor, ScanRouter};
use nashdb_bench::env::ExpEnv;
use nashdb_core::routing::MaxOfMins;
use nashdb_sim::{SimDuration, SimTime};
use nashdb_workload::bernoulli::{self, BernoulliConfig};
use nashdb_workload::realistic::{self, DriftConfig};
use nashdb_workload::tpch::{self, TpchConfig};
use nashdb_workload::Workload;

/// Node disk as a share of the database, as `nashdb-cli` defaults it.
const DISK_FRAC: f64 = 0.125;

/// Simultaneous arrivals per `burst-tpch` burst (ten rounds of the 22
/// templates).
pub const BURST: usize = 220;

/// Simulated gap between `burst-tpch` bursts.
const BURST_GAP_SECS: u64 = 900;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Bernoulli time-series workload at a steady rate.
    SteadyBernoulli,
    /// A hot spot sweeping the fact table, reconfigured every 300 s.
    DriftRealistic,
    /// TPC-H template panels arriving in simultaneous bursts.
    BurstTpch,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::SteadyBernoulli, Kind::DriftRealistic, Kind::BurstTpch];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SteadyBernoulli => "steady-bernoulli",
            Kind::DriftRealistic => "drift-realistic",
            Kind::BurstTpch => "burst-tpch",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Queries in one full-size instance. Instances are kept short so that
    /// a run plays each one many times.
    pub fn default_queries(self) -> usize {
        match self {
            Kind::SteadyBernoulli => 20_000,
            Kind::DriftRealistic => 5_000,
            Kind::BurstTpch => 10 * BURST,
        }
    }

    /// Independently seeded instances one pass plays. The simulated
    /// outcomes are medians over them, so their seed-to-seed spread stays
    /// under the bounds.
    pub fn default_instances(self) -> usize {
        match self {
            Kind::SteadyBernoulli | Kind::DriftRealistic => 4,
            Kind::BurstTpch => 10,
        }
    }
}

/// Overrides of a workload's full size, for the package's tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Size {
    /// Queries per instance; `None` is the full size.
    pub queries: Option<usize>,
    /// Instances per run; `None` is the full count.
    pub instances: Option<usize>,
}

impl Size {
    /// Queries per instance of `kind`.
    pub fn queries_or_default(self, kind: Kind) -> usize {
        self.queries.unwrap_or_else(|| kind.default_queries())
    }
}

/// One generated workload with the environment `nashdb-cli` would derive
/// for it.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The generated queries and database.
    pub workload: Workload,
    /// Calibrated economics and `RunConfig`.
    pub env: ExpEnv,
}

impl Instance {
    /// Generates one instance of `kind` with `n` queries from `seed` and
    /// calibrates its environment.
    pub fn new(kind: Kind, seed: u64, n: usize) -> Instance {
        let n = n.max(1);
        let (workload, env) = match kind {
            Kind::SteadyBernoulli => {
                let w = bernoulli::workload(&BernoulliConfig {
                    size_gb: 16,
                    queries: n,
                    price: 1.0,
                    spacing: SimDuration::from_secs(8),
                    seed,
                });
                // Steady state: the distributor starts warmed to the first
                // reconfiguration interval's queries, so the cold-start
                // hour does not set the tail.
                let warmup = (3600 / 8).min(n);
                let env = ExpEnv::for_workload(&w, DISK_FRAC).warmed(warmup);
                (w, env)
            }
            Kind::DriftRealistic => {
                // 10,000 queries per 96 simulated hours (~9 queries per
                // reconfiguration), whatever the size.
                let secs = 96 * 3600 * n as u64 / 10_000;
                let w = realistic::drifting(&DriftConfig {
                    size_gb: 32.0,
                    queries: n,
                    duration: SimDuration::from_secs(secs.max(3600)),
                    sweep_turns: 8.0,
                    wobble: 0.08,
                    seed,
                });
                let mut env = ExpEnv::for_workload(&w, DISK_FRAC);
                env.run.reconfig_interval = SimDuration::from_secs(300);
                (w, env)
            }
            Kind::BurstTpch => {
                let bursts = (n / BURST).max(2);
                let mut w = tpch::workload(&TpchConfig {
                    size_gb: 32,
                    rounds: bursts * BURST / 22,
                    price: 8.0,
                    price_overrides: Vec::new(),
                    spacing: SimDuration::from_secs(1),
                    seed,
                });
                for (i, tq) in w.queries.iter_mut().enumerate() {
                    tq.at = SimTime::from_secs((i / BURST) as u64 * BURST_GAP_SECS);
                }
                let w = w.validated();
                // The paper's static-batch steady state: the distributor
                // starts warmed to one burst's panel.
                let env = ExpEnv::for_workload(&w, DISK_FRAC).warmed(BURST);
                (w, env)
            }
        };
        Instance { workload, env }
    }

    /// The set-up work as the benchmark times it: generation, calibration
    /// (which replays the workload), and distributor/router construction.
    pub fn timed(kind: Kind, seed: u64, size: Size) -> (Instance, f64) {
        let t = std::time::Instant::now();
        let instance = Instance::new(kind, seed, size.queries_or_default(kind));
        let dist = instance.distributor();
        let router = instance.router();
        std::hint::black_box((&dist, router.name()));
        let secs = t.elapsed().as_secs_f64();
        (instance, secs)
    }

    /// A fresh NashDB distributor for one run.
    pub fn distributor(&self) -> NashDbDistributor {
        NashDbDistributor::new(&self.workload.db, self.env.nash)
    }

    /// A fresh Max-of-mins router for one run.
    pub fn router(&self) -> MaxOfMins {
        MaxOfMins::new(self.env.phi_tuples())
    }

    /// Queries the workload schedules.
    pub fn scheduled(&self) -> usize {
        self.workload.queries.len()
    }
}

/// The seed of instance `j` of a run seeded with `seed`. Instance 0 uses
/// `seed` itself.
pub fn instance_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add((j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Every instance one pass plays, in order.
#[derive(Debug, Clone)]
pub struct Setup {
    /// Independently seeded instances of one workload.
    pub instances: Vec<Instance>,
}

impl Setup {
    /// Generates every instance of `kind` for `seed`.
    pub fn new(kind: Kind, seed: u64, size: Size) -> Setup {
        let n = size.queries_or_default(kind);
        let k = size
            .instances
            .unwrap_or_else(|| kind.default_instances())
            .max(1);
        let instances = (0..k)
            .map(|j| Instance::new(kind, instance_seed(seed, j), n))
            .collect();
        Setup { instances }
    }

    /// Queries scheduled over all instances.
    pub fn scheduled(&self) -> usize {
        self.instances.iter().map(Instance::scheduled).sum()
    }
}
