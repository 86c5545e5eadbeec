//! `nashdb-cli` — run any of the reproduced systems on a workload, from a
//! generator or a trace file, and print the run's metrics.
//!
//! ```text
//! nashdb-cli --generate bernoulli --size-gb 8 --queries 300
//! nashdb-cli --trace my.trace --system threshold --nodes 12
//! nashdb-cli --generate tpch --save-trace tpch.trace --dry-run
//! nashdb-cli --help
//! ```

use std::process::exit;

use nashdb::{run_workload, Distributor, NashDbDistributor, ScanRouter};
use nashdb_baselines::{
    GreedySetCover, HypergraphDistributor, ShortestQueue, ThresholdDistributor,
};
use nashdb_bench::env::{ExpEnv, WINDOW};
use nashdb_core::routing::{MaxOfMins, PowerOfTwoChoices};
use nashdb_sim::SimDuration;
use nashdb_workload::bernoulli::{self, BernoulliConfig};
use nashdb_workload::random::{self, RandomConfig};
use nashdb_workload::tpch::{self, TpchConfig};
use nashdb_workload::{realistic, trace, Workload};

const HELP: &str = "\
nashdb-cli — run a NashDB (or baseline) simulation on a workload

WORKLOAD (exactly one):
  --trace FILE            load a workload trace (see nashdb_workload::trace)
  --generate KIND         bernoulli | random | tpch | real1-static |
                          real1-dynamic | real2-dynamic

GENERATOR OPTIONS:
  --size-gb N             database size for bernoulli/random/tpch (default 8)
  --queries N             query count for bernoulli/random (default 200)
  --seed N                RNG seed (default 1)
  --price X               uniform query price (default 1.0)

SYSTEM:
  --system NAME           nashdb (default) | hypergraph | threshold
  --nodes N               partition/node count for the baselines (default 8)
  --price-mult X          scale all query prices (NashDB's knob, default 1)

ROUTER:
  --router NAME           max-of-mins (default) | shortest-queue |
                          greedy-sc | power-of-two

CLUSTER (defaults autotuned from the workload, as in the experiments):
  --disk-frac X           node disk as a fraction of the DB (default 0.125)
  --interval SECS         reconfiguration interval (default 3600)
  --warmup N              prime the system with the first N queries

OUTPUT:
  --save-trace FILE       write the workload as a trace and continue
  --dry-run               stop after generating/saving (no simulation)
  --throughput            also print the throughput-over-time series
  -h, --help              this text
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

fn main() {
    let mut args = Args(std::env::args().skip(1).collect());
    if args.flag("--help") || args.flag("-h") {
        print!("{HELP}");
        return;
    }

    // Workload.
    let size_gb: u64 = args.parse("--size-gb").unwrap_or(8);
    let queries: usize = args.parse("--queries").unwrap_or(200);
    let seed: u64 = args.parse("--seed").unwrap_or(1);
    let price: f64 = args.parse("--price").unwrap_or(1.0);
    let workload: Workload = match (args.value("--trace"), args.value("--generate")) {
        (Some(path), None) => trace::load(&path).unwrap_or_else(|e| die(&format!("{e}"))),
        (None, Some(kind)) => match kind.as_str() {
            "bernoulli" => bernoulli::workload(&BernoulliConfig {
                size_gb,
                queries,
                price,
                spacing: SimDuration::from_secs(10),
                seed,
            }),
            "random" => random::workload(&RandomConfig {
                size_gb,
                queries,
                duration: SimDuration::from_secs(24 * 3600),
                price,
                seed,
            }),
            "tpch" => tpch::workload(&TpchConfig {
                size_gb,
                rounds: (queries / 22).max(1),
                price,
                price_overrides: Vec::new(),
                spacing: SimDuration::from_secs(20),
                seed,
            }),
            "real1-static" => realistic::real1_static(seed),
            "real1-dynamic" => realistic::real1_dynamic(seed),
            "real2-dynamic" => realistic::real2_dynamic(seed),
            other => die(&format!("unknown generator {other:?}")),
        },
        (Some(_), Some(_)) => die("--trace and --generate are mutually exclusive"),
        (None, None) => die("need --trace FILE or --generate KIND"),
    };
    println!(
        "workload: {} — {} queries over {:.1} GB",
        workload.name,
        workload.queries.len(),
        workload.db.total_tuples() as f64 / 1e6
    );

    if let Some(path) = args.value("--save-trace") {
        trace::save(&workload, &path).unwrap_or_else(|e| die(&format!("saving trace: {e}")));
        println!("trace written to {path}");
    }
    if args.flag("--dry-run") {
        return;
    }

    // Environment.
    let disk_frac: f64 = args.parse("--disk-frac").unwrap_or(0.125);
    let mut env = ExpEnv::for_workload(&workload, disk_frac);
    if let Some(secs) = args.parse::<u64>("--interval") {
        env.run.reconfig_interval = SimDuration::from_secs(secs.max(1));
    }
    if let Some(n) = args.parse::<usize>("--warmup") {
        env = env.warmed(n);
    }

    // System.
    let price_mult: f64 = args.parse("--price-mult").unwrap_or(1.0);
    let nodes: usize = args.parse("--nodes").unwrap_or(8);
    if nodes == 0 {
        die("--nodes must be at least 1");
    }
    let system = args.value("--system").unwrap_or_else(|| "nashdb".into());
    let mut dist: Box<dyn Distributor> = match system.as_str() {
        "nashdb" => Box::new(NashDbDistributor::new(&workload.db, env.nash)),
        "hypergraph" => Box::new(
            HypergraphDistributor::new(&workload.db, nodes, env.disk, WINDOW)
                .with_block(env.block()),
        ),
        "threshold" => Box::new(
            ThresholdDistributor::new(&workload.db, nodes, env.disk, WINDOW)
                .with_block(env.block()),
        ),
        other => die(&format!("unknown system {other:?}")),
    };

    // Router.
    let router_name = args
        .value("--router")
        .unwrap_or_else(|| "max-of-mins".into());
    let router: Box<dyn ScanRouter> = match router_name.as_str() {
        "max-of-mins" => Box::new(MaxOfMins::new(env.phi_tuples())),
        "shortest-queue" => Box::new(ShortestQueue),
        "greedy-sc" => Box::new(GreedySetCover),
        "power-of-two" => Box::new(PowerOfTwoChoices::new(env.phi_tuples(), seed)),
        other => die(&format!("unknown router {other:?}")),
    };

    let want_throughput = args.flag("--throughput");
    if !args.0.is_empty() {
        die(&format!("unrecognized arguments: {:?}", args.0));
    }

    // Apply the price multiplier by scaling the workload.
    let workload = if (price_mult - 1.0).abs() > 1e-12 {
        nashdb_bench::env::with_price_mult(&workload, price_mult)
    } else {
        workload
    };

    let metrics = run_workload(&workload, dist.as_mut(), router.as_ref(), &env.run);

    println!();
    println!("system            : {system} + {router_name}");
    println!("completed queries : {}", metrics.queries.len());
    println!("mean latency      : {:.3} s", metrics.mean_latency_secs());
    for p in [50.0, 95.0, 99.0] {
        println!(
            "p{p:<2} latency       : {:.3} s",
            metrics.latency_percentile_secs(p).unwrap_or(0.0)
        );
    }
    println!("mean query span   : {:.2} nodes", metrics.mean_span());
    println!("peak cluster size : {} nodes", metrics.peak_nodes);
    println!("reconfigurations  : {}", metrics.reconfigurations);
    println!(
        "data transferred  : {:.2} GB total ({:.2} GB/transition)",
        metrics.total_transfer() as f64 / 1e6,
        metrics.total_transfer() as f64 / 1e6 / metrics.reconfigurations.max(1) as f64
    );
    println!("total cost        : {:.1} (1/100 cent)", metrics.total_cost);

    if want_throughput {
        println!();
        println!("throughput (GB read per bucket):");
        for (t, v) in metrics.read_throughput.buckets() {
            if v > 0.0 {
                println!("  {:>10.1} min  {:>10.2}", t.as_secs_f64() / 60.0, v / 1e6);
            }
        }
    }
}
