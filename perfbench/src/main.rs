//! `nashdb-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints the host fingerprint, the run digests, then as its last line one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exits 1 when a correctness check fails, 2 on bad
//! arguments.

use std::process::ExitCode;

use nashdb_perfbench::{host_fingerprint, measure_end_to_end, measure_layers, Kind, Size};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 42;
    let mut seconds = 50.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        measure_layers(args.kind, args.seed, args.seconds, Size::default())
    } else {
        measure_end_to_end(args.kind, args.seed, args.seconds, Size::default())
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
