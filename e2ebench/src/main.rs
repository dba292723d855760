//! `e2ebench`: the repository benchmark. It serves k-MST over loopback
//! the way `mst-serve` deploys it — `Server::start` in-process with its
//! defaults (2 workers, 1 I/O thread, depth cap 32, answer cache off)
//! over `ShardedDatabase::with_rtree` with 4 shards, or
//! `Server::start_durable` over a `FileStore` — drives it from two client
//! threads with one pipelined connection each, checks every answer, and
//! prints each metric by name with its unit. The last stdout line is the
//! one-line JSON result.
//!
//! ```text
//! e2ebench --workload <hot-short|spread-long|ingest-mixed> --seed N \
//!          --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer metrics. The process
//! exits 1 on any wrong answer or lost acknowledged write, 2 on bad
//! arguments. See `NOTES.md` beside this package.

mod check;
mod conn;
mod data;
mod durable;
mod load;
mod run;
mod stats;
mod trace;

use data::Workload;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: not {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds must be within 1..600, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "{e}\nusage: e2ebench --workload <hot-short|spread-long|ingest-mixed> \
                 --seed N --seconds S --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        trace::run(&args)
    } else {
        run::run(&args)
    };
    match report {
        Ok(report) => {
            report.print();
            if !report.correct() {
                eprintln!(
                    "[e2ebench] {} correctness failure(s); first: {}",
                    report.problems.len(),
                    report.problems[0]
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("[e2ebench] run failed: {e}");
            std::process::exit(1);
        }
    }
}
