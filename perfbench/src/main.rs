//! One benchmark for bfq: TPC-H at two scale factors (closed loop) and a
//! served mix over TCP (open loop), every result checked, end-to-end
//! metrics split by layer.
//!
//! ```text
//! perfbench --workload <tpch-sf0.02|tpch-sf0.2|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--quick] [--trace-dir <dir>]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with the
//! end-to-end metrics under `--trace 0` and the per-layer metrics under
//! `--trace 1`.

mod check;
mod layers;
mod report;
mod serve;
mod stats;
mod tpch;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Every workload pins these itself; nothing is read from the machine.
pub const DOP: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test mode: one set-up and a few statements.
    pub quick: bool,
    pub trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut trace_dir = PathBuf::from("perfbench-traces");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--trace-dir" => trace_dir = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        quick,
        trace_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "tpch-sf0.02" => tpch::run(0.02, &args),
        "tpch-sf0.2" => tpch::run(0.2, &args),
        "serve-mixed" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.json_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
