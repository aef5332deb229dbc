//! End-to-end and per-layer benchmark of the byzcast simulator.
//!
//! ```text
//! perfbench --workload <scale-1280|chaos-soak|scale-N>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Everything runs on the calling thread. The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`,
//! with the end-to-end metrics when `--trace 0` and the per-layer metrics
//! when `--trace 1`. See `README.md` beside this crate for the metric table
//! and the reasons behind each workload.

mod host;
mod measure;
mod report;
mod traced;
mod workloads;

use std::process::ExitCode;

use workloads::Family;

struct Args {
    family: Family,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut family, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                family = Some(Family::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        family: family.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        measure::traced(args.family, args.seed, args.seconds)
    } else {
        measure::end_to_end(args.family, args.seed, args.seconds)
    };
    match outcome.to_json() {
        Ok(line) => {
            println!("{line}");
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
