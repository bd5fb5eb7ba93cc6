//! Command line of the benchmark binary; `run.py` drives it.
//!
//! ```text
//! bwb-perfbench roof
//! bwb-perfbench run --workload W --seed N --seconds S --trace 0|1 \
//!                   --roof-1t GBS --roof-2t GBS
//! ```
//!
//! Each prints one JSON line on stdout.

use bwb_perfbench::roof::{self, Roof};
use bwb_perfbench::{run, Workload};
use std::process::ExitCode;

fn arg<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    arg(args, name)?
        .parse()
        .map_err(|_| format!("{name}: not a number"))
}

fn main_inner(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("roof") => Ok(roof::measure().to_json()),
        Some("run") => {
            let name = arg(args, "--workload")?;
            let w = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
            let seed: u64 = num(args, "--seed")?;
            let seconds: f64 = num(args, "--seconds")?;
            let traced = match arg(args, "--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
            };
            let roof = Roof {
                llc_bytes: 0,
                llc_measured: false,
                array_bytes: 0,
                triad_gbs_1t: num(args, "--roof-1t")?,
                triad_gbs_2t: num(args, "--roof-2t")?,
                copy_gbs_1t: 0.0,
            };
            Ok(run(w, seed, seconds, traced, &roof).to_json())
        }
        _ => Err("usage: bwb-perfbench roof | run --workload W --seed N --seconds S --trace 0|1 --roof-1t GBS --roof-2t GBS".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bwb-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
