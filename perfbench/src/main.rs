//! The repository's end-to-end benchmark: the real `smerge serve` over
//! TCP, with a traced in-process replay that attributes the time layer by
//! layer.
//!
//! ```text
//! bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics; with
//! `--trace 1` it repeats the traffic and replays it in process under
//! spans to give the per-layer metrics. Every run checks the program's
//! output and prints one JSON object as its last line; it exits non-zero
//! when a request or a check failed. `--workload all` runs every
//! workload both ways.

mod alloc;
mod client;
mod inputs;
mod layers;
mod replay;
mod report;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use inputs::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Command-line settings of one run.
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smerge: PathBuf,
}

const USAGE: &str = "usage: perfbench --smerge <path> --workload <name|all> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        smerge: PathBuf::new(),
    };
    let mut all = false;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|err| format!("{flag} {value}: {err}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--smerge" => args.smerge = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if args.workload.is_none() && !all {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    if !args.smerge.is_file() {
        return Err(format!(
            "no smerge binary at `{}`\n{USAGE}",
            args.smerge.display()
        ));
    }
    Ok(args)
}

/// A cleared scratch directory for one workload.
pub fn work_dir(workload: Workload) -> Result<PathBuf, String> {
    let dir = Path::new("perfbench/.work").join(workload.name());
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|err| format!("clearing {}: {err}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|err| format!("creating {}: {err}", dir.display()))?;
    Ok(dir)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let runs: Vec<(Workload, bool)> = match args.workload {
        Some(workload) => vec![(workload, args.trace)],
        None => Workload::ALL
            .into_iter()
            .flat_map(|w| [(w, false), (w, true)])
            .collect(),
    };
    let mut all_correct = true;
    for (workload, trace) in runs {
        let run_args = Args {
            workload: Some(workload),
            trace,
            smerge: args.smerge.clone(),
            ..args
        };
        match serve::run(workload, &run_args) {
            Ok(outcome) => {
                outcome.print(workload.name(), trace);
                all_correct &= outcome.correct();
            }
            Err(err) => {
                eprintln!("perfbench: {}: {err}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
