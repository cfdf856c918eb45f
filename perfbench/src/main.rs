//! `rhpl-perfbench`: one measured run of one benchmark workload.
//!
//! ```text
//! rhpl-perfbench --workload hpl64-1x1|mxp32-1x1|launch-tcp-2x1 --seed S
//!                --seconds T --trace 0|1 --rhpl PATH --work-dir DIR
//!                [--traced-solves]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics from untraced solves;
//! `--trace 1` measures the per-layer metrics: timed calls into each
//! layer's public functions plus a phase trace of the workload. Every
//! solve's answer is checked. The last stdout line is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it
//! give each metric with its unit, sample count and quartiles.
//! `--traced-solves` turns tracing on for the end-to-end solves, so the
//! `RHPL_TRACE_SLOW_*` delays (which fire only under tracing) reach
//! `time_to_solution_s`; `compare.py sensitivity` relies on it.
//!
//! `perfbench/run.py` builds this binary and `rhpl`, then runs it.

mod layers;
mod report;
mod sys;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;
use workload::Workload;

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub traced_solves: bool,
    pub rhpl: PathBuf,
    pub work_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |key: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == key)
            .ok_or(format!("missing {key}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{key} needs a value"))
    };
    let workload = value("--workload")?.parse::<Workload>()?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must lie in (0, 120], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        traced_solves: args.iter().any(|a| a == "--traced-solves"),
        rhpl: PathBuf::from(value("--rhpl")?),
        work_dir: PathBuf::from(value("--work-dir")?),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rhpl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = hpl_comm::config::validate_env() {
        eprintln!("rhpl-perfbench: configuration error: {e}");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "rhpl-perfbench: cannot create {}: {e}",
            args.work_dir.display()
        );
        return ExitCode::from(2);
    }
    // A wedged solve must not hang the run: give up two minutes past the
    // measuring window. Child `rhpl` processes have their own deadline
    // (`workload::CHILD_DEADLINE`).
    let limit = Duration::from_secs_f64(args.seconds + 120.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("rhpl-perfbench: run exceeded {limit:?}; aborting");
        std::process::exit(1);
    });
    // Rank death surfaces as a failed sample; keep stderr to one line each.
    std::panic::set_hook(Box::new(|info| eprintln!("rhpl-perfbench: {info}")));

    println!("{}", sys::host_line(args.workload));
    let mut report = Report::default();
    if args.trace {
        layers::run_all(&args, &mut report);
        workload::traced(&args, &mut report);
    } else {
        workload::end_to_end(&args, &mut report);
    }
    report.print();
    ExitCode::SUCCESS
}
