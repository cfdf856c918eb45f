//! `rhpl` — HPL.dat-driven benchmark runner.
//!
//! `rhpl [HPL.dat]` runs the sweep an input file describes; `rhpl launch`
//! runs its first combination with one supervised OS process per rank
//! ([`rhpl_cli::launch`]); `rhpl --sample` prints a starting `HPL.dat`.
//! Every flag and `RHPL_*` variable is listed by `rhpl --help`
//! ([`rhpl_cli::opts::USAGE`]) and parsed once, by
//! [`rhpl_cli::opts::RunOpts::parse`]: an unknown flag or a bad flag value
//! exits 1, a bad variable exits 2.
//!
//! With any fault flag present the classic table is replaced by the
//! machine-readable `HPLOK`/`HPLERROR` + `FAULTLOG` protocol (see
//! [`rhpl_cli::faults`]); exit code 3 signals a structured failure. Adding
//! `--ckpt-every K` to a faulted run routes through the recovery supervisor
//! ([`rhpl_cli::recover`]): injected rank deaths are survived by restoring
//! all ranks from the last complete checkpoint and resuming mid-stream.

use std::process::ExitCode;

use rhpl_cli::opts::{Mode, RunOpts, USAGE};
use rhpl_cli::{bench, dat, launch, recover, report, runner};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match RunOpts::parse(&args, &hpl_comm::config::process_env) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rhpl: {e}");
            return ExitCode::from(e.exit_code());
        }
    };
    // The DGEMM kernel freezes at first use, so resolve it before any
    // linear algebra runs.
    hpl_blas::kernels::select(opts.kernel);
    match opts.mode {
        Mode::Sample => {
            print!("{}", dat::SAMPLE);
            return ExitCode::SUCCESS;
        }
        Mode::Help => {
            eprint!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Mode::Launch => return launch::run_launch(&opts),
        Mode::Rank { .. } => return launch::run_rank(&opts),
        Mode::Run => {}
    }
    let path = &opts.path;
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rhpl: cannot read {path}: {e}");
            eprintln!("hint: `rhpl --sample > HPL.dat` writes a starting point");
            return ExitCode::FAILURE;
        }
    };
    let spec = match dat::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rhpl: {e}");
            return ExitCode::FAILURE;
        }
    };

    let combos = runner::expand(&spec, opts.seed, opts.split_frac, opts.threads);
    if opts.faulted() {
        return run_faulted(&combos, spec.threshold, &opts);
    }
    let max_ranks = combos.iter().map(|(c, _)| c.ranks()).max().unwrap_or(1);
    print!("{}", report::banner(max_ranks));
    print!("{}", report::table_header());
    let mut failed = 0usize;
    let total = combos.len();
    let mut records = Vec::with_capacity(total);
    for (mut cfg, depth) in combos {
        if opts.trace_json.is_some() {
            cfg.trace = hpl_trace::TraceOpts::on();
        }
        if opts.ckpt_every > 0 {
            // Disk stores are re-opened (not wiped): a repeated invocation
            // after an interruption resumes from what the previous process
            // deposited. Each combination gets its own subdirectory.
            let store = match &opts.ckpt_dir {
                Some(dir) => {
                    let sub = dir.join(format!(
                        "{}-n{}-nb{}-{}x{}",
                        runner::encode_tv(&cfg, depth),
                        cfg.n,
                        cfg.nb,
                        cfg.p,
                        cfg.q
                    ));
                    match hpl_ckpt::CkptStore::disk(&sub, cfg.ranks()) {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("rhpl: cannot open checkpoint dir: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                None => hpl_ckpt::CkptStore::mem(cfg.ranks()),
            };
            cfg.ckpt = rhpl_core::CkptOpts {
                every: opts.ckpt_every,
                store: Some(store),
                resume: true,
            };
        }
        let rec = match runner::run_one(&cfg, depth, spec.threshold, &opts) {
            Ok(rec) => rec,
            Err(e) => {
                eprintln!("rhpl: run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report::format_record(&rec));
        if !rec.passed {
            failed += 1;
        }
        records.push(rec);
    }
    print!("{}", report::footer(total, failed));
    if let Some(path) = &opts.trace_json {
        if let Err(e) = bench::write_bench_json(&records, path, &opts) {
            eprintln!("rhpl: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("rhpl: wrote phase trace to {path}");
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Fault-soak mode: every combination runs under a freshly parsed copy of
/// the plan (per-rank fault counters must start at zero for each run) and
/// prints the `HPLOK`/`HPLERROR` + `FAULTLOG` protocol. Exit code 3 for a
/// structured failure, 1 for a wrong answer (`HPLBAD`) or a bad spec.
fn run_faulted(
    combos: &[(rhpl_core::HplConfig, usize)],
    threshold: f64,
    opts: &RunOpts,
) -> ExitCode {
    // Injected rank deaths unwind as panics; the default hook's backtraces
    // are nondeterministic noise next to the protocol lines. Outcomes are
    // reported exclusively via HPLOK/HPLERROR (a real crash surfaces as
    // kind=rank_failed phase=panic).
    std::panic::set_hook(Box::new(|_| {}));
    let mut structured = false;
    let mut bad = false;
    for (i, (cfg, _depth)) in combos.iter().enumerate() {
        let plan = match opts.fault_plan(cfg.ranks(), false) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("rhpl: {e}");
                return ExitCode::FAILURE;
            }
        };
        let dir = opts.ckpt_dir.as_ref().map(|d| d.join(format!("combo{i}")));
        let out = recover::run_one_supervised(cfg, plan, threshold, dir.as_deref(), opts);
        print!("{}", out.block);
        if !out.ok() {
            if out.structured_error() {
                structured = true;
            } else {
                bad = true;
            }
        }
    }
    if bad {
        ExitCode::FAILURE
    } else if structured {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}
