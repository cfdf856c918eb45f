//! The workloads: their configurations, one solve of each, the answer
//! checks, and the end-to-end and traced measurements.

use std::ffi::OsStr;
use std::fs::File;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus};
use std::str::FromStr;
use std::time::{Duration, Instant};

use hpl_comm::{FabricOpts, Grid, TransportSel, Universe};
use hpl_trace::report::{overlap_efficiency, phase_totals, seq_hash};
use hpl_trace::{Phase, Trace, TraceOpts};
use rhpl_core::{run_hpl, verify_with_eps, HplConfig, HplResult, LocalMatrix, MatGen, Residuals};

use crate::report::Report;
use crate::sys::{run_child, self_usage, Finished};
use crate::Args;

/// Set-up samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;
/// Fresh runs of the workload's command whose peak resident set gives
/// `peak_rss_mib`.
const PEAK_RUNS: usize = 3;
/// A child `rhpl` still running by then is killed and counted failed.
const CHILD_DEADLINE: Duration = Duration::from_secs(60);
/// Share of a `--trace 1` run spent on the layer microbenchmarks; the rest
/// goes to traced/untraced solve pairs.
pub const LAYER_SHARE: f64 = 0.4;

/// A benchmark workload (see `perfbench/README.md` for why each exists).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// `run_hpl` (f64) in-process, N=2048, NB=128, 1x1.
    Hpl64,
    /// `hpl_mxp::solve_mxp` in-process, N=2048, NB=128, 1x1.
    Mxp32,
    /// `rhpl launch --ranks 2 --transport tcp`, N=1536, NB=64, 2x1.
    LaunchTcp,
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "hpl64-1x1" => Ok(Workload::Hpl64),
            "mxp32-1x1" => Ok(Workload::Mxp32),
            "launch-tcp-2x1" => Ok(Workload::LaunchTcp),
            _ => Err(format!(
                "unknown workload {s} (hpl64-1x1 | mxp32-1x1 | launch-tcp-2x1)"
            )),
        }
    }
}

/// Problem shape: `(N, NB, P, Q)`.
pub type Shape = (usize, usize, usize, usize);

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Hpl64 => "hpl64-1x1",
            Workload::Mxp32 => "mxp32-1x1",
            Workload::LaunchTcp => "launch-tcp-2x1",
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::Hpl64 => (2048, 128, 1, 1),
            Workload::Mxp32 => (2048, 128, 1, 1),
            Workload::LaunchTcp => (1536, 64, 2, 1),
        }
    }

    /// The transport the in-process solves use: what `Universe::run`
    /// resolves for the in-process workloads, TCP for the launch workload
    /// (whose traced numbers come from the same config run in-process over
    /// TCP, because `launch` writes no trace).
    pub fn transport(self) -> TransportSel {
        match self {
            Workload::LaunchTcp => TransportSel::Tcp,
            _ => hpl_comm::universe::env_transport_sel(),
        }
    }

    pub fn config(self, seed: u64) -> HplConfig {
        config(self.shape(), seed)
    }
}

/// The `HPL.dat` for one problem: the CLI's sample input (schedule
/// `WC112R16`: look-ahead depth 1, split update 0.5, 1-ring-modified
/// broadcast, recursive right-looking FACT with NDIV 2, NBMIN 16) with
/// N, NB, P and Q replaced.
pub fn dat_text((n, nb, p, q): Shape) -> String {
    rhpl_cli::SAMPLE
        .lines()
        .map(|line| {
            let label = line.split_whitespace().nth(1).unwrap_or("");
            let value = match label {
                "Ns" => n,
                "NBs" => nb,
                "Ps" => p,
                "Qs" => q,
                _ => return format!("{line}\n"),
            };
            format!("{value:<13}{label}\n")
        })
        .collect()
}

/// The configuration `rhpl` and `rhpl launch` run for [`dat_text`] with
/// `seed` (one FACT and one UPDATE thread per rank).
pub fn config(shape: Shape, seed: u64) -> HplConfig {
    let spec = rhpl_cli::parse(&dat_text(shape)).expect("generated HPL.dat parses");
    let (cfg, _depth) = rhpl_cli::expand(&spec, seed, 0.5, 1).remove(0);
    cfg
}

/// The generator closure every rank fills its slice from.
fn fill(cfg: &HplConfig) -> impl Fn(usize, usize) -> f64 + Sync {
    let gen = MatGen::new(cfg.seed, cfg.n);
    move |i, j| gen.entry(i, j)
}

/// What one rank's solve returned.
struct RankOut {
    x: Vec<f64>,
    wall: f64,
    gflops: f64,
    trace: Option<Trace>,
    retries: u64,
    sweeps: usize,
    /// Scaled residual the program computed itself (HPL-MxP only).
    residual: Option<f64>,
}

impl From<HplResult> for RankOut {
    fn from(r: HplResult) -> Self {
        RankOut {
            x: r.x,
            wall: r.wall,
            gflops: r.gflops,
            trace: r.trace,
            retries: r.retries,
            sweeps: 0,
            residual: None,
        }
    }
}

impl From<hpl_mxp::MxpOutput> for RankOut {
    fn from(o: hpl_mxp::MxpOutput) -> Self {
        RankOut {
            x: o.x,
            wall: o.wall,
            gflops: o.gflops,
            trace: o.trace,
            retries: o.retries,
            sweeps: o.sweeps,
            // Refinement that stopped short of the gate fails the check.
            residual: Some(if o.converged {
                o.residuals.scaled
            } else {
                f64::INFINITY
            }),
        }
    }
}

/// One solve as seen from the benchmark.
struct Solve {
    /// Benchmark-side wall time, call to return (seconds).
    wall: f64,
    /// CPU seconds the solve consumed (this process, or the launched job).
    cpu: f64,
    /// What the program produced, or why it produced nothing.
    out: Result<Solved, String>,
}

struct Solved {
    /// GFLOPS the program reported (launch: HPL flops over `wall`).
    gflops: f64,
    /// Rank 0's solution (empty for launch, which prints none).
    x: Vec<f64>,
    /// Scaled residual the program reported, if it reports one.
    residual: Option<f64>,
    /// Phase-sequence hash (traced solves and launch).
    seq: Option<u64>,
    /// Per-rank traces and timed-region walls (traced in-process solves).
    traces: Vec<Trace>,
    rank_walls: Vec<f64>,
    retries: u64,
    sweeps: usize,
}

fn solve_inproc(w: Workload, cfg: &HplConfig) -> Solve {
    let cpu0 = self_usage().cpu_s;
    let t0 = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        Universe::run_with_transport(cfg.ranks(), w.transport(), FabricOpts::default(), |comm| {
            match w {
                Workload::Mxp32 => hpl_mxp::solve_mxp(comm, cfg).map(RankOut::from),
                _ => run_hpl(comm, cfg).map(RankOut::from),
            }
        })
    }));
    let wall = t0.elapsed().as_secs_f64();
    let cpu = self_usage().cpu_s - cpu0;
    let out = match run {
        Err(panic) => Err(panic_message(&*panic)),
        Ok(ranks) => ranks
            .into_iter()
            .collect::<Result<Vec<RankOut>, _>>()
            .map_err(|e| e.to_string())
            .map(solved_inproc),
    };
    Solve { wall, cpu, out }
}

fn solved_inproc(mut ranks: Vec<RankOut>) -> Solved {
    let traces: Vec<Trace> = ranks.iter_mut().filter_map(|r| r.trace.take()).collect();
    let seq = (traces.len() == ranks.len()).then(|| seq_hash(&traces));
    let r0 = &ranks[0];
    Solved {
        gflops: r0.gflops,
        x: r0.x.clone(),
        residual: ranks.iter().filter_map(|r| r.residual).reduce(f64::max),
        seq,
        traces,
        rank_walls: ranks.iter().map(|r| r.wall).collect(),
        retries: ranks.iter().map(|r| r.retries).sum(),
        sweeps: r0.sweeps,
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "rank panicked".into())
}

/// Writes the launch input for `shape` into the work directory.
fn write_dat(args: &Args, shape: Shape) -> PathBuf {
    let (n, nb, p, q) = shape;
    let path = args.work_dir.join(format!("HPL-n{n}-nb{nb}-{p}x{q}.dat"));
    std::fs::write(&path, dat_text(shape)).expect("work dir is writable");
    path
}

/// Runs `rhpl <rhpl_args..>` to exit with its stdout in the work
/// directory; returns the finished child and its stdout.
fn run_rhpl(args: &Args, rhpl_args: &[&OsStr]) -> Result<(Finished, String), String> {
    let out_path = args.work_dir.join("rhpl.out");
    let stdout = File::create(&out_path).map_err(|e| e.to_string())?;
    let mut cmd = Command::new(&args.rhpl);
    cmd.args(rhpl_args).stdout(stdout);
    let done =
        run_child(&mut cmd, CHILD_DEADLINE).map_err(|e| format!("{}: {e}", args.rhpl.display()))?;
    let text = std::fs::read_to_string(&out_path).map_err(|e| e.to_string())?;
    Ok((done, text))
}

fn launch_argv<'a>(dat: &'a Path, ranks: &'a str, seed: &'a str) -> [&'a OsStr; 8] {
    [
        "launch".as_ref(),
        dat.as_os_str(),
        "--ranks".as_ref(),
        ranks.as_ref(),
        "--transport".as_ref(),
        "tcp".as_ref(),
        "--seed".as_ref(),
        seed.as_ref(),
    ]
}

/// Spawns `rhpl launch <dat> --ranks P*Q --transport tcp --seed S` and
/// waits for it; CPU time is that of the launcher and its rank processes.
fn solve_launch(args: &Args, dat: &Path, cfg: &HplConfig) -> Solve {
    let (ranks, seed) = (cfg.ranks().to_string(), cfg.seed.to_string());
    let argv = launch_argv(dat, &ranks, &seed);
    let t0 = Instant::now();
    let run = run_rhpl(args, &argv);
    let (wall, cpu) = match &run {
        Ok((done, _)) => (done.wall, done.usage.cpu_s),
        Err(_) => (t0.elapsed().as_secs_f64(), f64::NAN),
    };
    let out = run.and_then(|(done, text)| {
        parse_launch(done.status, &text).map(|(residual, seq)| Solved {
            gflops: cfg.flops() / wall / 1e9,
            x: Vec::new(),
            residual: Some(residual),
            seq: Some(seq),
            traces: Vec::new(),
            rank_walls: Vec::new(),
            retries: 0,
            sweeps: 0,
        })
    });
    Solve { wall, cpu, out }
}

/// Peak resident set (MiB) of one fresh run of the workload's command:
/// `rhpl <dat> --seed S` (with `--mxp` for the mixed-precision workload),
/// or the launch. The run must pass its own residual gate.
fn peak_rss_once(args: &Args, dat: &Path, cfg: &HplConfig, report: &mut Report) -> f64 {
    let (ranks, seed) = (cfg.ranks().to_string(), cfg.seed.to_string());
    let run = match args.workload {
        // The launched job's peak: the largest of launcher and ranks.
        Workload::LaunchTcp => {
            run_rhpl(args, &launch_argv(dat, &ranks, &seed)).and_then(|(done, text)| {
                match parse_launch(done.status, &text)? {
                    (r, _) if r < Residuals::THRESHOLD => Ok(done.usage.peak_rss_mib),
                    (r, _) => Err(format!("launch residual {r:e}")),
                }
            })
        }
        w => {
            let mut argv: Vec<&OsStr> = vec![dat.as_os_str(), "--seed".as_ref(), seed.as_ref()];
            if w == Workload::Mxp32 {
                argv.push("--mxp".as_ref());
            }
            run_rhpl(args, &argv).and_then(|(done, text)| {
                if !done.status.success() {
                    Err(format!("rhpl exited with {}", done.status))
                } else if !text.contains("PASSED") || text.contains("FAILED") {
                    Err("rhpl did not report PASSED".into())
                } else {
                    Ok(done.usage.peak_rss_mib)
                }
            })
        }
    };
    report.check("rhpl run", run.as_ref().map(|_| ()).map_err(Clone::clone));
    run.unwrap_or(f64::NAN)
}

/// `(residual, seq_hash)` from the supervisor's `HPLOK` line.
fn parse_launch(status: ExitStatus, stdout: &str) -> Result<(f64, u64), String> {
    if !status.success() {
        return Err(format!("launch exited with {status}"));
    }
    let line = stdout
        .lines()
        .find(|l| l.starts_with("HPLOK "))
        .ok_or("no HPLOK line")?;
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(key))
            .ok_or(format!("HPLOK line lacks {key}"))
    };
    let residual = field("residual=")?
        .parse::<f64>()
        .map_err(|e| format!("residual: {e}"))?;
    let seq = u64::from_str_radix(field("seq_hash=")?.trim_start_matches("0x"), 16)
        .map_err(|e| format!("seq_hash: {e}"))?;
    Ok((residual, seq))
}

/// The answer every later solve of the workload must reproduce: the first
/// (traced, in-process) solve's `x` and phase-sequence hash, with its
/// residual recomputed independently of the program.
struct Reference {
    x: Vec<f64>,
    seq: u64,
    /// Why the reference itself is wrong, if it is.
    bad: Option<String>,
}

fn reference(w: Workload, cfg: &HplConfig, report: &mut Report) -> Option<Reference> {
    let mut tcfg = cfg.clone();
    tcfg.trace = TraceOpts::on();
    let s = solve_inproc(w, &tcfg);
    let solved = match s.out {
        Ok(o) => o,
        Err(e) => {
            report.check("reference solve", Err(e));
            return None;
        }
    };
    let scaled = independent_residual(cfg, &solved.x);
    let bad = match scaled {
        Ok(r) if r < Residuals::THRESHOLD => None,
        Ok(r) => Some(format!("scaled residual {r:e} >= {}", Residuals::THRESHOLD)),
        Err(e) => Some(e),
    };
    report.check("reference solve", bad.clone().map_or(Ok(()), Err));
    Some(Reference {
        x: solved.x,
        seq: solved.seq.expect("traced solve carries every rank's trace"),
        bad,
    })
}

/// HPL's scaled residual of `x` at f64 precision, from a regenerated system.
fn independent_residual(cfg: &HplConfig, x: &[f64]) -> Result<f64, String> {
    let fill = fill(cfg);
    let res = catch_unwind(AssertUnwindSafe(|| {
        Universe::run(cfg.ranks(), |comm| {
            let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
            verify_with_eps(&grid, cfg.n, cfg.nb, &fill, x, f64::EPSILON)
        })
    }))
    .map_err(|p| panic_message(&*p))?;
    res.into_iter()
        .next()
        .expect("rank 0")
        .map(|r| r.scaled)
        .map_err(|e| e.to_string())
}

/// Checks one solve against the reference: an error, a residual at or
/// above the threshold, or an `x` / `seq_hash` that differs fails it.
fn check(out: &Result<Solved, String>, reference: &Option<Reference>) -> Result<(), String> {
    let s = out.as_ref().map_err(Clone::clone)?;
    let r = reference.as_ref().ok_or("no reference answer")?;
    if let Some(bad) = &r.bad {
        return Err(format!("reference answer is wrong: {bad}"));
    }
    if let Some(res) = s
        .residual
        .filter(|r| r.is_nan() || *r >= Residuals::THRESHOLD)
    {
        return Err(format!("scaled residual {res:e}"));
    }
    if !s.x.is_empty()
        && !s
            .x
            .iter()
            .map(|v| v.to_bits())
            .eq(r.x.iter().map(|v| v.to_bits()))
    {
        return Err("x differs from the first run".into());
    }
    match s.seq {
        Some(seq) if seq != r.seq => Err(format!(
            "seq_hash {seq:#018x} differs from the in-process run's {:#018x}",
            r.seq
        )),
        _ => Ok(()),
    }
}

/// Rank start-up plus one generation of the workload's system: the
/// in-process workloads time `Universe::run` + `Grid::new` +
/// `LocalMatrix::generate_with` in the pipeline's element; launch times the
/// same launch command with N = NB (one block).
fn setup_once(args: &Args, cfg: &HplConfig, one_block: Option<&Path>, report: &mut Report) -> f64 {
    let w = args.workload;
    if let Some(dat) = one_block {
        let mut small = cfg.clone();
        small.n = small.nb;
        let s = solve_launch(args, dat, &small);
        let ok = s.out.and_then(|o| match o.residual {
            Some(r) if r < Residuals::THRESHOLD => Ok(()),
            r => Err(format!("one-block launch residual {r:?}")),
        });
        report.check("one-block launch", ok);
        return s.wall;
    }
    let fill = fill(cfg);
    let t0 = Instant::now();
    let sizes =
        Universe::run_with_transport(cfg.ranks(), w.transport(), FabricOpts::default(), |comm| {
            let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
            if w == Workload::Mxp32 {
                LocalMatrix::<f32>::generate_with(cfg.n, cfg.nb, &grid, &fill)
                    .as_slice()
                    .len()
            } else {
                LocalMatrix::<f64>::generate_with(cfg.n, cfg.nb, &grid, &fill)
                    .as_slice()
                    .len()
            }
        });
    let wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(sizes);
    wall
}

/// `--trace 0`: untraced solves for `args.seconds`, plus set-up samples
/// and fresh-process peak-memory runs.
pub fn end_to_end(args: &Args, report: &mut Report) {
    let w = args.workload;
    let cfg = w.config(args.seed);
    let dat = write_dat(args, w.shape());
    // Peak memory first, while this process is still small: a child's
    // `ru_maxrss` starts from the resident set of the image it replaced at
    // exec, which a spawn shares with this process.
    let peak: Vec<f64> = (0..PEAK_RUNS)
        .map(|_| peak_rss_once(args, &dat, &cfg, report))
        .collect();
    let reference = reference(w, &cfg, report);
    let launch = w == Workload::LaunchTcp;
    let one_block = launch.then(|| {
        let (_, nb, p, q) = w.shape();
        write_dat(args, (nb, nb, p, q))
    });
    let setup: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| setup_once(args, &cfg, one_block.as_deref(), report))
        .collect();

    let mut run_cfg = cfg.clone();
    if args.traced_solves {
        run_cfg.trace = TraceOpts::on();
    }
    let (mut wall, mut cpu, mut gflops) = (Vec::new(), Vec::new(), Vec::new());
    let end = Instant::now() + Duration::from_secs_f64(args.seconds);
    while wall.is_empty() || Instant::now() < end {
        let s = if launch {
            solve_launch(args, &dat, &cfg)
        } else {
            solve_inproc(w, &run_cfg)
        };
        report.check("solve", check(&s.out, &reference));
        // Failed samples keep their timings.
        wall.push(s.wall);
        cpu.push(s.cpu);
        if let Ok(o) = &s.out {
            gflops.push(o.gflops);
        }
    }
    report.samples("time_to_solution_s", "s", &wall);
    report.samples("hpl_gflops", "GFLOP/s", &gflops);
    report.samples("setup_s", "s", &setup);
    report.samples("cpu_s", "s", &cpu);
    report.samples("peak_rss_mib", "MiB", &peak);
}

/// `--trace 1`, workload part: alternating untraced and traced in-process
/// solves of the workload's config (launch: the same config over TCP in
/// one process) for the share of `args.seconds` the layers left.
pub fn traced(args: &Args, report: &mut Report) {
    let w = args.workload;
    let cfg = w.config(args.seed);
    let mut tcfg = cfg.clone();
    tcfg.trace = TraceOpts::on();
    let reference = reference(w, &cfg, report);
    let mut m = TraceSamples::default();
    let end = Instant::now() + Duration::from_secs_f64(args.seconds * (1.0 - LAYER_SHARE));
    while m.traced_wall.is_empty() || Instant::now() < end {
        let plain = solve_inproc(w, &cfg);
        report.check("untraced solve", check(&plain.out, &reference));
        m.untraced_wall.push(plain.wall);
        let traced = solve_inproc(w, &tcfg);
        report.check("traced solve", check(&traced.out, &reference));
        m.traced_wall.push(traced.wall);
        if let Ok(o) = &traced.out {
            m.add(o);
        }
    }
    m.report(report);
}

/// Per-traced-solve phase figures; each metric is the median over solves.
#[derive(Default)]
struct TraceSamples {
    untraced_wall: Vec<f64>,
    traced_wall: Vec<f64>,
    phase_ms: [Vec<f64>; 7],
    overlap: Vec<f64>,
    untraced_frac: Vec<f64>,
    retries: Vec<f64>,
    sweeps: Vec<f64>,
    bytes: Vec<f64>,
    fact_spans: Vec<f64>,
    update_spans: Vec<f64>,
}

impl TraceSamples {
    fn add(&mut self, o: &Solved) {
        let t = phase_totals(&o.traces);
        let ns = [
            t.fact_ns,
            t.fact_comm_ns,
            t.bcast_ns,
            t.row_swap_ns,
            t.scatter_ns,
            t.update_ns,
            t.transfer_ns,
        ];
        for (v, ns) in self.phase_ms.iter_mut().zip(ns) {
            v.push(ns as f64 / 1e6);
        }
        self.overlap.push(overlap_efficiency(&o.traces));
        // FactComm spans sit inside the Fact window; every other span is
        // top-level on its rank's thread.
        let fracs: Vec<f64> = o
            .traces
            .iter()
            .zip(&o.rank_walls)
            .map(|(tr, &wall)| {
                let covered: u64 = tr
                    .spans
                    .iter()
                    .filter(|s| s.phase != Phase::FactComm)
                    .map(|s| s.dur_ns)
                    .sum();
                1.0 - covered as f64 / 1e9 / wall
            })
            .collect();
        self.untraced_frac
            .push(fracs.iter().sum::<f64>() / fracs.len() as f64);
        self.retries.push(o.retries as f64);
        self.sweeps.push(o.sweeps as f64);
        self.bytes.push(t.bytes as f64);
        let count = |p: Phase| {
            o.traces
                .iter()
                .map(|tr| tr.spans.iter().filter(|s| s.phase == p).count())
                .max()
                .unwrap_or(0) as f64
        };
        self.fact_spans.push(count(Phase::Fact));
        self.update_spans.push(count(Phase::Update));
    }

    fn report(&self, report: &mut Report) {
        const NAMES: [&str; 7] = [
            "trace.fact_ms",
            "trace.fact_comm_ms",
            "trace.bcast_ms",
            "trace.row_swap_ms",
            "trace.scatter_ms",
            "trace.update_ms",
            "trace.transfer_ms",
        ];
        for (name, v) in NAMES.into_iter().zip(&self.phase_ms) {
            report.samples(name, "ms", v);
        }
        report.samples("trace.overlap_efficiency", "frac", &self.overlap);
        report.samples("trace.untraced_frac", "frac", &self.untraced_frac);
        let overhead: Vec<f64> = self
            .traced_wall
            .iter()
            .zip(&self.untraced_wall)
            .map(|(t, u)| t / u - 1.0)
            .collect();
        report.samples("trace.overhead_frac", "frac", &overhead);
        report.samples("trace.fact_spans", "count", &self.fact_spans);
        report.samples("trace.update_spans", "count", &self.update_spans);
        report.samples("trace.bytes", "bytes", &self.bytes);
        report.samples("fabric.recv_retries", "count", &self.retries);
        report.samples("mxp.sweeps", "count", &self.sweeps);
    }
}
