//! `rhpl launch` — one OS process per rank, with real failure domains.
//!
//! Where [`crate::runner`] runs ranks as threads of one process, launch mode
//! spawns each rank as its own OS process connected by a byte-moving
//! transport (`tcp`; `inproc` runs the whole job in one child as the
//! determinism oracle). The supervisor wires the mesh through a TCP
//! control plane, watches heartbeats and process exits, and — with
//! checkpointing armed — survives a `kill -9`'d rank by restarting the gang
//! from the last complete checkpoint generation.
//!
//! ```text
//! rhpl launch --ranks 4 --transport tcp [HPL.dat] [--ckpt-every K] ...
//! ```
//!
//! Supervisor stdout protocol (machine-readable, one line each):
//!
//! ```text
//! LAUNCH ranks=4 transport=tcp n=64 nb=8 grid=2x2 seed=42 ckpt_every=2
//! RANKPID rank=0 pid=12001
//! ...
//! DOWN rank=1 reason=signal
//! RECOVERY attempt=1 kind=rank_failed restored_gen=4
//! HPLOK residual=3.241587e-2 seq_hash=0x9f3a...
//! ```
//!
//! Exit codes: 0 success, 1 wrong answer or usage error, 2 configuration
//! error, 3 structured failure (unrecovered rank death and the like).
//!
//! The supervisor spawns each child as `rhpl _rank` with argv built by
//! [`RunOpts::child_argv`]: every setting it resolved, spelled as flags
//! (`--transport`, `--ckpt-dir`, `--seed`, `--kernel`, ...), plus the
//! internal `--rank R`, `--ctrl ADDR` and, on restart attempts,
//! `--disarm`. The child parses that argv with the same
//! [`RunOpts::parse`], so it cannot drift from the supervisor. Only
//! `RHPL_MAILBOX` and `RHPL_MAILBOX_CAP`, which have no flag, reach it
//! through the inherited environment. A launch runs the f64 pipeline or,
//! with `--mxp`, HPL-MxP; `--element f32` (or `RHPL_ELEMENT=f32`) without
//! `--mxp` and `--trace-json` are refused up front.
//!
//! Control-plane line protocol (child <-> supervisor over one TCP stream):
//!
//! ```text
//! child -> sup   hello rank=R addr=IP:PORT     (addr "-" when no data listener)
//! sup -> child   addrs A0 A1 ... A{N-1}        (or "addrs -")
//! child -> sup   hb rank=R                     (every 250 ms)
//! sup -> child   down rank=K                   (peer declared dead: poison)
//! child -> sup   ok residual=... seq_hash=... passed=0|1   (rank 0)
//! child -> sup   done rank=R                   (other ranks)
//! child -> sup   err rank=R kind=...           (structured failure)
//! ```
//!
//! A killed TCP peer closes its sockets instantly, but a hung one (stopped,
//! livelocked, wedged in a syscall) keeps them open. The supervisor's
//! heartbeat monitor (250 ms beat, 2.5 s staleness) plus the `down`
//! broadcast bounds detection of those, poisoning survivors well inside
//! the 5 s budget.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hpl_ckpt::CkptStore;
use hpl_comm::transport::tcp::TcpBootstrap;
use hpl_comm::{Communicator, Fabric, FabricOpts, Grid, TransportSel, Universe};
use hpl_faults::{Injector, RankDeath};
use hpl_trace::report::{seq_hash, seq_hash_streams, seq_words};
use rhpl_core::{run_hpl, verify, CkptOpts, HplConfig};

use crate::dat;
use crate::opts::{Mode, RunOpts};
use crate::recover::MAX_ATTEMPTS;
use crate::runner;

/// Child heartbeat period.
const HB_PERIOD: Duration = Duration::from_millis(250);
/// Supervisor-side staleness bound: a silent-but-running child past this is
/// declared dead (10 missed beats).
const HB_STALE: Duration = Duration::from_millis(2500);
/// Supervisor poll cadence for process exits and heartbeat age.
const POLL: Duration = Duration::from_millis(25);
/// Rendezvous budget: every child must dial the control plane and say hello.
const RENDEZVOUS_DEADLINE: Duration = Duration::from_secs(60);
/// After a `down` broadcast, survivors get this long to unwind on their own
/// before the supervisor kills the stragglers.
const UNWIND_DEADLINE: Duration = Duration::from_secs(15);

/// The one configuration a launched job runs — the first combination of
/// the sweep (sweeps belong to single-process mode) — and its residual
/// threshold. Supervisor and children derive it from the same options.
fn launch_config(opts: &RunOpts) -> Result<(HplConfig, f64), String> {
    let path = &opts.path;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = dat::parse(&text).map_err(|e| e.to_string())?;
    let combos = runner::expand(&spec, opts.seed, opts.split_frac, opts.threads);
    let (cfg, _depth) = combos.into_iter().next().ok_or("empty sweep")?;
    let ranks = opts.ranks.ok_or("launch needs --ranks N")?;
    if cfg.ranks() != ranks {
        return Err(format!(
            "--ranks {ranks} does not match the {}x{} grid of the input file",
            cfg.p, cfg.q
        ));
    }
    Ok((cfg, spec.threshold))
}

/// What one gang attempt ended as.
enum Attempt {
    /// Rank 0 reported a result and every child exited cleanly.
    Ok {
        residual: String,
        seq: String,
        passed: bool,
    },
    /// A rank went down (killed, crashed, or unwound from a peer's death).
    Down { kind: String },
    /// Infrastructure failure (rendezvous timeout, spawn error) — no retry.
    Fatal(String),
}

/// Runs `rhpl launch ...`: the supervisor entry point.
pub fn run_launch(opts: &RunOpts) -> ExitCode {
    let cfg = match launch_config(opts) {
        Ok((cfg, _)) => cfg,
        Err(e) => {
            eprintln!("rhpl: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ranks = cfg.ranks();
    // The recovery protocol needs checkpoints that survive process death:
    // the store lives on disk, wiped once up front so attempt 1 is clean.
    let store = match (&opts.ckpt_dir, opts.ckpt_every > 0) {
        (Some(dir), true) => match CkptStore::disk_fresh(dir, ranks) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("rhpl: cannot open checkpoint dir: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => None,
    };
    println!(
        "LAUNCH ranks={ranks} transport={} n={} nb={} grid={}x{} seed={} ckpt_every={}",
        opts.transport.name(),
        cfg.n,
        cfg.nb,
        cfg.p,
        cfg.q,
        cfg.seed,
        opts.ckpt_every
    );
    flush_stdout();
    for attempt in 1..=MAX_ATTEMPTS {
        match run_attempt(opts, ranks, attempt) {
            Attempt::Ok {
                residual,
                seq,
                passed,
            } => {
                if passed {
                    println!("HPLOK residual={residual} seq_hash={seq}");
                    flush_stdout();
                    return ExitCode::SUCCESS;
                }
                println!("HPLBAD residual={residual}");
                flush_stdout();
                return ExitCode::FAILURE;
            }
            Attempt::Down { kind } => {
                if opts.ckpt_every == 0 || attempt == MAX_ATTEMPTS {
                    println!("HPLERROR kind={kind} attempts={attempt}");
                    flush_stdout();
                    return ExitCode::from(3);
                }
                let gen = store
                    .as_ref()
                    .and_then(|s| s.latest_complete())
                    .map_or_else(|| "-".to_string(), |g| g.to_string());
                println!("RECOVERY attempt={attempt} kind={kind} restored_gen={gen}");
                flush_stdout();
            }
            Attempt::Fatal(msg) => {
                eprintln!("rhpl: launch failed: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    unreachable!("attempt loop always returns");
}

/// Everything the control-plane reader threads share with the poll loop.
struct CtrlState {
    last_hb: Vec<Mutex<Instant>>,
    /// First `ok` line's (residual, seq_hash, passed).
    ok: Mutex<Option<(String, String, bool)>>,
    /// First structured-error kind reported by any child.
    err_kind: Mutex<Option<String>>,
    /// Write halves for the `down` broadcast.
    writers: Vec<Mutex<Option<TcpStream>>>,
}

fn run_attempt(opts: &RunOpts, ranks: usize, attempt: usize) -> Attempt {
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => return Attempt::Fatal(format!("bind control plane: {e}")),
    };
    let ctrl_addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => return Attempt::Fatal(format!("control plane addr: {e}")),
    };
    let nprocs = match opts.transport {
        TransportSel::Inproc => 1,
        TransportSel::Tcp => ranks,
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return Attempt::Fatal(format!("current_exe: {e}")),
    };
    let mut children: Vec<(usize, Child)> = Vec::with_capacity(nprocs);
    for rank in 0..nprocs {
        // Replacement ranks (attempt > 1) are healthy hardware: one-shot
        // faults fired on a previous attempt and must not re-fire; sticky
        // ones keep firing (and eventually exhaust the attempt budget).
        let mut cmd = Command::new(&exe);
        cmd.args(opts.child_argv(rank, ctrl_addr, attempt > 1))
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        match cmd.spawn() {
            Ok(child) => {
                println!("RANKPID rank={rank} pid={}", child.id());
                flush_stdout();
                children.push((rank, child));
            }
            Err(e) => {
                kill_all(&mut children);
                return Attempt::Fatal(format!("spawn rank {rank}: {e}"));
            }
        }
    }
    let state = Arc::new(CtrlState {
        last_hb: (0..nprocs).map(|_| Mutex::new(Instant::now())).collect(),
        ok: Mutex::new(None),
        err_kind: Mutex::new(None),
        writers: (0..nprocs).map(|_| Mutex::new(None)).collect(),
    });
    // Rendezvous: every child dials in and introduces itself, then gets the
    // full data-plane address list back.
    let mut addrs: Vec<String> = vec!["-".to_string(); nprocs];
    let mut readers = Vec::with_capacity(nprocs);
    listener
        .set_nonblocking(true)
        .expect("nonblocking ctrl listener");
    let deadline = Instant::now() + RENDEZVOUS_DEADLINE;
    let mut connected = 0usize;
    while connected < nprocs {
        if Instant::now() > deadline {
            kill_all(&mut children);
            return Attempt::Fatal("rendezvous timed out".into());
        }
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            }
            Err(e) => {
                kill_all(&mut children);
                return Attempt::Fatal(format!("ctrl accept: {e}"));
            }
        };
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(e) => {
                kill_all(&mut children);
                return Attempt::Fatal(format!("ctrl clone: {e}"));
            }
        });
        let mut hello = String::new();
        if reader.read_line(&mut hello).is_err() || hello.is_empty() {
            kill_all(&mut children);
            return Attempt::Fatal("child hung up during hello".into());
        }
        let Some((rank, addr)) = parse_hello(&hello) else {
            kill_all(&mut children);
            return Attempt::Fatal(format!("bad hello: {}", hello.trim()));
        };
        if rank >= nprocs {
            kill_all(&mut children);
            return Attempt::Fatal(format!("hello from unknown rank {rank}"));
        }
        addrs[rank] = addr;
        *state.writers[rank].lock().unwrap() = Some(stream);
        readers.push((rank, reader));
        connected += 1;
    }
    let addr_line = format!("addrs {}\n", addrs.join(" "));
    for (rank, _) in &readers {
        let mut w = state.writers[*rank].lock().unwrap();
        if let Some(s) = w.as_mut() {
            if s.write_all(addr_line.as_bytes()).is_err() {
                *w = None;
            }
        }
    }
    // One reader thread per child keeps heartbeats and reports flowing into
    // the shared state while the main thread polls for exits.
    let mut reader_handles = Vec::with_capacity(nprocs);
    for (rank, reader) in readers {
        let state = Arc::clone(&state);
        reader_handles.push(std::thread::spawn(move || ctrl_read(rank, reader, &state)));
    }

    let outcome = watch_children(&state, &mut children);

    for h in reader_handles {
        let _ = h.join();
    }
    outcome
}

/// The supervisor's watch loop: polls child exits and heartbeat age until
/// the attempt resolves.
fn watch_children(state: &Arc<CtrlState>, children: &mut Vec<(usize, Child)>) -> Attempt {
    let mut exited: Vec<(usize, std::process::ExitStatus)> = Vec::new();
    loop {
        children.retain_mut(|(rank, child)| match child.try_wait() {
            Ok(Some(status)) => {
                exited.push((*rank, status));
                false
            }
            Ok(None) => true,
            Err(_) => true,
        });
        // Clean completion: everyone exited 0 and rank 0 reported a result.
        if children.is_empty() {
            let all_clean = exited.iter().all(|(_, s)| s.success());
            let ok = state.ok.lock().unwrap().clone();
            if all_clean {
                if let Some((residual, seq, passed)) = ok {
                    return Attempt::Ok {
                        residual,
                        seq,
                        passed,
                    };
                }
                return Attempt::Fatal("children exited without a result".into());
            }
            let kind = state
                .err_kind
                .lock()
                .unwrap()
                .clone()
                .unwrap_or_else(|| "rank_failed".to_string());
            return Attempt::Down { kind };
        }
        // A rank down? Signal exits (kill -9) identify the victim directly;
        // a nonzero exit is a rank that unwound from a structured failure.
        let victim = exited
            .iter()
            .find(|(_, s)| !s.success() && s.code().is_none())
            .or_else(|| exited.iter().find(|(_, s)| !s.success()))
            .map(|(r, s)| (*r, *s));
        let stale = children
            .iter()
            .position(|(rank, _)| state.last_hb[*rank].lock().unwrap().elapsed() > HB_STALE);
        if let Some((rank, status)) = victim {
            let reason = if status.code().is_none() {
                "signal"
            } else {
                "exit"
            };
            println!("DOWN rank={rank} reason={reason}");
            flush_stdout();
            return unwind_survivors(rank, state, children, &mut exited);
        }
        if let Some(idx) = stale {
            let (rank, child) = &mut children[idx];
            let rank = *rank;
            println!("DOWN rank={rank} reason=heartbeat");
            flush_stdout();
            let _ = child.kill();
            let _ = child.wait();
            children.remove(idx);
            return unwind_survivors(rank, state, children, &mut exited);
        }
        std::thread::sleep(POLL);
    }
}

/// Broadcasts the dead rank to the survivors (poisoning transports that
/// have no kernel-level death signal), waits for them to unwind, and kills
/// stragglers past the deadline.
fn unwind_survivors(
    dead: usize,
    state: &Arc<CtrlState>,
    children: &mut Vec<(usize, Child)>,
    exited: &mut Vec<(usize, std::process::ExitStatus)>,
) -> Attempt {
    let line = format!("down rank={dead}\n");
    for (rank, _) in children.iter() {
        let mut w = state.writers[*rank].lock().unwrap();
        if let Some(s) = w.as_mut() {
            if s.write_all(line.as_bytes()).is_err() {
                *w = None;
            }
        }
    }
    let deadline = Instant::now() + UNWIND_DEADLINE;
    while !children.is_empty() && Instant::now() < deadline {
        children.retain_mut(|(rank, child)| match child.try_wait() {
            Ok(Some(status)) => {
                exited.push((*rank, status));
                false
            }
            _ => true,
        });
        std::thread::sleep(POLL);
    }
    kill_all(children);
    let kind = state
        .err_kind
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(|| "rank_failed".to_string());
    Attempt::Down { kind }
}

fn kill_all(children: &mut Vec<(usize, Child)>) {
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
    children.clear();
}

/// Parses `hello rank=R addr=A`.
fn parse_hello(line: &str) -> Option<(usize, String)> {
    let mut rank = None;
    let mut addr = None;
    for tok in line.split_whitespace() {
        if let Some(v) = tok.strip_prefix("rank=") {
            rank = v.parse().ok();
        } else if let Some(v) = tok.strip_prefix("addr=") {
            addr = Some(v.to_string());
        }
    }
    Some((rank?, addr?))
}

/// Drains one child's control lines into the shared state.
fn ctrl_read(rank: usize, reader: BufReader<TcpStream>, state: &CtrlState) {
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some("hb") => {
                *state.last_hb[rank].lock().unwrap() = Instant::now();
            }
            Some("ok") => {
                let mut residual = String::new();
                let mut seq = String::new();
                let mut passed = false;
                for t in toks {
                    if let Some(v) = t.strip_prefix("residual=") {
                        residual = v.to_string();
                    } else if let Some(v) = t.strip_prefix("seq_hash=") {
                        seq = v.to_string();
                    } else if let Some(v) = t.strip_prefix("passed=") {
                        passed = v == "1";
                    }
                }
                *state.ok.lock().unwrap() = Some((residual, seq, passed));
            }
            Some("err") => {
                let kind = toks
                    .find_map(|t| t.strip_prefix("kind="))
                    .unwrap_or("rank_failed")
                    .to_string();
                let mut slot = state.err_kind.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(kind);
                }
            }
            _ => {} // "done" and anything unknown: no state to record
        }
    }
}

fn flush_stdout() {
    // Piped stdout is block-buffered; the protocol lines must be visible to
    // the consumer (xtask soak) the moment they happen.
    let _ = std::io::stdout().flush();
}

// ---------------------------------------------------------------------------
// `_rank` child side
// ---------------------------------------------------------------------------

/// One launched rank: its place in the job, parsed from the argv the
/// supervisor built ([`RunOpts::child_argv`]), and what it runs.
struct ChildSpec {
    rank: usize,
    ranks: usize,
    ctrl: SocketAddr,
    cfg: HplConfig,
    threshold: f64,
    injector: Option<Arc<Injector>>,
}

fn child_spec(opts: &RunOpts) -> Result<ChildSpec, String> {
    let Mode::Rank { rank, ctrl, disarm } = opts.mode else {
        return Err("not a _rank invocation".into());
    };
    let (mut cfg, threshold) = launch_config(opts)?;
    let ranks = cfg.ranks();
    cfg.trace = hpl_trace::TraceOpts::on();
    if opts.ckpt_every > 0 {
        let dir = opts
            .ckpt_dir
            .as_deref()
            .ok_or("--ckpt-every without --ckpt-dir")?;
        let store = CkptStore::disk(dir, ranks).map_err(|e| format!("ckpt store: {e}"))?;
        cfg.ckpt = CkptOpts {
            every: opts.ckpt_every,
            store: Some(store),
            resume: true,
        };
    }
    Ok(ChildSpec {
        rank,
        ranks,
        ctrl,
        cfg,
        threshold,
        injector: (opts.faulted())
            .then(|| opts.fault_plan(ranks, disarm))
            .transpose()?
            .map(|plan| Injector::new(plan, ranks)),
    })
}

/// Runs `rhpl _rank ...`: one rank of a launched job.
pub fn run_rank(opts: &RunOpts) -> ExitCode {
    // Like fault-soak mode: outcomes travel on the control plane, not as
    // panic backtraces.
    std::panic::set_hook(Box::new(|_| {}));
    let spec = match child_spec(opts) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("rhpl (_rank): {msg}");
            return ExitCode::FAILURE;
        }
    };
    match rank_main(&spec, opts) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("rhpl (_rank {}): {msg}", spec.rank);
            ExitCode::FAILURE
        }
    }
}

/// A write handle for control-plane lines, shared between the rank body and
/// the heartbeat thread.
#[derive(Clone)]
struct CtrlLine(Arc<Mutex<TcpStream>>);

impl CtrlLine {
    fn send(&self, line: &str) {
        let mut s = self.0.lock().unwrap();
        let _ = s.write_all(line.as_bytes());
        let _ = s.write_all(b"\n");
    }
}

fn rank_main(spec: &ChildSpec, opts: &RunOpts) -> Result<ExitCode, String> {
    let stream = TcpStream::connect_timeout(&spec.ctrl, RENDEZVOUS_DEADLINE)
        .map_err(|e| format!("dial control plane: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let ctrl = CtrlLine(Arc::new(Mutex::new(stream)));

    // Data-plane listener first, so the hello can carry its address.
    let boot = match opts.transport {
        TransportSel::Tcp => Some(TcpBootstrap::bind().map_err(|e| format!("bind data: {e}"))?),
        TransportSel::Inproc => None,
    };
    let my_addr = boot
        .as_ref()
        .map_or_else(|| "-".to_string(), |b| b.addr().to_string());
    ctrl.send(&format!("hello rank={} addr={my_addr}", spec.rank));
    let mut addr_line = String::new();
    reader
        .read_line(&mut addr_line)
        .map_err(|e| format!("read addrs: {e}"))?;
    let addrs: Vec<String> = addr_line
        .split_whitespace()
        .skip(1) // "addrs"
        .map(str::to_string)
        .collect();

    // Heartbeats flow for the life of the process.
    let stopping = Arc::new(AtomicBool::new(false));
    let hb = {
        let ctrl = ctrl.clone();
        let stopping = Arc::clone(&stopping);
        let rank = spec.rank;
        std::thread::spawn(move || {
            while !stopping.load(Ordering::Relaxed) {
                ctrl.send(&format!("hb rank={rank}"));
                std::thread::sleep(HB_PERIOD);
            }
        })
    };

    hpl_faults::set_world_rank(spec.rank);
    let code = match boot {
        None => rank_body_inproc(spec, opts, &ctrl),
        Some(boot) => rank_body_tcp(spec, opts, &ctrl, boot, &addrs, reader),
    };
    stopping.store(true, Ordering::Relaxed);
    let _ = hb.join();
    code
}

/// `--transport inproc`: the whole job runs in this one child as threads —
/// the oracle the multi-process tcp transport is measured against, behind the
/// same supervisor protocol (so `kill -9` + restart works here too). A clean
/// run is exactly the in-process `rhpl` run of the same options.
fn rank_body_inproc(spec: &ChildSpec, opts: &RunOpts, ctrl: &CtrlLine) -> Result<ExitCode, String> {
    let verdict = match &spec.injector {
        Some(inj) => inproc_faulted(spec, opts, inj),
        None => {
            let run = || runner::run_one(&spec.cfg, 0, spec.threshold, opts);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                Ok(Ok(rec)) => Ok((rec.residual, seq_hash(&rec.traces), rec.passed)),
                Ok(Err(e)) => Err(e.kind()),
                Err(_) => Err("rank_failed"),
            }
        }
    };
    match verdict {
        Ok((scaled, seq, passed)) => {
            ctrl.send(&format!(
                "ok residual={scaled:.6e} seq_hash={seq:#018x} passed={}",
                u8::from(passed)
            ));
            Ok(ExitCode::SUCCESS)
        }
        Err(kind) => {
            ctrl.send(&format!("err rank={} kind={kind}", spec.rank));
            Ok(ExitCode::from(3))
        }
    }
}

/// The inproc job with a fault plan armed: a rank death or a structured
/// error becomes the error kind; a clean run is verified in a fault-free
/// universe. Yields (scaled residual, seq_hash, passed).
fn inproc_faulted(
    spec: &ChildSpec,
    opts: &RunOpts,
    inj: &Arc<Injector>,
) -> Result<(f64, u64, bool), &'static str> {
    let cfg = &spec.cfg;
    let (sel, inj) = (TransportSel::Inproc, Arc::clone(inj));
    let run = Universe::run_with_injector(spec.ranks, sel, opts.fabric(), inj, |comm| {
        run_hpl(comm, cfg)
    });
    if run.poison.is_some() {
        return Err("rank_failed");
    }
    let mut results = Vec::with_capacity(spec.ranks);
    for r in run.results {
        results.push(r.ok_or("rank_failed")?.map_err(|e| e.kind())?);
    }
    let x = &results[0].x;
    let res = Universe::run_with_transport(spec.ranks, sel, opts.fabric(), |comm| {
        let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
        verify(&grid, cfg.n, cfg.nb, cfg.seed, x)
    });
    let res = res
        .into_iter()
        .next()
        .expect("rank 0 result")
        .map_err(|e| e.kind())?;
    let traces: Vec<hpl_trace::Trace> = results
        .iter_mut()
        .map(|r| r.trace.take().expect("launch runs trace-enabled"))
        .collect();
    Ok((res.scaled, seq_hash(&traces), res.scaled < spec.threshold))
}

/// `--transport tcp`: this process is exactly one rank, wired to its peers
/// by real frames.
fn rank_body_tcp(
    spec: &ChildSpec,
    opts: &RunOpts,
    ctrl: &CtrlLine,
    boot: TcpBootstrap,
    addrs: &[String],
    ctrl_reader: BufReader<TcpStream>,
) -> Result<ExitCode, String> {
    let fab = FabricOpts {
        faults: spec.injector.clone(),
        ..opts.fabric()
    };
    let fabric = Fabric::remote(spec.ranks, spec.rank, fab);
    let peers: Vec<SocketAddr> = addrs
        .iter()
        .map(|a| a.parse().map_err(|e| format!("bad peer addr {a}: {e}")))
        .collect::<Result<_, String>>()?;
    let transport = boot
        .connect(spec.rank, &peers, fabric.frame_sink())
        .map_err(|e| format!("wire tcp mesh: {e}"))?;
    fabric.attach_transport(transport);

    // The supervisor's `down rank=K` is the death signal for a peer that
    // hangs with its sockets still open; for a peer that exits it is a
    // backup to the instant EOF. Poison-observed, not poison: the rank
    // announced here is already dead, nobody needs Death frames echoed back.
    {
        let fabric = Arc::clone(&fabric);
        std::thread::spawn(move || {
            for line in ctrl_reader.lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("down rank=") {
                    if let Ok(dead) = rest.trim().parse::<usize>() {
                        fabric.poison_observed(dead, "killed");
                    }
                }
            }
        });
    }

    // The solve, then the post-run collectives on fresh endpoints over the
    // same fabric: verify (data plane, trace recorder already uninstalled;
    // MxP is verified inside the solve at f64 accuracy) and the seq_words
    // gather (control plane, invisible to stats either way).
    let cfg = &spec.cfg;
    let endpoint = || Communicator::endpoint(Arc::clone(&fabric));
    let run = || -> Result<(f64, Option<u64>), rhpl_core::HplError> {
        let (scaled, trace) = if opts.mxp {
            let o = hpl_mxp::solve_mxp(endpoint(), cfg)?;
            (o.residuals.scaled, o.trace)
        } else {
            let r = run_hpl(endpoint(), cfg)?;
            let grid = Grid::new(endpoint(), cfg.p, cfg.q, cfg.order);
            (
                verify(&grid, cfg.n, cfg.nb, cfg.seed, &r.x)?.scaled,
                r.trace,
            )
        };
        let words = seq_words(trace.as_ref().expect("launch runs trace-enabled"));
        let seq = endpoint().ctrl_gather_words(words)?;
        Ok((scaled, seq.map(|streams| seq_hash_streams(&streams))))
    };
    let code = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(Ok((scaled, seq))) => {
            if spec.rank == 0 {
                let seq = seq.expect("rank 0 assembles the gathered hash");
                ctrl.send(&format!(
                    "ok residual={scaled:.6e} seq_hash={seq:#018x} passed={}",
                    u8::from(scaled < spec.threshold)
                ));
            } else {
                ctrl.send(&format!("done rank={}", spec.rank));
            }
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            ctrl.send(&format!("err rank={} kind={}", spec.rank, e.kind()));
            ExitCode::from(3)
        }
        Err(payload) => {
            let phase = payload
                .downcast_ref::<RankDeath>()
                .map_or("panic", |d| d.phase.as_str());
            fabric.poison(spec.rank, phase);
            ctrl.send(&format!("err rank={} kind=rank_failed", spec.rank));
            ExitCode::from(3)
        }
    };
    fabric.shutdown_transport();
    Ok(code)
}
