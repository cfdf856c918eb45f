//! Per-layer microbenchmarks: timed calls into each layer's public
//! functions, at the shapes of the workload that layer serves (the table
//! in `perfbench/README.md` says which end-to-end metric each should move).
//! Multi-rank layers run on in-process ranks (inproc mailbox), except the
//! `transport.*` pair, which runs the same exchange over TCP.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hpl_blas::mat::Matrix;
use hpl_blas::{Element, Trans};
use hpl_comm::{Communicator, FabricOpts, Grid, Op, Tag, TransportSel, Universe};
use hpl_threads::Pool;
use rhpl_core::dist::Axis;
use rhpl_core::panel::{lbcast, PanelGeom};
use rhpl_core::solve::distributed_matvec;
use rhpl_core::swap::{row_swap, ColRange, SwapPlan};
use rhpl_core::{
    back_substitute, factorize, panel_factor, verify_with_eps, FactInput, HplConfig, LocalMatrix,
    MatGen,
};

use crate::report::Report;
use crate::workload::{config, Workload, LAYER_SHARE};
use crate::Args;

/// Every layer runs at least this many timed repetitions.
const MIN_REPS: usize = 3;
/// Timed groups below; each gets an equal share of the layer budget.
const GROUPS: usize = 12;
/// Round trips per ping-pong repetition.
const PINGS: usize = 500;
/// 1 MiB messages per streaming repetition.
const STREAM_MSGS: usize = 32;
const MIB_F64: usize = (1 << 20) / 8;

type LayerResult = Result<(), String>;

pub fn run_all(args: &Args, report: &mut Report) {
    let b = Duration::from_secs_f64(args.seconds * LAYER_SHARE / GROUPS as f64);
    let hpl = Workload::Hpl64.config(args.seed);
    let mxp = Workload::Mxp32.config(args.seed);
    // LBCAST needs a second process column to move anything.
    let mxp_row = config((2048, 128, 1, 2), args.seed);
    let launch = Workload::LaunchTcp.config(args.seed);
    layer(report, "rng", |r| rng(&hpl, b, r));
    layer(report, "l3 f64", |r| {
        dgemm::<f64>("l3.dgemm_f64_gflops", b, r)
    });
    layer(report, "l3 f32", |r| {
        dgemm::<f32>("l3.dgemm_f32_gflops", b, r)
    });
    layer(report, "fact m128", |r| {
        fact(&hpl, 128, "fact.gflops_m128", b, r)
    });
    layer(report, "fact m1024", |r| {
        fact(&hpl, 1024, "fact.gflops_m1024", b, r)
    });
    layer(report, "swap local", |r| {
        swap(&hpl, "swap.local_ns_per_elem", b, r)
    });
    layer(report, "swap dist", |r| {
        swap(&launch, "swap.dist_ns_per_elem", b, r)
    });
    layer(report, "lbcast", |r| panel_lbcast(&mxp_row, b, r));
    layer(report, "fabric", |r| {
        pingpong(
            TransportSel::Inproc,
            "fabric.pingpong_us",
            "fabric.stream_gib_s",
            b,
            r,
        )
    });
    layer(report, "transport", |r| {
        let names = ("transport.tcp_pingpong_us", "transport.tcp_stream_gib_s");
        pingpong(TransportSel::Tcp, names.0, names.1, b, r)
    });
    layer(report, "backsolve", |r| backsolve(&hpl, b, r));
    layer(report, "refine+verify", |r| refine_and_verify(&mxp, b, r));
}

/// Runs one layer group; an error or panic counts as a failed check.
fn layer(report: &mut Report, what: &str, f: impl FnOnce(&mut Report) -> LayerResult) {
    let outcome =
        catch_unwind(AssertUnwindSafe(|| f(report))).unwrap_or_else(|_| Err("panicked".into()));
    if outcome.is_err() {
        report.check(&format!("layer {what}"), outcome);
    }
}

/// Single-rank repetitions: `rep` returns the seconds of its timed part.
fn reps(budget: Duration, mut rep: impl FnMut() -> f64) -> Vec<f64> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_REPS || t0.elapsed() < budget {
        out.push(rep());
    }
    out
}

/// Collective repetitions: rank 0 decides when the budget is spent and
/// every rank agrees through an allreduce before each repetition.
fn collective_reps(
    comm: &Communicator,
    budget: Duration,
    mut rep: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        let more = out.len() < MIN_REPS || t0.elapsed() < budget;
        let mut go = [if comm.rank() == 0 && more {
            1.0f64
        } else {
            0.0
        }];
        hpl_comm::allreduce(comm, Op::Max, &mut go).map_err(|e| e.to_string())?;
        if go[0] == 0.0 {
            return Ok(out);
        }
        comm.barrier();
        out.push(rep()?);
    }
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

fn inproc<T: Send>(ranks: usize, f: impl Fn(Communicator) -> T + Sync) -> Vec<T> {
    Universe::run_with_transport(ranks, TransportSel::Inproc, FabricOpts::default(), f)
}

fn fill(cfg: &HplConfig) -> impl Fn(usize, usize) -> f64 + Sync {
    let gen = MatGen::new(cfg.seed, cfg.n);
    move |i, j| gen.entry(i, j)
}

/// `LocalMatrix::generate_with` over `MatGen::entry`, N=2048 on 1x1.
fn rng(cfg: &HplConfig, b: Duration, report: &mut Report) -> LayerResult {
    let fill = fill(cfg);
    let t = inproc(1, |comm| {
        let grid = Grid::new(comm, 1, 1, cfg.order);
        reps(b, || {
            let t0 = Instant::now();
            let a = LocalMatrix::<f64>::generate_with(cfg.n, cfg.nb, &grid, &fill);
            let t = secs(t0);
            black_box(a);
            t
        })
    })
    .remove(0);
    let entries = (cfg.n * (cfg.n + 1)) as f64;
    let ns: Vec<f64> = t.iter().map(|s| s * 1e9 / entries).collect();
    report.samples("rng.ns_per_entry", "ns", &ns);
    Ok(())
}

/// `hpl_blas::l3::dgemm`, C(1024x1024) -= A(1024x128) B(128x1024).
fn dgemm<E: Element>(name: &'static str, b: Duration, report: &mut Report) -> LayerResult {
    let (m, n, k) = (1024, 1024, 128);
    let a = Matrix::<E>::from_fn(m, k, |i, j| {
        E::from_f64(((i + 2 * j) % 7) as f64 * 0.1 - 0.3)
    });
    let bm = Matrix::<E>::from_fn(k, n, |i, j| {
        E::from_f64(((3 * i + j) % 5) as f64 * 0.2 - 0.4)
    });
    let mut c = Matrix::<E>::zeros(m, n);
    let t = reps(b, || {
        let t0 = Instant::now();
        hpl_blas::dgemm(
            Trans::No,
            Trans::No,
            E::from_f64(-1.0),
            a.view(),
            bm.view(),
            E::ONE,
            &mut c.view_mut(),
        );
        secs(t0)
    });
    black_box(&c);
    let flops = 2.0 * (m * n * k) as f64;
    let rate: Vec<f64> = t.iter().map(|s| flops / s / 1e9).collect();
    report.samples(name, "GFLOP/s", &rate);
    Ok(())
}

/// The FACT input for an `m x nb` panel on a one-member process column.
fn fact_input<'a>(
    comm: &'a Communicator,
    pool: &'a Pool,
    cfg: &HplConfig,
    m: usize,
) -> FactInput<'a> {
    FactInput {
        col_comm: comm,
        rows: Axis {
            n: m,
            nb: cfg.nb,
            iproc: 0,
            nprocs: 1,
        },
        k0: 0,
        jb: cfg.nb,
        lb: 0,
        is_curr: true,
        pool,
        opts: cfg.fact,
    }
}

/// `panel_factor` (f64) of the generator's leading `m x NB` panel.
fn fact(
    cfg: &HplConfig,
    m: usize,
    name: &'static str,
    b: Duration,
    report: &mut Report,
) -> LayerResult {
    let fill = fill(cfg);
    let pristine = Matrix::<f64>::from_fn(m, cfg.nb, &fill);
    let t = inproc(1, |comm| {
        let pool = Pool::new(1);
        let inp = fact_input(&comm, &pool, cfg, m);
        let mut out = Vec::new();
        let t0 = Instant::now();
        while out.len() < MIN_REPS || t0.elapsed() < b {
            let mut panel = pristine.clone();
            let t1 = Instant::now();
            panel_factor(&inp, &mut panel.view_mut()).map_err(|e| e.to_string())?;
            out.push(secs(t1));
        }
        Ok::<_, String>(out)
    })
    .remove(0)?;
    let nb = cfg.nb as f64;
    let flops = nb * nb * (m as f64 - nb / 3.0);
    let rate: Vec<f64> = t.iter().map(|s| flops / s / 1e9).collect();
    report.samples(name, "GFLOP/s", &rate);
    Ok(())
}

/// `row_swap` of the trailing columns with the first panel's real pivots,
/// on the workload's grid (1x1: local; 2x1: across the process column).
fn swap(cfg: &HplConfig, name: &'static str, b: Duration, report: &mut Report) -> LayerResult {
    let fill = fill(cfg);
    // The first panel's pivots, as FACT finds them on the whole column.
    let panel = Matrix::<f64>::from_fn(cfg.n, cfg.nb, &fill);
    let ipiv = inproc(1, |comm| {
        let pool = Pool::new(1);
        let inp = fact_input(&comm, &pool, cfg, cfg.n);
        panel_factor(&inp, &mut panel.clone().view_mut()).map(|o| o.ipiv)
    })
    .remove(0)
    .map_err(|e| e.to_string())?;
    let plan = SwapPlan::build(0, cfg.nb, &ipiv);
    let per_rank = inproc(cfg.ranks(), |comm| {
        let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
        let mut a = LocalMatrix::<f64>::generate_with(cfg.n, cfg.nb, &grid, &fill);
        let range = ColRange {
            start: cfg.nb,
            end: a.nloc,
        };
        let rows = a.rows;
        let t = collective_reps(grid.world(), b, || {
            let t0 = Instant::now();
            let u = row_swap(
                grid.col(),
                rows,
                &plan,
                0,
                &mut a.view_mut(),
                range,
                cfg.swap,
            )
            .map_err(|e| e.to_string())?;
            let t = secs(t0);
            black_box(u);
            Ok(t)
        })?;
        Ok::<_, String>((t, range.width()))
    });
    let (t, width) = per_rank.into_iter().next().expect("rank 0")?;
    let elems = (cfg.nb * width) as f64;
    let ns: Vec<f64> = t.iter().map(|s| s * 1e9 / elems).collect();
    report.samples(name, "ns", &ns);
    Ok(())
}

/// `lbcast` of the first f32 panel (2048 x 128) along a 1x2 process row,
/// timed on the receiving rank from a common barrier.
fn panel_lbcast(cfg: &HplConfig, b: Duration, report: &mut Report) -> LayerResult {
    let fill = fill(cfg);
    let per_rank = inproc(cfg.ranks(), |comm| {
        let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
        let a = LocalMatrix::<f32>::generate_with(cfg.n, cfg.nb, &grid, &fill);
        let g = PanelGeom::new(&a, &grid, 0, cfg.nb);
        let len = g.jb * g.jb + g.l2_rows * g.jb + g.jb;
        let t = collective_reps(grid.world(), b, || {
            let packed = g.in_panel_col.then(|| vec![0.5f32; len]);
            let t0 = Instant::now();
            let panel = lbcast(grid.row(), cfg.bcast, &g, packed).map_err(|e| e.to_string())?;
            let t = secs(t0);
            black_box(panel);
            Ok(t)
        })?;
        Ok::<_, String>((g.in_panel_col, t, len))
    });
    let (_, t, len) = per_rank
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .find(|(root, _, _)| !root)
        .ok_or("no receiving rank")?;
    let gib = (len * 4) as f64 / (1u64 << 30) as f64;
    let rate: Vec<f64> = t.iter().map(|s| gib / s).collect();
    report.samples("panel.lbcast_gib_s", "GiB/s", &rate);
    Ok(())
}

/// 8-byte `send`/`recv` ping-pong (one-way latency = half a round trip)
/// and 1 MiB `send_slice`/`recv_into` streaming between two ranks.
fn pingpong(
    sel: TransportSel,
    lat_name: &'static str,
    bw_name: &'static str,
    b: Duration,
    report: &mut Report,
) -> LayerResult {
    let half = b / 2;
    let per_rank = Universe::run_with_transport(2, sel, FabricOpts::default(), |comm| {
        let peer = 1 - comm.rank();
        let lat = collective_reps(&comm, half, || {
            let t0 = Instant::now();
            for i in 0..PINGS as u64 {
                if comm.rank() == 0 {
                    comm.send(peer, Tag(11), i);
                    let back: u64 = comm.recv(peer, Tag(12));
                    black_box(back);
                } else {
                    let v: u64 = comm.recv(peer, Tag(11));
                    comm.send(peer, Tag(12), v);
                }
            }
            Ok(secs(t0))
        })?;
        let mut buf = vec![1.0f64; MIB_F64];
        let bw = collective_reps(&comm, half, || {
            let t0 = Instant::now();
            if comm.rank() == 0 {
                for _ in 0..STREAM_MSGS {
                    comm.send_slice(peer, Tag(13), &buf);
                }
                let ack: u64 = comm.recv(peer, Tag(14));
                black_box(ack);
            } else {
                for _ in 0..STREAM_MSGS {
                    comm.recv_into(peer, Tag(13), &mut buf);
                }
                comm.send(peer, Tag(14), 1u64);
            }
            Ok(secs(t0))
        })?;
        Ok::<_, String>((lat, bw))
    });
    let (lat, bw) = per_rank.into_iter().next().expect("rank 0")?;
    let us: Vec<f64> = lat.iter().map(|s| s * 1e6 / (2 * PINGS) as f64).collect();
    let gib = STREAM_MSGS as f64 / 1024.0;
    let rate: Vec<f64> = bw.iter().map(|s| gib / s).collect();
    report.samples(lat_name, "us", &us);
    report.samples(bw_name, "GiB/s", &rate);
    Ok(())
}

/// `back_substitute` on the factored hpl64-1x1 system.
fn backsolve(cfg: &HplConfig, b: Duration, report: &mut Report) -> LayerResult {
    let fill = fill(cfg);
    let t = inproc(1, |comm| {
        let grid = Grid::new(comm, 1, 1, cfg.order);
        let out = factorize::<f64>(&grid, cfg, &fill).map_err(|e| e.to_string())?;
        collective_reps(grid.world(), b, || {
            let t0 = Instant::now();
            let x = back_substitute(&out.a, &grid, cfg.nb).map_err(|e| e.to_string())?;
            let t = secs(t0);
            black_box(x);
            Ok(t)
        })
    })
    .remove(0)?;
    let ms: Vec<f64> = t.iter().map(|s| s * 1e3).collect();
    report.samples("solve.backsolve_ms", "ms", &ms);
    Ok(())
}

/// On the mxp32-1x1 f32 factors: one refinement sweep (`distributed_matvec`
/// residual + `replay_solve` correction), and `verify_with_eps` at f64.
fn refine_and_verify(cfg: &HplConfig, b: Duration, report: &mut Report) -> LayerResult {
    let fill = fill(cfg);
    let half = b / 2;
    let n = cfg.n;
    let per_rank = inproc(cfg.ranks(), |comm| {
        let err = |e: rhpl_core::HplError| e.to_string();
        let grid = Grid::new(comm, cfg.p, cfg.q, cfg.order);
        let out = factorize::<f32>(&grid, cfg, &fill).map_err(err)?;
        let a64 = LocalMatrix::<f64>::generate_with(n, cfg.nb, &grid, &fill);
        let rhs: Vec<f64> = (0..n).map(|i| fill(i, n)).collect();
        let x: Vec<f64> = back_substitute(&out.a, &grid, cfg.nb)
            .map_err(err)?
            .into_iter()
            .map(f64::from)
            .collect();
        let sweep = collective_reps(grid.world(), half, || {
            let t0 = Instant::now();
            let ax = distributed_matvec(&a64, &grid, &x).map_err(err)?;
            let mut d: Vec<f32> = rhs.iter().zip(&ax).map(|(b, a)| (b - a) as f32).collect();
            hpl_mxp::replay_solve(&out.a, &out.pivot_log, &grid, cfg.nb, &mut d).map_err(err)?;
            let t = secs(t0);
            black_box(d);
            Ok(t)
        })?;
        let verify = collective_reps(grid.world(), half, || {
            let t0 = Instant::now();
            let res = verify_with_eps(&grid, n, cfg.nb, &fill, &x, f64::EPSILON).map_err(err)?;
            let t = secs(t0);
            black_box(res);
            Ok(t)
        })?;
        Ok::<_, String>((sweep, verify))
    });
    let (sweep, verify) = per_rank.into_iter().next().expect("rank 0")?;
    let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<f64>>();
    report.samples("mxp.refine_sweep_ms", "ms", &ms(&sweep));
    report.samples("verify.ms", "ms", &ms(&verify));
    Ok(())
}
