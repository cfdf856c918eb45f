//! The transport matrix half of the determinism story: the same (seed,
//! HPL.dat) run over in-process mailboxes and TCP sockets must produce a **bitwise identical** solution vector and span
//! sequence (`seq_hash`). The in-process fabric is the oracle; any
//! divergence on a byte-moving transport is attributable in one A/B run.
//!
//! Selection goes through `Universe::run_with_transport` rather than the
//! `RHPL_TRANSPORT` env var, so one process can pin both backends side by
//! side regardless of how the test suite itself is being run.

use hpl_comm::{FabricOpts, TransportSel, Universe};
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, HplConfig};

struct RunOut {
    traces: Vec<hpl_trace::Trace>,
    x: Vec<f64>,
}

fn traced_run(cfg: &HplConfig, sel: TransportSel) -> RunOut {
    let mut cfg = cfg.clone();
    cfg.trace = hpl_trace::TraceOpts::on();
    let per_rank = Universe::run_with_transport(cfg.ranks(), sel, FabricOpts::default(), |comm| {
        let r = run_hpl(comm, &cfg).expect("nonsingular");
        (r.trace.expect("tracing was enabled"), r.x)
    });
    let traces = per_rank.iter().map(|(t, _)| t.clone()).collect();
    let x = per_rank.into_iter().next().expect("rank 0").1;
    RunOut { traces, x }
}

fn base_config() -> HplConfig {
    let mut cfg = HplConfig::new(160, 32, 2, 2);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.fact.threads = 2;
    cfg.seed = 77;
    cfg
}

fn assert_bitwise_equal(oracle: &RunOut, other: &RunOut, name: &str) {
    assert_eq!(
        oracle.x.len(),
        other.x.len(),
        "solution length diverged under {name}"
    );
    for (i, (a, b)) in oracle.x.iter().zip(&other.x).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "x[{i}] diverged between inproc and {name}"
        );
    }
    assert_eq!(
        hpl_trace::report::seq_hash(&oracle.traces),
        hpl_trace::report::seq_hash(&other.traces),
        "span sequence (seq_hash) diverged between inproc and {name}"
    );
}

/// One test (not two) on purpose: `last_run_link_stats` is process-global
/// and the harness runs a binary's tests concurrently — sequencing the
/// matrix in one body keeps the link-ledger assertions race-free.
#[test]
fn transport_matrix_is_bitwise_identical_and_exposes_links() {
    let cfg = base_config();
    let oracle = traced_run(&cfg, TransportSel::Inproc);
    assert!(
        hpl_comm::last_run_link_stats().is_empty(),
        "the in-process fabric moves no transport bytes"
    );

    let tcp = traced_run(&cfg, TransportSel::Tcp);
    assert_bitwise_equal(&oracle, &tcp, "tcp");
    let links = hpl_comm::last_run_link_stats();
    assert!(
        !links.is_empty(),
        "a tcp run must record per-link transport counters"
    );
    assert!(links.iter().all(|l| l.src != l.dst));
    assert!(links.iter().any(|l| l.bytes > 0 && l.frames > 0));
}
