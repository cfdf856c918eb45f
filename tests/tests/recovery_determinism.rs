//! Checkpoint/restart determinism: a run killed mid-stream and resumed from
//! its last complete checkpoint must produce the bitwise-identical solution
//! of an uninterrupted run, and — the hard part — the resumed run's phase
//! sequence from the recovery point onward must hash identically to the
//! uninterrupted run's (`seq_hash_from`). Anything less means the recovery
//! path re-executes *different* work, not the same work later.

use std::sync::Arc;

use hpl_ckpt::CkptStore;
use hpl_comm::universe::env_transport_sel;
use hpl_comm::{FabricOpts, Universe};
use hpl_faults::{FaultPlan, Site};
use rhpl_core::{run_hpl, CkptOpts, HplConfig, HplResult, Schedule};

/// A checkpoint-enabled configuration over a fresh in-memory store.
fn ckpt_cfg(
    n: usize,
    nb: usize,
    p: usize,
    q: usize,
    schedule: Schedule,
    every: usize,
) -> HplConfig {
    let mut cfg = HplConfig::new(n, nb, p, q);
    cfg.schedule = schedule;
    cfg.trace = hpl_trace::TraceOpts::on();
    cfg.ckpt = CkptOpts {
        every,
        store: Some(CkptStore::mem(p * q)),
        resume: true,
    };
    cfg
}

/// Runs `cfg` fault-free and returns per-rank results.
fn run_clean(cfg: &HplConfig) -> Vec<HplResult> {
    Universe::run(cfg.ranks(), |comm| run_hpl(comm, cfg).expect("nonsingular"))
}

/// Kills `victim` at roughly `frac` of its send traffic, then resumes the
/// job from the shared store with the same injector (the one-shot death does
/// not re-fire — the "replacement rank" is healthy). Returns the recovered
/// per-rank results.
fn kill_and_recover(cfg: &HplConfig, victim: usize, frac: f64) -> Vec<HplResult> {
    // Probe: count the victim's sends on a fault-free rehearsal so the death
    // lands deterministically mid-run, past the first checkpoint boundary.
    let rehearsal = ckpt_cfg(cfg.n, cfg.nb, cfg.p, cfg.q, cfg.schedule, cfg.ckpt.every);
    let probe = Universe::run_with_faults(cfg.ranks(), FaultPlan::new(0), |comm| {
        run_hpl(comm, &rehearsal).expect("nonsingular").x
    });
    let sends = probe.injector.site_count(victim, Site::Send);
    let nth = ((sends as f64 * frac) as u64).max(1);

    let plan = FaultPlan::parse(1, &[format!("death@{victim}:send:{nth}")]).expect("spec");
    let attempt1 = Universe::run_with_faults(cfg.ranks(), plan, |comm| run_hpl(comm, cfg));
    let (dead, _phase) = attempt1.poison.expect("the injected death fired");
    assert_eq!(dead, victim);

    let (sel, opts) = (env_transport_sel(), FabricOpts::default());
    let attempt2 = Universe::run_with_injector(cfg.ranks(), sel, opts, attempt1.injector, |comm| {
        run_hpl(comm, cfg).expect("recovered run completes")
    });
    assert!(
        attempt2.poison.is_none(),
        "death must not re-fire on resume"
    );
    attempt2
        .results
        .into_iter()
        .map(|r| r.expect("all ranks complete on resume"))
        .collect()
}

/// `seq_hash_from` comparison point for a run resumed at `start`: the
/// resumed prologue re-records panel `start`'s factorization unhidden at
/// iteration `start` (an uninterrupted look-ahead run had it hidden inside
/// iteration `start - 1`), so the look-ahead pipelines compare from
/// `start + 1`; the simple schedule replays iteration `start` exactly.
fn hash_floor(schedule: Schedule, start: usize) -> usize {
    match schedule {
        Schedule::Simple => start,
        _ => start + 1,
    }
}

fn check_schedule(schedule: Schedule) {
    let (n, nb, p, q, every) = (64, 8, 2, 2, 2);
    let clean_cfg = ckpt_cfg(n, nb, p, q, schedule, every);
    let clean = run_clean(&clean_cfg);

    let faulted_cfg = ckpt_cfg(n, nb, p, q, schedule, every);
    let recovered = kill_and_recover(&faulted_cfg, 1, 0.6);

    let start = recovered[0]
        .resumed_from
        .expect("the recovered run restored from a checkpoint");
    assert!(start > 0, "resume point must be a real boundary");
    for r in &recovered {
        assert_eq!(
            r.resumed_from,
            Some(start),
            "ranks restored different generations"
        );
    }

    // The solution is bitwise identical to the uninterrupted run's.
    for (rank, (c, r)) in clean.iter().zip(recovered.iter()).enumerate() {
        assert_eq!(c.x, r.x, "rank {rank} solution drifted through recovery");
    }

    // The phase sequence from the recovery point onward is identical.
    let clean_traces: Vec<_> = clean
        .iter()
        .map(|r| r.trace.clone().expect("traced"))
        .collect();
    let rec_traces: Vec<_> = recovered
        .iter()
        .map(|r| r.trace.clone().expect("traced"))
        .collect();
    let floor = hash_floor(schedule, start);
    assert_eq!(
        hpl_trace::report::seq_hash_from(&clean_traces, floor),
        hpl_trace::report::seq_hash_from(&rec_traces, floor),
        "resumed run re-executed different work from iteration {floor} onward"
    );
}

#[test]
fn recovery_is_bitwise_deterministic_simple() {
    check_schedule(Schedule::Simple);
}

#[test]
fn recovery_is_bitwise_deterministic_split_update() {
    check_schedule(Schedule::SplitUpdate { frac: 0.5 });
}

/// Snapshot round-trip at the pipeline level: an uninterrupted run with
/// checkpointing on resumes from its own final store into a *shorter* run
/// that still matches — i.e. a cold process can pick up a warm store.
#[test]
fn fresh_process_resumes_from_a_warm_store() {
    let cfg = ckpt_cfg(48, 8, 1, 2, Schedule::SplitUpdate { frac: 0.5 }, 2);
    let clean = run_clean(&cfg);
    // Same store, fresh "process": restores the last complete generation
    // and replays only the tail.
    let resumed = run_clean(&cfg);
    let start = resumed[0].resumed_from.expect("warm store restores");
    assert!(start >= 2);
    for (rank, (c, r)) in clean.iter().zip(resumed.iter()).enumerate() {
        assert_eq!(c.x, r.x, "rank {rank} tail replay drifted");
    }
}

/// A mismatched configuration must refuse a foreign snapshot instead of
/// silently computing garbage.
#[test]
fn mismatched_config_rejects_the_snapshot() {
    let store = CkptStore::mem(2);
    let mut cfg = HplConfig::new(48, 8, 1, 2);
    cfg.schedule = Schedule::Simple;
    cfg.ckpt = CkptOpts {
        every: 2,
        store: Some(Arc::clone(&store)),
        resume: true,
    };
    let _ = run_clean(&cfg); // populates the store
    let mut other = cfg.clone();
    other.seed = cfg.seed + 1; // different matrix, same shape
    let results = Universe::run(other.ranks(), |comm| run_hpl(comm, &other));
    for r in results {
        match r {
            Err(rhpl_core::HplError::Ckpt { what }) => {
                assert!(what.contains("seed"), "unexpected message: {what}")
            }
            Err(other) => panic!("expected Ckpt config mismatch, got {other:?}"),
            Ok(_) => panic!("a foreign snapshot must not restore cleanly"),
        }
    }
}
