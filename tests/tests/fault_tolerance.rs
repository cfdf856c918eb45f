//! Fault tolerance across the full LU pipeline: rank death must unwind
//! every survivor promptly with the dead rank's identity (no 120 s mailbox
//! timeout), and a seeded fault plan must replay byte-for-byte — identical
//! injected-event sequence and identical outcome — across runs.

use std::time::{Duration, Instant};

use hpl_comm::{Universe, DEFAULT_TIMEOUT};
use hpl_faults::FaultPlan;
use proptest::prelude::*;
use rhpl_core::{run_hpl, HplConfig, HplError};

/// Kills rank 2 at its 7th column-comm receive — mid-factorization on a
/// 2x2 grid — and requires every surviving rank to come back with
/// `RankFailed { rank: 2 }` well under the receive timeout. This is the
/// poison/unwind protocol's headline guarantee: before it, the survivors
/// sat in `Mailbox::take` until the deadlock panic.
#[test]
fn rank_death_mid_factorization_unwinds_survivors_quickly() {
    let cfg = HplConfig::new(64, 8, 2, 2);
    let plan = FaultPlan::parse(1, &["death@2:recv:6".to_string()]).expect("spec");
    let t0 = Instant::now();
    let run = Universe::run_with_faults(cfg.ranks(), plan, |comm| run_hpl(comm, &cfg).map(|r| r.x));
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "survivors took {elapsed:?} to unwind — they must not ride the {:?} recv timeout",
        DEFAULT_TIMEOUT
    );
    let (rank, _phase) = run.poison.expect("the injected death is recorded");
    assert_eq!(rank, 2);
    for (r, res) in run.results.iter().enumerate() {
        match res {
            // The dead rank reports its own death through the fallible
            // pipeline; survivors observe it via the poisoned fabric. A
            // `None` would mean the death hit an infallible path and
            // unwound the rank thread — also fine, but not this site.
            Some(Err(HplError::RankFailed { rank: 2, .. })) => {}
            other => panic!("rank {r}: expected RankFailed {{ rank: 2 }}, got {other:?}"),
        }
    }
    // The death is on the event log, exactly once.
    let events = run.injector.events(2);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].to_string(), "recv#6:death");
}

/// Survivable faults (delay + slow worker) must not change the answer:
/// the solution stays bitwise identical to the fault-free run.
#[test]
fn survivable_faults_leave_the_solution_bitwise_intact() {
    let mut cfg = HplConfig::new(64, 8, 1, 2);
    cfg.fact.threads = 2;
    let clean = Universe::run(cfg.ranks(), |comm| {
        run_hpl(comm, &cfg).expect("nonsingular").x
    });
    let plan = FaultPlan::parse(
        5,
        &[
            "delay:300@0:send:1:sticky".to_string(),
            "slowworker:10@1:region:0".to_string(),
        ],
    )
    .expect("specs");
    let run = Universe::run_with_faults(cfg.ranks(), plan, |comm| {
        run_hpl(comm, &cfg).expect("nonsingular").x
    });
    assert!(run.poison.is_none());
    for (r, res) in run.results.iter().enumerate() {
        let x = res.as_ref().expect("all ranks survive");
        assert_eq!(x, &clean[r], "rank {r} solution drifted under faults");
    }
}

/// One faulted run's observable outcome, flattened for comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    events: Vec<Vec<String>>,
    results: Vec<Option<Result<Vec<u64>, HplError>>>,
    poison: Option<(usize, String)>,
}

fn faulted_outcome(cfg: &HplConfig, plan: FaultPlan) -> Outcome {
    let run = Universe::run_with_faults(cfg.ranks(), plan, |comm| {
        // Bit-exact comparison: compare solution words, not floats.
        run_hpl(comm, cfg).map(|r| r.x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>())
    });
    Outcome {
        events: run
            .injector
            .all_events()
            .iter()
            .map(|evs| evs.iter().map(ToString::to_string).collect())
            .collect(),
        results: run.results,
        poison: run.poison,
    }
}

proptest! {
    // Each case is two full distributed solves; keep the count moderate.
    #![proptest_config(ProptestConfig { cases: 10, max_shrink_iters: 4 })]

    /// The determinism contract: the same seed yields the same derived
    /// fault plan, the same injected-event sequence on every rank, and the
    /// same outcome — bit-identical solutions on clean completion, the
    /// identical `HplError` (and poisoned rank) on failure.
    #[test]
    fn same_seed_replays_identically(seed in 0u64..10_000) {
        let cfg = HplConfig::new(48, 8, 1, 2);
        let nranks = cfg.ranks();
        let a = faulted_outcome(&cfg, FaultPlan::from_seed(seed, nranks));
        let b = faulted_outcome(&cfg, FaultPlan::from_seed(seed, nranks));
        prop_assert_eq!(a, b, "seed {} diverged across two runs", seed);
    }
}
