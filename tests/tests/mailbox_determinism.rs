//! The lock-free mailbox is a *fast path*, not a semantic change: for the
//! same seed and config, a run over the SPSC rings must be **bitwise
//! identical** to a run over the mutex+condvar oracle — same solution
//! vector, same span sequence, same `seq_hash`. This is the determinism
//! half of the `RHPL_MAILBOX` switch: the oracle stays selectable so any
//! future divergence is attributable in one A/B run.
//!
//! Selection goes through `FabricOpts.mailbox` (via
//! `Universe::run_with_transport`) rather than the env var, so one process
//! can construct both fabrics.

use hpl_comm::universe::env_transport_sel;
use hpl_comm::{FabricOpts, MailboxSel, Universe};
use rhpl_core::config::Schedule;
use rhpl_core::{run_hpl, HplConfig};

/// One traced run on the given mailbox; returns each rank's trace and the
/// root rank's solution vector.
fn traced_run(cfg: &HplConfig, mailbox: MailboxSel, cap: Option<usize>) -> RunOut {
    let mut cfg = cfg.clone();
    cfg.trace = hpl_trace::TraceOpts::on();
    let opts = FabricOpts {
        mailbox,
        mailbox_cap: cap,
        ..FabricOpts::default()
    };
    let per_rank = Universe::run_with_transport(cfg.ranks(), env_transport_sel(), opts, |comm| {
        let r = run_hpl(comm, &cfg).expect("nonsingular");
        (r.trace.expect("tracing was enabled"), r.x)
    });
    let traces = per_rank.iter().map(|(t, _)| t.clone()).collect();
    let x = per_rank.into_iter().next().expect("rank 0").1;
    RunOut { traces, x }
}

struct RunOut {
    traces: Vec<hpl_trace::Trace>,
    x: Vec<f64>,
}

fn base_config() -> HplConfig {
    let mut cfg = HplConfig::new(160, 32, 2, 2);
    cfg.schedule = Schedule::SplitUpdate { frac: 0.5 };
    cfg.fact.threads = 2;
    cfg.seed = 77;
    cfg
}

#[test]
fn lockfree_and_mutex_mailboxes_are_bitwise_identical() {
    let cfg = base_config();
    let lf = traced_run(&cfg, MailboxSel::Lockfree, None);
    let mx = traced_run(&cfg, MailboxSel::Mutex, None);

    assert_eq!(
        lf.x.len(),
        mx.x.len(),
        "solution length diverged across mailboxes"
    );
    for (i, (a, b)) in lf.x.iter().zip(&mx.x).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "x[{i}] diverged between lockfree and mutex mailboxes"
        );
    }
    assert_eq!(
        hpl_trace::report::seq_hash(&lf.traces),
        hpl_trace::report::seq_hash(&mx.traces),
        "span sequence (seq_hash) diverged between mailboxes"
    );
}

#[test]
fn spill_pressure_does_not_change_the_answer() {
    // A capacity-1 ring forces nearly every deposit through the spill lane;
    // the run must still match the uncontended lockfree run bit for bit.
    let cfg = base_config();
    let tiny = traced_run(&cfg, MailboxSel::Lockfree, Some(1));
    let wide = traced_run(&cfg, MailboxSel::Lockfree, None);
    for (i, (a, b)) in tiny.x.iter().zip(&wide.x).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "x[{i}] diverged under spill");
    }
    assert_eq!(
        hpl_trace::report::seq_hash(&tiny.traces),
        hpl_trace::report::seq_hash(&wide.traces)
    );
}

#[test]
fn both_mailboxes_survive_the_simple_schedule_too() {
    let mut cfg = base_config();
    cfg.schedule = Schedule::Simple;
    cfg.fact.threads = 1;
    let lf = traced_run(&cfg, MailboxSel::Lockfree, None);
    let mx = traced_run(&cfg, MailboxSel::Mutex, None);
    for (a, b) in lf.x.iter().zip(&mx.x) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(
        hpl_trace::report::seq_hash(&lf.traces),
        hpl_trace::report::seq_hash(&mx.traces)
    );
}
