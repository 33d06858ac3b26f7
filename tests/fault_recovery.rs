//! Differential fault-injection suite: under every pinned fault plan,
//! the executor must *self-heal* — injected worker panics, hangs, and
//! queue poisoning are absorbed, and the run's metrics stay
//! bit-identical to the fault-free serial execution of the same stream
//! (the trace-driven contract of `docs/DETERMINISM.md`, now extended to
//! hold across faults; see `docs/ROBUSTNESS.md`).
//!
//! Also proves the checkpoint/resume contract: a figure grid killed
//! mid-run by an injected abort, then resumed from its journal,
//! finishes bit-identical to a clean uninterrupted grid.

use rnuma::config::MachineConfig;
use rnuma::experiment::{parallel_map, run_traced, SweepAbort, TraceStore};
use rnuma::journal::Journal;
use rnuma::shard::{ShardPool, ShardedMachine, TraceOp};
use rnuma_sim::fault::{FaultKind, FaultPlan};
use rnuma_workloads::{by_name, Scale};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

#[path = "support.rs"]
mod support;

/// Captures em3d@Tiny's reference stream on `config`.
fn trace_on(config: MachineConfig) -> Vec<TraceOp> {
    let (_, trace) = run_traced(config, &mut by_name("em3d", Scale::Tiny).unwrap());
    trace
}

/// A pool-backed sharded machine forced onto the threaded path (every
/// window dispatches to the pool, even on single-core CI hosts).
fn forced_sharded(config: MachineConfig, pool: Arc<ShardPool>) -> ShardedMachine {
    let mut sharded = ShardedMachine::with_pool(config, 4, pool).expect("figure configs are valid");
    sharded.set_parallel_threshold(1);
    sharded
}

/// Injected worker panics — before and after a window's execution,
/// pinned and randomized — recover to bit-identical metrics on every
/// figure-grid configuration.
#[test]
fn injected_panics_recover_bit_identical() {
    let configs = support::figure_configs();
    let trace = trace_on(configs[0]);
    let mut store = TraceStore::new();
    let id = store.insert("em3d", configs[0], &trace);
    for &config in &configs {
        let reference = store.replay_serial(id, config);
        for (spec, pinned) in [
            ("panic_before@0,seed=7", true),
            ("panic_after@1,seed=7", true),
            ("panic_before~0.3,panic_after~0.3,seed=13", false),
        ] {
            let plan = FaultPlan::parse(spec).expect("specs above are well-formed");
            let mut sharded = forced_sharded(config, Arc::new(ShardPool::new(2)));
            sharded.set_fault_plan(Some(plan));
            sharded.run_trace(&trace);
            assert!(
                reference.metrics.replay_eq(&sharded.metrics()),
                "metrics diverged under plan {spec:?} on {}",
                config.protocol
            );
            if pinned {
                assert!(
                    !sharded.fault_log().is_empty(),
                    "pinned plan {spec:?} never fired"
                );
                assert!(
                    sharded.stats().recovered_jobs >= 1,
                    "pinned plan {spec:?} fired but nothing was recovered"
                );
            }
        }
    }
}

/// A worker that hangs past the window watchdog deadline is abandoned:
/// the coordinator re-executes its window (and the rest of the barrier
/// group) from the armed snapshots, bit-identical. Each plan's deadline
/// sits below its `hang_ms`, so the watchdog really fires: one pinned
/// hang, and hangs at a 5% rate.
#[test]
fn hung_worker_recovers_via_watchdog() {
    let configs = support::figure_configs();
    let trace = trace_on(configs[0]);
    let mut store = TraceStore::new();
    let id = store.insert("em3d", configs[0], &trace);
    let config = configs[3]; // R-NUMA
    let reference = store.replay_serial(id, config);

    for (spec, deadline_ms) in [
        ("hang@0,hang_ms=200,seed=3", 20),
        ("hang~0.05,hang_ms=40,seed=97", 10),
    ] {
        let plan = FaultPlan::parse(spec).unwrap();
        let mut sharded = forced_sharded(config, Arc::new(ShardPool::new(2)));
        sharded.set_fault_plan(Some(plan));
        sharded.set_window_deadline_ms(Some(deadline_ms));
        sharded.run_trace(&trace);
        assert!(
            reference.metrics.replay_eq(&sharded.metrics()),
            "metrics diverged after watchdog recovery under plan {spec:?}"
        );
        assert!(
            sharded.fault_log().count(FaultKind::Hang) >= 1,
            "watchdog never fired under plan {spec:?}"
        );
        assert!(sharded.stats().recovered_jobs >= 1);
    }
}

/// Poisoning the job queue mid-run degrades every subsequent window to
/// the coordinator's inline execution — graceful, and bit-identical.
#[test]
fn poisoned_queue_falls_back_inline() {
    let configs = support::figure_configs();
    let trace = trace_on(configs[0]);
    let mut store = TraceStore::new();
    let id = store.insert("em3d", configs[0], &trace);
    let config = configs[1]; // CC-NUMA
    let reference = store.replay_serial(id, config);

    let plan = FaultPlan::parse("poison@0,seed=1").unwrap();
    let mut sharded = forced_sharded(config, Arc::new(ShardPool::new(2)));
    sharded.set_fault_plan(Some(plan));
    sharded.run_trace(&trace);
    assert!(
        reference.metrics.replay_eq(&sharded.metrics()),
        "metrics diverged after inline fallback"
    );
    assert!(sharded.fault_log().count(FaultKind::Poison) >= 1);
    assert!(sharded.stats().inline_fallbacks >= 1);
}

/// A pool whose only worker died (injected panic) respawns it and stays
/// usable: a second, fault-free run on the same pool is bit-identical.
#[test]
fn pool_survives_worker_death_for_later_runs() {
    let configs = support::figure_configs();
    let trace = trace_on(configs[0]);
    let mut store = TraceStore::new();
    let id = store.insert("em3d", configs[0], &trace);
    let config = configs[2]; // S-COMA
    let reference = store.replay_serial(id, config);

    let pool = Arc::new(ShardPool::new(1));
    let mut faulted = forced_sharded(config, Arc::clone(&pool));
    faulted.set_fault_plan(Some(FaultPlan::parse("panic_before@0,seed=9").unwrap()));
    faulted.run_trace(&trace);
    assert!(reference.metrics.replay_eq(&faulted.metrics()));
    assert!(faulted.stats().recovered_jobs >= 1);

    // The killed worker was respawned; the same pool serves a clean run.
    assert!(pool.workers() >= 1, "dead worker was not respawned");
    let mut clean = forced_sharded(config, pool);
    // Disarm explicitly: under the CI chaos lanes RNUMA_FAULTS is set
    // for the whole process, and this run must actually be fault-free.
    clean.set_fault_plan(None);
    clean.run_trace(&trace);
    assert!(reference.metrics.replay_eq(&clean.metrics()));
    assert!(clean.fault_log().is_empty());
}

/// Capture-time allocation pressure downgrades trace interning to
/// verbatim storage — more resident ops, identical replay results.
#[test]
fn capture_pressure_degrades_interning_not_results() {
    let configs = support::figure_configs();
    let trace = trace_on(configs[0]);

    let mut clean = TraceStore::new();
    clean.set_fault_plan(None);
    let clean_id = clean.insert("em3d", configs[0], &trace);

    let mut pressured = TraceStore::new();
    pressured.set_fault_plan(Some(
        FaultPlan::new(5).rate(FaultKind::CapturePressure, 1.0),
    ));
    let pressured_id = pressured.insert("em3d", configs[0], &trace);

    // The fault fired exactly once (interning is off afterwards, so no
    // further decisions are taken) and the store kept every segment —
    // paying verbatim profile storage for it.
    assert_eq!(pressured.fault_log().count(FaultKind::CapturePressure), 1);
    assert!(pressured.encoded_bytes() >= clean.encoded_bytes());
    assert!(pressured.interning_ratio() >= clean.interning_ratio());
    assert_eq!(pressured.captured_ops(), clean.captured_ops());

    for &config in &configs {
        let a = clean.replay_serial(clean_id, config);
        let b = pressured.replay_serial(pressured_id, config);
        assert!(
            a.metrics.replay_eq(&b.metrics),
            "pressure changed replay results on {}",
            config.protocol
        );
    }
}

/// The checkpoint/resume drill: a grid killed mid-run by an injected
/// abort, resumed from its journal, produces a grid bit-identical to a
/// clean uninterrupted grid — without re-simulating journaled cells.
/// Every cell runs through the figure grid driver's checkpointed step
/// (`rnuma_bench::run_cell`). The resumed grid is then differentially
/// pinned against a sharded re-execution: a journal restore is
/// bit-identical to the executor.
#[test]
fn journal_resume_is_bit_identical_to_clean_sweep() {
    let dir = std::env::temp_dir().join(format!("rnuma-fault-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sweep_journal.jsonl");
    let configs = support::figure_configs();
    let grid = |journal: Option<&Journal>, abort: &SweepAbort| {
        parallel_map(&configs, |&config| {
            rnuma_bench::run_cell("em3d", config, Scale::Tiny, journal, abort)
        })
    };

    let clean = grid(None, &SweepAbort::with_plan(None));

    // Crash the journaled grid right after its first completed cell.
    let journal = Journal::open(&path).unwrap();
    let abort = SweepAbort::with_plan(Some(FaultPlan::new(0).at(FaultKind::SweepAbort, 0)));
    let crashed = std::panic::catch_unwind(AssertUnwindSafe(|| grid(Some(&journal), &abort)));
    assert!(crashed.is_err(), "the injected abort did not fire");

    // The killed grid checkpointed at least the cell it completed.
    let journal = Journal::open(&path).unwrap();
    let checkpointed = journal.entries();
    assert!(
        checkpointed >= 1,
        "no cells were journaled before the crash"
    );

    // Resume: journaled cells restore, the rest re-simulate.
    let resumed = grid(Some(&journal), &SweepAbort::with_plan(None));
    assert_eq!(clean.len(), resumed.len());
    for (c, r) in clean.iter().zip(&resumed) {
        assert_eq!(c.protocol, r.protocol);
        assert!(
            c.metrics.replay_eq(&r.metrics),
            "resumed grid diverged from clean on {}",
            r.protocol
        );
    }

    // Cells restored from the journal are bit-identical to sharded
    // re-execution of the stream each cell's own machine issues.
    for r in &resumed {
        let mut sharded = forced_sharded(r.config, Arc::new(ShardPool::new(2)));
        sharded.set_fault_plan(None);
        sharded.run_trace(&trace_on(r.config));
        assert!(
            r.metrics.replay_eq(&sharded.metrics()),
            "sharded re-execution diverged from the resumed journal on {}",
            r.protocol
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
