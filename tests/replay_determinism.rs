//! The determinism contract of the trace-once/replay-many sweep
//! driver: every cell a sweep produces is **bit-identical** to a serial
//! `TraceStore::replay_serial` of the captured stream on that cell's
//! configuration — across the paper's entire figure grid, through the
//! interned `TraceStore` arena, and through the pool-backed sharded
//! executor at any shard count.
//!
//! It also checks the trace-once driver against the figure binaries'
//! execution-driven `run_grid` where the two must agree: the capture
//! column, and whole rows of the kernels whose interleaving does not
//! depend on the machine's timing.
//!
//! See `docs/SWEEP.md` for the model these tests enforce and
//! `docs/DETERMINISM.md` for the underlying epoch/effect-ordering
//! argument. The sweep's results under `RNUMA_JOBS` are covered in
//! `tests/robust_env.rs` (environment mutation needs its own process).

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::TraceStore;
use rnuma::shard::ShardedMachine;
use rnuma_bench::{run_grid, sweep_grid};
use rnuma_workloads::{by_name, Scale, APP_NAMES};
use std::sync::Arc;

#[path = "support.rs"]
mod support;
use support::{figure_configs, forced_pool};

/// Apps whose tiny figure-grid rows are bit-identical under both
/// drivers: their CPUs' interleaving does not depend on the machine's
/// timing. The racy kernels (barnes, em3d, moldyn, radix, raytrace)
/// diverge by up to ~16% per cell at tiny and ~40% at small (measured
/// table in `RESULTS.md`), so they get no bound beyond the capture
/// column.
const TIMING_INDEPENDENT: [&str; 5] = ["cholesky", "fft", "fmm", "lu", "ocean"];

/// The full figure grid through the trace-once driver (`sweep_grid`):
/// every cell must be bit-identical to an independently captured and
/// serially replayed stream — the serial path of the sweep model. The
/// same grid through the execution-driven `run_grid` must agree with
/// it on the capture column of every app, and on whole rows of the
/// [`TIMING_INDEPENDENT`] apps.
#[test]
fn sweep_grid_cells_are_bit_identical_to_serial_replay() {
    let configs = figure_configs();
    let rows = sweep_grid(&APP_NAMES, &configs, Scale::Tiny);
    let exec = run_grid(&APP_NAMES, &configs, Scale::Tiny);
    for ((&app, row), exec_row) in APP_NAMES.iter().zip(&rows).zip(&exec) {
        let agree = if TIMING_INDEPENDENT.contains(&app) {
            configs.len()
        } else {
            1
        };
        for c in 0..agree {
            assert!(
                row[c].metrics.replay_eq(&exec_row[c].metrics),
                "{app} on {}: trace-once cell diverged from run_grid\n\
                 sweep: {}\nexec:  {}",
                configs[c].protocol,
                row[c].metrics,
                exec_row[c].metrics
            );
        }
    }
    assert_eq!(rows.len(), APP_NAMES.len());
    for (&app, row) in APP_NAMES.iter().zip(&rows) {
        assert_eq!(row.len(), configs.len());
        let mut store = TraceStore::new();
        let mut w = by_name(app, Scale::Tiny).expect("known app");
        let (id, capture) = store.capture(configs[0], &mut w);
        assert!(
            capture.metrics.replay_eq(&row[0].metrics),
            "{app}: sweep capture cell diverged from a fresh capture"
        );
        for (c, &config) in configs.iter().enumerate().skip(1) {
            let serial = store.replay_serial(id, config);
            assert!(
                serial.metrics.replay_eq(&row[c].metrics),
                "{app} on {}: sweep cell diverged from serial replay\n\
                 serial: {}\nsweep:  {}",
                config.protocol,
                serial.metrics,
                row[c].metrics
            );
        }
    }
}

/// Replay cells shard deterministically: the pool-backed sharded
/// executor replaying straight from the interned arena's segments is
/// bit-identical to the serial replay, for every configuration of the
/// axis and several shard counts.
#[test]
fn replayed_cells_shard_deterministically_on_the_pool() {
    let pool = forced_pool();
    let configs = figure_configs();
    for app in ["em3d", "lu", "moldyn"] {
        let mut store = TraceStore::new();
        let mut w = by_name(app, Scale::Tiny).expect("known app");
        let (id, _) = store.capture(configs[0], &mut w);
        for &config in &configs {
            let serial = store.replay_serial(id, config);
            for shards in [2usize, 4] {
                let mut sm = ShardedMachine::with_pool(config, shards, Arc::clone(&pool))
                    .expect("valid config");
                sm.set_parallel_threshold(64);
                store.replay_sharded(id, &mut sm);
                assert!(
                    serial.metrics.replay_eq(&sm.metrics()),
                    "{app} on {} diverged at {shards} shards\n\
                     serial:  {}\nsharded: {}",
                    config.protocol,
                    serial.metrics,
                    sm.metrics()
                );
            }
        }
    }
    assert!(
        pool.jobs_executed() > 0,
        "the forced pool must actually have executed window jobs"
    );
}

/// Interning is invisible to replay: an interned store and a raw store
/// holding the same stream replay bit-identically on every
/// configuration.
#[test]
fn interned_and_raw_stores_replay_identically() {
    let configs = figure_configs();
    let mut w = by_name("radix", Scale::Tiny).expect("known app");
    let (_, trace) = rnuma::experiment::run_traced(configs[0], &mut w);
    let mut interned = TraceStore::new();
    let mut raw = TraceStore::raw();
    let a = interned.insert("radix", configs[0], &trace);
    let b = raw.insert("radix", configs[0], &trace);
    assert_eq!(interned.ops(a), raw.ops(b));
    assert!(interned.encoded_bytes() <= raw.encoded_bytes());
    assert!(interned.interning_ratio() <= raw.interning_ratio());
    for &config in &configs {
        let ra = interned.replay_serial(a, config);
        let rb = raw.replay_serial(b, config);
        assert!(
            ra.metrics.replay_eq(&rb.metrics),
            "interned vs raw replay diverged on {}",
            config.protocol
        );
    }
}

/// A one-configuration sweep (what fig5/table4-style binaries run) is
/// just the capture cell, and still matches a plain execution-driven
/// run bit-for-bit.
#[test]
fn single_config_sweep_equals_direct_run() {
    let config = MachineConfig::paper_base(Protocol::paper_ccnuma());
    let rows = sweep_grid(&["barnes"], &[config], Scale::Tiny);
    let mut w = by_name("barnes", Scale::Tiny).expect("known app");
    let direct = rnuma::experiment::run(config, &mut w);
    assert!(rows[0][0].metrics.replay_eq(&direct.metrics));
}
