//! `RNUMA_SHARDS` plumbing — and the rest of the executor's env
//! contract (`RNUMA_JOBS`): the environment variables route every batch driver
//! job (`run_parallel`, and therefore `rnuma_bench::run_grid`) through
//! the self-checking sharded path, and misconfigured values follow one
//! warn-once-then-default contract.
//!
//! These tests mutate the process environment, so they live in their own
//! integration-test binary (their own process) and run serially.

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::{parallel_workers, run, run_env_sharded, run_parallel};
use rnuma::shard::shards_from_env;
use rnuma_bench::sweep_grid;
use rnuma_workloads::{by_name, Scale};

fn with_var<R>(name: &str, value: Option<&str>, body: impl FnOnce() -> R) -> R {
    match value {
        Some(v) => std::env::set_var(name, v),
        None => std::env::remove_var(name),
    }
    let out = body();
    std::env::remove_var(name);
    out
}

fn with_env<R>(value: Option<&str>, body: impl FnOnce() -> R) -> R {
    with_var("RNUMA_SHARDS", value, body)
}

fn with_jobs<R>(value: Option<&str>, body: impl FnOnce() -> R) -> R {
    with_var("RNUMA_JOBS", value, body)
}

/// The tests share one process, so environment mutation must be
/// serialized: one test owns all the scenarios.
#[test]
fn rnuma_shards_routing() {
    let config = MachineConfig::paper_base(Protocol::paper_rnuma());
    let baseline = run(config, &mut by_name("em3d", Scale::Tiny).unwrap());

    // Unset: no sharding requested.
    with_env(None, || assert_eq!(shards_from_env(), None));

    // RNUMA_SHARDS=1 is, by regression contract, the existing
    // single-threaded path: run_env_sharded must not enter the checked
    // sharded mode, and the report is the plain serial one.
    with_env(Some("1"), || {
        assert_eq!(shards_from_env(), Some(1));
        let r = run_env_sharded(config, &mut by_name("em3d", Scale::Tiny).unwrap());
        assert!(baseline.metrics.replay_eq(&r.metrics));
    });

    // RNUMA_SHARDS>1: every job self-checks sharded-vs-serial (a panic
    // here would mean the executor diverged) and still reports the
    // serial metrics bit-for-bit.
    with_env(Some("4"), || {
        assert_eq!(shards_from_env(), Some(4));
        let reports = run_parallel(&[0u8, 1u8], |_| {
            (config, by_name("em3d", Scale::Tiny).unwrap())
        });
        for r in &reports {
            assert!(baseline.metrics.replay_eq(&r.metrics));
        }
    });

    // Misconfiguration is uniform: an unparsable value and an explicit
    // zero both mean "no sharding" (with a one-time stderr warning),
    // never a crash and never a silent clamp to 1.
    with_env(Some("banana"), || assert_eq!(shards_from_env(), None));
    with_env(Some("0"), || assert_eq!(shards_from_env(), None));
    with_env(Some("-3"), || assert_eq!(shards_from_env(), None));

    // RNUMA_JOBS follows the same warn-once misconfiguration contract
    // as the other numeric knobs (the shared env_usize helper): unset
    // means the host's parallelism, a valid count sticks (clamped to
    // the job count), and zero or garbage warn once to stderr and fall
    // back to the host default — never a silent coercion to serial.
    // The one-warning-per-process stderr shape is pinned subprocess-
    // style in tests/robust_env.rs.
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    with_jobs(None, || assert_eq!(parallel_workers(8), host.clamp(1, 8)));
    with_jobs(Some("3"), || {
        assert_eq!(parallel_workers(8), 3.clamp(1, 8));
        assert_eq!(parallel_workers(2), 2, "workers never exceed the jobs");
    });
    with_jobs(Some("1"), || assert_eq!(parallel_workers(8), 1));
    with_jobs(Some("0"), || {
        assert_eq!(parallel_workers(8), host.clamp(1, 8), "0 is not serial");
    });
    with_jobs(Some("banana"), || {
        assert_eq!(parallel_workers(8), host.clamp(1, 8));
    });

    // The trace-once/replay-many sweep driver honors the same
    // environment: every (RNUMA_JOBS, RNUMA_SHARDS) combination must
    // reproduce the env-free sweep bit-for-bit, with RNUMA_SHARDS>1
    // additionally self-checking each replay cell on the pool-backed
    // sharded executor.
    let configs = [
        MachineConfig::paper_base(Protocol::ideal()),
        MachineConfig::paper_base(Protocol::paper_rnuma()),
    ];
    let reference = sweep_grid(&["em3d"], &configs, Scale::Tiny);
    // The sweep's cells run the batched replay loop; pin them to a
    // per-op live-dispatch reference (the thin stand-in for the
    // retired per-op replay entry points) so every environment
    // combination below transitively proves batched ≡ per-op dispatch.
    let (_, trace) =
        rnuma::experiment::run_traced(configs[0], &mut by_name("em3d", Scale::Tiny).unwrap());
    for (r, &config) in reference[0].iter().zip(&configs) {
        let mut per_op = rnuma::Machine::new(config).unwrap();
        rnuma_bench::sweep::live_dispatch(&mut per_op, &trace);
        assert!(
            r.metrics.replay_eq(&per_op.metrics()),
            "sweep cell diverged from per-op replay on {}",
            config.protocol
        );
    }
    for (jobs, shards) in [
        (Some("1"), Some("4")),
        (Some("2"), Some("2")),
        (Some("2"), None),
    ] {
        let rows = with_jobs(jobs, || {
            with_env(shards, || sweep_grid(&["em3d"], &configs, Scale::Tiny))
        });
        for (r, b) in rows[0].iter().zip(&reference[0]) {
            assert!(
                r.metrics.replay_eq(&b.metrics),
                "sweep diverged under RNUMA_JOBS={jobs:?} RNUMA_SHARDS={shards:?}"
            );
        }
    }
}
