//! Environment plumbing: `RNUMA_FAULTS`, `RNUMA_JOURNAL` and
//! `RNUMA_JOBS` parsing, and the sweep driver's results under
//! `RNUMA_JOBS` — plus the CLI contracts of the figure binaries
//! (warn-once misconfiguration on stderr for `RNUMA_JOBS` and
//! `RNUMA_FAULTS`; one-line diagnostic and nonzero exit on emitter I/O
//! failure; fault plans never change or abort a figure run).
//!
//! The in-process tests mutate the environment, so they live in their
//! own binary and one `#[test]` owns all the scenarios. The subprocess
//! tests use `env_clear()` and are hermetic.

use rnuma::experiment::{parallel_workers, run_traced};
use rnuma::{FaultKind, FaultPlan, Journal, TraceStore};
use rnuma_workloads::{by_name, Scale};
use std::process::Command;

fn with_var<R>(name: &str, value: Option<&str>, body: impl FnOnce() -> R) -> R {
    // Restore (not just remove) afterwards: the CI chaos lane exports
    // these very variables around this whole binary.
    let prev = std::env::var_os(name);
    match value {
        Some(v) => std::env::set_var(name, v),
        None => std::env::remove_var(name),
    }
    let out = body();
    match prev {
        Some(v) => std::env::set_var(name, v),
        None => std::env::remove_var(name),
    }
    out
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rnuma-robust-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One test owns every env-mutation scenario (shared process).
#[test]
fn robustness_env_plumbing() {
    // RNUMA_FAULTS: unset and empty mean no plan; a plan string builds
    // the described plan; a malformed string disables injection
    // (warn-once) rather than crashing.
    with_var("RNUMA_FAULTS", None, || {
        assert!(FaultPlan::from_env().is_none())
    });
    with_var("RNUMA_FAULTS", Some(""), || {
        assert!(FaultPlan::from_env().is_none());
    });
    with_var("RNUMA_FAULTS", Some("panic_before@0,seed=7"), || {
        let mut plan = FaultPlan::from_env().expect("well-formed plan");
        assert!(!plan.is_empty());
        assert!(
            plan.should_fire(FaultKind::PanicBefore),
            "pinned event at decision 0"
        );
    });
    with_var("RNUMA_FAULTS", Some("hang~0.5,hang_ms=25,seed=9"), || {
        let plan = FaultPlan::from_env().expect("well-formed plan");
        assert_eq!(plan.hang_ms(), 25);
    });
    with_var("RNUMA_FAULTS", Some("banana"), || {
        assert!(FaultPlan::from_env().is_none());
    });

    // RNUMA_JOBS follows the warn-once misconfiguration contract of
    // the numeric knobs (the shared env_usize helper): unset means the
    // host's parallelism, a valid count sticks (clamped to the job
    // count), and zero or garbage warn once to stderr and fall back to
    // the host default — never a silent coercion to serial. The
    // one-warning-per-process stderr shape is pinned subprocess-style
    // below.
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    with_var("RNUMA_JOBS", None, || {
        assert_eq!(parallel_workers(8), host.clamp(1, 8));
    });
    with_var("RNUMA_JOBS", Some("3"), || {
        assert_eq!(parallel_workers(8), 3.clamp(1, 8));
        assert_eq!(parallel_workers(2), 2, "workers never exceed the jobs");
    });
    with_var("RNUMA_JOBS", Some("1"), || {
        assert_eq!(parallel_workers(8), 1)
    });
    with_var("RNUMA_JOBS", Some("0"), || {
        assert_eq!(parallel_workers(8), host.clamp(1, 8), "0 is not serial");
    });
    with_var("RNUMA_JOBS", Some("banana"), || {
        assert_eq!(parallel_workers(8), host.clamp(1, 8));
    });

    // RNUMA_JOURNAL has one resolver (`Journal::from_env`), shared by
    // `run_sweep` and `sweep_grid`: unset means off; a path is the
    // journal; the literal "1" is results/sweep_journal.jsonl; an
    // unopenable journal (here: a directory) disables checkpointing,
    // never aborts.
    let dir = temp_dir("journal");
    let explicit = dir.join("explicit.jsonl");
    with_var("RNUMA_JOURNAL", None, || {
        assert!(Journal::from_env().is_none());
    });
    with_var("RNUMA_JOURNAL", Some(explicit.to_str().unwrap()), || {
        assert_eq!(Journal::from_env().expect("fresh journal").path(), explicit);
    });
    with_var("RNUMA_JOURNAL", Some(dir.to_str().unwrap()), || {
        assert!(
            Journal::from_env().is_none(),
            "a directory is not a journal"
        );
    });
    let results = dir.join("results");
    with_var("RNUMA_RESULTS_DIR", Some(results.to_str().unwrap()), || {
        with_var("RNUMA_JOURNAL", Some("1"), || {
            let journal = Journal::from_env().expect("canonical journal");
            assert_eq!(journal.path(), results.join("sweep_journal.jsonl"));
            assert!(results.is_dir(), "the results directory is created");
        });
    });

    // End-to-end through the bench driver: a journaled sweep_grid
    // checkpoints its replay cells, and a second journaled run restores
    // them bit-identically.
    let configs = [
        rnuma::MachineConfig::paper_base(rnuma::Protocol::ideal()),
        rnuma::MachineConfig::paper_base(rnuma::Protocol::paper_rnuma()),
    ];
    let clean = rnuma_bench::sweep_grid(&["em3d"], &configs, Scale::Tiny);

    // The sweep's cells run the batched replay loop; pin them to a
    // per-op live-dispatch reference (the thin stand-in for the
    // retired per-op replay entry points), so every RNUMA_JOBS setting
    // below transitively proves batched ≡ per-op dispatch.
    let (_, trace) = run_traced(configs[0], &mut by_name("em3d", Scale::Tiny).unwrap());
    for (r, &config) in clean[0].iter().zip(&configs) {
        let mut per_op = rnuma::Machine::new(config).unwrap();
        rnuma_bench::sweep::live_dispatch(&mut per_op, &trace);
        assert!(
            r.metrics.replay_eq(&per_op.metrics()),
            "sweep cell diverged from per-op replay on {}",
            config.protocol
        );
    }
    // The sweep driver reproduces itself bit-for-bit serial and
    // parallel.
    for jobs in ["1", "2"] {
        let rows = with_var("RNUMA_JOBS", Some(jobs), || {
            rnuma_bench::sweep_grid(&["em3d"], &configs, Scale::Tiny)
        });
        for (r, b) in rows[0].iter().zip(&clean[0]) {
            assert!(
                r.metrics.replay_eq(&b.metrics),
                "sweep diverged under RNUMA_JOBS={jobs}"
            );
        }
    }

    let journaled = with_var("RNUMA_JOURNAL", Some(explicit.to_str().unwrap()), || {
        let first = rnuma_bench::sweep_grid(&["em3d"], &configs, Scale::Tiny);
        assert!(
            Journal::open(&explicit).unwrap().entries() >= 1,
            "journaled sweep recorded no cells"
        );
        let second = rnuma_bench::sweep_grid(&["em3d"], &configs, Scale::Tiny);
        (first, second)
    });
    for rows in [&journaled.0, &journaled.1] {
        for (r, b) in rows[0].iter().zip(&clean[0]) {
            assert!(
                r.metrics.replay_eq(&b.metrics),
                "journaled sweep diverged from clean on {}",
                r.protocol
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// An unwritable results directory is a one-line diagnostic and exit
/// status 1 — not a panic backtrace.
#[test]
fn emitter_io_failure_exits_nonzero_with_one_line() {
    let dir = temp_dir("io-fail");
    let file = dir.join("occupied");
    std::fs::write(&file, "not a directory").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_table1_model"))
        .env_clear()
        .env("RNUMA_RESULTS_DIR", file.join("nested"))
        .output()
        .expect("spawn table1_model");
    assert!(!out.status.success(), "expected a nonzero exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("rnuma-bench: cannot create results directory"),
        "missing diagnostic; stderr was: {stderr}"
    );
    assert_eq!(
        stderr.lines().count(),
        1,
        "want exactly one diagnostic line; stderr was: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `RNUMA_JOBS=0` (the classic "disable it" guess) is a
/// misconfiguration, not a request for serial execution: it warns
/// exactly once per process on stderr — even though every parallel
/// fan-out consults it — falls back to the documented default (the
/// host's parallelism), and the figure still regenerates successfully.
#[test]
fn jobs_misconfiguration_warns_once_and_completes() {
    let dir = temp_dir("jobs-warn-once");
    let out = Command::new(env!("CARGO_BIN_EXE_fig5_pages"))
        .args(["--scale", "tiny"])
        .env_clear()
        .env("RNUMA_RESULTS_DIR", &dir)
        .env("RNUMA_JOBS", "0")
        .output()
        .expect("spawn fig5_pages");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fig5_pages failed; stderr: {stderr}");
    assert_eq!(
        stderr.matches("RNUMA_JOBS").count(),
        1,
        "want exactly one warning; stderr was: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed `RNUMA_FAULTS` spec warns exactly once per process on
/// stderr — even though every capture and every sharded replay
/// consults the plan — and the figure still regenerates successfully.
#[test]
fn fault_misconfiguration_warns_once_and_completes() {
    let dir = temp_dir("faults-warn-once");
    let out = Command::new(env!("CARGO_BIN_EXE_fig5_pages"))
        .args(["--scale", "tiny"])
        .env_clear()
        .env("RNUMA_RESULTS_DIR", &dir)
        .env("RNUMA_FAULTS", "banana")
        .output()
        .expect("spawn fig5_pages");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fig5_pages failed; stderr: {stderr}");
    assert_eq!(
        stderr.matches("ignoring RNUMA_FAULTS").count(),
        1,
        "want exactly one warning; stderr was: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A figure binary under an active fault plan completes and writes the
/// same CSV, byte for byte, as a fault-free run. The plan is capture
/// pressure — the fault a figure binary's trace store takes — which
/// downgrades interning to verbatim storage without changing results.
/// fig6_base replays three of its four columns from that store, so a
/// store the fault corrupted would change the CSV.
#[test]
fn figure_binary_completes_under_fault_plan() {
    const PLAN: &str = "pressure~0.5,seed=42";
    // The plan really fires on the path the binary takes: capturing a
    // figure workload on the grid's baseline into a trace store.
    let mut store = TraceStore::new();
    store.set_fault_plan(FaultPlan::parse(PLAN).ok());
    let baseline = rnuma::MachineConfig::paper_base(rnuma::Protocol::ideal());
    store.capture(baseline, &mut by_name("em3d", Scale::Tiny).unwrap());
    assert!(
        store.fault_log().count(FaultKind::CapturePressure) >= 1,
        "plan {PLAN:?} never fired on a capture"
    );

    let fig6 = |tag: &str, faults: Option<&str>| {
        let dir = temp_dir(tag);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig6_base"));
        cmd.args(["--scale", "tiny"])
            .env_clear()
            .env("RNUMA_RESULTS_DIR", &dir);
        if let Some(plan) = faults {
            cmd.env("RNUMA_FAULTS", plan);
        }
        let out = cmd.output().expect("spawn fig6_base");
        assert!(
            out.status.success(),
            "fig6_base failed (RNUMA_FAULTS={faults:?}); stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let csv = std::fs::read(dir.join("fig6_base.csv")).expect("fig6_base.csv written");
        let _ = std::fs::remove_dir_all(&dir);
        csv
    };
    assert!(
        fig6("chaos-clean", None) == fig6("chaos", Some(PLAN)),
        "fig6_base.csv changed under fault plan {PLAN:?}"
    );
}
