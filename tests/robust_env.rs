//! Environment plumbing: `RNUMA_FAULTS`, `RNUMA_JOURNAL` and
//! `RNUMA_JOBS` parsing, both grid drivers' results under `RNUMA_JOBS`,
//! and journal checkpoint/restore through the figure grid driver —
//! plus the CLI contracts of the figure binaries (warn-once
//! misconfiguration on stderr for `RNUMA_JOBS` and `RNUMA_FAULTS`;
//! one-line diagnostic and nonzero exit on emitter I/O failure; a run
//! killed by an injected abort resumes from its journal to the clean
//! CSV).
//!
//! The in-process tests mutate the environment, so they live in their
//! own binary and one `#[test]` owns all the scenarios. The subprocess
//! tests use `env_clear()` and are hermetic.

use rnuma::experiment::{parallel_workers, run, run_traced};
use rnuma::{FaultKind, FaultPlan, Journal};
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

    // RNUMA_JOURNAL has one resolver (`Journal::from_env`), used by the
    // figure grid driver `run_grid`: unset means off; a path is the
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

    let configs = [
        rnuma::MachineConfig::paper_base(rnuma::Protocol::ideal()),
        rnuma::MachineConfig::paper_base(rnuma::Protocol::paper_rnuma()),
    ];
    let sweep = rnuma_bench::sweep_grid(&["em3d"], &configs, Scale::Tiny);
    let serial: Vec<_> = configs
        .iter()
        .map(|&config| run(config, &mut by_name("em3d", Scale::Tiny).unwrap()))
        .collect();

    // The sweep's cells run the batched replay loop; pin them to a
    // per-op live-dispatch reference (the thin stand-in for the
    // retired per-op replay entry points), so every RNUMA_JOBS setting
    // below transitively proves batched ≡ per-op dispatch.
    let (_, trace) = run_traced(configs[0], &mut by_name("em3d", Scale::Tiny).unwrap());
    for (r, &config) in sweep[0].iter().zip(&configs) {
        let mut per_op = rnuma::Machine::new(config).unwrap();
        rnuma_bench::sweep::live_dispatch(&mut per_op, &trace);
        assert!(
            r.metrics.replay_eq(&per_op.metrics()),
            "sweep cell diverged from per-op replay on {}",
            config.protocol
        );
    }
    // Both grid drivers reproduce themselves bit-for-bit serial and
    // parallel: the trace-once sweep its own cells, the figure grid a
    // serial loop of `run`.
    for jobs in ["1", "2"] {
        let (swept, grid) = with_var("RNUMA_JOBS", Some(jobs), || {
            (
                rnuma_bench::sweep_grid(&["em3d"], &configs, Scale::Tiny),
                rnuma_bench::run_grid(&["em3d"], &configs, Scale::Tiny),
            )
        });
        for (r, b) in swept[0].iter().zip(&sweep[0]) {
            assert!(
                r.metrics.replay_eq(&b.metrics),
                "sweep diverged under RNUMA_JOBS={jobs}"
            );
        }
        for (r, s) in grid[0].iter().zip(&serial) {
            assert!(
                r.metrics.replay_eq(&s.metrics),
                "run_grid diverged from serial run under RNUMA_JOBS={jobs}"
            );
        }
    }

    // End-to-end through the figure grid driver: a journaled run_grid
    // checkpoints every cell, the baseline included, and a second
    // journaled run restores them bit-identically.
    let journaled = with_var("RNUMA_JOURNAL", Some(explicit.to_str().unwrap()), || {
        let first = rnuma_bench::run_grid(&["em3d"], &configs, Scale::Tiny);
        assert_eq!(
            Journal::open(&explicit).unwrap().entries(),
            configs.len(),
            "a journaled grid records every cell"
        );
        let second = rnuma_bench::run_grid(&["em3d"], &configs, Scale::Tiny);
        (first, second)
    });
    for rows in [&journaled.0, &journaled.1] {
        for (r, s) in rows[0].iter().zip(&serial) {
            assert!(
                r.metrics.replay_eq(&s.metrics),
                "journaled grid diverged from clean on {}",
                r.protocol
            );
        }
    }
    // The journal key tells scales apart: a journal filled at tiny
    // restores no cell of a small run of the same app and configs, so
    // every small cell simulates and is recorded.
    with_var("RNUMA_JOURNAL", Some(explicit.to_str().unwrap()), || {
        let small = rnuma_bench::run_grid(&["em3d"], &configs, Scale::Small);
        assert_eq!(
            Journal::open(&explicit).unwrap().entries(),
            2 * configs.len(),
            "a tiny journal entry was restored into a small grid"
        );
        assert_ne!(small[0][0].cycles(), serial[0].cycles());
    });

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
/// stderr, and the figure still regenerates successfully.
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

/// The CI resume lane, run as a tier-1 test: a journaled `fig6_base`
/// killed by an injected abort (`RNUMA_FAULTS=abort@0`, the fault plan
/// that reaches a figure binary's grid) exits non-zero after
/// checkpointing at least one cell, and the journal-resumed run exits 0
/// with a `fig6_base.csv` byte-identical to a clean run's.
#[test]
fn figure_binary_completes_under_fault_plan() {
    let dir = temp_dir("resume");
    let journal = dir.join("journal.jsonl");
    let fig6 = |tag: &str, env: &[(&str, &str)]| {
        let results = dir.join(tag);
        let out = Command::new(env!("CARGO_BIN_EXE_fig6_base"))
            .args(["--scale", "tiny"])
            .env_clear()
            .env("RNUMA_RESULTS_DIR", &results)
            .envs(env.iter().copied())
            .output()
            .expect("spawn fig6_base");
        (out, results.join("fig6_base.csv"))
    };
    let journal_env = ("RNUMA_JOURNAL", journal.to_str().unwrap());

    let (out, clean_csv) = fig6("clean", &[]);
    assert!(
        out.status.success(),
        "clean fig6_base failed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (out, _) = fig6("crashed", &[journal_env, ("RNUMA_FAULTS", "abort@0")]);
    assert!(!out.status.success(), "the injected abort did not fire");
    let lines = std::fs::read_to_string(&journal).map_or(0, |text| text.lines().count());
    assert!(lines >= 1, "the killed run journaled no cell");
    let (out, resumed_csv) = fig6("resumed", &[journal_env]);
    assert!(
        out.status.success(),
        "resumed fig6_base failed; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        std::fs::read(&clean_csv).unwrap() == std::fs::read(&resumed_csv).unwrap(),
        "the resumed fig6_base.csv differs from the clean run's"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
