//! Experiment harness for the R-NUMA reproduction.
//!
//! One binary per table/figure of the paper (see `RESULTS.md` for the
//! regenerated numbers):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1_model` | §3.2 analytical model (EQ 1–3, Table 1 parameters) |
//! | `table2_costs` | Table 2 (base system latencies) |
//! | `table3_apps` | Table 3 (application inventory) |
//! | `fig5_pages` | Figure 5 (refetch CDF over remote pages) |
//! | `table4_traffic` | Table 4 (RW-page refetches; R-NUMA traffic ratios) |
//! | `fig6_base` | Figure 6 (base-system execution times) |
//! | `fig7_cache` | Figure 7 (cache-size sensitivity) |
//! | `fig8_threshold` | Figure 8 (relocation-threshold sensitivity) |
//! | `fig9_overhead` | Figure 9 (page-fault/TLB overhead sensitivity) |
//! | `all_experiments` | everything above, in order |
//!
//! Every binary accepts `--scale paper|small|tiny` (default `paper`) and
//! writes both a text report to stdout and machine-readable CSV under
//! `results/`. The grid binaries run execution-driven: every
//! `(application, configuration)` cell is its own simulation
//! ([`run_grid`]), checkpointed into the `RNUMA_JOURNAL` journal when
//! one is set. [`sweep_grid`], the trace-once/replay-many driver, serves
//! the replay suites and the benchmark probe (see `docs/SWEEP.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::{
    parallel_map, run, run_replayed, run_traced, RunReport, SweepAbort, TraceStore,
};
use rnuma::journal::{cell_key, Journal};
use rnuma_workloads::{by_name, Scale, APP_NAMES};
use std::fmt::Write as _;
use std::path::PathBuf;

pub mod hotpath;
pub mod sweep;

/// Parses `--scale` from argv; defaults to the paper's inputs.
///
/// # Panics
///
/// Panics with a usage message on an unknown scale name.
#[must_use]
pub fn parse_scale(args: &[String]) -> Scale {
    match args.iter().position(|a| a == "--scale") {
        None => Scale::Paper,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("paper") => Scale::Paper,
            Some("small") => Scale::Small,
            Some("tiny") => Scale::Tiny,
            other => panic!("usage: --scale paper|small|tiny (got {other:?})"),
        },
    }
}

/// Exits with status 1 after one line of diagnostic on stderr — how
/// the figure binaries report emitter I/O failures (a full panic
/// backtrace buries the actionable line: which path failed and why).
fn die(context: &str, err: &std::io::Error) -> ! {
    eprintln!("rnuma-bench: {context}: {err}");
    std::process::exit(1);
}

/// Returns the canonical results directory
/// ([`rnuma::experiment::results_path`]: `results/` at the *workspace
/// root*, or `RNUMA_RESULTS_DIR`), creating it if needed.
///
/// Anchoring to the workspace root rather than the working directory
/// matters: bench lanes and figure binaries are launched from both the
/// root and the crate directory, and a CWD-relative `results/` used to
/// scatter drifting copies of `BENCH_hotpath.json`/`BENCH_sweep.json`
/// into a second `results/` inside the bench crate. Every emitter goes
/// through here, so there is exactly one output directory now.
///
/// # Exits
///
/// Exits the process with status 1 (one-line diagnostic on stderr) if
/// the directory cannot be created.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = rnuma::experiment::results_path();
    if let Err(err) = std::fs::create_dir_all(&dir) {
        die(
            &format!("cannot create results directory {}", dir.display()),
            &err,
        );
    }
    dir
}

/// Writes `content` to `results/<name>` and echoes the path.
///
/// # Exits
///
/// Exits the process with status 1 (one-line diagnostic on stderr) on
/// I/O errors.
pub fn save(name: &str, content: &str) {
    let path = results_dir().join(name);
    if let Err(err) = std::fs::write(&path, content) {
        die(&format!("cannot write {}", path.display()), &err);
    }
    println!("[saved {}]", path.display());
}

/// Runs one `(application, protocol)` pair at `scale`.
///
/// # Panics
///
/// Panics if `app` is not a Table-3 application.
#[must_use]
pub fn run_app(app: &str, protocol: Protocol, scale: Scale) -> RunReport {
    let mut workload = by_name(app, scale).unwrap_or_else(|| panic!("unknown app {app}"));
    run(MachineConfig::paper_base(protocol), &mut workload)
}

/// Runs one app on a custom machine configuration.
///
/// # Panics
///
/// Panics if `app` is not a Table-3 application.
#[must_use]
pub fn run_app_config(app: &str, config: MachineConfig, scale: Scale) -> RunReport {
    let mut workload = by_name(app, scale).unwrap_or_else(|| panic!("unknown app {app}"));
    run(config, &mut workload)
}

/// All Table-3 application names.
#[must_use]
pub fn apps() -> &'static [&'static str] {
    &APP_NAMES
}

/// Runs every `(application, configuration)` pair of the grid in
/// parallel across the host's cores, one simulation per pair — the
/// figure binaries' driver.
///
/// Returns one row per application (in `apps` order); row `i` holds one
/// [`RunReport`] per configuration (in `configs` order). Each report is
/// bit-identical to a serial `run_app_config` of the same pair — every
/// simulation owns its machine, so the grid reproduces the serial
/// loops' numbers exactly, just `available_parallelism()` times faster
/// (`RNUMA_JOBS` overrides the worker count).
///
/// Every cell runs through [`run_cell`]: with `RNUMA_JOURNAL` set, each
/// completed cell is checkpointed, and a re-run restores journaled
/// cells instead of re-simulating them, so a grid killed mid-run
/// resumes bit-identical to a clean one (see `docs/ROBUSTNESS.md`).
///
/// # Example
///
/// ```
/// use rnuma::config::{MachineConfig, Protocol};
/// use rnuma_bench::run_grid;
/// use rnuma_workloads::Scale;
///
/// let configs = [
///     MachineConfig::paper_base(Protocol::ideal()),
///     MachineConfig::paper_base(Protocol::paper_rnuma()),
/// ];
/// let rows = run_grid(&["em3d"], &configs, Scale::Tiny);
/// assert_eq!(rows.len(), 1);
/// assert_eq!(rows[0].len(), 2);
/// // The ideal machine bounds the finite one from below.
/// assert!(rows[0][1].cycles() >= rows[0][0].cycles());
/// ```
///
/// # Panics
///
/// Panics if any `app` is not a Table-3 application, or when an
/// `RNUMA_FAULTS` abort fires.
#[must_use]
pub fn run_grid(
    apps: &[&'static str],
    configs: &[MachineConfig],
    scale: Scale,
) -> Vec<Vec<RunReport>> {
    let journal = Journal::from_env();
    let abort = SweepAbort::from_env();
    let cells: Vec<(&'static str, MachineConfig)> = apps
        .iter()
        .flat_map(|&app| configs.iter().map(move |&c| (app, c)))
        .collect();
    let reports = parallel_map(&cells, |&(app, config)| {
        run_cell(app, config, scale, journal.as_ref(), &abort)
    });
    let mut rows = Vec::with_capacity(apps.len());
    let mut it = reports.into_iter();
    for _ in apps {
        rows.push(it.by_ref().take(configs.len()).collect());
    }
    rows
}

/// One checkpointed grid cell — the step [`run_grid`] runs for every
/// cell. The cell is keyed by (workload, scale, configuration)
/// ([`cell_key`]). A cell already in `journal` is restored without
/// re-simulation; otherwise `app` runs on `config` ([`run_app_config`]),
/// the result is appended to `journal`, and `abort` takes one decision.
///
/// # Panics
///
/// Panics if `app` is not a Table-3 application — or when `abort`
/// fires.
#[must_use]
pub fn run_cell(
    app: &'static str,
    config: MachineConfig,
    scale: Scale,
    journal: Option<&Journal>,
    abort: &SweepAbort,
) -> RunReport {
    let keyed = journal.map(|j| (j, cell_key(app, &format!("{scale:?}"), &config)));
    if let Some(metrics) = keyed.and_then(|(j, key)| j.lookup(key)) {
        return RunReport {
            workload: app,
            protocol: config.protocol.label(),
            config,
            metrics: metrics.clone(),
        };
    }
    let report = run_app_config(app, config, scale);
    if let Some((j, key)) = keyed {
        j.record(key, app, report.protocol, &report.metrics);
    }
    abort.after_cell();
    report
}

/// [`run_grid`], the trace-once/replay-many way: each application's
/// operation stream is captured **once**, on `configs[0]` (the
/// baseline — conventionally the ideal machine), interned into a
/// shared [`TraceStore`], and replayed against every other
/// configuration. Captures fan out over the host's cores first, then
/// all replay cells do; `RNUMA_JOBS` overrides the worker count.
///
/// Returns the same row shape as [`run_grid`]. The difference in
/// *meaning*: every cell of a row simulates the **same** reference
/// stream (the fixed-trace methodology), and each cell is bit-identical
/// to a serial [`TraceStore::replay_serial`] of that stream on its
/// configuration —
/// enforced across the whole figure grid by
/// `tests/replay_determinism.rs`. Only the capture column is also what
/// [`run_grid`] computes: every other cell keeps the baseline's
/// interleaving, which moves R-NUMA's relocations on the racy kernels.
/// No figure binary uses it; the replay suites and the benchmark probe
/// do, and it never journals. See `docs/SWEEP.md`.
///
/// # Example
///
/// ```
/// use rnuma::config::{MachineConfig, Protocol};
/// use rnuma_bench::sweep_grid;
/// use rnuma_workloads::Scale;
///
/// let configs = [
///     MachineConfig::paper_base(Protocol::ideal()),
///     MachineConfig::paper_base(Protocol::paper_rnuma()),
/// ];
/// let rows = sweep_grid(&["em3d"], &configs, Scale::Tiny);
/// assert_eq!(rows.len(), 1);
/// assert_eq!(rows[0].len(), 2);
/// // Both cells replay the same captured stream.
/// assert_eq!(
///     rows[0][0].metrics.references(),
///     rows[0][1].metrics.references(),
/// );
/// ```
///
/// # Panics
///
/// Panics if `configs` is empty or any `app` is not a Table-3
/// application.
#[must_use]
pub fn sweep_grid(
    apps: &[&'static str],
    configs: &[MachineConfig],
    scale: Scale,
) -> Vec<Vec<RunReport>> {
    assert!(
        !configs.is_empty(),
        "need at least a baseline configuration"
    );
    // Phase 1+2: capture every application's stream on the baseline
    // and intern it into one shared store. Captures run in worker-sized
    // batches so at most one batch of raw (uncompressed) traces is ever
    // resident — the arena they are interned into exists precisely to
    // avoid holding every stream verbatim.
    let mut store = TraceStore::new();
    let mut ids = Vec::with_capacity(apps.len());
    let mut rows: Vec<Vec<RunReport>> = Vec::with_capacity(apps.len());
    let batch = rnuma::experiment::parallel_workers(apps.len());
    for chunk in apps.chunks(batch) {
        let captures = parallel_map(chunk, |&app| {
            let mut w = by_name(app, scale).unwrap_or_else(|| panic!("unknown app {app}"));
            run_traced(configs[0], &mut w)
        });
        for (report, trace) in captures {
            ids.push(store.insert(report.workload, configs[0], &trace));
            let mut row = Vec::with_capacity(configs.len());
            row.push(report);
            rows.push(row);
        }
    }
    // Phase 3: replay every remaining (application, configuration) cell.
    let cells: Vec<(usize, usize)> = (0..apps.len())
        .flat_map(|a| (1..configs.len()).map(move |c| (a, c)))
        .collect();
    let replays = parallel_map(&cells, |&(a, c)| run_replayed(&store, ids[a], configs[c]));
    for (&(a, _), report) in cells.iter().zip(replays) {
        rows[a].push(report);
    }
    rows
}

/// [`run_grid`] over protocols on the paper's base machine.
///
/// # Panics
///
/// Panics if any `app` is not a Table-3 application.
#[must_use]
pub fn run_protocol_grid(
    apps: &[&'static str],
    protocols: &[Protocol],
    scale: Scale,
) -> Vec<Vec<RunReport>> {
    let configs: Vec<MachineConfig> = protocols
        .iter()
        .map(|&p| MachineConfig::paper_base(p))
        .collect();
    run_grid(apps, &configs, scale)
}

/// Renders a unit-scaled horizontal ASCII bar.
#[must_use]
pub fn bar(value: f64, per_unit: f64, max_width: usize) -> String {
    let width = ((value * per_unit).round() as usize).min(max_width);
    "#".repeat(width)
}

/// A tiny fixed-width table builder for the text reports.
#[derive(Debug, Default)]
pub struct TextTable {
    header: String,
    rows: Vec<String>,
}

impl TextTable {
    /// Starts a table with a preformatted header line.
    #[must_use]
    pub fn new(header: &str) -> TextTable {
        TextTable {
            header: header.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a preformatted row.
    pub fn row(&mut self, row: String) {
        self.rows.push(row);
    }

    /// Renders header, separator, and rows.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header);
        let _ = writeln!(out, "{}", "-".repeat(self.header.len().min(100)));
        for r in &self.rows {
            let _ = writeln!(out, "{r}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        let args = |s: &str| vec!["prog".to_string(), "--scale".to_string(), s.to_string()];
        assert_eq!(parse_scale(&args("tiny")), Scale::Tiny);
        assert_eq!(parse_scale(&args("small")), Scale::Small);
        assert_eq!(parse_scale(&args("paper")), Scale::Paper);
        assert_eq!(parse_scale(&["prog".to_string()]), Scale::Paper);
    }

    #[test]
    fn bar_widths() {
        assert_eq!(bar(1.0, 10.0, 40), "##########");
        assert_eq!(bar(10.0, 10.0, 40), "#".repeat(40));
        assert_eq!(bar(0.0, 10.0, 40), "");
    }

    #[test]
    fn table_renders_all_rows() {
        let mut t = TextTable::new("a  b");
        t.row("1  2".into());
        t.row("3  4".into());
        let s = t.render();
        assert!(s.contains("a  b"));
        assert!(s.contains("1  2") && s.contains("3  4"));
    }

    #[test]
    fn results_dir_is_anchored_at_the_workspace_root() {
        // With no override, the directory is absolute, named
        // `results`, and sits next to the workspace manifest — never
        // relative to the process CWD.
        if rnuma::experiment::env_raw("RNUMA_RESULTS_DIR").is_none() {
            let dir = results_dir();
            assert!(dir.is_absolute());
            assert!(dir.ends_with("results"));
            assert!(dir.parent().unwrap().join("Cargo.toml").exists());
        }
    }

    #[test]
    fn run_app_smoke() {
        let r = run_app("moldyn", Protocol::ideal(), Scale::Tiny);
        assert!(r.cycles() > 0);
        assert_eq!(r.workload, "moldyn");
    }
}
