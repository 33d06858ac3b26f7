//! `perfbench-probe`: the compiled half of the repository benchmark.
//!
//! `perfbench/run.py` drives it; every subcommand calls only public
//! functions of the workspace crates and times them from outside.
//!
//! ```text
//! perfbench-probe cells --workload W --seed N
//!     run every cell of the workload's grid as its program does (the
//!     figures through `rnuma_bench::sweep_grid`, synth-rw through `run`
//!     on one thread) and print every simulated statistic in canonical
//!     text form
//! perfbench-probe setup --workload W --seed N
//!     time kernel and machine construction SETUP_REPS times; print the
//!     samples as JSON
//! perfbench-probe trace --workload W --seed N --out DIR
//!     run the workload layer by layer with spans; print one JSON object
//!     of per-layer metrics, write DIR/spans.jsonl and DIR/cells.txt
//! ```

mod synth;

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::{parallel_map, parallel_workers, run, run_replayed, run_traced};
use rnuma::{Machine, Metrics, RunReport, ShardPool, ShardStats, ShardedMachine, TraceStore};
use rnuma_bench::sweep_grid;
use rnuma_mem::addr::{NodeId, VBlock, VPage};
use rnuma_mem::block_cache::{BlockCache, BlockState};
use rnuma_mem::fxmap::FxMap;
use rnuma_mem::l1::L1Cache;
use rnuma_mem::moesi::Moesi;
use rnuma_mem::page_cache::PageCache;
use rnuma_net::{MsgKind, NetConfig, Network};
use rnuma_os::paging::PageManager;
use rnuma_proto::directory::Directory;
use rnuma_proto::reactive::RefetchCounters;
use rnuma_sim::Cycles;
use rnuma_workloads::{by_name, Scale, APP_NAMES};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use synth::SynthRw;

/// One program of a workload's grid.
#[derive(Clone, Copy, Debug)]
enum App {
    /// A Table-3 kernel at `small` scale (fixed internal seed).
    Kernel(&'static str),
    /// The seeded synth-rw program.
    Synth(u64),
}

impl App {
    fn name(self) -> &'static str {
        match self {
            App::Kernel(name) => name,
            App::Synth(_) => "synth-rw",
        }
    }

    fn build(self) -> Box<dyn rnuma::Workload> {
        match self {
            App::Kernel(name) => by_name(name, Scale::Small).expect("Table-3 application"),
            App::Synth(seed) => Box::new(SynthRw::new(seed)),
        }
    }
}

/// How a figure binary turns its grid into CSV.
#[derive(Clone, Copy, Debug)]
struct CsvShape {
    header: &'static str,
    /// Column every value is normalized to.
    base: usize,
    /// Columns written after the app name.
    columns: &'static [usize],
}

/// A benchmark workload: the grid its user-visible program simulates.
#[derive(Debug)]
struct Spec {
    apps: Vec<App>,
    /// `configs[0]` is the capture baseline of the trace-once sweep.
    configs: Vec<MachineConfig>,
    /// `None` for synth-rw, whose output is its statistics.
    csv: Option<CsvShape>,
}

const FIG8_THRESHOLDS: [u32; 4] = [16, 64, 256, 1024];

fn spec(workload: &str, seed: u64) -> Result<Spec, String> {
    let kernels = || APP_NAMES.iter().map(|&a| App::Kernel(a)).collect();
    let base = |p: &[Protocol]| p.iter().map(|&p| MachineConfig::paper_base(p)).collect();
    Ok(match workload {
        // Mirrors `fig6_base`: normalized to the ideal machine.
        "fig6-small" => Spec {
            apps: kernels(),
            configs: base(&[
                Protocol::ideal(),
                Protocol::paper_ccnuma(),
                Protocol::paper_scoma(),
                Protocol::paper_rnuma(),
            ]),
            csv: Some(CsvShape {
                header: "app,ccnuma,scoma,rnuma",
                base: 0,
                columns: &[1, 2, 3],
            }),
        },
        // Mirrors `fig8_threshold`: R-NUMA per threshold, normalized to T=64.
        "fig8-small" => Spec {
            apps: kernels(),
            configs: FIG8_THRESHOLDS
                .iter()
                .map(|&threshold| {
                    MachineConfig::paper_base(Protocol::RNuma {
                        block_cache_bytes: 128,
                        page_cache_bytes: 320 * 1024,
                        threshold,
                    })
                })
                .collect(),
            csv: Some(CsvShape {
                header: "app,t16,t64,t256,t1024",
                base: 1,
                columns: &[0, 1, 2, 3],
            }),
        },
        "synth-rw" => Spec {
            apps: vec![App::Synth(seed)],
            configs: base(&[
                Protocol::paper_ccnuma(),
                Protocol::paper_scoma(),
                Protocol::paper_rnuma(),
            ]),
            csv: None,
        },
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Every simulated statistic of one run, in a fixed text form: the
/// input of the benchmark's `sim_digest`.
fn canonical(report: &RunReport) -> String {
    let m: &Metrics = &report.metrics;
    let mut out = format!(
        "{} {} reads={} writes={} l1_hits={} mru={} l1_misses={} c2c={} local={} \
         block$={} page$={} remote={} refetches={} relocations={} os={:?} exec={} \
         net={} ni_wait={} per_cpu={:?}\n",
        report.workload,
        report.config.protocol,
        m.reads,
        m.writes,
        m.l1_hits,
        m.mru_translation_hits,
        m.l1_misses,
        m.c2c_transfers,
        m.local_fills,
        m.block_cache_hits,
        m.page_cache_hits,
        m.remote_fetches,
        m.refetches,
        m.relocation_interrupts,
        m.os,
        m.exec_cycles.0,
        m.net_messages,
        m.ni_wait.0,
        m.per_cpu_cycles.iter().map(|c| c.0).collect::<Vec<_>>(),
    );
    for (page, profile) in m.pages_sorted() {
        let _ = writeln!(out, "  {page:?} {profile:?}");
    }
    out
}

/// The figure's CSV from a grid of reports, formatted as the binary does.
fn figure_csv(shape: CsvShape, apps: &[App], grid: &[Vec<RunReport>]) -> String {
    let mut csv = format!("{}\n", shape.header);
    for (app, row) in apps.iter().zip(grid) {
        let base = row[shape.base].cycles() as f64;
        csv.push_str(app.name());
        for &c in shape.columns {
            let _ = write!(csv, ",{:.4}", row[c].cycles() as f64 / base);
        }
        csv.push('\n');
    }
    csv
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

// ---------------------------------------------------------------- spans

/// One timed call, in seconds since the tracer started.
#[derive(Debug)]
struct SpanRec {
    /// Shared by every span of one grid cell; 0 for phases.
    id: usize,
    name: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder, written out once at the end of the run.
#[derive(Debug)]
struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans.lock().expect("a span closure panicked")
    }

    /// Runs `f` inside a span; `f` gets the span's index to parent its
    /// children. Returns `f`'s result and the span's duration.
    fn span<T>(
        &self,
        id: usize,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> (T, f64) {
        let start = self.t0.elapsed().as_secs_f64();
        let index = {
            let mut spans = self.lock();
            spans.push(SpanRec {
                id,
                name: name.to_string(),
                parent,
                start,
                end: start,
            });
            spans.len() - 1
        };
        let out = f(index);
        let end = self.t0.elapsed().as_secs_f64();
        self.lock()[index].end = end;
        (out, end - start)
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"index\": {i}, \"id\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start\": {:.9}, \"end\": {:.9}}}",
                s.id, s.name, s.start, s.end
            );
        }
        std::fs::write(path, text)
    }
}

// ------------------------------------------------------------ subcommands

fn cmd_cells(spec: &Spec) {
    let out: String = match spec.csv {
        Some(_) => sweep_grid(&APP_NAMES, &spec.configs, Scale::Small)
            .iter()
            .flatten()
            .map(canonical)
            .collect(),
        None => spec
            .configs
            .iter()
            .map(|&config| canonical(&run(config, &mut *spec.apps[0].build())))
            .collect(),
    };
    print!("{out}");
}

/// Set-up repetitions in one `setup` call.
const SETUP_REPS: usize = 41;

/// Time of building every kernel (for synth-rw, its inputs) and every
/// cell's machine once. The Table-3 kernels generate their inputs inside
/// `Workload::run`, so for the figures this covers `by_name` and
/// `Machine::new` only.
fn setup_once(spec: &Spec) -> f64 {
    let t = Instant::now();
    for app in &spec.apps {
        black_box(app.build());
        for &config in &spec.configs {
            black_box(Machine::new(config).expect("benchmark configs are valid"));
        }
    }
    t.elapsed().as_secs_f64()
}

fn cmd_setup(spec: &Spec) {
    let samples: Vec<String> = (0..SETUP_REPS)
        .map(|_| format!("{:.9}", setup_once(spec)))
        .collect();
    println!("{{\"samples\": [{}]}}", samples.join(", "));
}

/// Per-op cost of `op`, as the median of five timed batches of `n`.
fn ns_per_op(n: u64, mut op: impl FnMut(u64)) -> f64 {
    let reps = (0..5)
        .map(|rep| {
            let t = Instant::now();
            for i in 0..n {
                op(rep * n + i);
            }
            t.elapsed().as_secs_f64() * 1e9 / n as f64
        })
        .collect();
    median(reps)
}

/// Component costs through the public APIs of the leaf crates.
fn component_metrics(out: &mut Vec<(String, f64)>) {
    const N: u64 = 200_000;
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    let mut pc = PageCache::new(320 * 1024);
    for p in 0..pc.num_frames() as u64 {
        pc.allocate(VPage(p));
    }
    let frames = pc.num_frames() as u64;
    // Every allocation past the warm fill evicts the LRM victim.
    put(
        "mem.page_cache.allocate_full_ns",
        ns_per_op(N, |i| {
            black_box(pc.allocate(VPage(frames + i)));
        }),
    );
    let mut bc = BlockCache::direct_mapped(32 * 1024);
    put(
        "mem.block_cache.fill_ns",
        ns_per_op(N, |i| {
            black_box(bc.fill(VBlock(i), BlockState::read_only()));
        }),
    );
    let mut l1 = L1Cache::new(8 * 1024);
    for b in 0..256 {
        l1.fill(VBlock(b), Moesi::Exclusive);
    }
    put(
        "mem.l1.probe_ns",
        ns_per_op(N, |i| {
            black_box(l1.probe_read(VBlock(black_box(i % 256))));
        }),
    );
    let mut map: FxMap<VPage, u64> = FxMap::new();
    for p in 0..65_536u64 {
        map.insert(VPage(p * 7), p);
    }
    put(
        "mem.fxmap.get_ns",
        ns_per_op(N, |i| {
            black_box(map.get(VPage((i % 65_536) * 7)));
        }),
    );
    let mut dir = Directory::new(NodeId(0));
    put(
        "proto.directory.read_ns",
        ns_per_op(N, |i| {
            black_box(dir.read(VBlock(i % 100_000), NodeId((i % 7 + 1) as u8)));
        }),
    );
    let mut dir = Directory::new(NodeId(0));
    // Two sharers, then a write from a third node invalidates both.
    put(
        "proto.directory.write_inval_ns",
        ns_per_op(N, |i| {
            let block = VBlock(i % 4096);
            dir.read(block, NodeId(1));
            dir.read(block, NodeId(2));
            black_box(dir.write(block, NodeId(3), false));
        }),
    );
    let mut counters = RefetchCounters::new(64);
    put(
        "proto.reactive.record_refetch_ns",
        ns_per_op(N, |i| {
            black_box(counters.record(VPage(i % 1000)));
        }),
    );
    let mut net = Network::new(8, NetConfig::default());
    put(
        "net.send_ns",
        ns_per_op(N, |i| {
            let from = (i % 8) as u8;
            black_box(net.send(
                Cycles(i * 500),
                NodeId(from),
                NodeId((from + 1) % 8),
                MsgKind::GetShared,
            ));
        }),
    );
    let mut pm = PageManager::new(8);
    pm.arm_first_touch();
    put(
        "os.paging.home_on_touch_ns",
        ns_per_op(N, |i| {
            black_box(pm.home_on_touch(VPage(i), NodeId((i % 8) as u8)));
        }),
    );
}

/// The span id shared by every span of grid cell `(a, c)`; phases use 0.
fn cell_id(spec: &Spec, a: usize, c: usize) -> usize {
    1 + a * spec.configs.len() + c
}

fn sum(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().sum()
}

fn cmd_trace(spec: &Spec, out_dir: &Path) -> Result<(), String> {
    let tr = Tracer::new();
    let (apps, configs) = (&spec.apps, &spec.configs);
    let n_apps = apps.len();
    let workers = parallel_workers(n_apps);
    let mut m: Vec<(String, f64)> = Vec::new();

    // --- experiment + trace: the trace-once sweep, as `sweep_grid` runs it.
    let mut store = TraceStore::new();
    let mut ids = Vec::with_capacity(n_apps);
    let mut grid: Vec<Vec<(RunReport, f64)>> = Vec::with_capacity(n_apps);
    let mut capture_s = 0.0;
    let mut insert_s = 0.0;
    let ((), capture_phase) = tr.span(0, "experiment.capture_phase", None, |phase| {
        let indexed: Vec<(usize, App)> = apps.iter().copied().enumerate().collect();
        for chunk in indexed.chunks(workers) {
            let captures = parallel_map(chunk, |&(a, app)| {
                let (out, cell_s) =
                    tr.span(cell_id(spec, a, 0), "cell.capture", Some(phase), |cell| {
                        let (mut w, _) =
                            tr.span(cell_id(spec, a, 0), "workloads.by_name", Some(cell), |_| {
                                app.build()
                            });
                        tr.span(
                            cell_id(spec, a, 0),
                            "experiment.run_traced",
                            Some(cell),
                            |_| run_traced(configs[0], &mut w),
                        )
                    });
                (a, out, cell_s)
            });
            for (a, ((report, trace), run_s), cell_s) in captures {
                let (id, s) = tr.span(cell_id(spec, a, 0), "trace.insert", Some(phase), |_| {
                    store.insert(report.workload, configs[0], &trace)
                });
                capture_s += run_s;
                insert_s += s;
                ids.push(id);
                grid.push(vec![(report, cell_s + s)]);
            }
        }
    });
    let cells: Vec<(usize, usize)> = (0..n_apps)
        .flat_map(|a| (1..configs.len()).map(move |c| (a, c)))
        .collect();
    let (replays, replay_phase) = tr.span(0, "experiment.replay_phase", None, |phase| {
        parallel_map(&cells, |&(a, c)| {
            tr.span(
                cell_id(spec, a, c),
                "experiment.run_replayed",
                Some(phase),
                |_| run_replayed(&store, ids[a], configs[c]),
            )
        })
    });
    for (&(a, _), cell) in cells.iter().zip(replays) {
        grid[a].push(cell);
    }
    let replay_s = sum(grid.iter().flat_map(|row| row[1..].iter().map(|c| c.1)));

    // Execution-driven reference: every cell through `run`.
    let all_cells: Vec<(usize, usize)> = (0..n_apps)
        .flat_map(|a| (0..configs.len()).map(move |c| (a, c)))
        .collect();
    let (execs, _) = tr.span(0, "experiment.exec_phase", None, |phase| {
        parallel_map(&all_cells, |&(a, c)| {
            let ((report, run_s), _) =
                tr.span(cell_id(spec, a, c), "cell.exec", Some(phase), |cell| {
                    let (mut w, _) =
                        tr.span(cell_id(spec, a, c), "workloads.by_name", Some(cell), |_| {
                            apps[a].build()
                        });
                    tr.span(cell_id(spec, a, c), "experiment.run", Some(cell), |_| {
                        run(configs[c], &mut w)
                    })
                });
            (report, run_s)
        })
    });
    let exec_grid: Vec<Vec<(RunReport, f64)>> =
        execs.chunks(configs.len()).map(<[_]>::to_vec).collect();
    let exec_s = sum(exec_grid.iter().flatten().map(|c| c.1));
    let exec_replayed_cells = sum(exec_grid
        .iter()
        .flat_map(|row| row[1..].iter().map(|c| c.1)));
    let exec_baseline = sum(exec_grid.iter().map(|row| row[0].1));
    let (critical, critical_s) = grid
        .iter()
        .enumerate()
        .flat_map(|(a, row)| {
            row.iter()
                .map(move |(r, s)| (format!("{}/{}", apps[a].name(), r.config.protocol), *s))
        })
        .max_by(|x, y| x.1.total_cmp(&y.1))
        .expect("grid has cells");
    let busy = sum(grid.iter().flatten().map(|c| c.1));
    m.push(("experiment.capture_s".into(), capture_s));
    m.push(("experiment.replay_s".into(), replay_s));
    m.push(("experiment.exec_s".into(), exec_s));
    m.push((
        "experiment.replay_vs_exec".into(),
        replay_s / exec_replayed_cells,
    ));
    m.push((
        "experiment.capture_overhead".into(),
        (capture_s + insert_s) / exec_baseline,
    ));
    m.push(("experiment.critical_cell_s".into(), critical_s));
    // Busy cell time over the thread time the two phases had.
    let replay_workers = parallel_workers(cells.len()) as f64;
    m.push((
        "experiment.parallel_efficiency".into(),
        busy / (workers as f64 * capture_phase + replay_workers * replay_phase),
    ));

    let ops = store.captured_ops();
    let (decoded, decode_s) = tr.span(0, "trace.decode", None, |_| {
        let mut n = 0u64;
        for &id in &ids {
            store.for_each_batch(id, |batch, runs| {
                n += batch.len() as u64;
                black_box(runs);
            });
        }
        n
    });
    if decoded != ops {
        return Err(format!("decoded {decoded} ops of {ops} captured"));
    }
    m.push(("trace.captured_ops".into(), ops as f64));
    m.push(("trace.insert_mops_s".into(), ops as f64 / insert_s / 1e6));
    m.push(("trace.decode_mops_s".into(), ops as f64 / decode_s / 1e6));
    m.push((
        "trace.encoded_bytes_per_op".into(),
        store.encoded_bytes() as f64 / ops as f64,
    ));
    m.push(("trace.interning_ratio".into(), store.interning_ratio()));

    // --- machine: serial replay of every stream on each paper protocol.
    let mut walk_s = 0.0;
    let mut walk_refs = 0u64;
    for (label, protocol) in [
        ("ccnuma", Protocol::paper_ccnuma()),
        ("scoma", Protocol::paper_scoma()),
        ("rnuma", Protocol::paper_rnuma()),
    ] {
        let config = MachineConfig::paper_base(protocol);
        let mut refs = 0u64;
        let ((), s) = tr.span(0, &format!("machine.replay.{label}"), None, |_| {
            for &id in &ids {
                refs += store.replay_serial(id, config).metrics.references();
            }
        });
        walk_s += s;
        walk_refs += refs;
        m.push((
            format!("machine.mrefs_per_s.{label}"),
            refs as f64 / s / 1e6,
        ));
    }
    m.push(("machine.ns_per_ref".into(), walk_s * 1e9 / walk_refs as f64));

    // --- shard: 2-shard replay of every stream vs serial replay of it.
    let shard_config = *configs.last().expect("workloads have configs");
    let pool = Arc::new(ShardPool::new(1));
    let mut stats = ShardStats::default();
    let (mut serial_s, mut sharded_s) = (0.0, 0.0);
    for (a, &id) in ids.iter().enumerate() {
        let (serial, s) = tr.span(
            cell_id(spec, a, configs.len() - 1),
            "shard.serial",
            None,
            |_| store.replay_serial(id, shard_config),
        );
        let (sharded, p) = tr.span(
            cell_id(spec, a, configs.len() - 1),
            "shard.run_trace",
            None,
            |_| {
                let mut sm = ShardedMachine::with_pool(shard_config, 2, Arc::clone(&pool))
                    .expect("benchmark configs are valid");
                store.replay_sharded(id, &mut sm);
                sm
            },
        );
        if !serial.metrics.replay_eq(&sharded.metrics()) {
            return Err(format!(
                "sharded replay diverged from serial for {}",
                apps[a].name()
            ));
        }
        let st = sharded.stats();
        stats.windows += st.windows;
        stats.parallel_windows += st.parallel_windows;
        stats.contained_ops += st.contained_ops;
        stats.serialized_ops += st.serialized_ops;
        serial_s += s;
        sharded_s += p;
    }
    m.push(("shard.speedup_vs_serial".into(), serial_s / sharded_s));
    m.push((
        "shard.contained_op_share".into(),
        stats.contained_ops as f64 / (stats.contained_ops + stats.serialized_ops) as f64,
    ));
    m.push(("shard.windows".into(), stats.windows as f64));
    m.push((
        "shard.parallel_windows".into(),
        stats.parallel_windows as f64,
    ));
    m.push((
        "shard.mean_window_ops".into(),
        stats.contained_ops as f64 / stats.windows.max(1) as f64,
    ));

    let ((), _) = tr.span(0, "components", None, |_| component_metrics(&mut m));

    // --- fidelity: which cells, trace-once or execution-driven, reproduce the
    // user-visible output.
    let trace_once: Vec<Vec<RunReport>> = grid
        .iter()
        .map(|row| row.iter().map(|c| c.0.clone()).collect())
        .collect();
    let exec: Vec<Vec<RunReport>> = exec_grid
        .iter()
        .map(|row| row.iter().map(|c| c.0.clone()).collect())
        .collect();
    let (csv_trace_once, csv_exec) = match spec.csv {
        Some(shape) => (
            figure_csv(shape, apps, &trace_once),
            figure_csv(shape, apps, &exec),
        ),
        None => (String::new(), String::new()),
    };
    // Simulated counts of the cells the workload's program reports: the
    // trace-once grid for the figure binaries, execution for synth-rw.
    let counted = if spec.csv.is_some() {
        &trace_once
    } else {
        &exec
    };
    let total = |f: &dyn Fn(&Metrics) -> u64| {
        counted.iter().flatten().map(|r| f(&r.metrics)).sum::<u64>() as f64
    };
    m.push(("sim.references".into(), total(&|x| x.references())));
    m.push(("sim.l1_misses".into(), total(&|x| x.l1_misses)));
    m.push(("sim.remote_fetches".into(), total(&|x| x.remote_fetches)));
    m.push(("sim.refetches".into(), total(&|x| x.refetches)));
    m.push(("sim.relocations".into(), total(&|x| x.os.relocations)));
    m.push((
        "sim.page_replacements".into(),
        total(&|x| x.os.page_replacements),
    ));
    m.push(("sim.blocks_flushed".into(), total(&|x| x.os.blocks_flushed)));
    m.push(("sim.c2c_transfers".into(), total(&|x| x.c2c_transfers)));
    m.push(("sim.net_messages".into(), total(&|x| x.net_messages)));
    m.push(("sim.ni_wait_cycles".into(), total(&|x| x.ni_wait.0)));

    let cells_text: String = counted.iter().flatten().map(canonical).collect();
    std::fs::write(out_dir.join("cells.txt"), cells_text).map_err(|e| e.to_string())?;
    tr.write(&out_dir.join("spans.jsonl"))
        .map_err(|e| e.to_string())?;

    let mut json = String::from("{\"metrics\": {");
    let fields: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v:.9e}")).collect();
    json.push_str(&fields.join(", "));
    let _ = write!(
        json,
        "}}, \"workers\": {workers}, \"critical_cell\": {}, \"csv_trace_once\": {}, \"csv_exec\": {}}}",
        json_str(&critical),
        json_str(&csv_trace_once),
        json_str(&csv_exec),
    );
    println!("{json}");
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ------------------------------------------------------------------ CLI

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn real_main(args: &[String]) -> Result<(), String> {
    let usage = "usage: perfbench-probe cells|setup|trace --workload W --seed N [--out DIR]";
    let cmd = args.get(1).ok_or(usage)?;
    let seed: u64 = flag(args, "--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let spec = spec(flag(args, "--workload").ok_or(usage)?, seed)?;
    match cmd.as_str() {
        "cells" => cmd_cells(&spec),
        "setup" => cmd_setup(&spec),
        "trace" => {
            let out = PathBuf::from(flag(args, "--out").ok_or(usage)?);
            std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
            return cmd_trace(&spec, &out);
        }
        _ => return Err(usage.to_string()),
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Err(err) = real_main(&args) {
        eprintln!("perfbench-probe: {err}");
        std::process::exit(2);
    }
    let _ = std::io::stdout().flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(config: MachineConfig, cycles: u64) -> RunReport {
        RunReport {
            workload: "em3d",
            protocol: config.protocol.label(),
            config,
            metrics: Metrics {
                exec_cycles: Cycles(cycles),
                ..Metrics::default()
            },
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(vec![7.0]), 7.0);
    }

    #[test]
    fn figure_csv_matches_the_binaries_format() {
        let fig6 = spec("fig6-small", 1).expect("known workload");
        let row: Vec<RunReport> = fig6
            .configs
            .iter()
            .zip([1000, 1500, 2000, 1234])
            .map(|(&c, cycles)| report(c, cycles))
            .collect();
        let shape = fig6.csv.expect("figures have a CSV");
        assert_eq!(
            figure_csv(shape, &[App::Kernel("em3d")], &[row]),
            "app,ccnuma,scoma,rnuma\nem3d,1.5000,2.0000,1.2340\n"
        );
        let fig8 = spec("fig8-small", 1).expect("known workload");
        let row: Vec<RunReport> = fig8
            .configs
            .iter()
            .zip([900, 1000, 1100, 3000])
            .map(|(&c, cycles)| report(c, cycles))
            .collect();
        let shape = fig8.csv.expect("figures have a CSV");
        assert_eq!(
            figure_csv(shape, &[App::Kernel("em3d")], &[row]),
            "app,t16,t64,t256,t1024\nem3d,0.9000,1.0000,1.1000,3.0000\n"
        );
    }

    #[test]
    fn synth_inputs_are_a_function_of_the_seed() {
        let plans = |seed| format!("{:?}", SynthRw::new(seed));
        assert_eq!(plans(7), plans(7));
        assert_ne!(plans(7), plans(8));
    }

    #[test]
    fn spans_record_parents_and_nesting() {
        let tr = Tracer::new();
        let (inner, _) = tr.span(0, "outer", None, |outer| {
            tr.span(3, "inner", Some(outer), |_| 42).0
        });
        assert_eq!(inner, 42);
        let spans = tr.lock();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].id, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }
}
