//! Hot-path throughput measurement and the `BENCH_hotpath.json` emitter.
//!
//! Simulator throughput — references retired per wall-clock second
//! through [`rnuma::machine::Machine::access`] — bounds every experiment
//! in this workspace, so each optimization PR needs a number to beat.
//! This module provides:
//!
//! * a deterministic synthetic reference stream that exercises the full
//!   walk (L1 hits, local fills, block/page-cache hits, remote
//!   fetches);
//! * per-protocol `refs/sec` measurement of the assembled machine;
//! * a microbenchmark of the translation structures themselves — the
//!   open-addressed [`rnuma_mem::fxmap::FxMap64`] against the
//!   `std::collections::HashMap` it replaced, on the same key stream —
//!   which isolates the table swap's speedup;
//! * [`HotpathReport::emit`], which records everything in
//!   `results/BENCH_hotpath.json` so subsequent PRs have a perf
//!   trajectory.

use rnuma::config::{MachineConfig, Protocol};
use rnuma::machine::Machine;
use rnuma::shard::{ShardPool, ShardedMachine, TraceOp};
use rnuma_mem::addr::{CpuId, Va};
use rnuma_mem::fxmap::FxMap64;
use rnuma_sim::DetRng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One synthetic memory reference.
pub type Ref = (CpuId, Va, bool);

/// Generates a deterministic reference stream with the locality mix of
/// the paper's applications: mostly streaming within a working set of
/// shared pages, ~10% writes, CPU switched every few references so
/// cross-node sharing and refetches occur.
#[must_use]
pub fn synth_stream(refs: usize, pages: u64, cpus: u16) -> Vec<Ref> {
    let mut rng = DetRng::seeded(0x5EED_CAFE);
    let mut out = Vec::with_capacity(refs);
    let mut cpu = CpuId(0);
    let mut page = 0u64;
    let mut offset = 0u64;
    for i in 0..refs {
        // Re-home the stream periodically: new CPU, new page.
        if i % 24 == 0 {
            cpu = CpuId(rng.range_u64(0, u64::from(cpus)) as u16);
            page = rng.range_u64(0, pages);
            offset = rng.range_u64(0, 128) * 32;
        } else {
            // Stride within the page; wraps keep the VA on-page.
            offset = (offset + 32) % 4096;
        }
        let write = rng.chance(0.1);
        out.push((cpu, Va(page * 4096 + offset), write));
    }
    out
}

/// Replays `stream` on a fresh machine and reports references per
/// wall-clock second. The replay repeats until at least ~0.2 s of work
/// has been timed, so short streams still measure stably.
///
/// # Panics
///
/// Panics if the stream is empty or the configuration is invalid.
#[must_use]
pub fn machine_refs_per_sec(protocol: Protocol, stream: &[Ref]) -> f64 {
    assert!(!stream.is_empty(), "empty reference stream");
    let mut total_refs = 0u64;
    let mut total_secs = 0.0f64;
    while total_secs < 0.2 {
        let mut machine =
            Machine::new(MachineConfig::paper_base(protocol)).expect("valid paper config");
        let t0 = Instant::now();
        for &(cpu, va, write) in stream {
            machine.access(cpu, va, write);
        }
        total_secs += t0.elapsed().as_secs_f64();
        total_refs += stream.len() as u64;
        // Keep the machine's final state observable.
        std::hint::black_box(machine.metrics().l1_hits);
    }
    total_refs as f64 / total_secs
}

/// MRU fast-path hit rate of one replay of `stream` (hits per L1 miss).
///
/// # Panics
///
/// Panics if the configuration is invalid.
#[must_use]
pub fn mru_hit_rate(protocol: Protocol, stream: &[Ref]) -> f64 {
    let mut machine =
        Machine::new(MachineConfig::paper_base(protocol)).expect("valid paper config");
    for &(cpu, va, write) in stream {
        machine.access(cpu, va, write);
    }
    let m = machine.metrics();
    if m.l1_misses == 0 {
        0.0
    } else {
        m.mru_translation_hits as f64 / m.l1_misses as f64
    }
}

/// ns-per-lookup comparison of `std::collections::HashMap` (the old hot
/// path) against [`FxMap64`] (the new one) on `keys`: each map is
/// pre-populated with the key set, then probed in stream order.
///
/// Returns `(hashmap_ns, fxmap_ns)`.
///
/// # Panics
///
/// Panics if `keys` is empty.
#[must_use]
pub fn lookup_ns_comparison(keys: &[u64]) -> (f64, f64) {
    assert!(!keys.is_empty(), "empty key stream");
    let mut std_map: HashMap<u64, u64> = HashMap::new();
    let mut fx_map: FxMap64<u64> = FxMap64::new();
    for &k in keys {
        std_map.insert(k, k ^ 1);
        fx_map.insert(k, k ^ 1);
    }
    let time_probes = |probe: &mut dyn FnMut(u64) -> u64| -> f64 {
        // Warm up, then time enough rounds for a stable figure.
        let mut acc = 0u64;
        for &k in keys {
            acc = acc.wrapping_add(probe(k));
        }
        let rounds = (2_000_000 / keys.len()).max(1);
        let t0 = Instant::now();
        for _ in 0..rounds {
            for &k in keys {
                acc = acc.wrapping_add(probe(k));
            }
        }
        let elapsed = t0.elapsed().as_nanos() as f64;
        std::hint::black_box(acc);
        elapsed / (rounds * keys.len()) as f64
    };
    let std_ns = time_probes(&mut |k| std_map.get(&k).copied().unwrap_or(0));
    let fx_ns = time_probes(&mut |k| fx_map.get(k).copied().unwrap_or(0));
    (std_ns, fx_ns)
}

/// Shard count of the `sharded` lane: four shards of two nodes each on
/// the paper's eight-node machine, so each CPU's partner node (for
/// in-shard remote traffic) shares its shard.
pub const SHARDED_LANE_SHARDS: usize = 4;

/// Generates a node-partitioned trace with the locality first-touch
/// placement creates: each CPU streams over pages in its own node's
/// region, with one reference in eight going to the *partner* node of
/// its two-node shard (in-shard remote traffic through the full
/// protocol walk), and a barrier every few thousand references.
///
/// Every access is provably shard-contained under the
/// [`SHARDED_LANE_SHARDS`]-way partition, so this measures the sharded
/// executor's fan-out rather than its serial fallback.
#[must_use]
pub fn synth_partitioned_trace(refs: usize, pages_per_node: u64) -> Vec<TraceOp> {
    let mut rng = DetRng::seeded(0x5EED_D00D);
    let mut ops = Vec::with_capacity(refs + refs / 4096 + 1);
    ops.push(TraceOp::ArmFirstTouch);
    let region = |node: u64| (1 + node) << 30;
    // Home each node's region by a first touch from its own CPU 0.
    for node in 0..8u64 {
        for p in 0..pages_per_node {
            ops.push(TraceOp::Access {
                cpu: CpuId((node * 4) as u16),
                va: Va(region(node) + p * 4096),
                write: true,
            });
        }
    }
    let mut offsets = [0u64; 32];
    for i in 0..refs {
        let cpu = (i % 32) as u64;
        let node = cpu / 4;
        // 1 in 8 references goes to the shard partner's region.
        let target = if i % 8 == 5 { node ^ 1 } else { node };
        let off = &mut offsets[cpu as usize];
        *off = (*off + 32) % (pages_per_node * 4096);
        let write = target == node && rng.chance(0.1);
        ops.push(TraceOp::Access {
            cpu: CpuId(cpu as u16),
            va: Va(region(target) + *off),
            write,
        });
        if i % 16384 == 16383 {
            ops.push(TraceOp::Barrier);
        }
    }
    ops
}

/// The `sharded` lane: serial batched replay (`Machine::apply_batch`)
/// vs. pooled-batched sharded replay (`ShardedMachine`, whose parallel
/// windows execute their buckets through the batched run-table kernel)
/// of the same partitioned trace.
#[derive(Clone, Debug)]
pub struct ShardedLane {
    /// Shards used ([`SHARDED_LANE_SHARDS`]).
    pub shards: usize,
    /// References in the trace (excluding barriers/arm ops).
    pub trace_refs: usize,
    /// Serial batched `Machine::apply_batch` replay throughput.
    pub serial_refs_per_sec: f64,
    /// Pooled-batched `ShardedMachine` replay throughput.
    pub sharded_refs_per_sec: f64,
    /// Worker threads of the pool the sharded replay ran on
    /// ([`ShardPool::shared`]); 0 means every window ran inline on the
    /// coordinator.
    pub pool_workers: usize,
}

impl ShardedLane {
    /// Sharded-over-serial speedup.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.sharded_refs_per_sec / self.serial_refs_per_sec
    }
}

/// Speedup the sharded lane must reach over serial replay to pass.
const SHARDED_TARGET: f64 = 1.5;

/// Hardware threads the sharded acceptance needs before a miss counts
/// as BELOW TARGET rather than SKIPPED.
const SHARDED_MIN_CORES: usize = 4;

/// The sharded lane's acceptance line for a measured `speedup` on a
/// host with `cores` hardware threads whose pool ran `workers` worker
/// threads. Only a worker-less pool measured the inline fallback; any
/// other miss on a small host measured real thread handoff.
#[must_use]
pub fn sharded_verdict(speedup: f64, cores: usize, workers: usize) -> String {
    let measured = if workers == 0 {
        format!("inline fallback measured {speedup:.2}x")
    } else {
        format!("{workers} pool worker(s) measured {speedup:.2}x")
    };
    if speedup >= SHARDED_TARGET {
        format!("sharded acceptance: PASS ({speedup:.2}x >= {SHARDED_TARGET}x serial)")
    } else if cores < SHARDED_MIN_CORES {
        format!("sharded acceptance: SKIPPED ({cores} cores < {SHARDED_MIN_CORES}; {measured})")
    } else {
        format!(
            "sharded acceptance: BELOW TARGET ({measured} < {SHARDED_TARGET}x) — check host load"
        )
    }
}

fn count_refs(ops: &[TraceOp]) -> usize {
    ops.iter()
        .filter(|op| matches!(op, TraceOp::Access { .. }))
        .count()
}

fn time_replays(refs: usize, mut replay: impl FnMut()) -> f64 {
    let mut total_refs = 0u64;
    let mut total_secs = 0.0f64;
    while total_secs < 0.2 {
        let t0 = Instant::now();
        replay();
        total_secs += t0.elapsed().as_secs_f64();
        total_refs += refs as u64;
    }
    total_refs as f64 / total_secs
}

/// Measures the sharded lane on `protocol`: replays the same
/// partitioned trace through the serial batched engine and through a
/// [`ShardedMachine`] on the shared worker pool (pooled windows
/// executing their buckets through the batched run-table kernel),
/// verifying bit-identical metrics while timing both. On a single-core
/// host the shared pool has no workers, so the lane measures the
/// executor's inline fallback (~1.0x serial) rather than
/// thread-handoff cost; [`ShardedLane::pool_workers`] records which.
///
/// # Panics
///
/// Panics if the configuration is invalid — or if the sharded replay
/// diverges from the serial one, which would be an executor bug.
#[must_use]
pub fn sharded_lane(protocol: Protocol, trace_refs: usize) -> ShardedLane {
    let config = MachineConfig::paper_base(protocol);
    let ops = synth_partitioned_trace(trace_refs, 32);
    let refs = count_refs(&ops);

    // Self-check once before timing: the lane must be exact.
    let mut serial = Machine::new(config).expect("valid paper config");
    serial.apply_batch(&ops);
    let mut sharded = ShardedMachine::new(config, SHARDED_LANE_SHARDS).expect("valid paper config");
    sharded.run_trace(&ops);
    assert!(
        serial.metrics().replay_eq(&sharded.metrics()),
        "sharded bench lane diverged from serial"
    );

    let serial_rps = time_replays(refs, || {
        let mut m = Machine::new(config).expect("valid paper config");
        m.apply_batch(&ops);
        std::hint::black_box(m.metrics().l1_hits);
    });
    let sharded_rps = time_replays(refs, || {
        let mut m = ShardedMachine::new(config, SHARDED_LANE_SHARDS).expect("valid paper config");
        m.run_trace(&ops);
        std::hint::black_box(m.metrics().l1_hits);
    });
    ShardedLane {
        shards: SHARDED_LANE_SHARDS,
        trace_refs: refs,
        serial_refs_per_sec: serial_rps,
        sharded_refs_per_sec: sharded_rps,
        pool_workers: ShardPool::shared().workers(),
    }
}

/// One protocol's measured simulator throughput.
#[derive(Clone, Debug)]
pub struct ProtocolThroughput {
    /// Protocol label ("ideal", "CC-NUMA", ...).
    pub label: &'static str,
    /// References retired per wall-clock second.
    pub refs_per_sec: f64,
}

/// Everything `BENCH_hotpath.json` records.
#[derive(Clone, Debug)]
pub struct HotpathReport {
    /// References in the synthetic stream.
    pub stream_refs: usize,
    /// Per-protocol machine throughput.
    pub protocols: Vec<ProtocolThroughput>,
    /// ns/lookup through `std::collections::HashMap` (old hot path).
    pub hashmap_ns_per_lookup: f64,
    /// ns/lookup through the open-addressed `FxMap` (new hot path).
    pub fxmap_ns_per_lookup: f64,
    /// MRU translation fast-path hit rate per L1 miss (R-NUMA run).
    pub mru_hit_rate: f64,
    /// The sharded execution lane (R-NUMA partitioned trace), when
    /// measured.
    pub sharded: Option<ShardedLane>,
}

impl HotpathReport {
    /// Table-lookup speedup of the new hot path over the HashMap
    /// baseline.
    #[must_use]
    pub fn lookup_speedup(&self) -> f64 {
        self.hashmap_ns_per_lookup / self.fxmap_ns_per_lookup
    }

    /// Renders the report as JSON (hand-rolled: the workspace carries no
    /// serialization dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"stream_refs\": {},", self.stream_refs);
        let _ = writeln!(s, "  \"refs_per_sec\": {{");
        for (i, p) in self.protocols.iter().enumerate() {
            let comma = if i + 1 < self.protocols.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(s, "    \"{}\": {:.0}{comma}", p.label, p.refs_per_sec);
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(
            s,
            "  \"hashmap_ns_per_lookup\": {:.2},",
            self.hashmap_ns_per_lookup
        );
        let _ = writeln!(
            s,
            "  \"fxmap_ns_per_lookup\": {:.2},",
            self.fxmap_ns_per_lookup
        );
        let _ = writeln!(s, "  \"lookup_speedup\": {:.2},", self.lookup_speedup());
        match &self.sharded {
            None => {
                let _ = writeln!(s, "  \"mru_hit_rate\": {:.4}", self.mru_hit_rate);
            }
            Some(lane) => {
                let _ = writeln!(s, "  \"mru_hit_rate\": {:.4},", self.mru_hit_rate);
                let _ = writeln!(s, "  \"sharded\": {{");
                let _ = writeln!(s, "    \"shards\": {},", lane.shards);
                let _ = writeln!(s, "    \"trace_refs\": {},", lane.trace_refs);
                let _ = writeln!(
                    s,
                    "    \"serial_refs_per_sec\": {:.0},",
                    lane.serial_refs_per_sec
                );
                let _ = writeln!(
                    s,
                    "    \"sharded_refs_per_sec\": {:.0},",
                    lane.sharded_refs_per_sec
                );
                let _ = writeln!(s, "    \"pool_workers\": {},", lane.pool_workers);
                let _ = writeln!(s, "    \"speedup\": {:.2}", lane.speedup());
                let _ = writeln!(s, "  }}");
            }
        }
        s.push('}');
        s
    }

    /// Writes `results/BENCH_hotpath.json` (creating the directory) and
    /// echoes the path.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors.
    pub fn emit(&self) {
        crate::save("BENCH_hotpath.json", &self.to_json());
    }
}

/// Runs the full hot-path measurement suite.
///
/// # Panics
///
/// Panics if any configuration fails validation.
#[must_use]
pub fn measure(stream_refs: usize) -> HotpathReport {
    // 64 pages × 8 nodes: working set overflows the 128-B R-NUMA block
    // cache (forcing refetches and relocations) but fits the page cache.
    let stream = synth_stream(stream_refs, 64, 32);
    let protocols: [(&'static str, Protocol); 4] = [
        ("ideal", Protocol::ideal()),
        ("CC-NUMA", Protocol::paper_ccnuma()),
        ("S-COMA", Protocol::paper_scoma()),
        ("R-NUMA", Protocol::paper_rnuma()),
    ];
    let throughput = protocols
        .iter()
        .map(|&(label, p)| ProtocolThroughput {
            label,
            refs_per_sec: machine_refs_per_sec(p, &stream),
        })
        .collect();
    // The translation keys the machine actually resolves: page numbers
    // in stream order.
    let keys: Vec<u64> = stream.iter().map(|&(_, va, _)| va.vpage().0).collect();
    let (hashmap_ns, fxmap_ns) = lookup_ns_comparison(&keys);
    HotpathReport {
        stream_refs,
        protocols: throughput,
        hashmap_ns_per_lookup: hashmap_ns,
        fxmap_ns_per_lookup: fxmap_ns,
        mru_hit_rate: mru_hit_rate(Protocol::paper_rnuma(), &stream),
        sharded: Some(sharded_lane(Protocol::paper_rnuma(), 4 * stream_refs)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_in_range() {
        let a = synth_stream(1000, 16, 32);
        let b = synth_stream(1000, 16, 32);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(cpu, va, _)| cpu.0 < 32 && va.0 < 16 * 4096));
    }

    #[test]
    fn machine_replay_produces_throughput() {
        let stream = synth_stream(2000, 8, 32);
        let rps = machine_refs_per_sec(Protocol::paper_ccnuma(), &stream);
        assert!(rps > 0.0 && rps.is_finite());
    }

    #[test]
    fn json_shape_is_sane() {
        let report = HotpathReport {
            stream_refs: 10,
            protocols: vec![ProtocolThroughput {
                label: "ideal",
                refs_per_sec: 1e6,
            }],
            hashmap_ns_per_lookup: 20.0,
            fxmap_ns_per_lookup: 5.0,
            mru_hit_rate: 0.9,
            sharded: None,
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ideal\": 1000000"));
        assert!(json.contains("\"lookup_speedup\": 4.00"));
        assert!((report.lookup_speedup() - 4.0).abs() < 1e-12);
        // With a sharded lane, the JSON gains the nested object.
        let mut with_lane = report.clone();
        with_lane.sharded = Some(ShardedLane {
            shards: 4,
            trace_refs: 1000,
            serial_refs_per_sec: 1e6,
            sharded_refs_per_sec: 2.5e6,
            pool_workers: 2,
        });
        let json = with_lane.to_json();
        assert!(json.ends_with('}'));
        assert!(json.contains("\"shards\": 4"));
        assert!(json.contains("\"pool_workers\": 2"));
        assert!(json.contains("\"speedup\": 2.50"));
    }

    #[test]
    fn verdict_says_inline_fallback_only_without_workers() {
        let v = sharded_verdict(0.98, 1, 0);
        assert!(v.contains("SKIPPED (1 cores < 4"), "{v}");
        assert!(v.contains("inline fallback measured 0.98x"), "{v}");
    }

    #[test]
    fn verdict_names_real_workers_on_a_two_core_host() {
        let v = sharded_verdict(0.58, 2, 2);
        assert!(v.contains("SKIPPED (2 cores < 4"), "{v}");
        assert!(v.contains("2 pool worker(s) measured 0.58x"), "{v}");
        assert!(!v.contains("inline fallback"), "{v}");
    }

    #[test]
    fn verdict_target_and_core_arming_are_unchanged() {
        assert!(sharded_verdict(1.5, 2, 2).contains("PASS"));
        assert!(sharded_verdict(1.49, 4, 4).contains("BELOW TARGET"));
        assert!(sharded_verdict(1.49, 3, 3).contains("SKIPPED"));
    }

    #[test]
    fn partitioned_trace_is_deterministic_and_partitioned() {
        let a = synth_partitioned_trace(2000, 8);
        let b = synth_partitioned_trace(2000, 8);
        assert_eq!(a, b);
        assert!(matches!(a[0], TraceOp::ArmFirstTouch));
        assert!(count_refs(&a) >= 2000);
    }

    #[test]
    fn sharded_lane_measures_and_self_checks() {
        // Small trace: correctness of the lane plumbing, not the speedup.
        let lane = sharded_lane(Protocol::paper_rnuma(), 4000);
        assert_eq!(lane.shards, SHARDED_LANE_SHARDS);
        assert!(lane.serial_refs_per_sec > 0.0);
        assert!(lane.sharded_refs_per_sec > 0.0);
    }

    #[test]
    fn mru_rate_is_a_fraction() {
        let stream = synth_stream(2000, 8, 32);
        let rate = mru_hit_rate(Protocol::paper_rnuma(), &stream);
        assert!((0.0..=1.0).contains(&rate));
    }
}
