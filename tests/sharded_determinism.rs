//! The determinism contract of intra-machine sharding: replaying a
//! run's trace on a [`ShardedMachine`] — any shard count — reproduces
//! the serial execution bit-for-bit, across the paper's entire figure
//! grid and on adversarial random reference streams.
//!
//! See `docs/DETERMINISM.md` for the execution model these tests
//! enforce.

use proptest::prelude::*;
use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::run_traced;
use rnuma::shard::{ShardedMachine, TraceOp};
use rnuma::Machine;
use rnuma_mem::addr::{CpuId, Va};
use rnuma_workloads::{by_name, Scale, APP_NAMES};

#[path = "support.rs"]
mod support;
use support::{figure_protocols, forced_pool};

fn assert_sharded_matches_serial(app: &str, protocol: Protocol, shard_counts: &[usize]) {
    let config = MachineConfig::paper_base(protocol);
    let mut w = by_name(app, Scale::Tiny).expect("known app");
    let (report, trace) = run_traced(config, &mut w);
    for &shards in shard_counts {
        let mut sharded =
            ShardedMachine::with_pool(config, shards, forced_pool()).expect("valid config");
        sharded.set_parallel_threshold(64);
        sharded.run_trace(&trace);
        assert!(
            report.metrics.replay_eq(&sharded.metrics()),
            "{app} on {protocol} diverged at {shards} shards\n\
             serial:  {}\nsharded: {}",
            report.metrics,
            sharded.metrics()
        );
    }
}

/// The full figure grid: every Table-3 application on every finite
/// protocol of the shared fixture, serial vs. 2- and 4-sharded replay,
/// bit-identical.
#[test]
fn every_app_and_protocol_is_shard_deterministic() {
    let [_, finite @ ..] = figure_protocols();
    for app in APP_NAMES {
        for protocol in finite {
            assert_sharded_matches_serial(app, protocol, &[2, 4]);
        }
    }
}

/// The ideal (infinite block cache) baseline shards identically too —
/// it is the denominator of every normalized figure.
#[test]
fn ideal_baseline_is_shard_deterministic() {
    let [ideal, ..] = figure_protocols();
    for app in ["em3d", "moldyn", "ocean"] {
        assert_sharded_matches_serial(app, ideal, &[2, 4, 8]);
    }
}

fn arb_protocol() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::paper_ccnuma()),
        Just(Protocol::paper_scoma()),
        Just(Protocol::paper_rnuma()),
        // Small caches force evictions, relocations, and cross-shard
        // write-backs — the executor's hardest paths.
        Just(Protocol::CcNuma {
            block_cache_bytes: Some(256),
        }),
        Just(Protocol::SComa {
            page_cache_bytes: 4 * 4096,
        }),
        Just(Protocol::RNuma {
            block_cache_bytes: 128,
            page_cache_bytes: 4 * 4096,
            threshold: 2,
        }),
    ]
}

proptest! {
    /// Randomized reference streams — random CPUs, a small shared page
    /// pool (heavy cross-shard traffic), random read/write mix, barriers
    /// — replay identically at 1, 2, and 4 shards on every protocol.
    #[test]
    fn random_streams_replay_identically(
        protocol in arb_protocol(),
        stream in prop::collection::vec(
            (0u16..32, 0u64..24, 0u64..128, 0u32..8),
            1..400,
        ),
    ) {
        let config = MachineConfig::paper_base(protocol);
        let mut ops = vec![TraceOp::ArmFirstTouch];
        for &(cpu, page, block, flags) in &stream {
            ops.push(TraceOp::Access {
                cpu: CpuId(cpu),
                va: Va(0x4000 + page * 4096 + block * 32),
                write: flags & 1 == 1,
            });
            if flags == 7 {
                ops.push(TraceOp::Barrier);
            }
        }
        let mut serial = Machine::new(config).expect("valid config");
        serial.apply_batch(&ops);
        let reference = serial.metrics();
        for shards in [1usize, 2, 4] {
            let mut sm =
                ShardedMachine::with_pool(config, shards, forced_pool()).expect("valid config");
            sm.set_parallel_threshold(16);
            sm.run_trace(&ops);
            prop_assert!(
                reference.replay_eq(&sm.metrics()),
                "random stream diverged at {} shards on {}",
                shards,
                protocol
            );
        }
    }
}
