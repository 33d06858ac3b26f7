//! `synth-rw`: the benchmark's seeded read/write program.
//!
//! Written against the public `rnuma::program` API only. Each iteration
//! has three phases that load different parts of the machine:
//!
//! * **read-shared reuse** — every CPU re-reads blocks drawn from its
//!   node's hot set of reuse pages, which are homed all over the
//!   machine. A 32-KB block cache cannot hold the set but a 320-KB page
//!   cache can, so CC-NUMA refetches while S-COMA and R-NUMA hit locally.
//! * **write-shared producer/consumer** — each CPU rewrites its own
//!   mailbox page, then reads the mailbox of a peer on its own node and
//!   of a producer on another node: cache-to-cache transfers, directory
//!   invalidations and remote fetches.
//! * **private streaming** — each CPU reads and writes its own region,
//!   larger than its L1, so misses fill from node-local memory.
//!
//! The seed chooses which pages form each hot set, the block order of
//! every read, the producer each CPU consumes from, and the stream
//! offsets. The amount of work does not depend on the seed, so host
//! timings stay comparable across seeds while the simulated statistics
//! change with it.

use rnuma::program::{Runner, Workload};
use rnuma_mem::addr::{BLOCKS_PER_PAGE, BLOCK_BYTES, PAGE_BYTES};
use rnuma_sim::DetRng;
use std::ops::Range;

/// The paper machine's shape: 8 nodes × 4 CPUs.
const NODES: u64 = 8;
const CPUS_PER_NODE: u64 = 4;
const CPUS: u64 = NODES * CPUS_PER_NODE;
/// Reuse pages (1 MB), first-touched round-robin across nodes.
const REUSE_PAGES: u64 = 256;
/// Hot reuse pages per node: 256 KB, under the 320-KB page cache.
const HOT_PAGES: u64 = 64;
/// Reuse reads per CPU per iteration.
const REUSE_READS: u64 = 2048;
/// Mailbox pages per CPU (half the L1, so a fresh mailbox is still in
/// its producer's L1 when a same-node peer reads it).
const MAILBOX_PAGES: u64 = 1;
/// Private streaming pages per CPU (64 KB, eight times the L1).
const STREAM_PAGES: u64 = 16;
const ITERATIONS: usize = 16;
/// References per scheduler work item: small enough that the scheduler
/// interleaves CPUs within a phase in simulated-time order.
const CHUNK: u64 = 64;
/// Instructions of compute charged per reference.
const THINK: u64 = 4;

/// One CPU's generated inputs.
#[derive(Debug, Clone)]
struct CpuPlan {
    /// Byte offsets into the reuse region, in read order.
    reuse: Vec<u64>,
    /// The CPU on another node whose mailbox this CPU consumes.
    remote_producer: u64,
    /// The CPU on this node whose mailbox this CPU also consumes.
    local_peer: u64,
    /// Block index at which the private stream starts.
    stream_start: u64,
}

/// The seeded program. [`SynthRw::new`] builds every input up front, so
/// `run` only replays them onto the machine.
#[derive(Debug, Clone)]
pub struct SynthRw {
    plans: Vec<CpuPlan>,
}

impl SynthRw {
    /// Generates the program's inputs from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SynthRw {
        let mut rng = DetRng::seeded(seed);
        let hot: Vec<Vec<u64>> = (0..NODES)
            .map(|_| {
                let mut pages: Vec<u64> = (0..REUSE_PAGES).collect();
                rng.shuffle(&mut pages);
                pages.truncate(HOT_PAGES as usize);
                pages
            })
            .collect();
        let plans = (0..CPUS)
            .map(|cpu| {
                let node = cpu / CPUS_PER_NODE;
                let reuse = (0..REUSE_READS)
                    .map(|_| {
                        let page = hot[node as usize][rng.index(HOT_PAGES as usize)];
                        page * PAGE_BYTES + rng.range_u64(0, BLOCKS_PER_PAGE) * BLOCK_BYTES
                    })
                    .collect();
                let other = (node + rng.range_u64(1, NODES)) % NODES;
                let remote_producer = other * CPUS_PER_NODE + rng.range_u64(0, CPUS_PER_NODE);
                let local_peer =
                    node * CPUS_PER_NODE + (cpu + rng.range_u64(1, CPUS_PER_NODE)) % CPUS_PER_NODE;
                CpuPlan {
                    reuse,
                    remote_producer,
                    local_peer,
                    stream_start: rng.range_u64(0, STREAM_PAGES * BLOCKS_PER_PAGE),
                }
            })
            .collect();
        SynthRw { plans }
    }
}

/// Per-CPU work-item lists covering `n` references in `CHUNK`s.
fn chunks(n: u64) -> Vec<Vec<u64>> {
    (0..CPUS)
        .map(|_| (0..n.div_ceil(CHUNK)).collect())
        .collect()
}

/// The references of work item `k` out of `n`.
fn span(k: u64, n: u64) -> Range<u64> {
    (k * CHUNK)..((k + 1) * CHUNK).min(n)
}

impl Workload for SynthRw {
    fn name(&self) -> &'static str {
        "synth-rw"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        assert_eq!(
            u64::from(r.cpus()),
            CPUS,
            "synth-rw targets the paper machine"
        );
        let reuse = r.alloc(REUSE_PAGES * PAGE_BYTES);
        let mailboxes = r.alloc(CPUS * MAILBOX_PAGES * PAGE_BYTES);
        let streams = r.alloc(CPUS * STREAM_PAGES * PAGE_BYTES);
        let mailbox_blocks = MAILBOX_PAGES * BLOCKS_PER_PAGE;
        let stream_blocks = STREAM_PAGES * BLOCKS_PER_PAGE;
        let mailbox =
            move |cpu: u64, b: u64| mailboxes.at((cpu * mailbox_blocks + b) * BLOCK_BYTES);
        let stream = move |cpu: u64, b: u64| streams.at((cpu * stream_blocks + b) * BLOCK_BYTES);
        let plans = &self.plans;

        // Initialization: first touch homes reuse page p on node p % 8,
        // and every mailbox and stream on its owner's node.
        r.arm_first_touch();
        let one_each: Vec<Vec<u64>> = (0..CPUS).map(|c| vec![c]).collect();
        r.parallel(&one_each, |ctx, _cpu, c| {
            let node = c / CPUS_PER_NODE;
            if c % CPUS_PER_NODE == 0 {
                for page in (node..REUSE_PAGES).step_by(NODES as usize) {
                    ctx.write(reuse.at(page * PAGE_BYTES));
                }
            }
            for b in 0..mailbox_blocks {
                ctx.write(mailbox(c, b));
            }
            for b in 0..stream_blocks {
                ctx.write(stream(c, b));
            }
        });
        r.barrier();

        for _ in 0..ITERATIONS {
            r.parallel(&chunks(REUSE_READS), |ctx, cpu, k| {
                let plan = &plans[usize::from(cpu.0)];
                for i in span(k, REUSE_READS) {
                    ctx.read(reuse.at(plan.reuse[i as usize]));
                    ctx.think(THINK);
                }
            });
            r.barrier();
            r.parallel(&chunks(mailbox_blocks), |ctx, cpu, k| {
                for b in span(k, mailbox_blocks) {
                    ctx.write(mailbox(u64::from(cpu.0), b));
                    ctx.think(THINK);
                }
            });
            r.barrier();
            r.parallel(&chunks(2 * mailbox_blocks), |ctx, cpu, k| {
                let plan = &plans[usize::from(cpu.0)];
                for i in span(k, 2 * mailbox_blocks) {
                    let producer = if i < mailbox_blocks {
                        plan.local_peer
                    } else {
                        plan.remote_producer
                    };
                    ctx.read(mailbox(producer, i % mailbox_blocks));
                    ctx.think(THINK);
                }
            });
            r.barrier();
            r.parallel(&chunks(stream_blocks), |ctx, cpu, k| {
                let c = u64::from(cpu.0);
                let start = plans[usize::from(cpu.0)].stream_start;
                for i in span(k, stream_blocks) {
                    let va = stream(c, (start + i) % stream_blocks);
                    ctx.read(va);
                    ctx.write(va);
                    ctx.think(THINK);
                }
            });
            r.barrier();
        }
    }
}
