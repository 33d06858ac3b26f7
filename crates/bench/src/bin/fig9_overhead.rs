//! E9 — Figure 9: sensitivity of S-COMA and R-NUMA to page-fault and
//! TLB-invalidation overheads.
//!
//! Base systems assume 5-µs page faults and 0.5-µs hardware TLB
//! invalidation; the SOFT systems assume 10 µs and 5 µs (software
//! shootdowns via inter-processor interrupts), roughly tripling the
//! per-page overhead. All normalized to the ideal CC-NUMA.
//!
//! Runs execution-driven (`run_grid`): every cell of the grid is its
//! own simulation, so each machine's interleaving comes from its own
//! timing (`docs/SWEEP.md`).

use rnuma::config::{MachineConfig, Protocol};
use rnuma_bench::{apps, parse_scale, run_grid, save, TextTable};
use rnuma_os::CostModel;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);

    let soft = |protocol: Protocol| {
        let mut config = MachineConfig::paper_base(protocol);
        config.costs = CostModel::soft();
        config
    };

    let configs = [
        MachineConfig::paper_base(Protocol::ideal()),
        MachineConfig::paper_base(Protocol::paper_scoma()),
        soft(Protocol::paper_scoma()),
        MachineConfig::paper_base(Protocol::paper_rnuma()),
        soft(Protocol::paper_rnuma()),
    ];
    let grid = run_grid(apps(), &configs, scale);

    let mut t = TextTable::new(
        "application   S-COMA   S-COMA-SOFT   R-NUMA   R-NUMA-SOFT   (normalized to ideal)",
    );
    let mut csv = String::from("app,scoma,scoma_soft,rnuma,rnuma_soft\n");
    for (app, row) in apps().iter().zip(&grid) {
        let ideal = row[0].cycles() as f64;
        let sc = row[1].cycles() as f64 / ideal;
        let sc_soft = row[2].cycles() as f64 / ideal;
        let rn = row[3].cycles() as f64 / ideal;
        let rn_soft = row[4].cycles() as f64 / ideal;
        t.row(format!(
            "{app:12} {sc:8.2} {sc_soft:13.2} {rn:8.2} {rn_soft:13.2}"
        ));
        csv.push_str(&format!(
            "{app},{sc:.4},{sc_soft:.4},{rn:.4},{rn_soft:.4}\n"
        ));
    }
    let mut out = t.render();
    out.push_str(
        "\nPaper's reading: S-COMA's execution time grows by up to 3x under\n\
         the slower OS primitives (page-replacement-bound applications),\n\
         while R-NUMA-SOFT grows by at most ~25% (40% for lu, whose\n\
         replacements sit on the critical path).\n",
    );
    print!("{out}");
    save("fig9_overhead.txt", &out);
    save("fig9_overhead.csv", &csv);
}
