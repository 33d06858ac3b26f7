//! E6 — Figure 6: base-system execution times.
//!
//! CC-NUMA (32-KB block cache) vs S-COMA (320-KB page cache) vs R-NUMA
//! (128-B block cache, 320-KB page cache, threshold 64), normalized to
//! the ideal CC-NUMA with an infinite block cache. All 40
//! `(application, protocol)` simulations run in parallel across the
//! host's cores.
//!
//! Runs execution-driven (`run_grid`): every cell of the grid is its
//! own simulation, so each machine's interleaving comes from its own
//! timing (`docs/SWEEP.md`).

use rnuma::config::Protocol;
use rnuma_bench::{apps, bar, parse_scale, run_protocol_grid, save, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);

    let protocols = [
        Protocol::ideal(),
        Protocol::paper_ccnuma(),
        Protocol::paper_scoma(),
        Protocol::paper_rnuma(),
    ];
    let grid = run_protocol_grid(apps(), &protocols, scale);

    let mut t = TextTable::new("application   CC-NUMA   S-COMA   R-NUMA   (normalized to ideal)");
    let mut csv = String::from("app,ccnuma,scoma,rnuma\n");
    let mut chart = String::new();
    let mut worst_rnuma_gap: (f64, &str) = (0.0, "-");
    for (app, row) in apps().iter().zip(&grid) {
        let ideal = row[0].cycles() as f64;
        let cc = row[1].cycles() as f64 / ideal;
        let sc = row[2].cycles() as f64 / ideal;
        let rn = row[3].cycles() as f64 / ideal;
        t.row(format!("{app:12} {cc:8.2} {sc:8.2} {rn:8.2}"));
        csv.push_str(&format!("{app},{cc:.4},{sc:.4},{rn:.4}\n"));
        chart.push_str(&format!(
            "{app:>10} CC |{}\n{:>10} SC |{}\n{:>10} RN |{}\n",
            bar(cc, 10.0, 70),
            "",
            bar(sc, 10.0, 70),
            "",
            bar(rn, 10.0, 70),
        ));
        let gap = rn / cc.min(sc);
        if gap > worst_rnuma_gap.0 {
            worst_rnuma_gap = (gap, app);
        }
    }
    let mut out = t.render();
    out.push('\n');
    out.push_str(&chart);
    out.push_str(&format!(
        "\nR-NUMA's worst showing vs the better base protocol: +{:.0}% ({}).\n\
         Paper: R-NUMA is best or near-best for seven of ten applications\n\
         and never more than 57% worse than the better protocol; CC-NUMA\n\
         was up to 179% worse than S-COMA, S-COMA up to 315% worse than\n\
         CC-NUMA.\n",
        (worst_rnuma_gap.0 - 1.0) * 100.0,
        worst_rnuma_gap.1
    ));
    print!("{out}");
    save("fig6_base.txt", &out);
    save("fig6_base.csv", &csv);
}
