//! E5 — Table 4: block refetches and page replacements.
//!
//! Left column: the fraction of CC-NUMA block refetches due to pages
//! with both read and write sharing traffic. Right columns: R-NUMA's
//! block refetches as a percentage of CC-NUMA's and R-NUMA's page
//! replacements as a percentage of S-COMA's (base configurations,
//! threshold 64).
//!
//! Runs execution-driven (`run_grid`): every cell of the grid is its
//! own simulation, so each machine's interleaving comes from its own
//! timing (`docs/SWEEP.md`).

use rnuma::config::Protocol;
use rnuma_bench::{apps, parse_scale, run_protocol_grid, save, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);
    let mut t = TextTable::new(
        "application   CC-NUMA RW pages   R-NUMA refetches (% of CC)   R-NUMA replacements (% of S-COMA)",
    );
    let mut csv = String::from("app,rw_page_fraction,rnuma_refetch_pct,rnuma_replacement_pct\n");
    let grid = run_protocol_grid(
        apps(),
        &[
            Protocol::paper_ccnuma(),
            Protocol::paper_scoma(),
            Protocol::paper_rnuma(),
        ],
        scale,
    );
    for (app, row) in apps().iter().zip(&grid) {
        let (cc, sc, rn) = (&row[0], &row[1], &row[2]);

        let rw = cc.metrics.rw_page_refetch_fraction() * 100.0;
        let refetch_pct = if cc.metrics.refetches == 0 {
            f64::NAN
        } else {
            rn.metrics.refetches as f64 / cc.metrics.refetches as f64 * 100.0
        };
        let repl_pct = if sc.metrics.os.page_replacements == 0 {
            f64::NAN
        } else {
            rn.metrics.os.page_replacements as f64 / sc.metrics.os.page_replacements as f64 * 100.0
        };
        t.row(format!(
            "{app:12} {rw:14.0}% {refetch_pct:24.0}% {repl_pct:30.0}%"
        ));
        csv.push_str(&format!("{app},{rw:.4},{refetch_pct:.4},{repl_pct:.4}\n"));
    }
    let mut out = t.render();
    out.push_str(
        "\nPaper's Table 4 for comparison (RW / refetch% / replacement%):\n\
         barnes 97/21/2  cholesky 28/30/15  em3d 100/0/0  fmm 99/142/2\n\
         lu 82/21/70  moldyn 98/0/0  ocean 96/36/4  radix 15/125/1\n\
         raytrace 5/41/5  (fft omitted)\n",
    );
    print!("{out}");
    save("table4_traffic.txt", &out);
    save("table4_traffic.csv", &csv);
}
