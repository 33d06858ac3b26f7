//! E8 — Figure 8: R-NUMA's sensitivity to the relocation threshold.
//!
//! R-NUMA (128-B block cache, 320-KB page cache) at T ∈ {16, 64, 256,
//! 1024}, normalized to T = 64 per application.
//!
//! Runs execution-driven (`run_grid`): every cell of the grid is its
//! own simulation, so each machine's interleaving comes from its own
//! timing (`docs/SWEEP.md`).

use rnuma::config::Protocol;
use rnuma_bench::{apps, parse_scale, run_protocol_grid, save, TextTable};

const THRESHOLDS: [u32; 4] = [16, 64, 256, 1024];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);

    let protocols: Vec<Protocol> = THRESHOLDS
        .iter()
        .map(|&threshold| Protocol::RNuma {
            block_cache_bytes: 128,
            page_cache_bytes: 320 * 1024,
            threshold,
        })
        .collect();
    let grid = run_protocol_grid(apps(), &protocols, scale);

    let mut t =
        TextTable::new("application     T=16     T=64    T=256   T=1024   (normalized to T=64)");
    let mut csv = String::from("app,t16,t64,t256,t1024\n");
    for (app, row) in apps().iter().zip(&grid) {
        let cycles: Vec<f64> = row.iter().map(|r| r.cycles() as f64).collect();
        let base = cycles[1];
        let norm: Vec<f64> = cycles.iter().map(|c| c / base).collect();
        t.row(format!(
            "{app:12} {:8.2} {:8.2} {:8.2} {:8.2}",
            norm[0], norm[1], norm[2], norm[3]
        ));
        csv.push_str(&format!(
            "{app},{:.4},{:.4},{:.4},{:.4}\n",
            norm[0], norm[1], norm[2], norm[3]
        ));
    }
    let mut out = t.render();
    out.push_str(
        "\nPaper's reading: performance varies by at most ~27% for most\n\
         applications; cholesky, fmm, lu and ocean (large reuse-page\n\
         fractions) gain up to 25% from T=16.\n",
    );
    print!("{out}");
    save("fig8_threshold.txt", &out);
    save("fig8_threshold.csv", &csv);
}
