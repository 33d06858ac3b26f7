//! E7 — Figure 7: sensitivity of CC-NUMA and R-NUMA to cache sizes.
//!
//! CC-NUMA with 1-KB and 32-KB block caches; R-NUMA with (128 B,
//! 320 KB), (32 KB, 320 KB), and (128 B, 40 MB) block/page caches;
//! all normalized to the ideal infinite-block-cache machine.
//!
//! Runs execution-driven (`run_grid`): every cell of the grid is its
//! own simulation, so each machine's interleaving comes from its own
//! timing (`docs/SWEEP.md`).

use rnuma::config::Protocol;
use rnuma_bench::{apps, parse_scale, run_protocol_grid, save, TextTable};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);

    let configs: [(&str, Protocol); 5] = [
        (
            "CC b=1K",
            Protocol::CcNuma {
                block_cache_bytes: Some(1024),
            },
        ),
        ("CC b=32K", Protocol::paper_ccnuma()),
        ("RN b=128,p=320K", Protocol::paper_rnuma()),
        (
            "RN b=32K,p=320K",
            Protocol::RNuma {
                block_cache_bytes: 32 * 1024,
                page_cache_bytes: 320 * 1024,
                threshold: 64,
            },
        ),
        (
            "RN b=128,p=40M",
            Protocol::RNuma {
                block_cache_bytes: 128,
                page_cache_bytes: 40 * 1024 * 1024,
                threshold: 64,
            },
        ),
    ];

    // One parallel batch: ideal baseline first, then the five variants.
    let mut protocols = vec![Protocol::ideal()];
    protocols.extend(configs.iter().map(|&(_, p)| p));
    let grid = run_protocol_grid(apps(), &protocols, scale);

    let mut t =
        TextTable::new("application   CC b=1K   CC b=32K   RN 128/320K   RN 32K/320K   RN 128/40M");
    let mut csv = String::from("app,cc_1k,cc_32k,rn_128_320k,rn_32k_320k,rn_128_40m\n");
    for (app, row) in apps().iter().zip(&grid) {
        let ideal = row[0].cycles() as f64;
        let values: Vec<f64> = row[1..].iter().map(|r| r.cycles() as f64 / ideal).collect();
        t.row(format!(
            "{app:12} {:9.2} {:10.2} {:13.2} {:13.2} {:12.2}",
            values[0], values[1], values[2], values[3], values[4]
        ));
        csv.push_str(&format!(
            "{app},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            values[0], values[1], values[2], values[3], values[4]
        ));
    }
    let mut out = t.render();
    out.push_str(
        "\nPaper's reading: em3d/fft run well even at b=1K; barnes, moldyn,\n\
         raytrace need only a tiny block cache once the page cache holds\n\
         their reuse set; cholesky/fmm/radix want the 32-KB block cache;\n\
         lu/ocean overflow even that (CC-NUMA up to ~7x at b=1K), and\n\
         fmm/ocean/radix only settle with the 40-MB page cache.\n",
    );
    print!("{out}");
    save("fig7_cache.txt", &out);
    save("fig7_cache.csv", &csv);
}
