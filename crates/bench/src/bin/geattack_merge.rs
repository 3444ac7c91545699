//! Merges the partial reports of a sharded sweep into the full report.
//!
//! ```text
//! cargo run --release -p geattack-bench --bin geattack-merge -- results/sweep_quick.shard*.json
//! ```
//!
//! The inputs are the `results/sweep_<name>.shard<I>of<N>.json` files written
//! by `geattack-sweep --shard I/N`. The merge is strict: every shard must
//! carry the same spec content hash, the set must be complete (all `N`
//! indices, no duplicates) and each shard must hold exactly the cells its
//! grid slice predicts. The merged report is byte-identical to the report an
//! unsharded run of the same spec writes — the CI `shard-equivalence` job
//! `cmp`s the two — and lands in the same place, `results/sweep_<name>.json`.

use geattack_bench::cli::{paths_only, write_json_or_exit};
use geattack_core::sweep::{merge_shards, ShardReport};

fn main() {
    let paths = paths_only("geattack-merge SHARD_REPORT.json [SHARD_REPORT.json ...]");
    // A `results/sweep_<name>.shard*.json` glob also catches the `.meta.json`
    // sidecars the shard runs wrote next to their reports; skip them instead
    // of failing on the first one.
    let paths: Vec<String> = paths
        .into_iter()
        .filter(|path| {
            let is_meta = path.ends_with(".meta.json");
            if is_meta {
                eprintln!("skipping metadata sidecar {path}");
            }
            !is_meta
        })
        .collect();
    if paths.is_empty() {
        eprintln!("expected at least one shard report path");
        eprintln!("usage: geattack-merge SHARD_REPORT.json [SHARD_REPORT.json ...]");
        std::process::exit(2);
    }
    let shards: Vec<ShardReport> = paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            ShardReport::from_json(&text).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            })
        })
        .collect();
    for shard in &shards {
        eprintln!(
            "shard {}/{}: {} cells (sweep `{}`, spec {})",
            shard.shard_index,
            shard.shard_count,
            shard.cells.len(),
            shard.sweep,
            shard.spec_hash.get(..8).unwrap_or(&shard.spec_hash)
        );
    }
    let report = merge_shards(&shards).unwrap_or_else(|e| {
        eprintln!("merge failed: {e}");
        std::process::exit(2);
    });
    print!("{}", report.to_markdown());
    let path = write_json_or_exit(&format!("sweep_{}", report.sweep), &report.to_json());
    println!("(JSON written to {})", path.display());
}
