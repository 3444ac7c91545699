//! Executes a declarative scenario sweep: a JSON [`SweepSpec`] naming a grid of
//! `{family x scale x seed x attacker x explainer x budget}` cells.
//!
//! ```text
//! cargo run --release -p geattack-bench --bin geattack-sweep -- examples/sweeps/quick.json \
//!     [--serial] [--shard I/N] [--cache-dir DIR] [--dry-run] [--list-families]
//! ```
//!
//! This binary is a thin client of [`geattack_core::engine::Engine`]: it
//! parses the spec, submits one sweep session, prints progress from the
//! session's [`CellEvent`] stream, and writes the same artifacts as ever —
//! `results/sweep_<name>.json` (or the `.shard<I>of<N>.json` partial) plus the
//! `.meta.json` sidecar. The engine owns the cache, the cost-ordered schedule
//! and the shard slicing; reports are byte-identical to pre-engine runs.
//!
//! Distribution flags:
//!
//! * `--shard I/N` runs only the prepared cells of the bases (family, scale,
//!   seed) that shard `I` of `N` owns (zero-based; see `Shard::owner_of`),
//!   so every base trains on one shard, and writes a *partial* report
//!   (`results/sweep_<name>.shard<I>of<N>.json`) for `geattack-merge`, which
//!   reassembles the byte-identical full report from a complete shard set.
//! * `--cache-dir DIR` memoizes prepared experiments on disk: a warm re-run
//!   decodes them instead of retraining and still writes a byte-identical
//!   report. Hit/miss/evict counters land in the `.meta.json` sidecar.
//! * `--cache-budget-mb N` keeps that directory under `N` MiB by pruning the
//!   oldest-mtime entries after each write (`geattack-cache gc` runs the same
//!   pruning offline).
//! * `--telemetry PATH` writes an NDJSON span trace of the run (one line per
//!   closed cell/phase-level span: preparation, each attacker x budget run,
//!   cache and codec activity). Tracing never changes the report bytes.
//! * `--dry-run` prints the enumerated cell plan (with shard assignments when
//!   `--shard` is given) without running anything.
//! * `--list-families` prints Table 3: every registered family's statistics
//!   at `--scale` (default 0.25; `--scale 1` for the paper's sizes) and
//!   `--seed`.
//!
//! The shared flags override the spec's axes ([`Options::apply_to`]).

use geattack_bench::cli::{write_json_or_exit, Options};
use geattack_bench::render::family_statistics;
use geattack_core::engine::{CellEvent, Engine};
use geattack_scenarios::SweepSpec;

fn main() {
    let parsed = Options::parse_sweep("SWEEP_SPEC.json");
    if parsed.options.list_families {
        let options = &parsed.options;
        let scale = options.scale.unwrap_or(0.25);
        if !(scale > 0.0 && scale <= 1.0) {
            eprintln!("--scale {scale} out of (0, 1]");
            std::process::exit(2);
        }
        print!("{}", family_statistics(scale, options.seed));
        return;
    }
    if parsed.options.cache_budget_mb.is_some() && parsed.options.cache_dir.is_none() {
        eprintln!("--cache-budget-mb requires --cache-dir (there is no cache to bound otherwise)");
        std::process::exit(2);
    }
    let [spec_path] = parsed.positional.as_slice() else {
        eprintln!("expected exactly one sweep spec path, got {:?}", parsed.positional);
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(spec_path).unwrap_or_else(|e| {
        eprintln!("cannot read {spec_path}: {e}");
        std::process::exit(2);
    });
    let mut spec = SweepSpec::from_json(&text).unwrap_or_else(|e| {
        eprintln!("{spec_path}: {e}");
        std::process::exit(2);
    });
    parsed.options.apply_to(&mut spec);
    spec.validate().unwrap_or_else(|e| {
        eprintln!("{spec_path} (after flag overrides): {e}");
        std::process::exit(2);
    });

    let mut engine = Engine::new().serial(parsed.options.serial);

    if parsed.options.dry_run {
        // Plans only need the registries — never touch (or create) the cache.
        let lines = engine
            .plan_lines(&spec, parsed.options.shard.as_ref())
            .unwrap_or_else(|e| {
                eprintln!("{spec_path}: {e}");
                std::process::exit(2);
            });
        for line in lines {
            println!("{line}");
        }
        return;
    }

    if let Some(dir) = &parsed.options.cache_dir {
        engine = engine
            .with_cache(dir.clone().into(), parsed.options.cache_budget_mb)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
    }

    if let Some(path) = &parsed.options.telemetry {
        let recorder = geattack_telemetry::NdjsonRecorder::create(path).unwrap_or_else(|e| {
            eprintln!("cannot open telemetry trace {path}: {e}");
            std::process::exit(2);
        });
        geattack_telemetry::install(std::sync::Arc::new(recorder));
    }

    eprintln!(
        "sweep `{}`: {} prepared cells, {} result cells{}",
        spec.name,
        spec.prepared_cells(),
        spec.total_cells(),
        match &parsed.options.shard {
            Some(shard) => format!(" (running shard {})", shard.label()),
            None => String::new(),
        }
    );

    let mut session = engine
        .submit_shard(spec.clone(), parsed.options.shard)
        .unwrap_or_else(|e| {
            eprintln!("sweep failed: {e}");
            std::process::exit(2);
        });
    let plan = session.plan().to_vec();
    for event in session.by_ref() {
        match event {
            CellEvent::Planned { .. } | CellEvent::Started { .. } => {}
            CellEvent::Finished { position, cells, .. } => {
                let cell = plan.iter().find(|c| c.position == position);
                // Degree-bucket budgets each attack their own victims.
                let nodes = cells.first().map_or(0, |c| c.nodes);
                let victims = cells.iter().map(|c| c.victims).max().unwrap_or(0);
                if let Some(cell) = cell {
                    eprintln!(
                        "[{} scale {} seed {} {}] prepared: {nodes} nodes, {victims} victims",
                        cell.family, cell.scale, cell.seed, cell.explainer
                    );
                }
                if victims == 0 {
                    eprintln!("  (no victims survived the FGA pre-pass; this seed is excluded from the aggregates)");
                }
            }
            CellEvent::Failed { position, error } => {
                eprintln!("[cell {position}] failed: {error}");
            }
        }
    }
    let run = session.wait().unwrap_or_else(|e| {
        eprintln!("sweep failed: {e}");
        std::process::exit(2);
    });
    if let Some(cache) = &run.cache {
        eprintln!(
            "cache: {} hits, {} misses, {} evictions over {} prepared cells",
            cache.hits, cache.misses, cache.evictions, run.telemetry.planned_cells
        );
    }

    let artifact = match &parsed.options.shard {
        Some(shard) => {
            let name = format!("sweep_{}.shard{}of{}", spec.name, shard.index, shard.count);
            let path = write_json_or_exit(&name, &run.shard.to_json());
            println!(
                "shard {} done: {} prepared cells, {} result cells (JSON written to {})",
                shard.label(),
                run.telemetry.planned_cells,
                run.shard.cells.len(),
                path.display()
            );
            println!(
                "merge a complete shard set with: geattack-merge results/sweep_{}.shard*.json",
                spec.name
            );
            name
        }
        None => {
            let report = engine.merge(std::slice::from_ref(&run.shard)).unwrap_or_else(|e| {
                eprintln!("sweep failed: {e}");
                std::process::exit(2);
            });
            print!("{}", report.to_markdown());
            let name = format!("sweep_{}", spec.name);
            let path = write_json_or_exit(&name, &report.to_json());
            println!("(JSON written to {})", path.display());
            name
        }
    };
    let meta_path = write_json_or_exit(&format!("{artifact}.meta"), &run.meta_json());
    eprintln!("(metadata written to {})", meta_path.display());
    if let Some(path) = &parsed.options.telemetry {
        geattack_telemetry::flush();
        eprintln!("(telemetry trace written to {path})");
    }
}
