//! Sweep grids, shard bookkeeping and report assembly — the declarative side
//! of the experiment engine.
//!
//! A [`SweepSpec`] describes a grid of `{family x scale x seed x attacker x
//! explainer x budget}` cells. This module owns everything about that grid
//! that does *not* execute experiments: the deterministic expansion into
//! [`PlannedCell`]s, the [`Shard`] arithmetic partitioning it, the
//! [`SweepCell`]/[`SweepReport`] result types, strict [`merge_shards`]
//! reassembly and the `--dry-run` plan renderer. Execution lives in
//! [`crate::engine`]: [`crate::engine::Engine::submit`] turns a spec into a
//! streaming session whose final [`SweepRun`] carries a [`ShardReport`] of
//! exactly these cells.
//!
//! **Sharding.** Every run is a [`Shard`] of the grid — the default is the
//! trivial shard `0/1`. A prepared cell belongs to the shard of its base
//! ([`Shard::owner_of`]), so `--shard 0/2` and `--shard 1/2` partition the
//! grid with no coordination and each base trains on exactly one shard.
//! Each shard emits a [`ShardReport`] carrying the spec and its content
//! hash; [`merge_shards`] validates a complete, non-overlapping, same-spec set
//! of shard reports and reassembles the exact [`SweepReport`] an unsharded
//! run produces — byte-identical, because the unsharded path itself goes
//! through the same merge of its single shard.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use geattack_scenarios::SweepSpec;

use crate::error::{GeError, Result};
use crate::evaluation::MeanStd;
use crate::registry::{builtin_attackers, builtin_explainers, AttackerRegistry, ExplainerRegistry};
use crate::report::to_json;

/// One fully-specified grid cell's results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepCell {
    /// Graph family (registry name).
    pub family: String,
    /// Dataset scale of this cell.
    pub scale: f64,
    /// Seed of this cell.
    pub seed: u64,
    /// Inspector explainer display name.
    pub explainer: String,
    /// Attacker display name.
    pub attacker: String,
    /// Budget label (`degree` or the fixed edge count).
    pub budget: String,
    /// Node count of the generated graph (after LCC).
    pub nodes: usize,
    /// Undirected edge count of the generated graph.
    pub edges: usize,
    /// Victims actually attacked in this cell.
    pub victims: usize,
    /// Attack success rate toward any wrong label.
    pub asr: f64,
    /// Attack success rate toward the assigned target label.
    pub asr_t: f64,
    /// Mean Precision@K of adversarial-edge detection.
    pub precision: f64,
    /// Mean Recall@K.
    pub recall: f64,
    /// Mean F1@K.
    pub f1: f64,
    /// Mean NDCG@K.
    pub ndcg: f64,
}

/// Seed-aggregated results of one (family, scale, explainer, attacker, budget)
/// grid point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepAggregate {
    /// Graph family (registry name).
    pub family: String,
    /// Dataset scale.
    pub scale: f64,
    /// Inspector explainer display name.
    pub explainer: String,
    /// Attacker display name.
    pub attacker: String,
    /// Budget label.
    pub budget: String,
    /// Number of seeds aggregated (only cells with at least one victim count).
    pub seeds: usize,
    /// Total victims across seeds.
    pub victims: usize,
    /// ASR over seeds.
    pub asr: MeanStd,
    /// ASR-T over seeds.
    pub asr_t: MeanStd,
    /// Precision@K over seeds.
    pub precision: MeanStd,
    /// Recall@K over seeds.
    pub recall: MeanStd,
    /// F1@K over seeds.
    pub f1: MeanStd,
    /// NDCG@K over seeds.
    pub ndcg: MeanStd,
}

/// The aggregated artifact of one sweep run: the spec that produced it, every
/// raw cell in grid order, and the per-grid-point aggregates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepReport {
    /// Sweep name (from the spec).
    pub sweep: String,
    /// The spec that was executed (round-trips through JSON).
    pub spec: SweepSpec,
    /// Raw per-seed cells, in deterministic grid order.
    pub cells: Vec<SweepCell>,
    /// Seed-aggregated grid points, in deterministic grid order.
    pub aggregates: Vec<SweepAggregate>,
}

impl SweepReport {
    /// Serializes the report as deterministic pretty JSON.
    pub fn to_json(&self) -> String {
        to_json(self)
    }

    /// Renders a compact markdown summary of the aggregates.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## Sweep `{}`\n\n", self.sweep);
        out.push_str(
            "| Family | Scale | Explainer | Attacker | Budget | Victims | ASR-T (%) | F1@K (%) | NDCG@K (%) |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|---|\n");
        for a in &self.aggregates {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {:.2}±{:.2} | {:.2}±{:.2} | {:.2}±{:.2} |\n",
                a.family,
                a.scale,
                a.explainer,
                a.attacker,
                a.budget,
                a.victims,
                a.asr_t.mean * 100.0,
                a.asr_t.std * 100.0,
                a.f1.mean * 100.0,
                a.f1.std * 100.0,
                a.ndcg.mean * 100.0,
                a.ndcg.std * 100.0,
            ));
        }
        out
    }
}

/// One slice of a sharded sweep: shard `index` of `count` runs the prepared
/// cells [`Shard::owner_of`] assigns to `index`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// The trivial shard covering the whole grid.
    pub const FULL: Shard = Shard { index: 0, count: 1 };

    /// Parses the `I/N` form of `--shard` (zero-based: `0/2` and `1/2` are
    /// the two halves of a two-way split).
    pub fn parse(s: &str) -> Result<Self> {
        let (index, count) = s
            .split_once('/')
            .ok_or_else(|| GeError::Shard(format!("shard must look like I/N (zero-based), got `{s}`")))?;
        let parse = |part: &str, what: &str| {
            part.trim()
                .parse::<usize>()
                .map_err(|_| GeError::Shard(format!("shard {what} must be an integer, got `{part}`")))
        };
        let shard = Shard {
            index: parse(index, "index")?,
            count: parse(count, "count")?,
        };
        shard.validate()?;
        Ok(shard)
    }

    /// Checks the index addresses one of `count` shards.
    pub fn validate(&self) -> Result<()> {
        if self.count == 0 {
            return Err(GeError::Shard("shard count must be at least 1".to_string()));
        }
        if self.index >= self.count {
            return Err(GeError::Shard(format!(
                "shard index {} out of range for {} shards (indices are zero-based)",
                self.index, self.count
            )));
        }
        Ok(())
    }

    /// Index of the shard, out of `count`, that runs `cell`: its base's grid
    /// index modulo `count`. All explainer cells of one base land on one
    /// shard, so a split trains (or decodes) each base once. This is the
    /// only statement of the ownership rule: planning, execution, merging
    /// and the `--dry-run` plan all call it.
    pub fn owner_of(cell: &PlannedCell, count: usize) -> usize {
        cell.base % count
    }

    /// Whether this shard runs `cell`.
    pub fn owns(&self, cell: &PlannedCell) -> bool {
        Self::owner_of(cell, self.count) == self.index
    }

    /// Display form (`0/2`).
    pub fn label(&self) -> String {
        format!("{}/{}", self.index, self.count)
    }
}

/// The raw output of one shard's execution: everything [`merge_shards`] needs
/// to validate and reassemble the full report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShardReport {
    /// Sweep name (from the spec).
    pub sweep: String,
    /// Content hash of the spec (shards of one sweep must agree).
    pub spec_hash: String,
    /// Zero-based index of this shard.
    pub shard_index: usize,
    /// Total number of shards in the split.
    pub shard_count: usize,
    /// The spec the shard executed.
    pub spec: SweepSpec,
    /// This shard's result cells, in deterministic grid order.
    pub cells: Vec<SweepCell>,
}

impl ShardReport {
    /// Serializes the shard report as deterministic pretty JSON.
    pub fn to_json(&self) -> String {
        to_json(self)
    }

    /// Parses a shard report from JSON text.
    pub fn from_json(text: &str) -> Result<Self> {
        serde_json::from_str(text).map_err(|e| GeError::Shard(format!("invalid shard report: {e}")))
    }
}

/// One finished sweep execution: the shard report plus run-level metadata
/// (cache counters, session timing) for the `.meta.json` sidecar.
#[derive(Clone, Debug)]
pub struct SweepRun {
    /// The cells this run produced, as a shard report (`0/1` when unsharded).
    pub shard: ShardReport,
    /// Cache counters, when a cache directory was in use.
    pub cache: Option<geattack_cache::CacheCounters>,
    /// Aggregated session timing: the prepared-cell count (== cache hits +
    /// misses when caching), per-phase totals and the per-cell latency
    /// distribution.
    pub telemetry: crate::telemetry::SweepTelemetry,
}

impl SweepRun {
    /// Renders the run's metadata sidecar (spec hash, shard, prepared-cell
    /// count, cache counters, aggregated timing) as pretty JSON. This lives
    /// *next to* the report instead of inside it so cold and warm runs stay
    /// byte-identical on the report while still surfacing their cache and
    /// timing behavior.
    pub fn meta_json(&self) -> String {
        use serde::Value;
        let shard = if self.shard.shard_count == 1 {
            Value::Null
        } else {
            Value::String(format!("{}/{}", self.shard.shard_index, self.shard.shard_count))
        };
        let meta = Value::Object(vec![
            ("sweep".to_string(), Value::String(self.shard.sweep.clone())),
            ("spec_hash".to_string(), Value::String(self.shard.spec_hash.clone())),
            ("shard".to_string(), shard),
            (
                "prepared_cells".to_string(),
                Value::Number(self.telemetry.planned_cells as f64),
            ),
            ("result_cells".to_string(), Value::Number(self.shard.cells.len() as f64)),
            ("cache".to_string(), crate::telemetry::cache_value(self.cache)),
            ("telemetry".to_string(), serde_json::to_value(&self.telemetry)),
        ]);
        serde_json::to_string_pretty(&meta).expect("metadata always serializes")
    }
}

/// One (family, scale, seed, explainer) preparation unit of the grid, at its
/// deterministic grid position. This is both the scheduler's work unit and
/// the `Planned` payload of the engine's event stream.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedCell {
    /// Deterministic grid position.
    pub position: usize,
    /// Grid index of the cell's base (graph, split, GCN, victims): the
    /// position of its (family, scale, seed) triple. Every other input of
    /// the base is spec-wide, so the cells that differ only in their
    /// explainer share it. Shard ownership follows it ([`Shard::owner_of`]).
    pub base: usize,
    /// Graph family (canonical registry name).
    pub family: String,
    /// Dataset scale of this cell.
    pub scale: f64,
    /// Seed of this cell.
    pub seed: u64,
    /// Inspector explainer display name.
    pub explainer: String,
}

/// The spec's attacker/explainer axes resolved against a registry pair: the
/// plugins themselves plus their display names, both in axis order.
pub(crate) struct ResolvedAxes {
    pub attackers: Vec<String>,
    pub explainers: Vec<String>,
    pub attacker_plugins: Vec<std::sync::Arc<dyn crate::registry::AttackerPlugin>>,
    pub explainer_plugins: Vec<std::sync::Arc<dyn crate::registry::ExplainerPlugin>>,
}

/// Resolves the spec's attacker/explainer name axes against a registry pair
/// (one lookup per name), rejecting unknown names, invalid parameters, alias
/// duplicates and attacker parameters that a paired explainer's cells cannot
/// honour.
pub(crate) fn resolve_axes(
    spec: &SweepSpec,
    attackers: &AttackerRegistry,
    explainers: &ExplainerRegistry,
) -> Result<ResolvedAxes> {
    let attacker_plugins: Vec<_> = spec
        .attackers
        .iter()
        .map(|name| attackers.resolve(name))
        .collect::<Result<_>>()?;
    let explainer_plugins: Vec<_> = spec
        .explainers
        .iter()
        .map(|name| explainers.resolve(name))
        .collect::<Result<_>>()?;
    let attacker_names: Vec<String> = attacker_plugins.iter().map(|p| p.name().to_string()).collect();
    let explainer_names: Vec<String> = explainer_plugins.iter().map(|p| p.name().to_string()).collect();
    // Spec validation rejects literal duplicates, but aliases ("fga-t" and
    // "fgat") only collide after resolution — duplicate kinds would run (and
    // aggregate) the same cells twice.
    for (axis, duplicated) in [
        ("attackers", has_duplicates(&attacker_names)),
        ("explainers", has_duplicates(&explainer_names)),
    ] {
        if duplicated {
            return Err(GeError::InvalidSpec(format!(
                "sweep axis `{axis}` lists the same {axis} under two aliases"
            )));
        }
    }
    for attacker in &attacker_plugins {
        for explainer in &explainer_plugins {
            attacker.validate_for(explainer.prepare_kind())?;
        }
    }
    Ok(ResolvedAxes {
        attackers: attacker_names,
        explainers: explainer_names,
        attacker_plugins,
        explainer_plugins,
    })
}

/// Expands the preparation grid in deterministic order: family, scale, seed,
/// explainer (innermost). Shard assignment and merge reassembly both index
/// into this order, so it must never change silently.
pub(crate) fn expand_prep_cells(spec: &SweepSpec, explainers: &[String]) -> Vec<PlannedCell> {
    let mut prep_cells = Vec::with_capacity(spec.prepared_cells());
    let mut base = 0;
    for family in &spec.families {
        for &scale in &spec.scales {
            for &seed in &spec.seeds {
                for explainer in explainers {
                    prep_cells.push(PlannedCell {
                        position: prep_cells.len(),
                        base,
                        family: geattack_scenarios::canonical(family),
                        scale,
                        seed,
                        explainer: explainer.clone(),
                    });
                }
                base += 1;
            }
        }
    }
    prep_cells
}

/// Combines a complete set of shard reports into the full [`SweepReport`],
/// resolving attacker/explainer names against the builtin registries. An
/// engine with custom registrations merges through
/// [`crate::engine::Engine::merge`] instead.
pub fn merge_shards(shards: &[ShardReport]) -> Result<SweepReport> {
    merge_shards_with(shards, builtin_attackers(), builtin_explainers())
}

/// [`merge_shards`] against an explicit registry pair.
///
/// Validation is strict, because a silently-wrong merge poisons every
/// downstream aggregate: the shards must share one sweep (same spec content
/// hash, which each embedded spec is re-checked against), agree on the shard
/// count, neither overlap nor leave an index missing, and carry exactly the
/// cells their grid slice predicts. Cells are reassembled in deterministic
/// grid order and re-aggregated, so merging the single `0/1` shard of an
/// unsharded run reproduces that run's report byte-for-byte — the unsharded
/// path itself goes through this function.
pub(crate) fn merge_shards_with(
    shards: &[ShardReport],
    attackers: &AttackerRegistry,
    explainers: &ExplainerRegistry,
) -> Result<SweepReport> {
    let first = shards
        .first()
        .ok_or_else(|| GeError::Shard("cannot merge zero shard reports".to_string()))?;
    let count = first.shard_count;
    for shard in shards {
        if shard.spec_hash != shard.spec.content_hash() {
            return Err(GeError::Shard(format!(
                "shard {}/{} embeds a spec that does not match its spec hash (corrupt or tampered report)",
                shard.shard_index, shard.shard_count
            )));
        }
        if shard.spec_hash != first.spec_hash || shard.sweep != first.sweep {
            return Err(GeError::Shard(format!(
                "shard {}/{} belongs to a different sweep (spec hash {} != {})",
                shard.shard_index, shard.shard_count, shard.spec_hash, first.spec_hash
            )));
        }
        if shard.shard_count != count {
            return Err(GeError::Shard(format!(
                "inconsistent shard counts: {} and {}",
                shard.shard_count, count
            )));
        }
        if shard.shard_index >= count {
            return Err(GeError::Shard(format!(
                "shard index {} out of range for {count} shards",
                shard.shard_index
            )));
        }
    }
    // Completeness needs one report per index, so a declared count beyond the
    // given reports is already a missing-shard error — checked *before* the
    // count-sized allocation so a corrupt report claiming 10^18 shards fails
    // cleanly instead of aborting on OOM.
    if count > shards.len() {
        return Err(GeError::Shard(format!(
            "missing shard reports: {count} shards declared, got {}",
            shards.len()
        )));
    }
    let mut by_index: Vec<Option<&ShardReport>> = vec![None; count];
    for shard in shards {
        if by_index[shard.shard_index].is_some() {
            return Err(GeError::Shard(format!(
                "overlapping shards: shard {}/{count} appears more than once",
                shard.shard_index
            )));
        }
        by_index[shard.shard_index] = Some(shard);
    }
    if let Some(missing) = by_index.iter().position(|s| s.is_none()) {
        return Err(GeError::Shard(format!("missing shard {missing}/{count}")));
    }

    let spec = &first.spec;
    spec.validate().map_err(GeError::InvalidSpec)?;
    let axes = resolve_axes(spec, attackers, explainers)?;
    let prep_cells = expand_prep_cells(spec, &axes.explainers);
    let block = spec.attackers.len() * spec.budgets.len();

    // Each shard must carry exactly the cells its slice of the prep grid
    // predicts: one block of (attacker x budget) cells per owned prep cell.
    for (index, shard) in by_index.iter().enumerate() {
        let shard = shard.expect("completeness checked above");
        let owned = prep_cells
            .iter()
            .filter(|cell| Shard::owner_of(cell, count) == index)
            .count();
        if shard.cells.len() != owned * block {
            return Err(GeError::Shard(format!(
                "shard {index}/{count} carries {} cells, expected {} ({} prepared cells x {block})",
                shard.cells.len(),
                owned * block,
                owned
            )));
        }
    }

    // Reassemble in grid order: each prep cell's block comes next from its
    // owner's cells, which every shard emits in grid order.
    let mut cursors = vec![0usize; count];
    let mut cells = Vec::with_capacity(prep_cells.len() * block);
    for prep in &prep_cells {
        let p = prep.position;
        let owner = Shard::owner_of(prep, count);
        let shard = by_index[owner].expect("completeness checked above");
        let start = cursors[owner];
        cursors[owner] += block;
        for cell in &shard.cells[start..start + block] {
            let matches = cell.family == prep.family
                && cell.scale.to_bits() == prep.scale.to_bits()
                && cell.seed == prep.seed
                && cell.explainer == prep.explainer;
            if !matches {
                return Err(GeError::Shard(format!(
                    "shard {owner}/{count} cell mismatch at grid position {p}: expected ({}, scale {}, seed {}, {}), found ({}, scale {}, seed {}, {})",
                    prep.family,
                    prep.scale,
                    prep.seed,
                    prep.explainer,
                    cell.family,
                    cell.scale,
                    cell.seed,
                    cell.explainer,
                )));
            }
            cells.push(cell.clone());
        }
    }

    let aggregates = aggregate_cells(spec, &axes.explainers, &axes.attackers, &cells);
    Ok(SweepReport {
        sweep: spec.name.clone(),
        spec: spec.clone(),
        cells,
        aggregates,
    })
}

/// Renders the enumerated cell plan (`--dry-run`): one line per prepared cell
/// with its shard assignment, without running anything. Resolution goes
/// through the given registries (the engine passes its own).
pub(crate) fn plan_lines_with(
    spec: &SweepSpec,
    shard: Option<&Shard>,
    attackers: &AttackerRegistry,
    explainers: &ExplainerRegistry,
) -> Result<Vec<String>> {
    spec.validate().map_err(GeError::InvalidSpec)?;
    let axes = resolve_axes(spec, attackers, explainers)?;
    if let Some(shard) = shard {
        shard.validate()?;
    }
    let prep_cells = expand_prep_cells(spec, &axes.explainers);
    let block = axes.attackers.len() * spec.budgets.len();
    let mut lines = vec![format!(
        "sweep `{}`: {} prepared cells x {} (attacker x budget) = {} result cells",
        spec.name,
        prep_cells.len(),
        block,
        prep_cells.len() * block
    )];
    for cell in &prep_cells {
        let p = cell.position;
        let mut line = format!(
            "[{p:>3}] {} scale={} seed={} {}",
            cell.family, cell.scale, cell.seed, cell.explainer
        );
        if let Some(shard) = shard {
            let owner = Shard::owner_of(cell, shard.count);
            line.push_str(&format!(
                "  -> shard {owner}/{} ({})",
                shard.count,
                if owner == shard.index { "run" } else { "skip" }
            ));
        }
        lines.push(line);
    }
    if let Some(shard) = shard {
        let owned = prep_cells.iter().filter(|c| shard.owns(c)).count();
        lines.push(format!(
            "shard {} runs {owned} of {} prepared cells ({} result cells)",
            shard.label(),
            prep_cells.len(),
            owned * block
        ));
    }
    Ok(lines)
}

/// Groups the raw cells over seeds, in deterministic grid order.
pub(crate) fn aggregate_cells(
    spec: &SweepSpec,
    explainers: &[String],
    attackers: &[String],
    cells: &[SweepCell],
) -> Vec<SweepAggregate> {
    let mut aggregates = Vec::new();
    for family in &spec.families {
        let family = geattack_scenarios::canonical(family);
        for &scale in &spec.scales {
            for explainer in explainers {
                for attacker in attackers {
                    for &budget in &spec.budgets {
                        // Cells whose victim selection came up empty carry
                        // artificial all-zero scores; they stay in the raw
                        // cell list (self-describing, victims = 0) but would
                        // corrupt the mean/std here, so they do not
                        // contribute to aggregates.
                        let group: Vec<&SweepCell> = cells
                            .iter()
                            .filter(|c| {
                                c.victims > 0
                                    && c.family == family
                                    && c.scale == scale
                                    && &c.explainer == explainer
                                    && &c.attacker == attacker
                                    && c.budget == budget.label()
                            })
                            .collect();
                        if group.is_empty() {
                            continue;
                        }
                        let stat =
                            |f: fn(&SweepCell) -> f64| MeanStd::of(&group.iter().map(|c| f(c)).collect::<Vec<_>>());
                        aggregates.push(SweepAggregate {
                            family: family.clone(),
                            scale,
                            explainer: explainer.clone(),
                            attacker: attacker.clone(),
                            budget: budget.label(),
                            seeds: group.len(),
                            victims: group.iter().map(|c| c.victims).sum(),
                            asr: stat(|c| c.asr),
                            asr_t: stat(|c| c.asr_t),
                            precision: stat(|c| c.precision),
                            recall: stat(|c| c.recall),
                            f1: stat(|c| c.f1),
                            ndcg: stat(|c| c.ndcg),
                        });
                    }
                }
            }
        }
    }
    aggregates
}

/// Estimated preparation cost of one cell: `(reference_nodes·scale)² · epochs`.
/// GCN training is the dominant cost and each of its epochs was `O(n²·f)` dense
/// (now `O(nnz·f)` sparse, which still grows superlinearly in `n` through nnz
/// and the `n×f` dense blocks), so `n²` keeps the *relative* order right — all
/// this estimate is used for.
pub fn estimated_cost(cell: &PlannedCell) -> f64 {
    let reference = geattack_scenarios::resolve(&cell.family)
        .map(|family| family.reference_nodes())
        .unwrap_or(500);
    let n = (reference as f64 * cell.scale).max(1.0);
    n * n * geattack_gnn::TrainConfig::default().epochs as f64
}

/// Execution order of the owned prep cells. Cells of one base share it
/// whatever their explainer, so the first cell of every base runs
/// before any base's second cell; within each of those rounds cells run by
/// estimated cost descending, ties in grid order (so equal-cost runs keep a
/// stable, deterministic schedule). A grid with one explainer is a single
/// round: pure cost order.
pub(crate) fn execution_order(cells: &[PlannedCell]) -> Vec<usize> {
    let mut seen: HashMap<usize, usize> = HashMap::new();
    let round: Vec<usize> = cells
        .iter()
        .map(|cell| {
            let count = seen.entry(cell.base).or_default();
            *count += 1;
            *count - 1
        })
        .collect();
    let cost: Vec<f64> = cells.iter().map(estimated_cost).collect();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by(|&a, &b| {
        round[a]
            .cmp(&round[b])
            .then(cost[b].partial_cmp(&cost[a]).unwrap_or(std::cmp::Ordering::Equal))
            .then(a.cmp(&b))
    });
    order
}

/// Whether `values` contains the same resolved kind twice.
fn has_duplicates<T: PartialEq>(values: &[T]) -> bool {
    values.iter().enumerate().any(|(i, v)| values[..i].contains(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::pipeline::ExplainerKind;
    use geattack_cache::CacheCounters;
    use geattack_scenarios::BudgetSpec;

    pub(crate) fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("unit", vec!["tree-cycles".to_string()], vec!["rna".to_string()]);
        spec.scales = vec![0.07];
        spec.seeds = vec![0];
        spec.victims = 3;
        spec
    }

    /// A two-prep-cell spec (2 seeds) whose cells are cheap to fabricate.
    fn two_seed_spec() -> SweepSpec {
        let mut spec = tiny_spec();
        spec.seeds = vec![0, 1];
        spec
    }

    fn fabricated_cell(seed: u64, victims: usize, asr: f64) -> SweepCell {
        SweepCell {
            family: "tree-cycles".to_string(),
            scale: 0.07,
            seed,
            explainer: "GNNExplainer".to_string(),
            attacker: "RNA".to_string(),
            budget: "degree".to_string(),
            nodes: 50,
            edges: 60,
            victims,
            asr,
            asr_t: asr,
            precision: 0.1,
            recall: 0.1,
            f1: 0.1,
            ndcg: 0.1,
        }
    }

    /// A consistent shard report over `two_seed_spec` holding the given cells.
    fn fabricated_shard(index: usize, count: usize, cells: Vec<SweepCell>) -> ShardReport {
        let spec = two_seed_spec();
        ShardReport {
            sweep: spec.name.clone(),
            spec_hash: spec.content_hash(),
            shard_index: index,
            shard_count: count,
            spec,
            cells,
        }
    }

    fn run_sweep(spec: &SweepSpec, serial: bool) -> Result<SweepReport> {
        Engine::new().serial(serial).run_report(spec)
    }

    #[test]
    fn unknown_attacker_and_explainer_are_rejected_before_running() {
        let mut spec = tiny_spec();
        spec.attackers = vec!["metattack".to_string()];
        let err = run_sweep(&spec, true).unwrap_err().to_string();
        assert!(err.contains("unknown attacker"), "{err}");
        let mut spec = tiny_spec();
        spec.explainers = vec!["shap".to_string()];
        let err = run_sweep(&spec, true).unwrap_err().to_string();
        assert!(err.contains("unknown explainer"), "{err}");
    }

    #[test]
    fn attacker_parameters_an_explainer_cell_lacks_are_rejected_at_submit() {
        let mut spec = tiny_spec();
        spec.attackers = vec!["geattack:inner_steps=2".to_string()];
        spec.explainers = vec!["gnnexplainer".to_string(), "pgexplainer".to_string()];
        let err = Engine::new().submit(spec.clone()).unwrap_err();
        assert!(matches!(err, GeError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("PG-GEAttack"), "{err}");
        // PG-GEAttack does have λ.
        spec.attackers = vec!["geattack:lambda=5".to_string()];
        assert!(Engine::new().plan(&spec, None).is_ok());
        // Duplicates are caught on display names: `20` and `20.0` are one λ.
        let mut spec = tiny_spec();
        spec.attackers = vec!["geattack:lambda=20".to_string(), "geattack:lambda=20.0".to_string()];
        assert!(Engine::new().submit(spec).is_err());
    }

    #[test]
    fn zero_victim_cells_are_excluded_from_aggregates() {
        let spec = two_seed_spec();
        // Seed 1 found no victims; its all-zero scores must not drag the mean.
        let cells = vec![fabricated_cell(0, 3, 1.0), fabricated_cell(1, 0, 0.0)];
        let aggregates = aggregate_cells(&spec, &["GNNExplainer".to_string()], &["RNA".to_string()], &cells);
        assert_eq!(aggregates.len(), 1);
        assert_eq!(aggregates[0].seeds, 1, "only the seed with victims counts");
        assert_eq!(aggregates[0].victims, 3);
        assert!((aggregates[0].asr.mean - 1.0).abs() < 1e-12);
        assert_eq!(aggregates[0].asr.std, 0.0);
    }

    #[test]
    fn two_seed_aggregates_carry_mean_and_population_std() {
        let spec = two_seed_spec();
        let cells = vec![fabricated_cell(0, 3, 1.0), fabricated_cell(1, 2, 0.0)];
        let aggregates = aggregate_cells(&spec, &["GNNExplainer".to_string()], &["RNA".to_string()], &cells);
        assert_eq!(aggregates.len(), 1);
        assert_eq!((aggregates[0].seeds, aggregates[0].victims), (2, 5));
        assert!((aggregates[0].asr.mean - 0.5).abs() < 1e-12);
        assert!((aggregates[0].asr.std - 0.5).abs() < 1e-12);
        assert!((aggregates[0].f1.mean - 0.1).abs() < 1e-12);
        assert_eq!(aggregates[0].f1.std, 0.0);
    }

    #[test]
    fn alias_duplicates_are_rejected_after_resolution() {
        // "fga-t" and "fgat" pass spec validation (different strings) but
        // resolve to the same attacker kind.
        let mut spec = tiny_spec();
        spec.attackers = vec!["fga-t".to_string(), "fgat".to_string()];
        let err = run_sweep(&spec, true).unwrap_err().to_string();
        assert!(err.contains("two aliases"), "{err}");
        let mut spec = tiny_spec();
        spec.explainers = vec!["gnnexplainer".to_string(), "gnn".to_string()];
        let err = run_sweep(&spec, true).unwrap_err().to_string();
        assert!(err.contains("two aliases"), "{err}");
    }

    #[test]
    fn tiny_sweep_produces_grid_ordered_cells_and_aggregates() {
        let mut spec = tiny_spec();
        spec.budgets = vec![BudgetSpec::Degree, BudgetSpec::Fixed(1)];
        let report = run_sweep(&spec, true).expect("sweep runs");
        assert_eq!(report.cells.len(), spec.total_cells());
        assert_eq!(report.cells[0].budget, "degree");
        assert_eq!(report.cells[1].budget, "1");
        assert_eq!(report.aggregates.len(), 2);
        assert_eq!(report.aggregates[0].seeds, 1);
        let md = report.to_markdown();
        assert!(md.contains("tree-cycles") && md.contains("RNA"), "{md}");
        let json = report.to_json();
        assert!(json.contains("\"aggregates\""));
    }

    #[test]
    fn execution_order_puts_expensive_cells_first_and_keeps_reports_in_grid_order() {
        let cell = |position: usize, family: &str, scale: f64, seed: u64| PlannedCell {
            position,
            base: position,
            family: family.to_string(),
            scale,
            seed,
            explainer: ExplainerKind::GnnExplainer.name().to_string(),
        };
        // Grid order interleaves small and large cells; execution must be by
        // estimated cost (≈ (reference_nodes·scale)²·epochs) descending.
        let cells = vec![
            cell(0, "tree-cycles", 0.08, 0), // ≈871·0.08 =  70 nodes
            cell(1, "tree-cycles", 0.4, 0),  // ≈871·0.40 = 348 nodes
            cell(2, "cora", 0.08, 0),        // ≈2485·0.08 = 199 nodes
            cell(3, "tree-cycles", 0.08, 1), // same cost as cell 0
        ];
        let order = execution_order(&cells);
        assert_eq!(order, [1, 2, 0, 3], "a GNNExplainer-only grid runs in pure cost order");
        assert_eq!(order[0], 1, "the scaled-up tree-cycles cell runs first");
        assert_eq!(order[1], 2, "the citation-scale cell runs second");
        assert_eq!(order[2..], [0, 3], "equal-cost cells keep grid order");

        // With two explainers, each base's cells (one per explainer) sit side
        // by side in grid order; every base's first cell must run before any
        // base's second, each round in cost order.
        let two: Vec<PlannedCell> = cells
            .iter()
            .flat_map(|c| {
                ExplainerKind::ALL.map(|kind| PlannedCell {
                    explainer: kind.name().to_string(),
                    ..c.clone()
                })
            })
            .enumerate()
            .map(|(position, c)| PlannedCell { position, ..c })
            .collect();
        let order = execution_order(&two);
        assert_eq!(order, [2, 4, 0, 6, 3, 5, 1, 7]);
        let first_cells: Vec<usize> = order[..4].iter().map(|&i| two[i].position / 2).collect();
        assert_eq!(
            first_cells,
            [1, 2, 0, 3],
            "the first round keeps the cost order of the bases"
        );
        assert!(order[..4].iter().all(|&i| two[i].explainer == "GNNExplainer"));
        assert!(order[4..].iter().all(|&i| two[i].explainer == "PGExplainer"));

        // End-to-end: a two-scale sweep re-sorts results back to grid order, so
        // the report enumerates scales exactly as the spec lists them.
        let mut spec = tiny_spec();
        spec.scales = vec![0.07, 0.12];
        let report = run_sweep(&spec, true).expect("sweep runs");
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].scale, 0.07, "grid order restored in the report");
        assert_eq!(report.cells[1].scale, 0.12);
    }

    #[test]
    fn shard_parse_accepts_valid_and_rejects_invalid_forms() {
        assert_eq!(Shard::parse("0/2").unwrap(), Shard { index: 0, count: 2 });
        assert_eq!(Shard::parse("1/2").unwrap(), Shard { index: 1, count: 2 });
        assert_eq!(Shard::parse("0/1").unwrap(), Shard::FULL);
        assert!(Shard::parse("2").unwrap_err().to_string().contains("I/N"));
        assert!(Shard::parse("a/b").unwrap_err().to_string().contains("integer"));
        assert!(Shard::parse("0/0").unwrap_err().to_string().contains("at least 1"));
        assert!(Shard::parse("2/2").unwrap_err().to_string().contains("zero-based"));
        assert!(Shard { index: 3, count: 2 }.validate().is_err());
        assert_eq!(Shard { index: 1, count: 3 }.label(), "1/3");
    }

    #[test]
    fn shard_ownership_partitions_the_grid() {
        let shards = [
            Shard { index: 0, count: 3 },
            Shard { index: 1, count: 3 },
            Shard { index: 2, count: 3 },
        ];
        let mut spec = tiny_spec();
        spec.seeds = (0..7).collect();
        let explainers = ["GNNExplainer".to_string(), "PGExplainer".to_string()];
        let two = expand_prep_cells(&spec, &explainers);
        assert_eq!(two.len(), 14);
        for cell in &two {
            let owners: Vec<_> = shards.iter().filter(|s| s.owns(cell)).collect();
            assert_eq!(owners.len(), 1, "prep cell {} owned exactly once", cell.position);
            // A base's two explainer cells sit side by side in grid order and
            // land on the same shard.
            assert_eq!(cell.base, cell.position / 2);
            assert_eq!(owners[0].index, cell.base % 3);
        }
        // With one explainer every cell is its own base, so its owner is its
        // grid position modulo N.
        for cell in expand_prep_cells(&spec, &explainers[..1]) {
            assert_eq!(Shard::owner_of(&cell, 3), cell.position % 3);
        }
    }

    #[test]
    fn merge_rejects_overlapping_shards() {
        let a = fabricated_shard(0, 2, vec![fabricated_cell(0, 3, 1.0)]);
        let err = merge_shards(&[a.clone(), a]).unwrap_err().to_string();
        assert!(err.contains("overlapping"), "{err}");
    }

    #[test]
    fn merge_detects_missing_shards() {
        let a = fabricated_shard(0, 2, vec![fabricated_cell(0, 3, 1.0)]);
        let err = merge_shards(&[a]).unwrap_err().to_string();
        assert!(err.contains("missing shard"), "{err}");
        assert!(merge_shards(&[]).unwrap_err().to_string().contains("zero shard"));
        // An absurd declared count must error before allocating count slots.
        let huge = fabricated_shard(0, usize::MAX / 2, vec![fabricated_cell(0, 3, 1.0)]);
        let err = merge_shards(&[huge]).unwrap_err().to_string();
        assert!(err.contains("missing shard reports"), "{err}");
    }

    #[test]
    fn merge_rejects_spec_hash_mismatches() {
        let a = fabricated_shard(0, 2, vec![fabricated_cell(0, 3, 1.0)]);
        let mut b = fabricated_shard(1, 2, vec![fabricated_cell(1, 3, 0.5)]);
        // A shard of a *different* spec: consistent in itself (hash matches its
        // own spec) but not mergeable with `a`.
        b.spec.victims += 1;
        b.spec_hash = b.spec.content_hash();
        let err = merge_shards(&[a.clone(), b]).unwrap_err().to_string();
        assert!(err.contains("different sweep"), "{err}");

        // A tampered shard whose embedded spec no longer matches its hash.
        let mut tampered = fabricated_shard(1, 2, vec![fabricated_cell(1, 3, 0.5)]);
        tampered.spec_hash = "0".repeat(32);
        let err = merge_shards(&[a, tampered]).unwrap_err().to_string();
        assert!(err.contains("does not match its spec hash"), "{err}");
    }

    #[test]
    fn merge_rejects_inconsistent_counts_and_wrong_cell_counts() {
        let a = fabricated_shard(0, 2, vec![fabricated_cell(0, 3, 1.0)]);
        let b = fabricated_shard(1, 3, vec![fabricated_cell(1, 3, 0.5)]);
        assert!(merge_shards(&[a.clone(), b])
            .unwrap_err()
            .to_string()
            .contains("inconsistent shard counts"));

        // Shard 1 claims both prep cells' results: wrong cell count.
        let overfull = fabricated_shard(1, 2, vec![fabricated_cell(0, 3, 1.0), fabricated_cell(1, 3, 0.5)]);
        let err = merge_shards(&[a.clone(), overfull]).unwrap_err().to_string();
        assert!(err.contains("expected 1"), "{err}");

        // Right count, wrong identity: shard 1 carries seed 0's cell.
        let misplaced = fabricated_shard(1, 2, vec![fabricated_cell(0, 3, 0.5)]);
        let err = merge_shards(&[a, misplaced]).unwrap_err().to_string();
        assert!(err.contains("cell mismatch"), "{err}");
    }

    #[test]
    fn empty_shard_merges_cleanly() {
        // 2 prep cells split 3 ways: shard 2/3 owns nothing.
        let spec = two_seed_spec();
        let shard = |index: usize, cells: Vec<SweepCell>| ShardReport {
            sweep: spec.name.clone(),
            spec_hash: spec.content_hash(),
            shard_index: index,
            shard_count: 3,
            spec: spec.clone(),
            cells,
        };
        let report = merge_shards(&[
            shard(0, vec![fabricated_cell(0, 3, 1.0)]),
            shard(1, vec![fabricated_cell(1, 2, 0.5)]),
            shard(2, Vec::new()),
        ])
        .expect("empty shard merges");
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].seed, 0);
        assert_eq!(report.cells[1].seed, 1);
        assert_eq!(report.aggregates.len(), 1);
        assert_eq!(report.aggregates[0].seeds, 2);
    }

    #[test]
    fn merging_the_single_full_shard_reproduces_the_report() {
        let spec = tiny_spec();
        let run = Engine::new().serial(true).run(&spec, None).expect("runs");
        assert_eq!(run.telemetry.planned_cells, 1);
        assert!(run.cache.is_none());
        let merged = merge_shards(std::slice::from_ref(&run.shard)).expect("merges");
        let direct = run_sweep(&spec, true).expect("runs");
        assert_eq!(merged.to_json(), direct.to_json());
    }

    #[test]
    fn shard_report_round_trips_through_json() {
        let report = fabricated_shard(0, 2, vec![fabricated_cell(0, 3, 1.0)]);
        let back = ShardReport::from_json(&report.to_json()).expect("round-trips");
        assert_eq!(back.spec_hash, report.spec_hash);
        assert_eq!(back.shard_index, 0);
        assert_eq!(back.shard_count, 2);
        assert_eq!(back.cells.len(), 1);
        assert_eq!(back.spec, report.spec);
        assert!(ShardReport::from_json("{}").is_err());
    }

    #[test]
    fn plan_lines_enumerate_cells_and_shard_assignments() {
        let engine = Engine::new();
        let spec = two_seed_spec();
        let lines = engine.plan_lines(&spec, None).expect("plans");
        assert_eq!(lines.len(), 3, "header + one line per prep cell");
        assert!(lines[0].contains("2 prepared cells"), "{}", lines[0]);
        assert!(lines[1].contains("tree-cycles") && lines[1].contains("seed=0"));
        assert!(!lines[1].contains("shard"), "no shard column without --shard");

        let shard = Shard { index: 1, count: 2 };
        let lines = engine.plan_lines(&spec, Some(&shard)).expect("plans");
        assert_eq!(lines.len(), 4, "header + cells + shard summary");
        assert!(lines[1].contains("shard 0/2 (skip)"), "{}", lines[1]);
        assert!(lines[2].contains("shard 1/2 (run)"), "{}", lines[2]);
        assert!(lines[3].contains("runs 1 of 2"), "{}", lines[3]);

        // Both explainer cells of seed 1's base go to shard 1.
        let mut both = spec.clone();
        both.explainers = vec!["gnnexplainer".to_string(), "pgexplainer".to_string()];
        let lines = engine.plan_lines(&both, Some(&shard)).expect("plans");
        assert_eq!(lines.len(), 6, "header + 4 cells + shard summary");
        assert!(
            lines[1].contains("seed=0 GNNExplainer  -> shard 0/2 (skip)"),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].contains("seed=0 PGExplainer  -> shard 0/2 (skip)"),
            "{}",
            lines[2]
        );
        assert!(
            lines[3].contains("seed=1 GNNExplainer  -> shard 1/2 (run)"),
            "{}",
            lines[3]
        );
        assert!(
            lines[4].contains("seed=1 PGExplainer  -> shard 1/2 (run)"),
            "{}",
            lines[4]
        );
        assert!(lines[5].contains("runs 2 of 4"), "{}", lines[5]);

        let mut bad = spec;
        bad.attackers = vec!["metattack".to_string()];
        assert!(engine.plan_lines(&bad, None).is_err());
    }

    #[test]
    fn meta_json_reports_shard_cache_and_telemetry_state() {
        let mut telemetry = crate::telemetry::SweepTelemetry {
            planned_cells: 1,
            ..Default::default()
        };
        telemetry.phase_totals.attack_ms = 12.3456789;
        let run = SweepRun {
            shard: fabricated_shard(1, 2, vec![fabricated_cell(1, 3, 0.5)]),
            cache: Some(CacheCounters {
                hits: 2,
                misses: 1,
                evictions: 0,
            }),
            telemetry,
        };
        let meta = run.meta_json();
        assert!(meta.contains("\"shard\": \"1/2\""), "{meta}");
        assert!(meta.contains("\"hits\": 2"), "{meta}");
        assert!(meta.contains("\"prepared_cells\": 1"), "{meta}");
        assert!(meta.contains("\"attack\": 12.346"), "timing rounds to µs: {meta}");
        assert!(meta.contains("\"cell_latency_ms\""), "{meta}");

        let full = SweepRun {
            shard: fabricated_shard(0, 1, Vec::new()),
            cache: None,
            telemetry: Default::default(),
        };
        let meta = full.meta_json();
        assert!(meta.contains("\"shard\": null"), "{meta}");
        assert!(meta.contains("\"cache\": null"), "{meta}");
    }
}
