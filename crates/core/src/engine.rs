//! The experiment engine: registry-driven, result-typed sweep execution with
//! a streaming session API.
//!
//! An [`Engine`] owns everything a long-lived host needs to execute sweep
//! specs repeatedly: the attacker/explainer [registries](crate::registry), an
//! optional shared [`CacheStore`] of prepared experiments, and the scheduling
//! policy (cost-ordered execution, shard slicing) that the `geattack-sweep`
//! binary used to hand-roll. Submitting a spec returns a [`SweepHandle`] — a
//! live session that streams [`CellEvent`]s as prepared cells complete, in
//! completion order, while the final [`SweepRun`] re-sorts every result back
//! to deterministic grid order so reports stay byte-identical run to run, in
//! parallel or serial, cold or warm, sharded or not.
//!
//! ```no_run
//! use geattack_core::engine::{CellEvent, Engine};
//! use geattack_scenarios::SweepSpec;
//!
//! let engine = Engine::new();
//! let spec = SweepSpec::new("demo", vec!["ba-shapes".into()], vec!["fga-t".into()]);
//! let mut session = engine.submit(spec).unwrap();
//! for event in session.by_ref() {
//!     if let CellEvent::Finished { position, cells, timing } = event {
//!         println!("cell {position}: {} results in {:.1} ms", cells.len(), timing.total_ms);
//!     }
//! }
//! let run = session.wait().unwrap(); // cells in grid order
//! # let _ = run;
//! ```
//!
//! Failures are per-cell: a cell whose preparation or attacker construction
//! fails surfaces as [`CellEvent::Failed`] and the session keeps executing
//! the remaining cells; [`SweepHandle::wait`] then returns
//! [`GeError::CellsFailed`] listing every failed position.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use geattack_cache::{CacheCounters, CacheStore};
use geattack_graph::FamilyConfig;
use geattack_scenarios::{BudgetSpec, SweepSpec};
use geattack_telemetry::{span_labeled, Counter, Histogram, Level, MetricsRegistry};

use crate::error::{CellFailure, GeError, Result};
use crate::evaluation::summarize_run;
use crate::persist::{prepare_base_cached, prepare_on_cached};
use crate::pipeline::{run_attacker, Base, BudgetRule, PipelineConfig, Prepared};
use crate::registry::{AttackerPlugin, AttackerRegistry, ExplainerPlugin, ExplainerRegistry};
use crate::sweep::{
    estimated_cost, execution_order, expand_prep_cells, merge_shards_with, plan_lines_with, resolve_axes, BaseId,
    PlannedCell, Shard, ShardReport, SweepCell, SweepReport, SweepRun,
};
use crate::targets::victims_with_degree;
use crate::telemetry::{CellTiming, LatencySummary, PhaseAccumulator, SweepTelemetry};

/// A shared cancellation flag for one sweep session. Cloning shares the flag;
/// setting it makes the session skip every cell that has not started yet —
/// each skipped cell surfaces as [`CellEvent::Failed`] with a
/// [`GeError::Cancelled`] error, and [`SweepHandle::wait`] returns
/// [`GeError::CellsFailed`] listing them. Cells already executing run to
/// completion (cancellation is cell-granular), so a cancelled session still
/// leaves the shared cache in a consistent state.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    reason: Arc<Mutex<String>>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the flag; every clone observes it. The first caller's reason wins.
    pub fn cancel(&self, reason: &str) {
        if let Ok(mut slot) = self.reason.lock() {
            if slot.is_empty() {
                *slot = reason.to_string();
            }
        }
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// The reason passed to the first [`CancelToken::cancel`] call
    /// (`"cancelled"` when cancelled without one, empty when not cancelled).
    pub fn reason(&self) -> String {
        let reason = self.reason.lock().map(|r| r.clone()).unwrap_or_default();
        if reason.is_empty() && self.is_cancelled() {
            "cancelled".to_string()
        } else {
            reason
        }
    }
}

/// One progress notification of a running sweep session.
///
/// Events arrive in *completion* order (the engine schedules the most
/// expensive cells first); `position` is always the deterministic grid
/// position, which is also what the final report is sorted by.
#[derive(Clone, Debug)]
pub enum CellEvent {
    /// Emitted once per owned prepared cell when the session starts, in grid
    /// order: the full execution plan.
    Planned {
        /// The planned preparation unit.
        cell: PlannedCell,
    },
    /// A prepared cell began executing (preparation + all its attack runs).
    Started {
        /// Grid position of the cell.
        position: usize,
    },
    /// A prepared cell finished: one result per (attacker x budget).
    Finished {
        /// Grid position of the cell.
        position: usize,
        /// The cell's results, in (attacker, budget) axis order.
        cells: Vec<SweepCell>,
        /// Per-phase wall-clock breakdown of the cell.
        timing: CellTiming,
    },
    /// A prepared cell failed. The session continues with the remaining cells.
    Failed {
        /// Grid position of the cell.
        position: usize,
        /// The structured cell error ([`GeError::kind`] classifies it).
        error: GeError,
    },
}

/// A live sweep session: an event stream plus the means to wait for the
/// assembled result. Iterate it (`for event in session.by_ref()`) to consume
/// events as cells complete, then call [`SweepHandle::wait`] for the final
/// [`SweepRun`]; calling `wait` without iterating first simply drains the
/// stream.
#[derive(Debug)]
pub struct SweepHandle {
    plan: Vec<PlannedCell>,
    events: Receiver<CellEvent>,
    worker: Option<JoinHandle<Result<SweepRun>>>,
}

impl SweepHandle {
    /// The owned prepared cells of this session, in grid order.
    pub fn plan(&self) -> &[PlannedCell] {
        &self.plan
    }

    /// Blocks for the next event; `None` once the session has emitted its
    /// last event.
    pub fn next_event(&mut self) -> Option<CellEvent> {
        self.events.recv().ok()
    }

    /// Drains any remaining events, joins the session and returns the
    /// assembled run (cells re-sorted to grid order). Errors with
    /// [`GeError::CellsFailed`] when any cell failed.
    pub fn wait(mut self) -> Result<SweepRun> {
        while self.next_event().is_some() {}
        let worker = self.worker.take().expect("wait consumes the handle");
        worker
            .join()
            .map_err(|_| GeError::Prepare("sweep session worker panicked".to_string()))?
    }
}

impl Iterator for SweepHandle {
    type Item = CellEvent;

    fn next(&mut self) -> Option<CellEvent> {
        self.next_event()
    }
}

/// Everything one session's worker needs, detached from the engine so the
/// engine itself stays borrow-free while sessions run.
struct SessionContext {
    spec: SweepSpec,
    shard: Shard,
    owned: Vec<PlannedCell>,
    attackers: Vec<Arc<dyn AttackerPlugin>>,
    explainers: Vec<Arc<dyn ExplainerPlugin>>,
    cache: Option<Arc<CacheStore>>,
    metrics: Arc<MetricsRegistry>,
    serial: bool,
    cancel: CancelToken,
}

/// The registry-driven, result-typed experiment core.
///
/// Construction is cheap; the expensive state (the prepared-experiment cache)
/// is shared across every session the engine runs, which is what lets the
/// `geattack-serve` daemon reuse preparations across requests.
#[derive(Clone)]
pub struct Engine {
    attackers: AttackerRegistry,
    explainers: ExplainerRegistry,
    cache: Option<Arc<CacheStore>>,
    metrics: Arc<MetricsRegistry>,
    serial: bool,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with the paper's builtin attacker/explainer registrations,
    /// no cache, parallel execution.
    pub fn new() -> Self {
        Engine {
            attackers: AttackerRegistry::builtin(),
            explainers: ExplainerRegistry::builtin(),
            cache: None,
            metrics: Arc::new(MetricsRegistry::new()),
            serial: false,
        }
    }

    /// Forces single-threaded execution (results are identical either way).
    pub fn serial(mut self, serial: bool) -> Self {
        self.serial = serial;
        self
    }

    /// Attaches an on-disk prepared-experiment cache, optionally bounded to
    /// `budget_mb` MiB (oldest-mtime entries are pruned after each write).
    pub fn with_cache(mut self, dir: PathBuf, budget_mb: Option<u64>) -> Result<Self> {
        let store = CacheStore::open_with_budget(dir, budget_mb.map(|mb| mb.saturating_mul(1024 * 1024)))
            .map_err(GeError::Cache)?;
        self.cache = Some(Arc::new(store));
        Ok(self)
    }

    /// Registers a custom attacker (rejecting name collisions).
    pub fn register_attacker(&mut self, plugin: Arc<dyn AttackerPlugin>) -> Result<()> {
        self.attackers.register(plugin)
    }

    /// Registers a custom explainer (rejecting name collisions).
    pub fn register_explainer(&mut self, plugin: Arc<dyn ExplainerPlugin>) -> Result<()> {
        self.explainers.register(plugin)
    }

    /// Display names of every registered attacker.
    pub fn attacker_names(&self) -> Vec<String> {
        self.attackers.names()
    }

    /// Display names of every registered explainer.
    pub fn explainer_names(&self) -> Vec<String> {
        self.explainers.names()
    }

    /// Counters of the shared cache, when one is attached. Counters accumulate
    /// over every session this engine ran.
    pub fn cache_counters(&self) -> Option<CacheCounters> {
        self.cache.as_ref().map(|c| c.counters())
    }

    /// Snapshot of the shared cache's metrics registry (`cache.*` counters
    /// plus `persist.bytes_encoded/decoded`), when a cache is attached.
    pub fn cache_metrics(&self) -> Option<geattack_telemetry::MetricsSnapshot> {
        self.cache.as_ref().map(|c| c.metrics().snapshot())
    }

    /// The engine's metrics registry: `cells.planned/started/finished/failed`
    /// counters, `prepare.bases_built/bases_reused` (cells that built their
    /// experiment's base — trained or decoded — vs cells that shared one
    /// another cell of their session built), plus `cell.total_ms` and
    /// `phase.{prepare,attack,explain,detect}_ms` latency histograms,
    /// accumulated over every session this engine (and its clones) ran. The
    /// serve daemon exports it on `stats`.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The prepared cells a (possibly sharded) session over `spec` would own,
    /// in grid order, without executing anything.
    pub fn plan(&self, spec: &SweepSpec, shard: Option<Shard>) -> Result<Vec<PlannedCell>> {
        spec.validate().map_err(GeError::InvalidSpec)?;
        let shard = shard.unwrap_or(Shard::FULL);
        shard.validate()?;
        let axes = resolve_axes(spec, &self.attackers, &self.explainers)?;
        Ok(expand_prep_cells(spec, &axes.explainers)
            .into_iter()
            .filter(|cell| shard.owns(cell.position))
            .collect())
    }

    /// Renders the enumerated `--dry-run` cell plan against this engine's
    /// registries.
    pub fn plan_lines(&self, spec: &SweepSpec, shard: Option<&Shard>) -> Result<Vec<String>> {
        plan_lines_with(spec, shard, &self.attackers, &self.explainers)
    }

    /// Merges a complete shard-report set against this engine's registries
    /// (identical to [`crate::sweep::merge_shards`] for builtin-only engines).
    pub fn merge(&self, shards: &[ShardReport]) -> Result<SweepReport> {
        merge_shards_with(shards, &self.attackers, &self.explainers)
    }

    /// Submits a whole-grid sweep session. See [`Engine::submit_shard`].
    pub fn submit(&self, spec: SweepSpec) -> Result<SweepHandle> {
        self.submit_shard(spec, None)
    }

    /// [`Engine::submit_cancellable`] with a fresh (never-cancelled) token.
    pub fn submit_shard(&self, spec: SweepSpec, shard: Option<Shard>) -> Result<SweepHandle> {
        self.submit_cancellable(spec, shard, CancelToken::new())
    }

    /// Estimated cost of the owned slice of `spec`'s grid, in the same
    /// arbitrary units as the cost-ordered scheduler (≈ Σ (nodes²·epochs) per
    /// prepared cell, scaled by the per-cell (attacker × budget) block size).
    /// Only relative order is meaningful; the serve daemon uses it for
    /// cost-aware admission so cheap requests never queue behind sweeps that
    /// are orders of magnitude heavier.
    pub fn estimate_cost(&self, spec: &SweepSpec, shard: Option<Shard>) -> Result<f64> {
        let cells = self.plan(spec, shard)?;
        let block = (spec.attackers.len() * spec.budgets.len()).max(1);
        Ok(cells.iter().map(estimated_cost).sum::<f64>() * block as f64)
    }

    /// Validates the spec, resolves its axes against the registries and
    /// starts executing the owned slice of the grid on a background session.
    /// Returns immediately with the streaming [`SweepHandle`]; all validation
    /// errors surface here, before anything runs. Setting `cancel` (from any
    /// thread) makes the session skip its remaining cells — see
    /// [`CancelToken`].
    pub fn submit_cancellable(
        &self,
        spec: SweepSpec,
        shard: Option<Shard>,
        cancel: CancelToken,
    ) -> Result<SweepHandle> {
        spec.validate().map_err(GeError::InvalidSpec)?;
        let shard = shard.unwrap_or(Shard::FULL);
        shard.validate()?;
        let axes = resolve_axes(&spec, &self.attackers, &self.explainers)?;
        let owned: Vec<PlannedCell> = expand_prep_cells(&spec, &axes.explainers)
            .into_iter()
            .filter(|cell| shard.owns(cell.position))
            .collect();

        let (sender, events) = std::sync::mpsc::channel();
        let context = SessionContext {
            spec,
            shard,
            owned: owned.clone(),
            attackers: axes.attacker_plugins,
            explainers: axes.explainer_plugins,
            cache: self.cache.clone(),
            metrics: Arc::clone(&self.metrics),
            serial: self.serial,
            cancel,
        };
        let worker = std::thread::spawn(move || session_worker(context, sender));
        Ok(SweepHandle {
            plan: owned,
            events,
            worker: Some(worker),
        })
    }

    /// Submits a session and waits for it: the blocking convenience the CLI
    /// uses when nobody consumes the event stream.
    pub fn run(&self, spec: &SweepSpec, shard: Option<Shard>) -> Result<SweepRun> {
        self.submit_shard(spec.clone(), shard)?.wait()
    }

    /// Runs a whole-grid sweep and merges its single shard into the full
    /// report — the one-call replacement for the old `run_sweep` free
    /// function.
    pub fn run_report(&self, spec: &SweepSpec) -> Result<SweepReport> {
        let run = self.run(spec, None)?;
        self.merge(std::slice::from_ref(&run.shard))
    }
}

/// What executing one prepared cell yields: its result cells plus the
/// wall-clock phase breakdown.
type CellOutcome = Result<(Vec<SweepCell>, CellTiming)>;

/// The session body: emits the plan, executes owned cells most-expensive
/// first (fanning out across threads unless serial), streams per-cell events,
/// and reassembles everything into grid order.
fn session_worker(context: SessionContext, sender: Sender<CellEvent>) -> Result<SweepRun> {
    context.metrics.counter("cells.planned").add(context.owned.len() as u64);
    for cell in &context.owned {
        let _ = sender.send(CellEvent::Planned { cell: cell.clone() });
    }

    // Execute the first cell of every base before any base's second cell,
    // each group most expensive first (estimated ≈ n²·epochs each), so the
    // self-scheduling work queue never tails on the biggest cell and a cell
    // that shares a base rarely waits on its training; then re-sort the
    // results back to grid order — the report stays byte-identical to an
    // in-order run.
    let exec_order = execution_order(&context.owned);

    // One level of parallelism only: enough prepared cells to saturate the
    // cores → fan out across cells with serial victim loops; otherwise keep
    // the cell loop serial and let each cell's victim loop fan out.
    let fan_out = cells_fan_out(context.serial, exec_order.len());
    let victim_parallel = !context.serial && !fan_out;
    let bases = BaseMemo::new(&context.owned, &context.metrics);
    let sender = Mutex::new(sender);
    // Session-local latency histogram (the engine-lifetime histograms in
    // `context.metrics` accumulate across sessions; `SweepTelemetry` reports
    // this session alone).
    let session_latency = Histogram::new();
    let started_counter = context.metrics.counter("cells.started");
    let finished_counter = context.metrics.counter("cells.finished");
    let failed_counter = context.metrics.counter("cells.failed");
    let cancelled_counter = context.metrics.counter("cells.cancelled");
    let run_cell = |&slot: &usize| {
        let cell = &context.owned[slot];
        let position = cell.position;
        // Cancellation is cell-granular: a set token makes every
        // not-yet-started cell fail fast with a `cancelled` error instead of
        // executing, while cells already past this check run to completion.
        if context.cancel.is_cancelled() {
            bases.release(cell);
            cancelled_counter.inc();
            let error = GeError::Cancelled(context.cancel.reason());
            let _ = sender.lock().map(|s| {
                s.send(CellEvent::Failed {
                    position,
                    error: error.clone(),
                })
            });
            return Err(error);
        }
        started_counter.inc();
        let _ = sender.lock().map(|s| s.send(CellEvent::Started { position }));
        let result = run_prep_cell(&context, cell, &bases, victim_parallel);
        // Released before the event goes out: once a base's last owned cell
        // reports, nothing of the session holds that base any more.
        bases.release(cell);
        let event = match &result {
            Ok((cells, timing)) => {
                finished_counter.inc();
                session_latency.record(timing.total_ms);
                context.metrics.histogram("cell.total_ms").record(timing.total_ms);
                context.metrics.histogram("phase.prepare_ms").record(timing.prepare_ms);
                context.metrics.histogram("phase.attack_ms").record(timing.attack_ms);
                context.metrics.histogram("phase.explain_ms").record(timing.explain_ms);
                context.metrics.histogram("phase.detect_ms").record(timing.detect_ms);
                CellEvent::Finished {
                    position,
                    cells: cells.clone(),
                    timing: *timing,
                }
            }
            Err(e) => {
                failed_counter.inc();
                CellEvent::Failed {
                    position,
                    error: e.clone(),
                }
            }
        };
        let _ = sender.lock().map(|s| s.send(event));
        result
    };
    let executed: Vec<CellOutcome> = map_cells(fan_out, &exec_order, run_cell);

    // Land every block back in its grid slot, collecting failures.
    let mut by_grid: Vec<Option<CellOutcome>> = (0..context.owned.len()).map(|_| None).collect();
    for (k, block) in executed.into_iter().enumerate() {
        by_grid[exec_order[k]] = Some(block);
    }
    let mut cells = Vec::new();
    let mut failures = Vec::new();
    let mut telemetry = SweepTelemetry {
        planned_cells: context.owned.len(),
        ..SweepTelemetry::default()
    };
    for (slot, block) in by_grid.into_iter().enumerate() {
        match block.expect("every executed cell lands back in its grid slot") {
            Ok((block, timing)) => {
                cells.extend(block);
                telemetry.finished_cells += 1;
                telemetry.phase_totals.accumulate(&timing);
            }
            Err(e) => {
                telemetry.failed_cells += 1;
                failures.push(CellFailure::new(context.owned[slot].position, &e));
            }
        }
    }
    telemetry.cell_latency = LatencySummary::from_histogram(&session_latency);
    if !failures.is_empty() {
        return Err(GeError::CellsFailed(failures));
    }

    Ok(SweepRun {
        shard: ShardReport {
            sweep: context.spec.name.clone(),
            spec_hash: context.spec.content_hash(),
            shard_index: context.shard.index,
            shard_count: context.shard.count,
            spec: context.spec.clone(),
            cells,
        },
        cache: context.cache.as_ref().map(|c| c.counters()),
        prepared_cells: context.owned.len(),
        telemetry,
    })
}

/// A session's memo of experiment bases, one slot per base: cells that share
/// a base (the same graph and model under different explainers) wait on one
/// preparation instead of each training the GCN. A failed build is memoized
/// too, so every cell sharing that base gets the same error. A slot counts
/// the owned cells of its base that have not finished and is dropped with the
/// last of them, so no base outlives its cells.
struct BaseMemo<'a> {
    slots: Mutex<HashMap<BaseId<'a>, Arc<BaseSlot>>>,
    /// `prepare.bases_built`: cells that built their base (trained or
    /// decoded it).
    built: Arc<Counter>,
    /// `prepare.bases_reused`: cells that shared a base another cell built.
    reused: Arc<Counter>,
}

struct BaseSlot {
    base: OnceLock<Result<Arc<Base>>>,
    /// Owned cells of this base that have not finished yet.
    pending: AtomicUsize,
}

impl<'a> BaseMemo<'a> {
    /// A memo for a session's owned cells, counting into `metrics`.
    fn new(cells: &'a [PlannedCell], metrics: &MetricsRegistry) -> Self {
        let mut slots: HashMap<BaseId<'a>, Arc<BaseSlot>> = HashMap::new();
        for cell in cells {
            let slot = slots.entry(cell.base_id()).or_insert_with(|| {
                Arc::new(BaseSlot {
                    base: OnceLock::new(),
                    pending: AtomicUsize::new(0),
                })
            });
            slot.pending.fetch_add(1, Ordering::SeqCst);
        }
        BaseMemo {
            slots: Mutex::new(slots),
            built: metrics.counter("prepare.bases_built"),
            reused: metrics.counter("prepare.bases_reused"),
        }
    }

    /// `cell`'s base: built by `build` if no cell has built it yet, else
    /// shared (after waiting for a build in progress).
    fn get(&self, cell: &'a PlannedCell, build: impl FnOnce() -> Result<Base>) -> Result<Arc<Base>> {
        let slot = self
            .slots
            .lock()
            .expect("base memo lock")
            .get(&cell.base_id())
            .cloned()
            .expect("every owned cell's base has a slot until the cell finishes");
        let mut built = false;
        let base = slot.base.get_or_init(|| {
            built = true;
            build().map(Arc::new)
        });
        if built { &self.built } else { &self.reused }.inc();
        base.clone()
    }

    /// Marks `cell` finished, dropping its base's slot with the base's last
    /// owned cell.
    fn release(&self, cell: &'a PlannedCell) {
        let id = cell.base_id();
        let mut slots = self.slots.lock().expect("base memo lock");
        if let Some(slot) = slots.get(&id) {
            if slot.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                slots.remove(&id);
            }
        }
    }
}

/// Prepares one (family, scale, seed, explainer) experiment — its base shared
/// through the session memo, both stages through the engine's cache when one
/// is attached — and attacks it with every attacker and budget of the grid.
/// Returns the cell's results plus its wall-clock phase breakdown (measured
/// unconditionally; span emission is gated on the installed recorder).
/// `prepare_ms` includes any wait on a base another cell is building.
fn run_prep_cell<'a>(
    context: &SessionContext,
    cell: &'a PlannedCell,
    bases: &BaseMemo<'a>,
    victim_parallel: bool,
) -> CellOutcome {
    let _cell_span = span_labeled(Level::Cell, "cell", cell.position.to_string());
    let cell_started = Instant::now();
    let spec = &context.spec;
    let explainer = context
        .explainers
        .iter()
        .find(|p| p.name() == cell.explainer)
        .expect("planned cells only reference resolved explainers");
    let mut config = if spec.quick {
        PipelineConfig::quick(cell.family.clone(), cell.seed)
    } else {
        PipelineConfig::paper_scale(cell.family.clone(), cell.seed)
    };
    config.graph = FamilyConfig::new(cell.scale, cell.seed);
    config.set_victim_count(spec.victims);
    config.explainer = explainer.prepare_kind();
    if let Some(size) = explainer.explanation_size() {
        config.explanation_size = size;
    }
    config.parallel = victim_parallel;
    let cache = context.cache.as_deref();
    let base = bases.get(cell, || prepare_base_cached(&config, cache))?;
    let prepared = prepare_on_cached(&base, config, cache)?;
    let prepare_ms = cell_started.elapsed().as_secs_f64() * 1e3;

    // Degree-bucket budgets attack their own victims, re-scoped onto the one
    // prepared experiment; every other budget attacks the prepared victims.
    let scopes: Vec<Option<Prepared>> = spec
        .budgets
        .iter()
        .map(|budget| match *budget {
            BudgetSpec::DegreeBucket(degree) => Some(prepared.with_victims(victims_with_degree(
                &prepared.model,
                &prepared.graph,
                &prepared.clean_forward().predict_labels(),
                &prepared.split.test,
                degree,
                spec.victims,
            ))),
            _ => None,
        })
        .collect();

    let phases = PhaseAccumulator::new();
    let inspector = explainer.inspector(&prepared)?;
    let mut out = Vec::with_capacity(context.attackers.len() * spec.budgets.len());
    for plugin in &context.attackers {
        let attacker = plugin.build(&prepared)?;
        for (&budget, scope) in spec.budgets.iter().zip(&scopes) {
            let _run_span = span_labeled(
                Level::Phase,
                "attack.run",
                format!("{}@{}", plugin.name(), budget.label()),
            );
            let outcomes = run_attacker(
                scope.as_ref().unwrap_or(&prepared),
                attacker.as_ref(),
                inspector.as_ref(),
                BudgetRule::from(budget),
                Some(&phases),
            );
            let summary = summarize_run(plugin.name(), &outcomes);
            out.push(SweepCell {
                family: cell.family.clone(),
                scale: cell.scale,
                seed: cell.seed,
                explainer: cell.explainer.clone(),
                attacker: plugin.name().to_string(),
                budget: budget.label(),
                nodes: prepared.graph.num_nodes(),
                edges: prepared.graph.num_edges(),
                victims: summary.victims,
                asr: summary.asr,
                asr_t: summary.asr_t,
                precision: summary.precision,
                recall: summary.recall,
                f1: summary.f1,
                ndcg: summary.ndcg,
            });
        }
    }
    let (attack_ms, explain_ms, detect_ms) = phases.totals_ms();
    let timing = CellTiming {
        prepare_ms,
        attack_ms,
        explain_ms,
        detect_ms,
        total_ms: cell_started.elapsed().as_secs_f64() * 1e3,
    };
    Ok((out, timing))
}

/// Whether the prepared-cell loop should fan out across threads (see
/// [`session_worker`]).
fn cells_fan_out(serial: bool, cells: usize) -> bool {
    !serial && cells > 1 && cells >= rayon::current_num_threads()
}

/// Maps `f` over the prepared cells — across threads when `fan_out` is set,
/// serially otherwise. Results come back in cell order either way.
fn map_cells<T: Sync, R: Send>(fan_out: bool, cells: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if fan_out {
        use rayon::prelude::*;
        return cells.par_iter().map(&f).collect();
    }
    cells.iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AttackerKind;
    use crate::registry::AttackerPlugin;
    use geattack_attack::TargetedAttack;

    fn tiny_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("engine-unit", vec!["tree-cycles".to_string()], vec!["rna".to_string()]);
        spec.scales = vec![0.07];
        spec.seeds = vec![0, 1];
        spec.victims = 3;
        spec
    }

    #[test]
    fn event_stream_covers_every_cell_and_report_stays_grid_ordered() {
        let engine = Engine::new().serial(true);
        // Two scales with different costs: the cost-ordered schedule executes
        // grid position 1 (scale 0.12) before position 0, so completion order
        // provably differs from grid order.
        let mut spec = tiny_spec();
        spec.seeds = vec![0];
        spec.scales = vec![0.07, 0.12];
        let mut session = engine.submit(spec.clone()).expect("submits");
        assert_eq!(session.plan().len(), 2);

        let mut planned = Vec::new();
        let mut started = Vec::new();
        let mut finished = Vec::new();
        for event in session.by_ref() {
            match event {
                CellEvent::Planned { cell } => planned.push(cell.position),
                CellEvent::Started { position } => {
                    assert!(!finished.contains(&position), "started after finishing");
                    started.push(position);
                }
                CellEvent::Finished {
                    position,
                    cells,
                    timing,
                } => {
                    assert!(started.contains(&position), "finished without starting");
                    assert_eq!(cells.len(), 1, "one attacker x one budget");
                    assert!(timing.total_ms > 0.0, "finished cells carry wall-clock timing");
                    assert!(timing.prepare_ms <= timing.total_ms, "prepare is part of the total");
                    finished.push(position);
                }
                CellEvent::Failed { position, error } => {
                    unreachable!("cell {position} failed: {error}")
                }
            }
        }
        assert_eq!(planned, vec![0, 1], "plan arrives first, in grid order");
        assert_eq!(started.len(), 2);
        assert_eq!(
            finished,
            vec![1, 0],
            "events stream in completion order: the expensive cell first"
        );

        let run = session.wait().expect("session succeeds");
        assert_eq!(run.prepared_cells, 2);
        let scales: Vec<f64> = run.shard.cells.iter().map(|c| c.scale).collect();
        assert_eq!(scales, vec![0.07, 0.12], "results re-sorted to grid order");

        // The streamed session produces the exact bytes of a blocking run.
        let direct = engine.run_report(&spec).expect("runs");
        let merged = engine.merge(std::slice::from_ref(&run.shard)).expect("merges");
        assert_eq!(merged.to_json(), direct.to_json());
    }

    /// An attacker whose construction fails on seed 1, to fabricate a
    /// per-cell failure without touching any real attack code.
    struct FailsOnSeedOne;

    impl AttackerPlugin for FailsOnSeedOne {
        fn name(&self) -> &str {
            "Flaky"
        }

        fn build(&self, prepared: &Prepared) -> Result<Box<dyn TargetedAttack + Sync>> {
            if prepared.config().graph.seed == 1 {
                Err(GeError::Prepare("flaky attacker refuses seed 1".to_string()))
            } else {
                Ok(prepared.attacker(AttackerKind::Rna))
            }
        }
    }

    #[test]
    fn failed_cells_stream_as_events_without_aborting_the_session() {
        let mut engine = Engine::new().serial(true);
        engine.register_attacker(Arc::new(FailsOnSeedOne)).unwrap();
        let mut spec = tiny_spec();
        spec.attackers = vec!["flaky".to_string()];

        let mut session = engine.submit(spec).expect("submits");
        let mut finished = Vec::new();
        let mut failed = Vec::new();
        for event in session.by_ref() {
            match event {
                CellEvent::Finished { position, .. } => finished.push(position),
                CellEvent::Failed { position, error } => {
                    assert_eq!(error.kind(), "prepare", "events carry the structured error kind");
                    assert!(error.to_string().contains("refuses seed 1"), "{error}");
                    failed.push(position);
                }
                _ => {}
            }
        }
        assert_eq!(finished, vec![0], "the healthy cell still completes");
        assert_eq!(failed, vec![1], "the failing cell surfaces as an event");

        let err = session.wait().unwrap_err();
        match &err {
            GeError::CellsFailed(failures) => {
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].position, 1);
                assert_eq!(failures[0].kind, "prepare");
            }
            other => panic!("expected CellsFailed, got {other:?}"),
        }
        assert!(err.to_string().contains("refuses seed 1"), "{err}");
    }

    #[test]
    fn custom_attackers_run_under_their_registered_name() {
        struct Shadow;
        impl AttackerPlugin for Shadow {
            fn name(&self) -> &str {
                "Shadow-RNA"
            }
            fn build(&self, prepared: &Prepared) -> Result<Box<dyn TargetedAttack + Sync>> {
                Ok(prepared.attacker(AttackerKind::Rna))
            }
        }
        let mut engine = Engine::new().serial(true);
        engine.register_attacker(Arc::new(Shadow)).unwrap();
        let mut spec = tiny_spec();
        spec.seeds = vec![0];
        spec.attackers = vec!["shadow-rna".to_string()];
        let report = engine.run_report(&spec).expect("runs");
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].attacker, "Shadow-RNA");
        // The builtin registry knows nothing about it: the standalone
        // merge_shards (builtin-only) must reject this report's axes.
        let run = engine.run(&spec, None).expect("runs");
        let err = crate::sweep::merge_shards(std::slice::from_ref(&run.shard)).unwrap_err();
        assert!(err.to_string().contains("unknown attacker"), "{err}");
    }

    #[test]
    fn cancelled_token_skips_every_remaining_cell_as_a_cancelled_failure() {
        let engine = Engine::new().serial(true);
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel("test teardown");
        token.cancel("second reason loses");
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), "test teardown");

        let mut session = engine
            .submit_cancellable(tiny_spec(), None, token)
            .expect("submission itself is not gated on the token");
        let mut failed = Vec::new();
        for event in session.by_ref() {
            match event {
                CellEvent::Failed { position, error } => {
                    assert_eq!(error.kind(), "cancelled");
                    assert!(error.to_string().contains("test teardown"), "{error}");
                    failed.push(position);
                }
                CellEvent::Planned { .. } => {}
                other => panic!("cancelled session must not start cells: {other:?}"),
            }
        }
        assert_eq!(failed, vec![0, 1], "both cells cancelled, in execution order");
        let err = session.wait().unwrap_err();
        match &err {
            GeError::CellsFailed(failures) => {
                assert_eq!(failures.len(), 2);
                assert!(failures.iter().all(|f| f.kind == "cancelled"));
            }
            other => panic!("expected CellsFailed, got {other:?}"),
        }
        assert_eq!(engine.metrics().counter_value("cells.cancelled"), 2);
        assert_eq!(engine.metrics().counter_value("cells.started"), 0);
    }

    /// Runs `spec` on a fresh engine and returns its
    /// `(prepare.bases_built, prepare.bases_reused)` counters.
    fn base_counters(engine: &Engine, spec: &SweepSpec) -> (u64, u64) {
        engine.run(spec, None).expect("runs");
        let metrics = engine.metrics();
        (
            metrics.counter_value("prepare.bases_built"),
            metrics.counter_value("prepare.bases_reused"),
        )
    }

    #[test]
    fn cells_sharing_a_graph_share_one_base() {
        // The `paper` shape: two families, both explainers → 4 cells, 2 bases.
        let mut paper = tiny_spec();
        paper.families = vec!["tree-cycles".to_string(), "ba-shapes".to_string()];
        paper.seeds = vec![0];
        paper.explainers = vec!["gnnexplainer".to_string(), "pgexplainer".to_string()];
        for serial in [true, false] {
            let engine = Engine::new().serial(serial);
            assert_eq!(base_counters(&engine, &paper), (2, 2), "serial: {serial}");
        }

        // The `fig5` shape: four explanation sizes per (family, seed) share
        // one base each.
        let mut fig5 = tiny_spec();
        fig5.explainers = ["10", "20", "40", "60"]
            .map(|size| format!("gnnexplainer:size={size}"))
            .to_vec();
        assert_eq!(base_counters(&Engine::new().serial(true), &fig5), (2, 6));

        // One cell per base: nothing to share.
        assert_eq!(base_counters(&Engine::new().serial(true), &tiny_spec()), (2, 0));
    }

    /// Weak handles on inspected graphs, with the seed of the inspecting cell.
    type SeenGraphs = Arc<Mutex<Vec<(u64, std::sync::Weak<geattack_graph::Graph>)>>>;

    /// An explainer that records a weak handle on every graph it inspects.
    struct GraphProbe {
        name: &'static str,
        seen: SeenGraphs,
    }

    impl ExplainerPlugin for GraphProbe {
        fn name(&self) -> &str {
            self.name
        }

        fn inspector(&self, prepared: &Prepared) -> Result<Box<dyn geattack_explain::Explainer + Sync>> {
            self.seen
                .lock()
                .unwrap()
                .push((prepared.config().graph.seed, Arc::downgrade(&prepared.graph)));
            Ok(Box::new(geattack_explain::GnnExplainer::new(
                prepared.config().gnnexplainer.clone(),
            )))
        }
    }

    #[test]
    fn no_base_outlives_the_last_cell_that_uses_it() {
        for serial in [true, false] {
            let seen: SeenGraphs = Arc::default();
            let mut engine = Engine::new().serial(serial);
            for name in ["Probe-A", "Probe-B"] {
                let probe = GraphProbe {
                    name,
                    seen: Arc::clone(&seen),
                };
                engine.register_explainer(Arc::new(probe)).unwrap();
            }
            let mut spec = tiny_spec();
            spec.explainers = vec!["probe-a".to_string(), "probe-b".to_string()];

            // Grid order is seed-major: positions 2s and 2s+1 share seed s's base.
            let mut finished = [0; 2];
            let mut session = engine.submit(spec).expect("submits");
            for event in session.by_ref() {
                if let CellEvent::Finished { position, .. } = event {
                    let seed = position / 2;
                    finished[seed] += 1;
                    if finished[seed] == 2 {
                        let seen = seen.lock().unwrap();
                        let handles: Vec<_> = seen.iter().filter(|(s, _)| *s == seed as u64).collect();
                        assert_eq!(handles.len(), 2, "both cells of seed {seed} inspected its graph");
                        assert!(
                            handles.iter().all(|(_, weak)| weak.upgrade().is_none()),
                            "seed {seed}'s base outlived its last cell (serial: {serial})"
                        );
                    }
                }
            }
            session.wait().expect("session succeeds");
            assert_eq!(finished, [2, 2]);
            let metrics = engine.metrics();
            assert_eq!(metrics.counter_value("prepare.bases_built"), 2);
            assert_eq!(metrics.counter_value("prepare.bases_reused"), 2);
        }
    }

    #[test]
    fn base_memo_shares_one_build_and_its_error() {
        let metrics = MetricsRegistry::new();
        let cell = |explainer: &str| PlannedCell {
            position: 0,
            family: "cora".to_string(),
            scale: 0.1,
            seed: 0,
            explainer: explainer.to_string(),
        };
        let cells = [cell("GNNExplainer"), cell("PGExplainer")];
        let [gnn, pg] = &cells;
        let memo = BaseMemo::new(&cells, &metrics);
        let mut builds = 0;
        let mut build = || {
            builds += 1;
            Err(GeError::Prepare("no graph".to_string()))
        };
        let first = memo.get(gnn, &mut build).map(|_| ()).unwrap_err();
        let second = memo.get(pg, &mut build).map(|_| ()).unwrap_err();
        assert_eq!(builds, 1, "the second cell reuses the failed build");
        assert_eq!(first.to_string(), second.to_string());
        assert_eq!(metrics.counter_value("prepare.bases_built"), 1);
        assert_eq!(metrics.counter_value("prepare.bases_reused"), 1);

        memo.release(gnn);
        assert!(!memo.slots.lock().unwrap().is_empty(), "one cell still pending");
        memo.release(pg);
        assert!(memo.slots.lock().unwrap().is_empty(), "the last cell drops the slot");
    }

    #[test]
    fn cost_estimates_order_specs_by_heaviness() {
        let engine = Engine::new();
        let quick = tiny_spec();
        let mut heavy = tiny_spec();
        heavy.scales = vec![0.6];
        let quick_cost = engine.estimate_cost(&quick, None).expect("estimates");
        let heavy_cost = engine.estimate_cost(&heavy, None).expect("estimates");
        assert!(quick_cost > 0.0);
        assert!(
            heavy_cost > 10.0 * quick_cost,
            "scale 0.6 must dominate scale 0.07: {heavy_cost} vs {quick_cost}"
        );
        // Sharding halves the owned slice (2 seeds -> 1 owned cell each).
        let half = engine
            .estimate_cost(&quick, Some(Shard { index: 0, count: 2 }))
            .expect("estimates");
        assert!(half < quick_cost);
        // Bad specs fail estimation the same way they fail submission.
        let mut bad = tiny_spec();
        bad.attackers = vec!["metattack".to_string()];
        assert!(engine.estimate_cost(&bad, None).is_err());
    }

    #[test]
    fn submit_rejects_bad_specs_and_shards_before_running() {
        let engine = Engine::new();
        let mut spec = tiny_spec();
        spec.scales = vec![7.0];
        assert!(matches!(engine.submit(spec).unwrap_err(), GeError::InvalidSpec(_)));

        let spec = tiny_spec();
        let err = engine
            .submit_shard(spec, Some(Shard { index: 5, count: 2 }))
            .unwrap_err();
        assert!(matches!(err, GeError::Shard(_)));
    }
}
