//! The fleet coordinator: one sweep, N `geattack-serve` workers, one
//! byte-identical report.
//!
//! [`Coordinator::run`] slices the spec's grid into `N` deterministic shards
//! (`p % N` — the same arithmetic as `geattack-sweep --shard I/N`), dispatches
//! each slice to a worker over the NDJSON protocol, and merges the returned
//! [`ShardReport`]s through the strict in-process merge path. Because every
//! shard executes the exact prepared cells an unsharded run would, the merged
//! `results/sweep_<name>.json` is byte-identical to a single-machine run.
//!
//! **Failure handling.** One thread per worker pulls shard tasks from a shared
//! queue. A failed attempt — connect refused, mid-stream disconnect, idle
//! timeout, server-side error, or a report that fails validation — requeues
//! the task for any surviving worker (bounded by
//! [`FleetOptions::max_shard_attempts`] per shard), the failing worker backs
//! off exponentially and health-probes before its next attempt, and a worker
//! with [`FleetOptions::worker_failure_limit`] consecutive failures retires.
//! First-completed-wins per shard: a straggler's duplicate result is dropped,
//! so reassignment can never duplicate cells in the merged report. When a
//! shard exhausts its attempts (or every worker retires), the run aborts with
//! [`GeError::Fleet`] — after writing every completed shard to
//! `results/sweep_<name>.shard<I>of<N>.json` so a manual `geattack-merge` can
//! finish the job once the fleet recovers.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use geattack_core::engine::CancelToken;
use geattack_core::sweep::{merge_shards, Shard, ShardReport, SweepReport};
use geattack_core::telemetry::{latency_value, ms};
use geattack_core::GeError;
use geattack_scenarios::SweepSpec;
use geattack_telemetry::{HistogramSnapshot, MetricsRegistry};

use crate::client::{ServeClient, ShardEvent};
use crate::manifest::Worker;

/// Coordinator knobs; the defaults suit a local fleet (CI) and are
/// deliberately conservative for a real one.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Number of shards to slice the grid into; defaults to the worker count.
    pub shards: Option<usize>,
    /// Attempts per shard before the run aborts with [`GeError::Fleet`].
    pub max_shard_attempts: usize,
    /// Consecutive failures after which a worker retires from the fleet.
    pub worker_failure_limit: usize,
    /// TCP connect retry window per attempt.
    pub connect_timeout: Duration,
    /// Maximum event-stream silence before a worker is declared hung.
    pub idle_timeout: Duration,
    /// Base backoff after a failed attempt (doubled per attempt, capped 5 s).
    pub backoff: Duration,
    /// When set, the merged report is written to
    /// `<dir>/sweep_<name>.json` on success, and completed shards to
    /// `<dir>/sweep_<name>.shard<I>of<N>.json` on an aborted run.
    pub results_dir: Option<PathBuf>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            shards: None,
            max_shard_attempts: 3,
            worker_failure_limit: 3,
            connect_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(300),
            backoff: Duration::from_millis(250),
            results_dir: None,
        }
    }
}

/// Per-worker accounting of one fleet run.
#[derive(Clone, Debug)]
pub struct WorkerSummary {
    /// Display name (manifest `name` or the address).
    pub name: String,
    /// `host:port` of the worker.
    pub addr: String,
    /// The worker's `--fleet-id` from its `stats` response, when reachable.
    pub fleet_id: Option<String>,
    /// Shards this worker completed (first-completed-wins).
    pub shards_completed: usize,
    /// Failed attempts charged to this worker.
    pub failures: usize,
    /// Whether the worker retired after too many consecutive failures.
    pub retired: bool,
    /// Latency distribution of this worker's shard attempts, milliseconds.
    pub latency: HistogramSnapshot,
}

/// Fleet-level accounting of one run, for the `.fleet.meta.json` sidecar.
#[derive(Clone, Debug)]
pub struct FleetStats {
    /// Shard count the grid was sliced into.
    pub shards: usize,
    /// Shard attempts dispatched (completions + failures ≤ dispatched).
    pub dispatched: usize,
    /// Attempts that failed and were requeued.
    pub retried: usize,
    /// Requeued shards picked up by a *different* worker than the one that
    /// failed them.
    pub reassigned: usize,
    /// Straggler results dropped because the shard was already complete.
    pub duplicates: usize,
    /// Prepared cells finished across the fleet (completed shards only).
    pub finished_cells: usize,
    /// Wall-clock of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Per-worker accounting.
    pub workers: Vec<WorkerSummary>,
}

impl FleetStats {
    /// Renders the stats as a pretty-JSON sidecar (nondeterministic values —
    /// latency, wall-clock — live here, never in the report).
    pub fn meta_json(&self) -> String {
        use serde::Value;
        let workers = self
            .workers
            .iter()
            .map(|w| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(w.name.clone())),
                    ("addr".to_string(), Value::String(w.addr.clone())),
                    (
                        "fleet_id".to_string(),
                        w.fleet_id.clone().map_or(Value::Null, Value::String),
                    ),
                    ("shards_completed".to_string(), Value::Number(w.shards_completed as f64)),
                    ("failures".to_string(), Value::Number(w.failures as f64)),
                    ("retired".to_string(), Value::Bool(w.retired)),
                    ("latency_ms".to_string(), latency_value(&w.latency)),
                ])
            })
            .collect();
        let meta = Value::Object(vec![
            ("shards".to_string(), Value::Number(self.shards as f64)),
            ("dispatched".to_string(), Value::Number(self.dispatched as f64)),
            ("retried".to_string(), Value::Number(self.retried as f64)),
            ("reassigned".to_string(), Value::Number(self.reassigned as f64)),
            ("duplicates".to_string(), Value::Number(self.duplicates as f64)),
            ("finished_cells".to_string(), Value::Number(self.finished_cells as f64)),
            ("wall_ms".to_string(), ms(self.wall_ms)),
            ("workers".to_string(), Value::Array(workers)),
        ]);
        serde_json::to_string_pretty(&meta).expect("fleet stats always serialize")
    }
}

/// A completed fleet run: the merged report (byte-identical to a
/// single-machine run), the shard reports it was assembled from, and the
/// fleet-level accounting.
#[derive(Clone, Debug)]
pub struct FleetRun {
    /// The merged full report.
    pub report: SweepReport,
    /// The per-shard reports, in shard-index order.
    pub shard_reports: Vec<ShardReport>,
    /// Fleet-level accounting of the run.
    pub stats: FleetStats,
    /// Where the merged report was written, when
    /// [`FleetOptions::results_dir`] was set.
    pub artifact: Option<PathBuf>,
}

/// One shard's place in the coordinator's work queue.
struct ShardTask {
    shard: Shard,
    /// Attempts consumed so far (bounded by `max_shard_attempts`).
    attempts: usize,
    /// The worker that last failed this task, for reassignment accounting.
    last_worker: Option<usize>,
}

/// Queue + results guarded by one mutex; every transition notifies the condvar.
struct FleetState {
    queue: VecDeque<ShardTask>,
    in_progress: usize,
    results: Vec<Option<ShardReport>>,
    fatal: Option<GeError>,
    live_workers: usize,
    /// Prepared cells inside completed shards.
    completed_cells: usize,
    /// Prepared cells finished by the currently-running attempt per shard.
    inflight_cells: Vec<usize>,
}

/// Per-worker mutable bookkeeping (outside the state lock — only its own
/// thread touches it).
struct WorkerLedger {
    consecutive_failures: usize,
    shards_completed: usize,
    failures: usize,
    retired: bool,
    fleet_id: Option<String>,
}

/// Dispatches one sweep across a worker fleet. One coordinator drives one
/// run: its cancel token is consumed by [`Coordinator::run`] (an aborted run
/// cancels it so in-flight streams drop promptly).
pub struct Coordinator {
    workers: Vec<Worker>,
    options: FleetOptions,
    metrics: MetricsRegistry,
    cancel: CancelToken,
}

impl Coordinator {
    /// A coordinator over `workers`; rejects an empty fleet and a zero shard
    /// override.
    pub fn new(workers: Vec<Worker>, options: FleetOptions) -> Result<Self, GeError> {
        if workers.is_empty() {
            return Err(GeError::Fleet("a fleet needs at least one worker".to_string()));
        }
        if options.shards == Some(0) {
            return Err(GeError::Fleet("shard count must be at least 1".to_string()));
        }
        if options.max_shard_attempts == 0 {
            return Err(GeError::Fleet("max shard attempts must be at least 1".to_string()));
        }
        Ok(Coordinator {
            workers,
            options,
            metrics: MetricsRegistry::new(),
            cancel: CancelToken::new(),
        })
    }

    /// A handle that aborts the run when cancelled (in-flight worker streams
    /// drop at their next tick; the daemon side cancels on disconnect).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs `spec` across the fleet and merges the byte-identical report.
    /// `progress` receives one human-readable line per tracked event
    /// (dispatch, per-cell progress with ETA, retries, retirements).
    pub fn run(&self, spec: &SweepSpec, progress: impl FnMut(String) + Send) -> Result<FleetRun, GeError> {
        let started = Instant::now();
        let shard_count = self.options.shards.unwrap_or(self.workers.len()).max(1);
        let shards = Shard::split(shard_count)?;
        let prepared_cells = spec.prepared_cells();
        let expected_hash = spec.content_hash();

        let state = Mutex::new(FleetState {
            queue: shards
                .iter()
                .map(|&shard| ShardTask {
                    shard,
                    attempts: 0,
                    last_worker: None,
                })
                .collect(),
            in_progress: 0,
            results: vec![None; shard_count],
            fatal: None,
            live_workers: self.workers.len(),
            completed_cells: 0,
            inflight_cells: vec![0; shard_count],
        });
        let condvar = Condvar::new();
        let progress = Mutex::new(progress);
        let emit = |line: String| {
            (progress.lock().expect("progress lock"))(line);
        };
        emit(format!(
            "fleet: {} prepared cells sliced into {} shard(s) across {} worker(s)",
            prepared_cells,
            shard_count,
            self.workers.len()
        ));

        let mut ledgers: Vec<WorkerLedger> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter()
                .enumerate()
                .map(|(me, worker)| {
                    let state = &state;
                    let condvar = &condvar;
                    let emit = &emit;
                    let expected_hash = &expected_hash;
                    scope.spawn(move || self.worker_loop(me, worker, spec, expected_hash, state, condvar, emit))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker thread never panics"))
                .collect()
        });

        let mut state = state.into_inner().expect("fleet state lock");
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let stats = self.collect_stats(shard_count, &state, &mut ledgers, wall_ms);

        if let Some(fatal) = state.fatal.take() {
            let preserved = self.preserve_partial_shards(spec, &state.results);
            let suffix = if preserved.is_empty() {
                String::new()
            } else {
                format!(
                    " ({} completed shard(s) preserved for geattack-merge: {})",
                    preserved.len(),
                    preserved
                        .iter()
                        .map(|p| p.display().to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            return Err(GeError::Fleet(format!("{fatal}{suffix}")));
        }
        if self.cancel.is_cancelled() {
            let _ = self.preserve_partial_shards(spec, &state.results);
            return Err(GeError::Cancelled("fleet run cancelled".to_string()));
        }

        let shard_reports: Vec<ShardReport> = state
            .results
            .into_iter()
            .map(|r| r.expect("a non-fatal run completed every shard"))
            .collect();
        let report = merge_shards(&shard_reports)?;
        let artifact = match &self.options.results_dir {
            None => None,
            Some(dir) => {
                let path = dir.join(format!("sweep_{}.json", report.sweep));
                write_text(&path, &report.to_json())?;
                Some(path)
            }
        };
        emit(format!(
            "fleet: sweep `{}` complete — {} cells over {} shard(s) in {:.1}s",
            report.sweep,
            report.cells.len(),
            shard_count,
            wall_ms / 1e3
        ));
        Ok(FleetRun {
            report,
            shard_reports,
            stats,
            artifact,
        })
    }

    /// One worker's pull-execute loop; returns its ledger for the run stats.
    #[allow(clippy::too_many_arguments)]
    fn worker_loop(
        &self,
        me: usize,
        worker: &Worker,
        spec: &SweepSpec,
        expected_hash: &str,
        state: &Mutex<FleetState>,
        condvar: &Condvar,
        emit: &dyn Fn(String),
    ) -> WorkerLedger {
        let client = ServeClient::new(worker.addr.clone())
            .with_timeouts(self.options.connect_timeout, self.options.idle_timeout);
        let mut ledger = WorkerLedger {
            consecutive_failures: 0,
            shards_completed: 0,
            failures: 0,
            retired: false,
            fleet_id: None,
        };
        loop {
            // Pull the next shard task, or exit when the run is over.
            let mut task = {
                let mut st = state.lock().expect("fleet state lock");
                loop {
                    if st.fatal.is_some() || self.cancel.is_cancelled() {
                        return ledger;
                    }
                    if let Some(task) = st.queue.pop_front() {
                        st.in_progress += 1;
                        break task;
                    }
                    if st.in_progress == 0 {
                        return ledger; // Every shard is done.
                    }
                    st = condvar.wait(st).expect("fleet state lock");
                }
            };
            let shard = task.shard;
            if task.attempts > 0 && task.last_worker != Some(me) {
                self.metrics.counter("fleet.shards.reassigned").inc();
                emit(format!(
                    "[{}] shard {} reassigned (attempt {})",
                    worker.name,
                    shard.label(),
                    task.attempts + 1
                ));
            }

            // A worker that just failed proves itself with a health probe
            // before burning another shard attempt's stream setup.
            let attempt = if ledger.consecutive_failures > 0 {
                client
                    .health()
                    .and_then(|_| self.attempt_shard(&client, me, worker, spec, shard, state, emit, &mut ledger))
            } else {
                self.attempt_shard(&client, me, worker, spec, shard, state, emit, &mut ledger)
            };

            // A returned report still has to belong to this run before it may
            // enter the merge; a mismatch is charged as a failed attempt.
            let attempt = attempt.and_then(|report| {
                self.validate_report(&report, spec, expected_hash, shard)
                    .map(|_| report)
            });

            let mut st = state.lock().expect("fleet state lock");
            st.in_flight_reset(shard.index);
            st.in_progress -= 1;
            match attempt {
                Ok(report) => {
                    ledger.consecutive_failures = 0;
                    if st.results[shard.index].is_none() {
                        st.completed_cells += shard.owned_count(spec.prepared_cells());
                        st.results[shard.index] = Some(report);
                        ledger.shards_completed += 1;
                        emit(format!("[{}] shard {} complete", worker.name, shard.label()));
                    } else {
                        self.metrics.counter("fleet.shards.duplicates").inc();
                        emit(format!(
                            "[{}] shard {} duplicate result dropped",
                            worker.name,
                            shard.label()
                        ));
                    }
                    condvar.notify_all();
                }
                Err(message) => {
                    // The requeue/fatal/retire decision happens under the same
                    // lock as the `in_progress` decrement above: releasing the
                    // lock in between would let another worker observe an
                    // empty queue with nothing in progress and exit before the
                    // failed shard is requeued.
                    let (lines, backoff) =
                        self.fail_attempt(me, worker, &spec.name, &mut task, &message, &mut st, &mut ledger);
                    condvar.notify_all();
                    drop(st);
                    for line in lines {
                        emit(line);
                    }
                    if ledger.retired {
                        return ledger;
                    }
                    if backoff {
                        // The failing worker backs off (others pick up the
                        // requeued shard immediately); stay responsive to
                        // cancellation.
                        let backoff = self
                            .options
                            .backoff
                            .saturating_mul(1u32 << (task.attempts.min(5) - 1) as u32)
                            .min(Duration::from_secs(5));
                        let deadline = Instant::now() + backoff;
                        while Instant::now() < deadline && !self.cancel.is_cancelled() {
                            std::thread::sleep(Duration::from_millis(25));
                        }
                    }
                }
            }
        }
    }

    /// One dispatch of `shard` to `worker`, streaming progress as it runs.
    #[allow(clippy::too_many_arguments)]
    fn attempt_shard(
        &self,
        client: &ServeClient,
        me: usize,
        worker: &Worker,
        spec: &SweepSpec,
        shard: Shard,
        state: &Mutex<FleetState>,
        emit: &dyn Fn(String),
        ledger: &mut WorkerLedger,
    ) -> Result<ShardReport, String> {
        self.metrics.counter("fleet.shards.dispatched").inc();
        emit(format!("[{}] shard {} dispatched", worker.name, shard.label()));
        let timer = self.metrics.histogram(&worker_histogram_key(me, worker)).start_timer();
        let total = spec.prepared_cells();
        let started = Instant::now();
        let result = client.submit_shard(spec, shard, &self.cancel, |event| match event {
            ShardEvent::Accepted { id, shard: echo } => {
                if ledger.fleet_id.is_none() {
                    // One cheap identity lookup per worker, now that it is
                    // known reachable.
                    ledger.fleet_id = client.fleet_id().ok().flatten();
                }
                emit(format!(
                    "[{}] shard {} accepted as request {} (echo {})",
                    worker.name,
                    shard.label(),
                    id,
                    echo.as_deref().unwrap_or("-")
                ));
            }
            ShardEvent::Planned { .. } => {}
            ShardEvent::Started { position } => {
                emit(format!(
                    "[{}] shard {}: cell {} started",
                    worker.name,
                    shard.label(),
                    position
                ));
            }
            ShardEvent::Finished { position } => {
                // A straggler attempt for a shard whose result is already
                // recorded counts nothing: `completed_cells` already covers
                // the whole shard, so incrementing here would push the
                // done/total line past 100%.
                let fleet_progress = {
                    let mut st = state.lock().expect("fleet state lock");
                    if st.results[shard.index].is_some() {
                        None
                    } else {
                        st.inflight_cells[shard.index] += 1;
                        let done = st.completed_cells + st.inflight_cells.iter().sum::<usize>();
                        Some((done, eta_seconds(started, done, total)))
                    }
                };
                match fleet_progress {
                    Some((done, eta)) => {
                        emit(format!(
                            "fleet: {done}/{total} cells ({:.1}%){} — [{}] shard {}: cell {position} finished",
                            done as f64 / total.max(1) as f64 * 100.0,
                            eta.map(|s| format!(" eta {s:.1}s")).unwrap_or_default(),
                            worker.name,
                            shard.label(),
                        ));
                    }
                    None => emit(format!(
                        "[{}] shard {}: cell {position} finished (straggler, shard already complete)",
                        worker.name,
                        shard.label()
                    )),
                }
            }
            ShardEvent::Failed { position, kind, error } => {
                emit(format!(
                    "[{}] shard {}: cell {position} FAILED ({kind}): {error}",
                    worker.name,
                    shard.label()
                ));
            }
        });
        timer.observe_duration();
        result
    }

    /// The retry path of a failed attempt: requeue (or abort the run when the
    /// shard is out of attempts) and retire a repeatedly-failing worker. Runs
    /// under the state lock held by the caller since its `in_progress`
    /// decrement, so the whole attempt transition is atomic. Returns the
    /// progress lines to emit once the lock is released, and whether the
    /// worker should back off before its next pull.
    #[allow(clippy::too_many_arguments)]
    fn fail_attempt(
        &self,
        me: usize,
        worker: &Worker,
        sweep: &str,
        task: &mut ShardTask,
        message: &str,
        st: &mut FleetState,
        ledger: &mut WorkerLedger,
    ) -> (Vec<String>, bool) {
        task.attempts += 1;
        task.last_worker = Some(me);
        ledger.failures += 1;
        ledger.consecutive_failures += 1;
        self.metrics.counter("fleet.shards.retried").inc();
        let mut lines = vec![format!(
            "[{}] shard {} attempt {} failed: {}",
            worker.name,
            task.shard.label(),
            task.attempts,
            message
        )];

        if st.fatal.is_some() || self.cancel.is_cancelled() {
            return (lines, false);
        }
        if task.attempts >= self.options.max_shard_attempts {
            st.fatal = Some(GeError::Fleet(format!(
                "shard {} of sweep `{sweep}` exhausted its {} attempt(s); last failure on worker `{}`: {}",
                task.shard.label(),
                self.options.max_shard_attempts,
                worker.name,
                message
            )));
            self.cancel.cancel("fleet run aborted");
            return (lines, false);
        }
        st.queue.push_back(ShardTask {
            shard: task.shard,
            attempts: task.attempts,
            last_worker: task.last_worker,
        });
        if ledger.consecutive_failures >= self.options.worker_failure_limit {
            ledger.retired = true;
            st.live_workers -= 1;
            lines.push(format!(
                "[{}] retired after {} consecutive failures",
                worker.name, ledger.consecutive_failures
            ));
            if st.live_workers == 0 {
                st.fatal = Some(GeError::Fleet(format!(
                    "no live workers remain ({} shard(s) unfinished); last failure on worker `{}`: {}",
                    st.queue.len() + st.in_progress,
                    worker.name,
                    message
                )));
                self.cancel.cancel("fleet run aborted");
            }
            return (lines, false);
        }
        (lines, true)
    }

    /// Rejects a shard report that does not belong to this run before it can
    /// poison the strict merge — such a report is a worker bug, and the shard
    /// is retried elsewhere.
    fn validate_report(
        &self,
        report: &ShardReport,
        spec: &SweepSpec,
        expected_hash: &str,
        shard: Shard,
    ) -> Result<(), String> {
        if report.sweep != spec.name {
            return Err(format!(
                "worker returned a report for sweep `{}` (expected `{}`)",
                report.sweep, spec.name
            ));
        }
        if report.spec_hash != expected_hash {
            return Err(format!(
                "worker returned spec hash {} (expected {expected_hash})",
                report.spec_hash
            ));
        }
        if report.shard_index != shard.index || report.shard_count != shard.count {
            return Err(format!(
                "worker returned shard {}/{} (expected {})",
                report.shard_index,
                report.shard_count,
                shard.label()
            ));
        }
        Ok(())
    }

    /// Writes every completed shard report next to where the merged report
    /// would have gone, so a manual `geattack-merge` can finish an aborted
    /// run.
    fn preserve_partial_shards(&self, spec: &SweepSpec, results: &[Option<ShardReport>]) -> Vec<PathBuf> {
        let Some(dir) = &self.options.results_dir else {
            return Vec::new();
        };
        let mut preserved = Vec::new();
        for report in results.iter().flatten() {
            let path = dir.join(format!(
                "sweep_{}.shard{}of{}.json",
                spec.name, report.shard_index, report.shard_count
            ));
            if write_text(&path, &report.to_json()).is_ok() {
                preserved.push(path);
            }
        }
        preserved
    }

    fn collect_stats(
        &self,
        shard_count: usize,
        state: &FleetState,
        ledgers: &mut [WorkerLedger],
        wall_ms: f64,
    ) -> FleetStats {
        let counter = |name: &str| self.metrics.counter_value(name) as usize;
        FleetStats {
            shards: shard_count,
            dispatched: counter("fleet.shards.dispatched"),
            retried: counter("fleet.shards.retried"),
            reassigned: counter("fleet.shards.reassigned"),
            duplicates: counter("fleet.shards.duplicates"),
            finished_cells: state.completed_cells,
            wall_ms,
            workers: self
                .workers
                .iter()
                .zip(ledgers.iter_mut())
                .enumerate()
                .map(|(index, (worker, ledger))| WorkerSummary {
                    name: worker.name.clone(),
                    addr: worker.addr.clone(),
                    fleet_id: ledger.fleet_id.take(),
                    shards_completed: ledger.shards_completed,
                    failures: ledger.failures,
                    retired: ledger.retired,
                    latency: self.metrics.histogram(&worker_histogram_key(index, worker)).snapshot(),
                })
                .collect(),
        }
    }
}

impl FleetState {
    /// Clears the live-attempt cell count of `shard` (its cells either moved
    /// into `completed_cells` or will be re-run elsewhere).
    fn in_flight_reset(&mut self, shard: usize) {
        self.inflight_cells[shard] = 0;
    }
}

/// Per-worker latency histogram key, keyed by fleet index (not display name)
/// so two workers sharing a name or address never share a histogram.
fn worker_histogram_key(index: usize, worker: &Worker) -> String {
    format!("fleet.worker.{index}.{}.shard_ms", worker.name)
}

/// Remaining-work ETA from throughput so far; `None` until something finished.
fn eta_seconds(started: Instant, done: usize, total: usize) -> Option<f64> {
    if done == 0 || total <= done {
        return None;
    }
    let elapsed = started.elapsed().as_secs_f64();
    Some(elapsed / done as f64 * (total - done) as f64)
}

/// Creates the parent directory and writes `text` exactly — no trailing
/// newline, matching `geattack-sweep`'s artifact writer byte for byte.
fn write_text(path: &PathBuf, text: &str) -> Result<(), GeError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| GeError::Fleet(format!("cannot create {}: {e}", parent.display())))?;
    }
    std::fs::write(path, text).map_err(|e| GeError::Fleet(format!("cannot write {}: {e}", path.display())))
}
