//! Multi-worker schedule exploration: a work-stealing frontier over the
//! snapshot pool.
//!
//! Independent subtrees of the schedule tree are embarrassingly parallel —
//! every pending backtrack branch's first run depends only on its forced
//! prefix, not on when (or where) it executes. This module exploits that
//! while keeping the search *byte-identical* to a one-worker walk:
//!
//! - The walk (`dpor::walk`) stays on the calling thread: the stack, DPOR
//!   backtrack sets, budget checks, pruning counts, snapshot-pool evolution
//!   and statistics all live there and are consumed in walk order. Nothing
//!   a caller can observe — the interleavings visited, their order, the
//!   failure set, per-interleaving trace hashes, or any
//!   [`InferenceStats`](crate::InferenceStats) field — depends on the
//!   worker count.
//! - N **workers** each own a private execution shell (their runs build
//!   their own kernels, observers, policy clones and coroutine engines —
//!   see `dd-sim`'s world/shell split). They pop forced prefixes from a
//!   shared LIFO frontier, run each through `dpor::run_branch` — the same
//!   function the walk uses — against a mirror of the walk's snapshot pool,
//!   and post the finished [`RunOutput`] back. Restoring is cheap
//!   everywhere: a snapshot's history lives in `Send + Sync`
//!   `dd_sim::ChunkedLog` chunks shared across the whole pool and all
//!   worker threads, so a fork clones O(live state), never the trace.
//! - After consuming each run, the walk **speculatively enqueues** every
//!   branch pending anywhere on its stack (all of them will be consumed
//!   eventually; DPOR backtrack sets only grow). The frontier is popped
//!   deepest-first — the branch the DFS consumes next — so workers race
//!   just ahead of the walk. A branch no worker has claimed yet is
//!   withdrawn and run inline; the walk blocks only on a branch a worker
//!   is already running.
//!
//! # Why determinism survives the parallelism
//!
//! Every cross-thread interaction is canonicalized by the walk:
//!
//! - **Run outputs** are prefix-deterministic: restore + re-run is
//!   bit-identical to scratch execution (the `dd-sim` snapshot guarantee),
//!   so a worker forking from whichever snapshot existed at enqueue time
//!   produces the same trace an inline run would.
//! - **Budget and statistics accounting** happens only at consumption, in
//!   walk order, and is charged against the walk's *canonical*
//!   snapshot pool rather than the worker's actual resume depth — so
//!   `explored`/`pruned`/`ticks`/`steps_executed`/`steps_skipped` are
//!   exact and worker-count-invariant (a worker resuming shallower than
//!   the canonical point only spends real wall-clock, never budget).
//! - **Backtrack-set merges** happen at consumption-order join points in
//!   the walk: conflict analysis of run *k* is applied before run *k + 1*
//!   is consumed, exactly as with one worker.
//! - **Snapshot-pool merges** drop any snapshot a worker reports at or
//!   below the canonical resume point, so the pool evolves exactly as a
//!   one-worker walk's pool would.
//!
//! Speculative runs the budget cut off before consumption are wasted
//! wall-clock only; they are never charged. The scaling limit is *subtree
//! granularity* — parallelism comes from independent pending branches, so
//! a near-trivial tree (the one-run sum/bufoverflow rows of ABL-8) has
//! nothing to overlap, a deep chain-shaped region serializes on branch
//! discovery (each next branch is only exposed by executing the previous
//! run), and at shallow horizons every speculative run is a full
//! re-execution (no snapshot sits inside a 4-decision prefix), so workers
//! overlap whole runs but fork savings contribute nothing. The deep-wide
//! regime — the ABL-8 deep-horizon msgserver row — is where both effects
//! compound: many pending subtrees in flight, each forked from a deep
//! snapshot.

use crate::dpor::{run_branch, SnapshotPool, TreeConfig};
use crate::scenario::Scenario;
use dd_sim::RunOutput;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Frontier state behind the mutex.
struct FrontierQueue {
    /// Forced prefixes of pending jobs, popped LIFO (deepest branch last =
    /// first out).
    jobs: Vec<Vec<u32>>,
    /// Finished runs awaiting consumption, keyed by forced prefix.
    results: HashMap<Vec<u32>, RunOutput>,
    /// Set once the walk returns; workers drain and exit.
    shutdown: bool,
    /// A worker's panic message, if one died mid-run. The walk re-raises it
    /// instead of waiting forever for the lost result.
    poisoned: Option<String>,
}

/// The shared frontier: job queue, result buffer, pool mirror and wake-up
/// plumbing.
struct Frontier {
    q: Mutex<FrontierQueue>,
    /// A mirror of the walk's canonical snapshot pool, refreshed at every
    /// consumption. A worker takes the current mirror when it starts a job,
    /// so a branch queued early still benefits from snapshots discovered
    /// later; entries the walk has since abandoned are harmless because
    /// `run_branch` checks compatibility against the job's own prefix.
    mirror: Mutex<Arc<SnapshotPool>>,
    /// Signalled when jobs arrive, results are consumed (workers re-check
    /// the high-water mark), or the walk shuts the frontier down.
    work: Condvar,
    /// Signalled when a worker posts a result.
    done: Condvar,
    /// Bound on buffered results: workers pause speculation past this point
    /// so a fast pool cannot balloon memory arbitrarily far ahead of the
    /// walk. The walk never waits on a queued job (it runs those inline),
    /// so the bound cannot stall it.
    high_water: usize,
}

impl Frontier {
    /// Tells every worker to exit. Runs on drop of [`Shutdown`], so a walk
    /// that unwinds (a panicking `visit`, a poisoned frontier) still
    /// releases the workers and lets the thread scope join them.
    fn shut_down(&self) {
        self.q.lock().shutdown = true;
        self.work.notify_all();
    }
}

/// Shuts the frontier down when the walk returns or unwinds.
struct Shutdown<'a>(&'a Frontier);

impl Drop for Shutdown<'_> {
    fn drop(&mut self) {
        self.0.shut_down();
    }
}

/// The worker loop: pop the deepest job, run it, post the result.
///
/// A panicking run poisons the frontier instead of silently dying: the walk
/// would otherwise block forever on a result that will never arrive. The
/// poison re-raises the panic on the walk's thread, which is where a
/// one-worker walk would have surfaced it.
fn worker_loop(scenario: &Scenario, cfg: &TreeConfig<'_>, fr: &Frontier) {
    loop {
        let prefix = {
            let mut q = fr.q.lock();
            loop {
                if q.shutdown {
                    return;
                }
                if q.results.len() < fr.high_water {
                    if let Some(p) = q.jobs.pop() {
                        break p;
                    }
                }
                fr.work.wait(&mut q);
            }
        };
        let pool = Arc::clone(&fr.mirror.lock());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_branch(scenario, cfg, &pool, &prefix)
        }));
        let mut q = fr.q.lock();
        match result {
            Ok(out) => {
                q.results.insert(prefix, out);
                fr.done.notify_all();
            }
            Err(payload) => {
                q.poisoned = Some(panic_message(payload.as_ref()));
                q.shutdown = true;
                fr.done.notify_all();
                fr.work.notify_all();
                return;
            }
        }
    }
}

/// Best-effort extraction of a worker panic's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// The walk's handle on its worker pool: schedules speculative jobs on the
/// frontier and collects the runs workers have claimed.
pub(crate) struct Workers<'a> {
    fr: &'a Frontier,
    /// Prefixes already enqueued (or already consumed); the walk never
    /// consumes the same prefix twice, so this only prevents duplicate
    /// speculation.
    scheduled: HashSet<Vec<u32>>,
}

impl Workers<'_> {
    /// Refreshes the workers' pool mirror from the walk's canonical pool
    /// (`Arc` clones — the worlds themselves are shared, not copied).
    fn refresh_mirror(&self, pool: &SnapshotPool) {
        *self.fr.mirror.lock() = Arc::new(pool.clone());
    }

    /// The run for `prefix` if a worker has claimed it, blocking until the
    /// worker posts it. `None` when no worker has — the job is withdrawn
    /// from the queue and the walk runs it inline: waiting for a worker to
    /// wake, pop, run and post back would insert a cross-thread round trip
    /// into the serial discovery chain, exactly the path that dominates
    /// when subtrees are shallow.
    pub(crate) fn take(&mut self, prefix: &[u32], pool: &SnapshotPool) -> Option<RunOutput> {
        self.refresh_mirror(pool);
        let mut q = self.fr.q.lock();
        if let Some(out) = q.results.remove(prefix) {
            self.fr.work.notify_all(); // Buffer shrank below the high-water mark.
            return Some(out);
        }
        let unscheduled = self.scheduled.insert(prefix.to_vec());
        let queued = q.jobs.iter().position(|p| p == prefix);
        if let Some(pos) = queued {
            q.jobs.remove(pos);
        }
        if unscheduled || queued.is_some() {
            return None;
        }
        // In flight on a worker: block until it posts the result.
        loop {
            if let Some(msg) = &q.poisoned {
                panic!("a parallel-exploration worker panicked: {msg}");
            }
            if let Some(out) = q.results.remove(prefix) {
                // Consuming a result frees buffer space below the
                // high-water mark.
                self.fr.work.notify_all();
                return Some(out);
            }
            self.fr.done.wait(&mut q);
        }
    }

    /// Queues every not-yet-scheduled branch in `branches` (shallowest
    /// first) for speculative execution.
    pub(crate) fn speculate(&mut self, branches: Vec<Vec<u32>>, pool: &SnapshotPool) {
        if branches.is_empty() {
            return;
        }
        self.refresh_mirror(pool);
        let fresh: Vec<Vec<u32>> = branches
            .into_iter()
            .filter(|prefix| self.scheduled.insert(prefix.clone()))
            .collect();
        if !fresh.is_empty() {
            let mut q = self.fr.q.lock();
            q.jobs.extend(fresh);
            self.fr.work.notify_all();
        }
    }
}

/// Runs `walk` with a pool of `workers` threads, or with none: at
/// `workers <= 1` it calls `walk(None)` directly — no frontier, no thread —
/// and the walk runs every branch inline.
///
/// An explicit worker count is honored as-is — the determinism contract
/// makes any pool size return identical results, so the only cost of
/// oversubscription is wall-clock. Host-sizing the pool is the caller's
/// job (`InferenceBudget::default_worker_pool`).
pub(crate) fn with_workers<R>(
    scenario: &Scenario,
    cfg: &TreeConfig<'_>,
    workers: u32,
    walk: impl FnOnce(Option<&mut Workers<'_>>) -> R,
) -> R {
    if workers <= 1 {
        return walk(None);
    }
    let fr = Frontier {
        q: Mutex::new(FrontierQueue {
            jobs: Vec::new(),
            results: HashMap::new(),
            shutdown: false,
            poisoned: None,
        }),
        mirror: Mutex::new(Arc::new(SnapshotPool::new())),
        work: Condvar::new(),
        done: Condvar::new(),
        high_water: workers as usize * 4 + 16,
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(scenario, cfg, &fr));
        }
        let _shutdown = Shutdown(&fr);
        walk(Some(&mut Workers {
            fr: &fr,
            scheduled: HashSet::new(),
        }))
    })
}
