//! Parallel execution utilities for the experiment harness.
//!
//! Monte-Carlo estimation of RAND-OMFLP's *expected* competitive ratio needs
//! dozens of independent trials per parameter point; this crate provides a
//! dependency-free order-preserving parallel map over one fan-out runtime
//! ([`TaskPool`]), deterministic per-task seeding (SplitMix64 — results must
//! not depend on thread scheduling), and the mean/CI reduction the tables
//! report.

use std::marker::PhantomData;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex};

/// Applies `f` to every index/item pair on a [`TaskPool`] of `threads`
/// participants. The pool hands out runs of indices that shrink as the
/// fan-out drains, down to one index at a time for the last `4·threads`
/// (see [`TaskPool::run`]), so a few slow items never hold up the rest
/// (catalog sweeps, where one (family, engine, trial) cell can dominate).
/// Each result lands in its index's slot, so
/// the output is in input order regardless of scheduling —
/// `parallel_map(items, 1, f) == parallel_map(items, k, f)` bit for bit.
///
/// `threads = 0` or `1` runs inline (useful under a debugger and in tests).
/// A panic in `f` re-panics in the caller with the pool's [`PoolError`]
/// message.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let writer = ScatterWriter::new(&mut slots);
    TaskPool::new(threads)
        .run(items.len(), |i| {
            // SAFETY: the pool runs each index of `0..items.len()` exactly
            // once, so no slot is accessed from two threads.
            unsafe { *writer.slot(i) = Some(f(i, &items[i])) };
        })
        .unwrap_or_else(|e| panic!("{e}"));
    slots
        .into_iter()
        .map(|s| s.expect("every item executed exactly once"))
        .collect()
}

/// One caught task panic inside a [`TaskPool::run`] fan-out: which index
/// panicked and the stringified payload (`panic!` message when it was a
/// string, a placeholder otherwise).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The task index whose closure invocation panicked.
    pub index: usize,
    /// The panic payload rendered as a string.
    pub message: String,
}

/// The typed failure of a [`TaskPool::run`] fan-out: at least one task
/// panicked. Every *other* index still executed exactly once (panics are
/// caught per task, never allowed to unwind a worker), and the pool itself
/// remains fully usable for subsequent `run` calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Every caught panic of the fan-out, in the order they were recorded.
    pub panics: Vec<TaskPanic>,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} pool task(s) panicked:", self.panics.len())?;
        for p in &self.panics {
            write!(f, " [task {}: {}]", p.index, p.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for PoolError {}

/// Renders a caught panic payload: the `&str` or `String` it carries, or a
/// placeholder for any other payload. [`TaskPanic::message`] holds it, and
/// callers that catch panics of their own can use it too.
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A persistent pool for *within-task* parallelism: fan a closure over
/// `0..ntasks` indices, block until all complete, reuse the same OS threads
/// for the next fan-out.
///
/// Participants claim **runs** of consecutive indices, one run per lock
/// acquisition: `max(1, remaining / (4·threads))` of them (guided
/// self-scheduling). A long fan-out thus takes far fewer claims than it
/// has indices (32 for 128 indices on 2 threads), while its tail, and
/// every fan-out of at most `4·threads` indices, is still claimed one
/// index at a time, so a slow index never holds a run of others behind
/// it.
///
/// Spawning threads per fan-out (as [`parallel_map`] does, one pool per
/// call) is fine for coarse experiment cells but far too heavy for a hot
/// path that fans out many times per arrival (the per-block argmin shards
/// run in the tens of microseconds). `TaskPool` keeps `threads − 1` workers
/// parked on a condvar; [`TaskPool::run`] publishes one task per call, participates
/// with the calling thread, and returns only when every index has executed.
///
/// The pool provides **execution** only — no results, no ordering. Callers
/// that need deterministic output write into disjoint per-index slots (see
/// [`ShardWriter`]) and merge sequentially afterwards; with that pattern,
/// results are bit-identical whether the pool has 1 participant or 16.
/// With `threads ≤ 1` (or on a machine without spare cores) `run` executes
/// inline on the caller, exercising the exact same code path minus the
/// handoff.
///
/// The pool is `Sync` and built to be **shared long-lived** (e.g. one pool
/// multiplexing many serve shards): concurrent [`TaskPool::run`] calls from
/// different threads serialize on a submit lock — each fan-out runs to
/// completion before the next starts, no indices are lost or cross-executed.
/// `run` is *not* reentrant: calling it from inside a task of the same pool
/// deadlocks on that lock (fan out once per level instead).
pub struct TaskPool {
    shared: std::sync::Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    /// Serializes submitters; see the struct docs.
    submit: Mutex<()>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between tasks.
    work_cv: Condvar,
    /// The submitter parks here until `finished == ntasks`.
    done_cv: Condvar,
    /// `4 · threads`, the divisor of [`PoolState::claim`].
    claim_div: usize,
}

struct PoolState {
    /// Bumped once per `run`; a worker mid-claim compares epochs so a stale
    /// wake-up can never execute indices of a later task.
    epoch: u64,
    task: Option<RawTask>,
    ntasks: usize,
    next: usize,
    finished: usize,
    /// Panics caught while executing indices of the current epoch. Drained
    /// by the submitter into the [`PoolError`] its `run` returns; reset at
    /// the next submission.
    panics: Vec<TaskPanic>,
    shutdown: bool,
}

impl PoolState {
    /// Claims the next run of indices: `max(1, remaining / claim_div)`
    /// consecutive ones, so runs shrink as the fan-out drains and the last
    /// `claim_div` indices go one at a time.
    fn claim(&mut self, claim_div: usize) -> Range<usize> {
        let start = self.next;
        self.next += ((self.ntasks - start) / claim_div).max(1);
        start..self.next
    }
}

/// Runs `f` on every index of `run`, each in its own `catch_unwind`, and
/// records each caught panic with its own index: a panicking index never
/// stops the rest of its run.
fn run_indices<F: Fn(usize) + ?Sized>(f: &F, run: Range<usize>, panics: &mut Vec<TaskPanic>) {
    for i in run {
        if let Err(p) = std::panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
            let message = payload_message(&*p);
            panics.push(TaskPanic { index: i, message });
        }
    }
}

/// Lifetime-erased pointer to the current task closure. Safety: `run`
/// blocks until `finished == ntasks`, so the pointee outlives every
/// dereference; workers only dereference it for runs claimed under the
/// mutex while the epoch matches.
#[derive(Clone, Copy)]
struct RawTask(*const (dyn Fn(usize) + Sync));
unsafe impl Send for RawTask {}

impl TaskPool {
    /// Builds a pool with `threads` total participants (the caller counts
    /// as one, so `threads − 1` workers are spawned; `threads ≤ 1` spawns
    /// none and `run` executes inline).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = std::sync::Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                task: None,
                ntasks: 0,
                next: 0,
                finished: 0,
                panics: Vec::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            claim_div: 4 * threads,
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
            submit: Mutex::new(()),
        }
    }

    /// Total participants (caller + workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes `f(i)` for every `i in 0..ntasks`, each exactly once, and
    /// returns when all have completed. Indices are claimed in runs (see
    /// the type docs), but each one still runs in its own panic catch.
    ///
    /// Panics in `f` are caught *per task*: the remaining indices still
    /// execute, no worker thread dies, the pool's mutex is never poisoned,
    /// and `run` reports every caught panic as a typed [`PoolError`]. The
    /// pool stays fully usable after an `Err` — the next `run` starts from
    /// a clean slate. (Before this hardening a panicking task killed its
    /// worker mid-fan-out and every later `run` deadlocked or panicked;
    /// that footgun is gone.)
    pub fn run<F: Fn(usize) + Sync>(&self, ntasks: usize, f: F) -> Result<(), PoolError> {
        if ntasks == 0 {
            return Ok(());
        }
        if self.workers.is_empty() || ntasks == 1 {
            let mut panics = Vec::new();
            run_indices(&f, 0..ntasks, &mut panics);
            return if panics.is_empty() {
                Ok(())
            } else {
                Err(PoolError { panics })
            };
        }
        // One fan-out at a time: a second submitter parking here (instead
        // of racing the epoch bump) is what makes sharing one pool across
        // long-lived shards safe. Submitters never panic while holding this
        // lock (their own task panics are caught below), so recovering a
        // poisoned guard — impossible since the hardening, but cheap — is
        // strictly better than turning every later run into a panic.
        let _submit = self
            .submit
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let erased: &(dyn Fn(usize) + Sync) = &f;
        // Safety: see RawTask — we block below until every index finished.
        let raw = RawTask(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(erased)
                as *const _
        });
        let mut st = self.shared.state.lock().expect("pool poisoned");
        st.epoch += 1;
        st.task = Some(raw);
        st.ntasks = ntasks;
        st.next = 0;
        st.finished = 0;
        st.panics.clear();
        let epoch = st.epoch;
        self.shared.work_cv.notify_all();
        // Participate: claim runs until none remain. The catch mirrors the
        // workers': a panicking index is recorded and counted finished with
        // its run, so the fan-out always converges.
        let mut caught = Vec::new();
        while st.next < st.ntasks {
            let run = st.claim(self.shared.claim_div);
            drop(st);
            run_indices(&f, run.clone(), &mut caught);
            st = self.shared.state.lock().expect("pool poisoned");
            st.finished += run.len();
            st.panics.append(&mut caught);
        }
        while st.finished < st.ntasks {
            st = self.shared.done_cv.wait(st).expect("pool poisoned");
        }
        debug_assert_eq!(st.epoch, epoch);
        st.task = None;
        if st.panics.is_empty() {
            Ok(())
        } else {
            Err(PoolError {
                panics: std::mem::take(&mut st.panics),
            })
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        if let Ok(mut st) = self.shared.state.lock() {
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for TaskPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskPool")
            .field("threads", &self.threads)
            .finish()
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut st = shared.state.lock().expect("pool poisoned");
    let mut caught = Vec::new();
    loop {
        // Park until there is claimable work (or shutdown).
        while !(st.shutdown || st.task.is_some() && st.next < st.ntasks) {
            st = shared.work_cv.wait(st).expect("pool poisoned");
        }
        if st.shutdown {
            return;
        }
        let raw = st.task.expect("checked above");
        let epoch = st.epoch;
        while st.epoch == epoch && st.next < st.ntasks {
            let run = st.claim(shared.claim_div);
            drop(st);
            // Safety: run claimed under the mutex for the matching epoch;
            // the submitter keeps the closure alive until all indices finish.
            // The per-index catch keeps a panicking task from unwinding the
            // worker: the panic is recorded for the submitter's PoolError,
            // the index counts as finished with its run, and this thread
            // keeps serving fan-outs.
            run_indices(unsafe { &*raw.0 }, run.clone(), &mut caught);
            st = shared.state.lock().expect("pool poisoned");
            st.finished += run.len();
            if st.epoch == epoch {
                st.panics.append(&mut caught);
            }
            caught.clear();
            if st.finished == st.ntasks && st.epoch == epoch {
                shared.done_cv.notify_all();
            }
        }
    }
}

/// Disjoint parallel writes into one slice, chunked by a fixed length.
///
/// The safe-Rust obstacle to "each pool task writes its own shard of this
/// buffer" is that `&mut [T]` cannot be shared across closures; this wrapper
/// hands out raw chunk views instead. The caller promises (unsafe contract
/// on [`ShardWriter::chunk`]) that no chunk index is accessed concurrently
/// from two threads — which the [`TaskPool`] guarantees when each task `i`
/// touches only chunk `i`.
pub struct ShardWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    chunk: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for ShardWriter<'_, T> {}
unsafe impl<T: Send> Sync for ShardWriter<'_, T> {}

impl<'a, T> ShardWriter<'a, T> {
    /// Wraps `slice`, to be written in chunks of `chunk` elements (the last
    /// chunk may be shorter). `chunk` must be positive.
    pub fn new(slice: &'a mut [T], chunk: usize) -> Self {
        assert!(chunk > 0, "chunk length must be positive");
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            chunk,
            _marker: PhantomData,
        }
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.len.div_ceil(self.chunk)
    }

    /// Mutable view of chunk `i`.
    ///
    /// # Safety
    ///
    /// Each chunk index must be accessed by at most one thread at a time —
    /// in the intended pattern, pool task `i` calls `chunk(i)` and nothing
    /// else, so the views are disjoint by construction.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn chunk(&self, i: usize) -> &mut [T] {
        let start = i * self.chunk;
        assert!(start < self.len, "chunk {i} out of range");
        let len = self.chunk.min(self.len - start);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// Disjoint parallel writes into one slice at *scattered* indices.
///
/// [`ShardWriter`] covers the contiguous-chunk pattern; some fan-outs
/// partition a buffer by an index function instead — e.g. the sharded
/// freeze walk writes bid slots keyed by spatial block membership, where
/// each block's points are scattered through the flat `commodity × point`
/// arrays but every index still belongs to exactly one shard. The caller
/// promises (unsafe contract on [`ScatterWriter::slot`]) that no index is
/// accessed from two threads concurrently.
pub struct ScatterWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for ScatterWriter<'_, T> {}
unsafe impl<T: Send> Sync for ScatterWriter<'_, T> {}

impl<'a, T> ScatterWriter<'a, T> {
    /// Wraps `slice` for scattered disjoint writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Elements in the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable view of element `i`.
    ///
    /// # Safety
    ///
    /// Each index must be accessed by at most one thread at a time. The
    /// intended pattern derives the index set of each pool task from a
    /// partition (task `s` owns exactly the indices `f(i) == s` for a pure
    /// function `f`), making the views disjoint by construction.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slot(&self, i: usize) -> &mut T {
        assert!(i < self.len, "slot {i} out of range");
        &mut *self.ptr.add(i)
    }
}

/// A reasonable default worker count: the `OMFL_THREADS` environment
/// variable when set to a positive integer (the knob CI's determinism
/// matrix drives — results must be bit-identical at every value), else
/// available parallelism capped at 8 (experiment tasks are
/// memory-bandwidth-bound; more threads stop helping).
pub fn default_threads() -> usize {
    let raw = std::env::var("OMFL_THREADS").ok();
    threads_from(raw.as_deref())
}

/// The parsing half of [`default_threads`], with the raw configuration
/// value injected instead of read from the process environment: a positive
/// integer wins, anything else (unset, zero, garbage) falls back to
/// available parallelism capped at 8.
///
/// This is the seam tests and embedders use — mutating `OMFL_THREADS` via
/// `set_var` races every concurrent `default_threads()` reader in the
/// process (and is `unsafe` on current toolchains for exactly that
/// reason), so nothing in this workspace writes the variable at runtime.
pub fn threads_from(raw: Option<&str>) -> usize {
    if let Some(n) = raw
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Deterministic per-task seed derivation (SplitMix64 over `(base, task)`),
/// so trial `i` sees the same RNG stream no matter which thread runs it.
pub fn seed_for(base: u64, task: u64) -> u64 {
    let mut z = base ^ task.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n ≤ 1).
    pub std: f64,
    /// Half-width of the normal-approximation 95% confidence interval.
    pub ci95: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes [`Summary`] over a non-empty sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    let std = var.sqrt();
    let ci95 = 1.96 * std / (n as f64).sqrt();
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in samples {
        min = min.min(x);
        max = max.max(x);
    }
    Summary {
        n,
        mean,
        std,
        ci95,
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, 4, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential() {
        let items: Vec<u64> = (0..500).collect();
        let seq = parallel_map(&items, 1, |i, &x| seed_for(x, i as u64));
        let par = parallel_map(&items, 8, |i, &x| seed_for(x, i as u64));
        assert_eq!(seq, par);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Regression for the chunked rewrite: every thread count must yield
        // byte-identical output, including counts that don't divide n.
        let items: Vec<u64> = (0..331).collect();
        let reference = parallel_map(&items, 1, |i, &x| seed_for(x, i as u64));
        for threads in [2, 3, 5, 8, 16, 331, 1000] {
            let out = parallel_map(&items, threads, |i, &x| seed_for(x, i as u64));
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Later items are much heavier, so workers finish out of order;
        // assembly must still be in index order.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 8, |_, &x| {
            let spins = if x >= 56 { 20_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = seed_for(acc, x);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(i as u64, *x);
        }
    }

    #[test]
    fn skewed_front_loaded_work_is_bit_identical_across_thread_counts() {
        // All the heavy items come first, so whichever workers claim them
        // finish last. Results must not care.
        let items: Vec<u64> = (0..96).collect();
        let work = |i: usize, x: u64| {
            let spins = if x < 12 { 50_000 } else { 5 };
            let mut acc = seed_for(x, i as u64);
            for _ in 0..spins {
                acc = seed_for(acc, x);
            }
            acc
        };
        let reference: Vec<u64> = items.iter().enumerate().map(|(i, &x)| work(i, x)).collect();
        for threads in [2, 3, 7, 16] {
            let out = parallel_map(&items, threads, |i, &x| work(i, x));
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn seed_for_values_are_pinned() {
        // The scheduler rewrite must not reshuffle which (base, task) pair a
        // trial sees: seed derivation is a pure function of the pair, pinned
        // here so any accidental re-indexing in a future scheduler change
        // fails loudly instead of silently changing every table.
        assert_eq!(seed_for(0, 0), 0x0000_0000_0000_0000);
        assert_eq!(seed_for(0, 1), 0xE220_A839_7B1D_CDAF);
        assert_eq!(seed_for(1, 0), 0x5692_161D_100B_05E5);
        assert_eq!(seed_for(42, 7), 0x53AD_348A_F3DD_AF4B);
        assert_eq!(seed_for(2020, 3), 0xB38A_0D62_2D28_23D6);
        assert_eq!(seed_for(u64::MAX, u64::MAX), 0xE4D9_7177_1B65_2C20);
        assert_eq!(seed_for(0xDEAD_BEEF, 123_456_789), 0x9EB9_DDA0_7692_25F7);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map::<u32, u32, _>(&[], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn seeds_differ_across_tasks_and_bases() {
        assert_ne!(seed_for(1, 0), seed_for(1, 1));
        assert_ne!(seed_for(1, 0), seed_for(2, 0));
        assert_eq!(seed_for(7, 3), seed_for(7, 3));
    }

    #[test]
    fn summary_of_constant_sample() {
        let s = summarize(&[2.0, 2.0, 2.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!((s.min, s.max), (2.0, 2.0));
    }

    #[test]
    fn summary_known_values() {
        let s = summarize(&[1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert!((s.std - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!((s.min, s.max), (1.0, 3.0));
        assert_eq!(s.n, 2);
    }

    #[test]
    fn single_sample_summary() {
        let s = summarize(&[5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn task_pool_runs_every_index_exactly_once() {
        // From `4·threads` indices up participants claim runs longer than
        // one index, and 257 and 1,000 leave short runs at the end.
        for threads in [1usize, 2, 3, 4, 7] {
            let pool = TaskPool::new(threads);
            for ntasks in [0usize, 1, 2, 3, 16, 64, 100, 257, 1000] {
                let hits: Vec<AtomicUsize> = (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
                pool.run(ntasks, |i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::SeqCst),
                        1,
                        "threads {threads}, ntasks {ntasks}, index {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn task_pool_is_reusable_with_uneven_work() {
        let pool = TaskPool::new(4);
        for round in 0..50u64 {
            let acc: Vec<AtomicUsize> = (0..13).map(|_| AtomicUsize::new(0)).collect();
            pool.run(13, |i| {
                // Skew the work so claims interleave differently per round.
                let spins = if i % 5 == 0 { 2000 } else { 3 };
                let mut x = seed_for(round, i as u64);
                for _ in 0..spins {
                    x = seed_for(x, i as u64);
                }
                acc[i].store((x as usize).max(1), Ordering::SeqCst);
            })
            .unwrap();
            assert!(acc.iter().all(|a| a.load(Ordering::SeqCst) > 0));
        }
    }

    #[test]
    fn task_pool_serializes_concurrent_submitters() {
        // One pool shared by several long-lived submitters (the serve-shard
        // pattern): every submission must execute all of its indices exactly
        // once, with no cross-execution between overlapping fan-outs.
        let pool = TaskPool::new(4);
        let submitters = 6usize;
        let rounds = 25usize;
        let ntasks = 17usize;
        let hits: Vec<Vec<AtomicUsize>> = (0..submitters)
            .map(|_| (0..ntasks).map(|_| AtomicUsize::new(0)).collect())
            .collect();
        std::thread::scope(|scope| {
            for s in 0..submitters {
                let pool = &pool;
                let hits = &hits;
                scope.spawn(move || {
                    for round in 0..rounds {
                        pool.run(ntasks, |i| {
                            // A pinch of skew so claims interleave.
                            let mut x = seed_for(round as u64, i as u64);
                            for _ in 0..(i % 7) * 50 {
                                x = seed_for(x, i as u64);
                            }
                            std::hint::black_box(x);
                            hits[s][i].fetch_add(1, Ordering::SeqCst);
                        })
                        .unwrap();
                    }
                });
            }
        });
        for (s, row) in hits.iter().enumerate() {
            for (i, h) in row.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), rounds, "submitter {s}, index {i}");
            }
        }
    }

    #[test]
    fn shard_writer_partitions_exactly() {
        let mut buf = vec![0u64; 103];
        let writer = ShardWriter::new(&mut buf, 10);
        assert_eq!(writer.num_chunks(), 11);
        let pool = TaskPool::new(3);
        pool.run(writer.num_chunks(), |i| {
            // Safety: task i touches only chunk i.
            let chunk = unsafe { writer.chunk(i) };
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = (i * 10 + j) as u64 + 1;
            }
        })
        .unwrap();
        for (k, &v) in buf.iter().enumerate() {
            assert_eq!(v, k as u64 + 1);
        }
    }

    #[test]
    fn scatter_writer_disjoint_indices_partition_exactly() {
        // Interleaved ownership: task s owns indices with k % nshards == s —
        // scattered through the buffer, disjoint across tasks.
        let nshards = 4;
        let mut buf = vec![0u64; 103];
        let writer = ScatterWriter::new(&mut buf);
        assert_eq!(writer.len(), 103);
        assert!(!writer.is_empty());
        let pool = TaskPool::new(3);
        pool.run(nshards, |s| {
            for k in (s..103).step_by(nshards) {
                // Safety: k % nshards == s, so no other task touches k.
                unsafe { *writer.slot(k) = k as u64 + 1 };
            }
        })
        .unwrap();
        for (k, &v) in buf.iter().enumerate() {
            assert_eq!(v, k as u64 + 1);
        }
    }

    /// Silences the default panic hook for payloads produced by these
    /// deliberately panicking tests, so `cargo test` output stays readable.
    /// Other payloads still reach the previous hook.
    fn quiet_expected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied());
                let quiet = msg.is_some_and(|s| s.contains("deliberate test panic"));
                if !quiet {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn task_pool_survives_task_panics_and_reports_them_typed() {
        quiet_expected_panics();
        for threads in [1usize, 2, 4, 7] {
            let pool = TaskPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..24).map(|_| AtomicUsize::new(0)).collect();
            let err = pool
                .run(24, |i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                    if i % 7 == 3 {
                        panic!("deliberate test panic at {i}");
                    }
                })
                .unwrap_err();
            // Every index ran exactly once, panicking or not.
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "threads {threads}, index {i}");
            }
            let mut panicked: Vec<usize> = err.panics.iter().map(|p| p.index).collect();
            panicked.sort_unstable();
            assert_eq!(panicked, vec![3, 10, 17], "threads {threads}");
            assert!(err.panics.iter().all(|p| p.message.contains("deliberate")));
            assert!(err.to_string().contains("panicked"));

            // The footgun regression: the pool must stay usable after the
            // panicking fan-out — same workers, clean slate.
            for _ in 0..3 {
                let ok: Vec<AtomicUsize> = (0..16).map(|_| AtomicUsize::new(0)).collect();
                pool.run(16, |i| {
                    ok[i].fetch_add(1, Ordering::SeqCst);
                })
                .expect("pool recovered");
                assert!(ok.iter().all(|h| h.load(Ordering::SeqCst) == 1));
            }
        }
    }

    #[test]
    fn task_pool_reports_every_panic_of_one_claimed_run() {
        quiet_expected_panics();
        // On 2 threads the first claim of 200 indices is a run of 25, so
        // whoever claims it meets the panics at 0 and 1 in one run; 199 is
        // claimed alone at the tail. A panic must neither cut its run short
        // nor hide another panic of the same run.
        let pool = TaskPool::new(2);
        for _ in 0..20 {
            let hits: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
            let err = pool
                .run(200, |i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                    if matches!(i, 0 | 1 | 199) {
                        panic!("deliberate test panic at {i}");
                    }
                })
                .unwrap_err();
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "index {i}");
            }
            let mut panicked: Vec<(usize, String)> = err
                .panics
                .iter()
                .map(|p| (p.index, p.message.clone()))
                .collect();
            panicked.sort_unstable();
            let want: Vec<(usize, String)> = [0, 1, 199]
                .map(|i| (i, format!("deliberate test panic at {i}")))
                .into();
            assert_eq!(panicked, want);
        }
    }

    #[test]
    fn task_pool_panic_from_the_submitting_thread_is_caught_too() {
        quiet_expected_panics();
        // ntasks == 1 executes inline on the caller; the catch must cover
        // that path as well as the fan-out path.
        let pool = TaskPool::new(4);
        let err = pool
            .run(1, |_| panic!("deliberate test panic inline"))
            .unwrap_err();
        assert_eq!(err.panics.len(), 1);
        assert_eq!(err.panics[0].index, 0);
        pool.run(8, |_| {}).expect("pool still fine");
    }

    #[test]
    #[should_panic(expected = "deliberate test panic at 5")]
    fn parallel_map_repanics_an_item_panic_in_the_caller() {
        quiet_expected_panics();
        let items: Vec<u64> = (0..16).collect();
        parallel_map(&items, 4, |i, &x| {
            if i == 5 {
                panic!("deliberate test panic at {i}");
            }
            x
        });
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn default_threads_honors_omfl_threads_env() {
        // The parse logic is exercised through the injectable seam — the
        // old version mutated `OMFL_THREADS` with set_var/remove_var, and
        // any concurrently running test constructing a pool via
        // default_threads() could observe the transient 0/"lots" values.
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 12 ")), 12);
        // Garbage, zero, and unset fall back to the hardware default.
        let hw = threads_from(None);
        assert!((1..=8).contains(&hw));
        assert_eq!(threads_from(Some("0")), hw);
        assert_eq!(threads_from(Some("lots")), hw);
        assert_eq!(threads_from(Some("")), hw);
        // And the env-reading wrapper is the seam applied to the real
        // variable (read-only: no mutation, no race).
        let raw = std::env::var("OMFL_THREADS").ok();
        assert_eq!(default_threads(), threads_from(raw.as_deref()));
    }
}
