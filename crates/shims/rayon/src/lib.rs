//! In-repo stand-in for `rayon`, covering the patterns the ParaGraph
//! workspace uses:
//!
//! * `collection.par_iter().map(f).collect::<Vec<_>>()`
//! * `collection.par_iter().filter_map(f).collect::<Vec<_>>()`
//! * `data.par_chunks_mut(n).zip(other.par_chunks(k)).for_each(f)`
//! * `data.par_chunks_mut(n).enumerate().for_each(f)`
//!
//! Unlike a sequential mock, this shim really fans work out, over one
//! process-wide pool of threads. A parallel call splits its items into one
//! contiguous chunk per worker. The calling thread and the pool's workers
//! claim chunks from an atomic counter, so the caller never waits for a
//! worker that has not woken yet, and results are stitched back in input
//! order, so everything stays deterministic.
//!
//! * `available_parallelism()` is read once; std re-reads the cgroup CPU
//!   quota on every call, which costs tens of microseconds.
//! * The pool's `available_parallelism() - 1` workers (at most 15) start on
//!   the first parallel call and live for the rest of the process, so no
//!   call spawns or joins a thread. The shim never holds more threads than
//!   that, and a call runs on at most `available_parallelism()` threads,
//!   its caller included.
//! * The pool serves one call at a time. A call that finds it busy with
//!   another thread's call runs its chunks inline on its own thread.
//! * A thread-local re-entrancy guard makes parallel calls nested inside a
//!   chunk run sequentially.
//! * A call returns only after every chunk has finished, even when one
//!   panics. The first chunk panic is then resumed on the caller.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, Once, OnceLock};

pub mod prelude {
    //! Glob-importable traits, mirroring `rayon::prelude`.
    pub use crate::{IntoParallelRefIterator, ParallelSlice, ParallelSliceMut};
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Most chunks one parallel call is split into.
const MAX_WORKERS: usize = 16;

/// Threads a parallel call can run on, its caller included:
/// `available_parallelism()` capped at [`MAX_WORKERS`], read once.
fn pool_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(MAX_WORKERS)
    })
}

/// Number of chunks for `n_items` of work. Small batches, and calls nested
/// inside a chunk, run as one chunk on the calling thread: below the
/// threshold, waking a worker would dominate the work itself.
fn worker_count(n_items: usize) -> usize {
    const MIN_ITEMS_TO_SPLIT: usize = 8;
    const MIN_ITEMS_PER_WORKER: usize = 4;
    if n_items < MIN_ITEMS_TO_SPLIT || IN_WORKER.with(Cell::get) {
        return 1;
    }
    pool_width().min(n_items / MIN_ITEMS_PER_WORKER).max(1)
}

/// Run `f` over every index chunk of `0..n_items` and return the per-chunk
/// outputs in chunk order.
fn run_chunked<R, F>(n_items: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    run_chunked_on(worker_count(n_items), n_items, f)
}

/// [`run_chunked`] with an explicit chunk count (separated so chunk-bound
/// arithmetic is testable independently of the host's core count).
fn run_chunked_on<R, F>(workers: usize, n_items: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    dispatch(chunk_ranges(workers, n_items).collect(), f)
}

/// Apply `f` to every item, in [`worker_count`] contiguous batches.
fn for_each_chunked<I: Send>(items: Vec<I>, f: impl Fn(I) + Sync) {
    let ranges = chunk_ranges(worker_count(items.len()), items.len());
    let mut items = items.into_iter();
    let batches = ranges
        .map(|range| items.by_ref().take(range.len()).collect::<Vec<I>>())
        .collect();
    dispatch(batches, |batch| batch.into_iter().for_each(&f));
}

/// Split `0..n_items` into `workers` contiguous chunks of
/// `ceil(n_items / workers)` items each.
fn chunk_ranges(workers: usize, n_items: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let workers = workers.max(1);
    let chunk = n_items.div_ceil(workers);
    // Clamp both bounds: trailing chunks can start past the end (e.g. 10
    // items on 8 workers), so they get an empty clamped range instead of an
    // out-of-bounds slice.
    (0..workers).map(move |w| (w * chunk).min(n_items)..((w + 1) * chunk).min(n_items))
}

const SLOT_LOCK: &str = "no code that can panic runs under a chunk slot's lock";
const POOL_LOCK: &str = "no code that can panic runs under the pool's lock";

/// The shim's one dispatch: run `job` on every task, one chunk per task,
/// and return the outputs in task order. A lone task runs on the calling
/// thread; more are shared with the pool.
fn dispatch<I, R, F>(tasks: Vec<I>, job: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    if tasks.len() <= 1 {
        return tasks.into_iter().map(job).collect();
    }
    let tasks: Vec<Mutex<Option<I>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    let run_chunk = |i: usize| {
        let task = tasks[i].lock().expect(SLOT_LOCK).take();
        let output = job(task.expect("each chunk index is claimed once"));
        *outputs[i].lock().expect(SLOT_LOCK) = Some(output);
    };
    pool().run(&run_chunk, tasks.len());
    outputs
        .into_iter()
        .map(|slot| {
            let output = slot.into_inner().expect(SLOT_LOCK);
            output.expect("the pool returns after every chunk has finished")
        })
        .collect()
}

/// The process-wide pool, started by [`pool`]. Its workers are never
/// joined: they live for the rest of the process, asleep on `posted`
/// between calls. A chunk's panic is caught on the worker and resumed on
/// the caller, so a detached worker hides none.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a call posts a job.
    posted: Condvar,
    /// Signalled when the last worker leaves a job.
    left: Condvar,
}

struct PoolState {
    /// The call being served, lifetime-erased (see [`Pool::run`]).
    job: Option<&'static Job<'static>>,
    /// Jobs posted so far, so that a worker joins each job at most once and
    /// a caller can tell that its own job's workers have all left.
    posts: u64,
    /// Workers that took the last posted job and have not yet left it. A
    /// job is posted only when this is zero, so every counted worker is on
    /// the same, latest job.
    active: usize,
}

/// One parallel call: chunk indices `0..n_chunks`, handed out by `next`.
struct Job<'a> {
    run_chunk: &'a (dyn Fn(usize) + Sync),
    n_chunks: usize,
    next: AtomicUsize,
    /// The first chunk panic's payload.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claim and run chunks until none is left, catching each chunk's
    /// panic. Parallel calls nested in a chunk stay serial.
    fn work(&self) {
        let outer = IN_WORKER.with(|flag| flag.replace(true));
        loop {
            // Relaxed: the counter only hands out distinct indices. A
            // chunk's task and output pass through their slot mutexes, and
            // the job itself through the pool's lock.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                break;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.run_chunk)(i))) {
                let mut first = self
                    .panic
                    .lock()
                    .expect("a panic payload is stored without running chunk code");
                first.get_or_insert(payload);
            }
        }
        IN_WORKER.with(|flag| flag.set(outer));
    }
}

impl Pool {
    /// Run chunks `0..n_chunks` of `run_chunk` on the calling thread and
    /// the pool's workers, or on the calling thread alone when the pool is
    /// busy with another thread's call. Returns once every chunk has
    /// finished, resuming the first chunk panic if there was one.
    fn run(&self, run_chunk: &(dyn Fn(usize) + Sync), n_chunks: usize) {
        let job = Job {
            run_chunk,
            n_chunks,
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let mut state = self.state.lock().expect(POOL_LOCK);
        if state.job.is_some() || state.active > 0 {
            drop(state);
            job.work();
        } else {
            // SAFETY: a worker reaches `job` only through `state.job`, and
            // one that takes it counts itself in `state.active` under the
            // pool's lock, leaving only after its last use of `job`. Below,
            // this call withdraws `job` and then waits until every worker
            // has left it, so every chunk has finished, before returning:
            // `job` and the data `run_chunk` borrows outlive every worker's
            // use of them. Nothing between here and that wait unwinds:
            // `work` catches chunk panics, and the pool's lock is never
            // poisoned because no code that can panic runs under it.
            let erased = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(&job) };
            state.job = Some(erased);
            state.posts = state.posts.wrapping_add(1);
            let mine = state.posts;
            drop(state);
            for _ in 1..n_chunks.min(pool_width()) {
                self.posted.notify_one();
            }
            job.work();
            let mut state = self.state.lock().expect(POOL_LOCK);
            state.job = None;
            // Every worker has left this job once `active` is zero, or once
            // another call has posted: a post needs `active` at zero, and
            // after the withdrawal above no worker can take this job again.
            // Waiting on `active` alone would also wait for the next call's
            // workers, and could sleep through the one wakeup they send.
            while state.active > 0 && state.posts == mine {
                state = self.left.wait(state).expect(POOL_LOCK);
            }
        }
        let panic = job.panic.into_inner();
        if let Some(payload) = panic.expect("a panic payload is stored without running chunk code")
        {
            panic::resume_unwind(payload);
        }
    }

    /// A worker's loop: take each posted job once, run its chunks until
    /// none is left, then leave it.
    fn serve(&self) {
        let mut seen = 0;
        loop {
            let mut state = self.state.lock().expect(POOL_LOCK);
            let job = loop {
                match (state.job, state.posts != seen) {
                    (Some(job), true) => break job,
                    _ => state = self.posted.wait(state).expect(POOL_LOCK),
                }
            };
            seen = state.posts;
            state.active += 1;
            drop(state);
            job.work();
            let mut state = self.state.lock().expect(POOL_LOCK);
            state.active -= 1;
            if state.active == 0 {
                self.left.notify_all();
            }
        }
    }
}

/// The pool, starting its `pool_width() - 1` workers on first use.
fn pool() -> &'static Pool {
    static POOL: Pool = Pool {
        state: Mutex::new(PoolState {
            job: None,
            posts: 0,
            active: 0,
        }),
        posted: Condvar::new(),
        left: Condvar::new(),
    };
    static START: Once = Once::new();
    START.call_once(|| {
        for i in 1..pool_width() {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(|| POOL.serve())
                .expect("the OS refused to start a pool worker");
        }
    });
    &POOL
}

// ---------------------------------------------------------------------------
// par_iter
// ---------------------------------------------------------------------------

/// `&self` parallel iteration, mirroring rayon's trait of the same name.
pub trait IntoParallelRefIterator<T> {
    /// A parallel iterator over shared references.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> IntoParallelRefIterator<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

impl<T: Sync> IntoParallelRefIterator<T> for Vec<T> {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter { items: self }
    }
}

/// Parallel iterator over `&T` items.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map every item through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Map every item through `f`, keeping the `Some` results, in parallel.
    pub fn filter_map<R, F>(self, f: F) -> ParFilterMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> Option<R> + Sync,
    {
        ParFilterMap {
            items: self.items,
            f,
        }
    }
}

/// Collections a parallel pipeline can collect into.
pub trait FromParallelVec<R> {
    /// Build the collection from the in-order result vector.
    fn from_parallel_vec(items: Vec<R>) -> Self;
}

impl<R> FromParallelVec<R> for Vec<R> {
    fn from_parallel_vec(items: Vec<R>) -> Self {
        items
    }
}

/// Pending parallel `map`.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Execute the map and collect results in input order.
    pub fn collect<C: FromParallelVec<R>>(self) -> C {
        let ParMap { items, f } = self;
        let per_chunk = run_chunked(items.len(), |range| {
            items[range].iter().map(&f).collect::<Vec<R>>()
        });
        C::from_parallel_vec(per_chunk.into_iter().flatten().collect())
    }
}

/// Pending parallel `filter_map`.
pub struct ParFilterMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParFilterMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> Option<R> + Sync,
{
    /// Execute the filter-map and collect results in input order.
    pub fn collect<C: FromParallelVec<R>>(self) -> C {
        let ParFilterMap { items, f } = self;
        let per_chunk = run_chunked(items.len(), |range| {
            items[range].iter().filter_map(&f).collect::<Vec<R>>()
        });
        C::from_parallel_vec(per_chunk.into_iter().flatten().collect())
    }
}

// ---------------------------------------------------------------------------
// par_chunks / par_chunks_mut
// ---------------------------------------------------------------------------

/// Parallel chunked views of shared slices.
pub trait ParallelSlice<T> {
    /// Split into `size`-element chunks for parallel consumption.
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        ParChunks {
            chunks: self.chunks(size.max(1)).collect(),
        }
    }
}

/// Parallel chunked views of mutable slices.
pub trait ParallelSliceMut<T> {
    /// Split into `size`-element mutable chunks for parallel consumption.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        ParChunksMut {
            chunks: self.chunks_mut(size.max(1)).collect(),
        }
    }
}

/// Chunks of a shared slice.
pub struct ParChunks<'a, T> {
    chunks: Vec<&'a [T]>,
}

/// Chunks of a mutable slice.
pub struct ParChunksMut<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send + Sync> ParChunksMut<'a, T> {
    /// Pair mutable chunks with the chunks of another slice.
    pub fn zip<'b, U: Sync>(self, other: ParChunks<'b, U>) -> ParZipChunks<'a, 'b, T, U> {
        ParZipChunks {
            pairs: self.chunks.into_iter().zip(other.chunks).collect(),
        }
    }

    /// Pair every mutable chunk with its index, mirroring rayon's
    /// `IndexedParallelIterator::enumerate`.
    pub fn enumerate(self) -> ParEnumerateChunksMut<'a, T> {
        ParEnumerateChunksMut {
            chunks: self.chunks.into_iter().enumerate().collect(),
        }
    }
}

/// Index-tagged mutable chunks.
pub struct ParEnumerateChunksMut<'a, T> {
    chunks: Vec<(usize, &'a mut [T])>,
}

impl<T: Send + Sync> ParEnumerateChunksMut<'_, T> {
    /// Apply `f` to every `(index, chunk)` pair across workers.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        for_each_chunked(self.chunks, f);
    }
}

/// Zipped (mutable chunk, shared chunk) pairs.
pub struct ParZipChunks<'a, 'b, T, U> {
    pairs: Vec<(&'a mut [T], &'b [U])>,
}

impl<'a, 'b, T: Send + Sync, U: Sync> ParZipChunks<'a, 'b, T, U> {
    /// Apply `f` to every pair, fanning the pairs out across workers.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((&mut [T], &[U])) + Sync,
    {
        for_each_chunked(self.pairs, f);
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_map_preserves_order() {
        let input: Vec<usize> = (0..10_000).collect();
        let out: Vec<usize> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_filter_map_preserves_order() {
        let input: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = input
            .par_iter()
            .filter_map(|&x| (x % 3 == 0).then_some(x))
            .collect();
        assert_eq!(out, (0..1000).filter(|x| x % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn zipped_chunks_see_matched_pairs() {
        let mut out = vec![0i64; 64];
        let src: Vec<i64> = (0..32).collect();
        out.par_chunks_mut(4)
            .zip(src.par_chunks(2))
            .for_each(|(o, s)| {
                for v in o.iter_mut() {
                    *v = s.iter().sum();
                }
            });
        assert_eq!(out[0], 1);
        assert_eq!(out[4], 2 + 3);
        assert_eq!(out[60], 30 + 31);
    }

    #[test]
    fn enumerated_chunks_see_their_own_index() {
        let mut out = vec![0usize; 120];
        out.par_chunks_mut(3).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v = i;
            }
        });
        for (j, &v) in out.iter().enumerate() {
            assert_eq!(v, j / 3);
        }
    }

    #[test]
    fn chunk_bounds_hold_when_workers_exceed_even_splits() {
        // 10 items on 8 workers: ceil(10/8)=2 per chunk, so workers 5..8
        // start at or past the end — their ranges must clamp, not panic.
        for (workers, n_items) in [(8, 10), (4, 5), (16, 3), (3, 7), (7, 49)] {
            let items: Vec<usize> = (0..n_items).collect();
            let out: Vec<usize> = crate::run_chunked_on(workers, n_items, |range| {
                items[range].iter().map(|&x| x * 2).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            assert_eq!(
                out,
                (0..n_items).map(|x| x * 2).collect::<Vec<_>>(),
                "workers={workers} n_items={n_items}"
            );
        }
    }

    #[test]
    fn pool_threads_are_reused_across_calls() {
        let ids = std::sync::Mutex::new(std::collections::HashSet::new());
        let input: Vec<usize> = (0..64).collect();
        for _ in 0..100 {
            let out: Vec<usize> = input
                .par_iter()
                .map(|&x| {
                    let id = std::thread::current().id();
                    ids.lock().expect("no test code panics under it").insert(id);
                    x
                })
                .collect();
            assert_eq!(out, input);
        }
        let hw = std::thread::available_parallelism().map_or(1, usize::from);
        let distinct = ids
            .into_inner()
            .expect("no test code panics under it")
            .len();
        assert!(distinct <= hw, "{distinct} distinct threads on {hw} CPUs");
    }

    #[test]
    fn chunk_panic_reaches_the_caller_and_the_pool_recovers() {
        let input: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            input
                .par_iter()
                .map(|&x| if x == 50 { panic!("item 50") } else { x })
                .collect::<Vec<usize>>()
        });
        let payload = result.expect_err("the panicking item must fail the call");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 50"));
        let out: Vec<usize> = input.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, (1..65).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_each_get_their_own_ordered_result() {
        const CALLERS: usize = 4;
        let barrier = std::sync::Barrier::new(CALLERS);
        std::thread::scope(|scope| {
            for caller in 0..CALLERS {
                let barrier = &barrier;
                scope.spawn(move || {
                    let input: Vec<usize> = (0..256).map(|x| x * CALLERS + caller).collect();
                    barrier.wait();
                    for _ in 0..50 {
                        let out: Vec<usize> = input.par_iter().map(|&x| x * 3).collect();
                        assert_eq!(out, input.iter().map(|&x| x * 3).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn many_concurrent_callers_never_hang() {
        // A caller must wait only for its own job's workers. When a job's
        // last worker leaves, another caller can post its job before the
        // first caller wakes; a caller that then waited for the new job's
        // workers could sleep through the one wakeup they send, for good
        // once no further call comes. Chunks slow enough that a worker is
        // still on a job when its caller finishes, and many short bursts of
        // callers, make that interleaving likely.
        const BURSTS: usize = 500;
        const CALLERS: usize = 4;
        const ROUNDS: usize = 50;
        fn slow_item(x: usize) -> usize {
            (0..200).fold(x, |acc, i| std::hint::black_box(acc ^ i))
        }
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            for _ in 0..BURSTS {
                std::thread::scope(|scope| {
                    for caller in 0..CALLERS {
                        scope.spawn(move || {
                            let input: Vec<usize> = (0..64).map(|x| x * CALLERS + caller).collect();
                            let expected: Vec<usize> =
                                input.iter().map(|&x| slow_item(x)).collect();
                            for _ in 0..ROUNDS {
                                let out: Vec<usize> =
                                    input.par_iter().map(|&x| slow_item(x)).collect();
                                assert_eq!(out, expected);
                            }
                        });
                    }
                });
            }
            done.send(()).ok();
        });
        let outcome = finished.recv_timeout(std::time::Duration::from_secs(60));
        assert_ne!(
            outcome,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "{BURSTS} bursts of {CALLERS} parallel callers still running after 60 s"
        );
        // The callers are done; resume a caller's panic (a wrong result).
        if let Err(payload) = runner.join() {
            std::panic::resume_unwind(payload);
        }
    }

    #[test]
    fn nested_parallelism_does_not_explode() {
        let input: Vec<usize> = (0..64).collect();
        let out: Vec<usize> = input
            .par_iter()
            .map(|&x| {
                let inner: Vec<usize> = input.par_iter().map(|&y| x + y).collect();
                inner.len()
            })
            .collect();
        assert!(out.iter().all(|&n| n == 64));
    }
}
