//! # `rl-exec` — a minimal executor for the async range-lock API
//!
//! The async layer of this workspace (`range_lock::twophase`) turns a lock
//! waiter into a suspended future instead of a blocked thread. Something
//! still has to poll those futures; production services would use tokio or
//! their own runtime, but this build environment is offline, so this crate
//! provides the two pieces the workspace actually needs, hand-rolled on
//! `std` alone:
//!
//! * [`block_on`] — drive one future to completion on the calling thread
//!   (park between polls); the bridge from sync tests/benches into async
//!   code.
//! * [`TaskPool`] — a fixed-worker task pool: N OS threads polling M
//!   spawned tasks from a shared injector queue. This is the shape of the
//!   `asyncbench` experiment — M lock owners ≫ N threads — and exactly what
//!   thread-per-owner blocking cannot do.
//!
//! Scheduling is deliberately simple: no work stealing, no timers, no I/O
//! — lock wakeups are in-process waker calls. There are two ways a woken
//! task gets polled:
//!
//! * **The injector.** One global FIFO queue drained by the workers.
//!   Everything woken from a thread that is not inside a *run scope* goes
//!   here — a task's first poll, wakes from blocking threads, closes,
//!   overflow — and fairness is the queue's FIFO order.
//! * **Direct hand-off.** [`run_woken`] opens a run scope on the calling
//!   thread. While its closure runs, the *first* pool task woken from this
//!   thread is parked in a thread-local one-task `next` slot instead of the
//!   injector; when the closure has returned, the scope polls that task
//!   **on this thread**, then whatever that poll put in the slot, for at
//!   most `HANDOFF_BUDGET` consecutive polls (a self-waking task or a
//!   ping-pong pair then goes to the injector, so neither can starve the
//!   queue or pin the caller). The thread that makes a task runnable is
//!   usually the cheapest thread to run it: it is awake, the data is in
//!   its cache, and nothing has to cross a futex. Every worker polls inside
//!   a scope (a per-worker LIFO slot), and so may any other thread.
//!
//! What `wake` may and may not do: a [`Waker`] of a pool task only ever
//! moves the task to the slot or the injector. It **never polls** —
//! polling starts after the scope's closure returned, so no task code runs
//! inside a waker call or under a lock its caller holds. A second wake in
//! the same scope goes to the injector (a release that grants five waiters
//! still fans out to the workers), a nested scope is a plain call, a filled
//! slot is never dropped (scope exit, unwinding included, flushes it to the
//! injector), and nothing is polled once the pool's destructor has begun.
//! A task is polled by one thread at a time — a wake that arrives while it
//! is being polled makes the poller reschedule it afterwards — so no thread
//! ever waits for another thread's poll to finish.
//!
//! # Examples
//!
//! ```
//! use rl_exec::{block_on, TaskPool};
//!
//! // block_on: sync → async bridge.
//! assert_eq!(block_on(async { 6 * 7 }), 42);
//!
//! // TaskPool: many tasks, few threads.
//! let pool = TaskPool::new(2);
//! let handles: Vec<_> = (0..64)
//!     .map(|i| pool.spawn(async move { i * 2 }))
//!     .collect();
//! let total: u64 = handles.into_iter().map(|h| h.join()).sum();
//! assert_eq!(total, (0..64).map(|i| i * 2).sum());
//! ```

#![deny(missing_docs)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{JoinHandle as ThreadHandle, Thread};

/// Waker that unparks a specific thread; backs [`block_on`].
struct ThreadWaker {
    thread: Thread,
    /// Set by `wake`, consumed by the parked poller: parking is permit-based
    /// so a wake delivered *between* a poll and the park is not lost.
    notified: AtomicBool,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.notified.store(true, Ordering::SeqCst);
        self.thread.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::SeqCst);
        self.thread.unpark();
    }
}

/// Runs `future` to completion on the calling thread, parking it between
/// polls.
///
/// The sync→async bridge: tests, benches and examples use it to await
/// acquisition futures without a runtime. Wakes delivered while the future
/// is being polled are not lost (the park is permit-based).
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = Box::pin(future);
    let thread_waker = Arc::new(ThreadWaker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&thread_waker));
    let mut cx = Context::from_waker(&waker);
    loop {
        if let Poll::Ready(out) = future.as_mut().poll(&mut cx) {
            return out;
        }
        while !thread_waker.notified.swap(false, Ordering::SeqCst) {
            std::thread::park();
        }
    }
}

/// A spawned task: the future plus its scheduling state.
struct Task {
    /// `None` once the future completed (or the pool dropped it).
    future: Mutex<Option<Pin<Box<dyn Future<Output = ()> + Send>>>>,
    /// Back-pointer for re-enqueueing on wake; `Weak` so wakers held by
    /// long-dead locks do not keep the pool alive.
    pool: Weak<PoolShared>,
    /// One of [`IDLE`], [`SCHEDULED`], [`RUNNING`], [`NOTIFIED`]. Coalesces
    /// wakes (a task sits in a slot or the injector at most once at a time)
    /// and keeps it off every queue while it is being polled, so two
    /// threads never contend for `future`.
    state: AtomicU8,
}

/// Suspended: the next wake schedules the task.
const IDLE: u8 = 0;
/// In a `next` slot or the injector; further wakes are absorbed (the
/// upcoming poll sees the new state).
const SCHEDULED: u8 = 1;
/// Being polled; a wake moves it to [`NOTIFIED`].
const RUNNING: u8 = 2;
/// Being polled *and* woken since the poll began: the poller reschedules
/// it when the poll returns `Pending`.
const NOTIFIED: u8 = 3;

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if self.mark_woken() {
            self.enqueue();
        }
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if self.mark_woken() {
            Arc::clone(self).enqueue();
        }
    }
}

impl Task {
    /// The state half of a wake; `true` if the caller must now enqueue the
    /// task. A waker does this and [`Task::enqueue`], and never polls — see
    /// the [crate docs](crate).
    fn mark_woken(&self) -> bool {
        // Always a read-modify-write, even where the state does not change,
        // and so is every transition `run_task` makes: the two sides are
        // then totally ordered on `state`. Either this wake comes first and
        // the poll that follows acquires what the waker wrote before it, or
        // it finds RUNNING and the poller's closing update finds NOTIFIED.
        let before = self
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |state| {
                Some(match state {
                    IDLE | SCHEDULED => SCHEDULED,
                    _ => NOTIFIED,
                })
            });
        before == Ok(IDLE)
    }

    /// Hands a task that just became [`SCHEDULED`] to whoever polls it
    /// next: this thread's run scope if it is open and its slot is free,
    /// the injector otherwise.
    fn enqueue(self: Arc<Self>) {
        let mut task = Some(self);
        // `try_with`: a waker dropped or fired from another thread-local's
        // destructor finds `SCOPE` already gone; that is just "no scope".
        let _ = SCOPE.try_with(|scope| {
            if scope.open.get() {
                let slot = scope.next.take();
                scope.next.set(slot.or_else(|| task.take()));
            }
        });
        if let Some(task) = task {
            task.inject();
        }
    }

    /// Pushes the task onto its pool's injector (dropping it if the pool is
    /// gone: its future went with the pool).
    fn inject(self: Arc<Self>) {
        if let Some(pool) = self.pool.upgrade() {
            pool.push(self);
        }
    }
}

/// Polls a [`SCHEDULED`] task once. The only function that polls a pool
/// task: workers call it on what they pop, run scopes on what was woken
/// into their slot.
fn run_task(pool: &PoolShared, task: Arc<Task>) {
    // The pool's destructor has begun: it drops every unfinished future
    // itself, and nothing may be polled behind its back.
    if pool.shutdown.load(Ordering::Acquire) {
        return;
    }
    // Leave SCHEDULED *before* polling: a wake arriving mid-poll must lead
    // to another poll (possibly redundantly — it just returns Pending
    // again).
    task.state.swap(RUNNING, Ordering::AcqRel);
    let mut slot = task.future.lock().unwrap();
    let Some(future) = slot.as_mut() else {
        return;
    };
    let waker = Waker::from(Arc::clone(&task));
    let mut cx = Context::from_waker(&waker);
    if future.as_mut().poll(&mut cx).is_ready() {
        *slot = None;
        drop(slot);
        pool.task_done();
        return;
    }
    drop(slot);
    let after_poll = task
        .state
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |state| {
            Some(if state == RUNNING { IDLE } else { SCHEDULED })
        });
    if after_poll == Ok(NOTIFIED) {
        // Woken while it was being polled: that wake was this poll's to
        // honour.
        task.enqueue();
    }
}

/// Most consecutive polls one [`run_woken`] scope makes before what is left
/// in its slot goes to the injector instead.
const HANDOFF_BUDGET: usize = 16;

/// One thread's run scope; see [`run_woken`].
struct Scope {
    /// Whether a `run_woken` call is active on this thread.
    open: Cell<bool>,
    /// The first task woken on this thread since the slot was last emptied.
    next: Cell<Option<Arc<Task>>>,
}

thread_local! {
    static SCOPE: Scope = const {
        Scope {
            open: Cell::new(false),
            next: Cell::new(None),
        }
    };
}

/// Closes the scope on every exit path of [`run_woken`], unwinding included:
/// a task still in the slot goes to the injector, never nowhere.
struct CloseScope;

impl Drop for CloseScope {
    fn drop(&mut self) {
        let left = SCOPE.with(|scope| {
            scope.open.set(false);
            scope.next.take()
        });
        if let Some(task) = left {
            task.inject();
        }
    }
}

/// Runs `f`, then polls **on the calling thread** the first pool task `f`
/// woke — direct hand-off instead of a trip through the injector and a
/// worker's futex. See the [crate docs](crate) for the rules; in short:
///
/// * only the *first* task woken goes to this thread, later ones to the
///   workers; what its poll wakes is next, up to a fixed budget of
///   consecutive polls;
/// * nothing is polled before `f` has returned, so `f` may wake while
///   holding locks — but it must not *wait* for a task it woke;
/// * nested calls just run `f`: the outermost scope does the polling.
///
/// Use it around a wake whose target will most likely answer at once — a
/// frame handed to a session, a lock released to its next owner. The pool's
/// own workers poll every task this way. A task's panic unwinds through
/// whichever thread polls it, this one included.
pub fn run_woken<R>(f: impl FnOnce() -> R) -> R {
    // Already open (or no thread-locals left to open one in): a plain call.
    if SCOPE
        .try_with(|scope| scope.open.replace(true))
        .unwrap_or(true)
    {
        return f();
    }
    let _close = CloseScope;
    let out = f();
    for _ in 0..HANDOFF_BUDGET {
        let Some(task) = SCOPE.with(|scope| scope.next.take()) else {
            break;
        };
        // A task whose pool is gone lost its future with it.
        if let Some(pool) = task.pool.upgrade() {
            run_task(&pool, task);
        }
    }
    out
}

/// The injector queue plus what `push` needs to know to skip the futex.
struct Injector {
    tasks: VecDeque<Arc<Task>>,
    /// Workers waiting on [`PoolShared::available`] right now.
    idle: usize,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    queue: Mutex<Injector>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Every task ever spawned (weak, so completed tasks cost one dead
    /// entry, pruned as new spawns notice them). Shutdown walks this list to
    /// drop the futures of tasks that are *suspended* — alive only through
    /// waker clones held by whatever they wait on — which the injector
    /// queue alone cannot reach.
    tasks: Mutex<Vec<Weak<Task>>>,
    /// Number of spawned tasks that have not yet completed; [`TaskPool::
    /// shutdown`]'s drain phase waits on this under [`PoolShared::drained`].
    live: Mutex<usize>,
    drained: Condvar,
    /// Set by [`TaskPool::shutdown`] the instant its drain wait observes
    /// `live == 0`, *while still holding the `live` lock*. [`Spawner::spawn`]
    /// checks it under the same lock before counting a new task live, so a
    /// spawn either lands inside the drain (and is waited for) or is refused
    /// — never accepted and then cancelled unpolled by the destructor.
    draining: AtomicBool,
}

impl PoolShared {
    /// Marks one task complete and wakes a drain waiter when the count hits
    /// zero.
    fn task_done(&self) {
        let mut live = self.live.lock().unwrap();
        *live -= 1;
        if *live == 0 {
            self.drained.notify_all();
        }
    }
}

impl PoolShared {
    fn push(&self, task: Arc<Task>) {
        let idle = {
            let mut queue = self.queue.lock().unwrap();
            queue.tasks.push_back(task);
            queue.idle
        };
        // std's futex condvar makes a syscall per notify whether or not
        // anyone waits; `idle` is exact under the queue mutex, so a busy
        // pool is not charged for it.
        if idle > 0 {
            self.available.notify_one();
        }
    }

    fn pop(&self) -> Option<Arc<Task>> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            // Shutdown beats the backlog: tasks still queued are dropped by
            // the pool's Drop (their acquisition futures cancel cleanly).
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if let Some(task) = queue.tasks.pop_front() {
                return Some(task);
            }
            queue.idle += 1;
            queue = self.available.wait(queue).unwrap();
            queue.idle -= 1;
        }
    }
}

/// Completion state shared between a [`JoinHandle`] and its task.
struct JoinState<T> {
    /// `(result, waker of a task awaiting the handle)`.
    inner: Mutex<(Option<T>, Option<Waker>)>,
}

/// Handle to a spawned task's result.
///
/// A `JoinHandle` is itself a [`Future`] (so tasks can await each other) and
/// offers a blocking [`JoinHandle::join`] for sync callers. Dropping the
/// handle detaches the task: it keeps running, its result is discarded.
#[must_use = "a dropped JoinHandle detaches its task"]
pub struct JoinHandle<T> {
    state: Arc<JoinState<T>>,
}

impl<T: Send> JoinHandle<T> {
    /// Blocks the calling thread until the task completes.
    pub fn join(self) -> T {
        block_on(self)
    }

    /// Returns the result if the task has already completed.
    pub fn try_join(&self) -> Option<T> {
        self.state.inner.lock().unwrap().0.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut inner = self.state.inner.lock().unwrap();
        if let Some(out) = inner.0.take() {
            return Poll::Ready(out);
        }
        inner.1 = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JoinHandle(..)")
    }
}

/// A fixed-worker futures executor: `N` OS threads multiplexing any number
/// of spawned tasks.
///
/// Dropping the pool shuts it down: workers finish the poll they are in and
/// exit; tasks still queued or suspended are dropped (their acquisition
/// futures cancel cleanly — that is the point of the cancellable protocol).
/// For the opposite, drain-then-stop ordering — every spawned task runs to
/// completion first — use [`TaskPool::shutdown`].
pub struct TaskPool {
    shared: Arc<PoolShared>,
    workers: Vec<ThreadHandle<()>>,
}

impl TaskPool {
    /// Spawns a pool with `workers` worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a task pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Injector {
                tasks: VecDeque::new(),
                idle: 0,
            }),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tasks: Mutex::new(Vec::new()),
            live: Mutex::new(0),
            drained: Condvar::new(),
            draining: AtomicBool::new(false),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rl-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker")
            })
            .collect();
        TaskPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Spawns `future` onto the pool, returning a handle to its result.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        spawn_on(&self.shared, future)
    }

    /// A detachable, `Clone`-able spawning handle for threads that outlive
    /// any borrow of the pool — e.g. a blocking TCP acceptor thread handing
    /// each connection to the pool. The handle holds only a weak reference:
    /// it never keeps a dropped pool alive, and spawning through it fails
    /// softly (returns `None`) once the pool has shut down or its final
    /// drain has been decided.
    pub fn spawner(&self) -> Spawner {
        Spawner {
            shared: Arc::downgrade(&self.shared),
        }
    }

    /// Graceful **drain-then-stop** shutdown: blocks until every spawned
    /// task has run to completion, then stops the workers and tears the
    /// pool down.
    ///
    /// This is the counterpart to the destructor's *cancel* semantics
    /// (dropping the pool drops queued and suspended task futures
    /// mid-flight). A server wants the opposite order on clean exit: let
    /// in-flight sessions finish, then stop. Tasks spawned while the drain
    /// is still waiting (e.g. by other tasks) are waited for too; once the
    /// drain observes zero live tasks the pool atomically flips to
    /// refusing, so a [`Spawner::spawn`] racing the drain either joins it
    /// or returns `None` — an accepted spawn always runs.
    ///
    /// Tasks that never complete — e.g. futures suspended on an external
    /// event that no one will deliver — make `shutdown` block forever;
    /// close their event sources first (a server closes every session's
    /// inbox), or use `drop` to cancel instead.
    pub fn shutdown(self) {
        let mut live = self.shared.live.lock().unwrap();
        while *live > 0 {
            live = self.shared.drained.wait(live).unwrap();
        }
        // Flip to refusing spawns while the `live == 0` observation is
        // still current (the lock is held): no spawn can slip between the
        // drain decision and the destructor's cancel path.
        self.shared.draining.store(true, Ordering::Release);
        drop(live);
        // All tasks done; the destructor's stop path has nothing to cancel.
    }
}

/// Spawn-only handle to a [`TaskPool`], detached from the pool's lifetime.
///
/// Obtained from [`TaskPool::spawner`]; see there for the intended use.
/// Cheap to clone and `Send + Sync`, so a blocking acceptor/producer thread
/// can hand work to the pool without borrowing it.
#[derive(Clone)]
pub struct Spawner {
    shared: Weak<PoolShared>,
}

impl Spawner {
    /// Spawns `future` onto the pool, or returns `None` if the pool has
    /// been dropped, is draining via [`TaskPool::shutdown`], or has shut
    /// down (the future is dropped unpolled in that case — for acquisition
    /// futures that is a clean cancel). A returned handle is a commitment:
    /// the task runs to completion before `shutdown` finishes.
    pub fn spawn<F>(&self, future: F) -> Option<JoinHandle<F::Output>>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let shared = self.shared.upgrade()?;
        if shared.shutdown.load(Ordering::Acquire) {
            return None;
        }
        try_spawn_on(&shared, future)
    }
}

impl std::fmt::Debug for Spawner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Spawner")
            .field("alive", &(self.shared.strong_count() > 0))
            .finish()
    }
}

/// The infallible spawn path behind [`TaskPool::spawn`]: `shutdown`
/// consumes the pool, so a live `&TaskPool` can never observe the pool
/// draining.
fn spawn_on<F>(shared: &Arc<PoolShared>, future: F) -> JoinHandle<F::Output>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    try_spawn_on(shared, future).expect("shutdown() consumes the pool; it cannot drain under &self")
}

/// The shared spawn path behind [`TaskPool::spawn`] and [`Spawner::spawn`];
/// `None` means the pool is draining and the future was dropped unpolled.
fn try_spawn_on<F>(shared: &Arc<PoolShared>, future: F) -> Option<JoinHandle<F::Output>>
where
    F: Future + Send + 'static,
    F::Output: Send + 'static,
{
    {
        // Count the task live *atomically with the drain decision*:
        // `shutdown` flips `draining` under this same lock once its wait
        // observes `live == 0`, so an accepted spawn is always included in
        // the drain and a refused one never reaches the queue.
        let mut live = shared.live.lock().unwrap();
        if shared.draining.load(Ordering::Acquire) {
            return None;
        }
        *live += 1;
    }
    let state = Arc::new(JoinState {
        inner: Mutex::new((None, None)),
    });
    let completion = Arc::clone(&state);
    let wrapped = async move {
        let out = future.await;
        let waiter = {
            let mut inner = completion.inner.lock().unwrap();
            inner.0 = Some(out);
            inner.1.take()
        };
        if let Some(waker) = waiter {
            waker.wake();
        }
    };
    let task = Arc::new(Task {
        future: Mutex::new(Some(Box::pin(wrapped))),
        pool: Arc::downgrade(shared),
        state: AtomicU8::new(IDLE),
    });
    {
        let mut tasks = shared.tasks.lock().unwrap();
        // Amortized pruning of completed (dead) entries.
        if tasks.len() == tasks.capacity() {
            tasks.retain(|t| t.strong_count() > 0);
        }
        tasks.push(Arc::downgrade(&task));
    }
    task.wake();
    Some(JoinHandle { state })
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.available_notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Drop whatever never ran; pending acquisition futures cancel here.
        self.shared.queue.lock().unwrap().tasks.clear();
        // Tasks suspended on external wakers (e.g. a lock's wait queue) are
        // reachable only through the task registry: drop their futures too,
        // so their cancel-on-drop cleanup (releasing guards, unlinking
        // pending lock nodes) runs *now*, not at some later wake. The Task
        // shells stay alive until the waker clones go away; waking a
        // shell whose future is gone is a no-op.
        for weak in self.shared.tasks.lock().unwrap().drain(..) {
            if let Some(task) = weak.upgrade() {
                *task.future.lock().unwrap() = None;
            }
        }
    }
}

impl TaskPool {
    fn available_notify_all(&self) {
        // Touch the queue mutex so no worker is between its empty-check and
        // its wait when the notification fires.
        let _guard = self.shared.queue.lock().unwrap();
        self.shared.available.notify_all();
    }
}

impl std::fmt::Debug for TaskPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

fn worker_loop(shared: &PoolShared) {
    // Each poll is a run scope: what the task wakes first (the session its
    // release granted, the task awaiting its JoinHandle) runs next on this
    // worker, without a queue round trip.
    while let Some(task) = shared.pop() {
        run_woken(|| run_task(shared, task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn block_on_plain_value() {
        assert_eq!(block_on(async { 7 }), 7);
    }

    #[test]
    fn block_on_survives_cross_thread_wakes() {
        // A future that completes only after another thread wakes it.
        struct Gate {
            open: Arc<AtomicBool>,
            registered: Arc<Mutex<Option<Waker>>>,
        }
        impl Future for Gate {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.open.load(Ordering::SeqCst) {
                    return Poll::Ready(());
                }
                *self.registered.lock().unwrap() = Some(cx.waker().clone());
                Poll::Pending
            }
        }
        let open = Arc::new(AtomicBool::new(false));
        let registered: Arc<Mutex<Option<Waker>>> = Arc::new(Mutex::new(None));
        let opener = {
            let open = Arc::clone(&open);
            let registered = Arc::clone(&registered);
            std::thread::spawn(move || {
                let waker = loop {
                    if let Some(w) = registered.lock().unwrap().take() {
                        break w;
                    }
                    std::thread::yield_now();
                };
                open.store(true, Ordering::SeqCst);
                waker.wake();
            })
        };
        block_on(Gate { open, registered });
        opener.join().unwrap();
    }

    #[test]
    fn pool_runs_many_more_tasks_than_workers() {
        let pool = TaskPool::new(2);
        assert_eq!(pool.workers(), 2);
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..200)
            .map(|_| {
                let counter = Arc::clone(&counter);
                pool.spawn(async move {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn join_handle_is_awaitable_from_another_task() {
        let pool = TaskPool::new(2);
        let inner = pool.spawn(async { 21u64 });
        let outer = pool.spawn(async move { inner.await * 2 });
        assert_eq!(outer.join(), 42);
    }

    #[test]
    fn try_join_reports_completion() {
        let pool = TaskPool::new(1);
        let handle = pool.spawn(async { 5u32 });
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(v) = handle.try_join() {
                assert_eq!(v, 5);
                break;
            }
            assert!(std::time::Instant::now() < deadline, "task never finished");
            std::thread::yield_now();
        }
    }

    #[test]
    fn shutdown_drains_before_stopping() {
        // The graceful path: every spawned task must have *completed* (not
        // been cancelled) by the time shutdown() returns — the opposite
        // ordering from the destructor, which cancels whatever is left.
        let completed = Arc::new(AtomicU64::new(0));
        let pool = TaskPool::new(2);
        let handles: Vec<_> = (0..100)
            .map(|_| {
                let completed = Arc::clone(&completed);
                pool.spawn(async move {
                    // A couple of suspension points so tasks are genuinely
                    // in flight when shutdown starts draining.
                    YieldOnce::default().await;
                    YieldOnce::default().await;
                    completed.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        pool.shutdown();
        assert_eq!(completed.load(Ordering::SeqCst), 100);
        // Every handle reports completion without blocking.
        for h in &handles {
            assert!(h.try_join().is_some());
        }
    }

    #[derive(Default)]
    struct YieldOnce {
        yielded: bool,
    }
    impl Future for YieldOnce {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.yielded {
                Poll::Ready(())
            } else {
                self.yielded = true;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }

    #[test]
    fn spawner_outlives_borrow_and_fails_softly_after_drop() {
        let pool = TaskPool::new(1);
        let spawner = pool.spawner();
        // An acceptor-style producer thread spawning without borrowing the
        // pool.
        let producer = {
            let spawner = spawner.clone();
            std::thread::spawn(move || {
                let handles: Vec<_> = (0..10)
                    .map(|i| spawner.spawn(async move { i }).expect("pool alive"))
                    .collect();
                handles.into_iter().map(|h| h.join()).sum::<u64>()
            })
        };
        assert_eq!(producer.join().unwrap(), 45);
        pool.shutdown();
        assert!(
            spawner.spawn(async {}).is_none(),
            "spawning after shutdown must fail softly"
        );
    }

    #[test]
    fn shutdown_waits_for_tasks_spawned_while_draining() {
        // A task that spawns a follow-up via a Spawner mid-drain: shutdown
        // must wait for the child too.
        let pool = TaskPool::new(1);
        let done = Arc::new(AtomicU64::new(0));
        let spawner = pool.spawner();
        let child_done = Arc::clone(&done);
        let parent_done = Arc::clone(&done);
        let _parent = pool.spawn(async move {
            let child = spawner.spawn(async move {
                child_done.fetch_add(1, Ordering::SeqCst);
            });
            assert!(child.is_some(), "pool is not shutting down yet");
            parent_done.fetch_add(1, Ordering::SeqCst);
        });
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn drain_never_cancels_an_accepted_spawn() {
        // A producer spawning through a Spawner races shutdown()'s drain.
        // Every spawn that returned a handle must have *run* by the time
        // shutdown() returns — a Some(handle) whose task the destructor
        // cancels unpolled would break the drain-then-stop contract.
        for _ in 0..50 {
            let pool = TaskPool::new(1);
            let spawner = pool.spawner();
            let producer = std::thread::spawn(move || {
                let mut accepted = Vec::new();
                for i in 0..64u64 {
                    match spawner.spawn(async move { i }) {
                        Some(handle) => accepted.push(handle),
                        None => break, // the drain decision beat this spawn
                    }
                }
                accepted
            });
            pool.shutdown();
            for handle in producer.join().unwrap() {
                assert!(
                    handle.try_join().is_some(),
                    "an accepted spawn was cancelled by the drain"
                );
            }
        }
    }

    #[test]
    fn dropping_the_pool_drops_unfinished_tasks() {
        // A task pending forever must be dropped (not leaked, not joined)
        // when the pool shuts down.
        struct Forever(Arc<AtomicU64>);
        impl Future for Forever {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        impl Drop for Forever {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        {
            let pool = TaskPool::new(1);
            let _detached = pool.spawn(Forever(Arc::clone(&drops)));
            // Give the worker a chance to poll it once.
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    // ---- run scopes ----------------------------------------------------

    /// A one-shot event for the scope tests: `wait()` is pending until
    /// `open()`, and resolves to the thread that made the resolving poll.
    #[derive(Clone, Default)]
    struct Latch(Arc<(AtomicBool, Mutex<Option<Waker>>)>);

    impl Latch {
        fn wait(&self) -> impl Future<Output = Thread> + Send + 'static {
            let latch = self.clone();
            std::future::poll_fn(move |cx| {
                let (open, waker) = &*latch.0;
                if open.load(Ordering::SeqCst) {
                    return Poll::Ready(std::thread::current());
                }
                *waker.lock().unwrap() = Some(cx.waker().clone());
                Poll::Pending
            })
        }

        /// Spawns `wait()` and returns once the task is suspended on the
        /// latch and every worker is parked again — so the task is not
        /// mid-poll, and the next `open()` is the wake that schedules it.
        fn suspended_on(pool: &TaskPool) -> (Latch, JoinHandle<Thread>) {
            let latch = Latch::default();
            let handle = pool.spawn(latch.wait());
            within("the task to suspend", || {
                let queue = pool.shared.queue.lock().unwrap();
                latch.0 .1.lock().unwrap().is_some()
                    && queue.tasks.is_empty()
                    && queue.idle == pool.workers()
            });
            (latch, handle)
        }

        fn open(&self) {
            let (open, waker) = &*self.0;
            open.store(true, Ordering::SeqCst);
            if let Some(waker) = waker.lock().unwrap().take() {
                waker.wake();
            }
        }
    }

    /// Polls `done` until it holds; every wait in the scope tests goes
    /// through here, so a hang is a failed assertion, not a hung suite.
    fn within(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn join_within<T: Send>(handle: &JoinHandle<T>) -> T {
        let mut out = None;
        within("the task to finish", || {
            out = handle.try_join();
            out.is_some()
        });
        out.unwrap()
    }

    /// Runs `body` on a thread of its own and gives it ten seconds.
    fn bounded(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        if finished.recv_timeout(Duration::from_secs(10)).is_err() {
            panic!("the test body hung or panicked");
        }
        runner.join().unwrap();
    }

    fn on_a_worker(thread: &Thread) -> bool {
        thread
            .name()
            .is_some_and(|name| name.starts_with("rl-exec-"))
    }

    #[test]
    fn a_task_woken_in_a_scope_is_polled_here_before_the_scope_returns() {
        let pool = TaskPool::new(1);
        let (latch, handle) = Latch::suspended_on(&pool);
        run_woken(|| {
            latch.open();
            // wake() only moved the task to the slot: nothing ran yet.
            assert!(handle.try_join().is_none(), "wake() polled the task");
        });
        let polled_on = handle.try_join().expect("the scope did not poll its slot");
        assert_eq!(polled_on.id(), std::thread::current().id());
    }

    #[test]
    fn a_task_woken_outside_any_scope_is_polled_on_a_worker() {
        let pool = TaskPool::new(1);
        let (latch, handle) = Latch::suspended_on(&pool);
        latch.open();
        assert!(on_a_worker(&join_within(&handle)));
    }

    #[test]
    fn only_the_first_wake_of_a_scope_stays_on_the_calling_thread() {
        let pool = TaskPool::new(1);
        let (first, first_handle) = Latch::suspended_on(&pool);
        let (second, second_handle) = Latch::suspended_on(&pool);
        run_woken(|| {
            first.open();
            second.open();
        });
        let here = std::thread::current().id();
        assert_eq!(first_handle.try_join().map(|t| t.id()), Some(here));
        assert!(on_a_worker(&join_within(&second_handle)));
    }

    #[test]
    fn a_self_waking_task_leaves_the_calling_thread_within_the_budget() {
        let pool = TaskPool::new(1);
        let polls: Arc<Mutex<Vec<Thread>>> = Arc::default();
        let log = Arc::clone(&polls);
        let handle = run_woken(|| {
            pool.spawn(async move {
                for _ in 0..100 {
                    log.lock().unwrap().push(std::thread::current());
                    YieldOnce::default().await;
                }
            })
        });
        let here = std::thread::current().id();
        let made_here = |polls: &[Thread]| polls.iter().filter(|t| t.id() == here).count();
        // Whatever the worker has added by now, this thread is done with it.
        let after_scope = made_here(&polls.lock().unwrap());
        assert!(
            (1..=HANDOFF_BUDGET).contains(&after_scope),
            "{after_scope} polls on the calling thread"
        );
        join_within(&handle);
        let polls = polls.lock().unwrap();
        assert_eq!(polls.len(), 100);
        assert_eq!(made_here(&polls), after_scope);
        assert!(polls[after_scope..].iter().all(on_a_worker));
    }

    #[test]
    fn a_nested_scope_does_not_drain_early() {
        let pool = TaskPool::new(1);
        let (latch, handle) = Latch::suspended_on(&pool);
        run_woken(|| {
            run_woken(|| latch.open());
            assert!(handle.try_join().is_none(), "the inner scope polled");
        });
        let here = std::thread::current().id();
        assert_eq!(handle.try_join().map(|t| t.id()), Some(here));
    }

    #[test]
    fn a_panicking_scope_flushes_its_slot_to_the_injector() {
        let pool = TaskPool::new(1);
        let (latch, handle) = Latch::suspended_on(&pool);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_woken(|| {
                latch.open();
                // Unwinds without going through the panic hook's stderr.
                std::panic::resume_unwind(Box::new("boom"));
            })
        }));
        assert!(unwound.is_err());
        assert!(on_a_worker(&join_within(&handle)));
        // And the scope is closed again: a wake from here is a plain wake.
        let (latch, handle) = Latch::suspended_on(&pool);
        latch.open();
        assert!(on_a_worker(&join_within(&handle)));
    }

    #[test]
    fn a_pool_dropped_under_a_filled_slot_drops_the_future_unpolled() {
        struct Counted {
            polls: Arc<AtomicU64>,
            drops: Arc<AtomicU64>,
        }
        impl Future for Counted {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                self.polls.fetch_add(1, Ordering::SeqCst);
                Poll::Pending
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                self.drops.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (polls, drops) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        run_woken(|| {
            let pool = TaskPool::new(1);
            // Spawned inside the scope: its first poll would be this
            // thread's, at scope exit — after the pool is gone.
            let _detached = pool.spawn(Counted {
                polls: Arc::clone(&polls),
                drops: Arc::clone(&drops),
            });
            drop(pool);
            assert_eq!(drops.load(Ordering::SeqCst), 1, "the pool's Drop cancels");
        });
        assert_eq!(polls.load(Ordering::SeqCst), 0, "polled after shutdown");
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drain_never_cancels_a_spawn_accepted_inside_a_scope() {
        // `drain_never_cancels_an_accepted_spawn` with the producer
        // spawning inside run scopes: the first task of each scope sits in
        // the producer's slot (counted live, so the drain waits for it) and
        // is polled by the producer; the second goes to the injector.
        bounded(|| {
            for _ in 0..50 {
                let pool = TaskPool::new(1);
                let spawner = pool.spawner();
                let producer = std::thread::spawn(move || {
                    let mut accepted = Vec::new();
                    for i in 0..32u64 {
                        let pair = run_woken(|| {
                            [
                                spawner.spawn(async move { i }),
                                spawner.spawn(async move { i }),
                            ]
                        });
                        let refused = pair.iter().any(Option::is_none);
                        accepted.extend(pair.into_iter().flatten());
                        if refused {
                            break; // the drain decision beat this spawn
                        }
                    }
                    accepted
                });
                pool.shutdown();
                for handle in producer.join().unwrap() {
                    assert!(
                        handle.try_join().is_some(),
                        "an accepted spawn was cancelled by the drain"
                    );
                }
            }
        });
    }
}
