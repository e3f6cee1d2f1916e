//! The discrete-event engine: a timestamped event queue and a
//! cooperative rank scheduler that runs a whole cluster as a
//! single-threaded discrete-event simulation.
//!
//! Under [`EngineMode::EventDriven`] a rank is a resumable state
//! machine: exactly one rank executes at any instant, and every fabric
//! operation that would park a thread in the threaded engine instead
//! hands the *baton* to the scheduler, which releases the next frame
//! from a binary-heap event queue ordered by `(arrival time, src,
//! seq)`. Blocking semantics, watchdogs, and fault handling key off
//! *structural* conditions (is any progress still possible?) instead of
//! wall-clock timeouts, so a 1024-rank job needs no real concurrency at
//! all — rank threads exist only to hold per-rank stacks and
//! thread-local observability state, never to run in parallel.
//!
//! Determinism argument: execution is globally serialized (one Running
//! rank), so event-queue sequence numbers are assigned in a
//! reproducible order; the queue pops in total `(time, src, seq)`
//! order; and the engine above is insensitive to delivery order by
//! construction (arrival timestamps are pure functions of per-link
//! injection sequences, which follow program order). Both engines
//! therefore produce bit-identical virtual clocks and payloads — the
//! contract `tests/engine_diff.rs` enforces case by case.

use std::any::Any;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::Thread;

use vtime::VTime;

use crate::endpoint::{Delivery, Endpoint};
use crate::topology::Topology;

/// Which cluster engine executes a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// One OS thread per rank; mailboxes are mpsc channels; blocking is
    /// real thread parking. The original engine.
    #[default]
    Threaded,
    /// Single-threaded discrete-event loop with a baton scheduler:
    /// frames are delivered from a binary-heap event queue in
    /// `(time, src, seq)` order and blocking compiles to park/resume
    /// transitions. Scales to thousands of ranks in one process.
    EventDriven,
}

impl EngineMode {
    /// Short CLI/report label.
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Threaded => "threaded",
            EngineMode::EventDriven => "event",
        }
    }

    /// Parse a CLI spelling (`threaded` | `event`).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "threaded" | "thread" => Ok(EngineMode::Threaded),
            "event" | "event-driven" | "eventdriven" => Ok(EngineMode::EventDriven),
            other => Err(format!(
                "unknown engine {other:?} (expected `threaded` or `event`)"
            )),
        }
    }
}

// ----------------------------------------------------------------------
// Event queue
// ----------------------------------------------------------------------

/// One timestamped event popped from an [`EventQueue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event<T> {
    /// Virtual instant the event becomes deliverable.
    pub time: VTime,
    /// Source rank (first tie-break for equal times).
    pub src: usize,
    /// Queue-assigned sequence number (final tie-break; preserves
    /// per-source push order among equal timestamps).
    pub seq: u64,
    /// Payload.
    pub item: T,
}

struct HeapEntry<T>(Event<T>);

impl<T> HeapEntry<T> {
    #[inline]
    fn key(&self) -> (VTime, usize, u64) {
        (self.0.time, self.0.src, self.0.seq)
    }
}
impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    /// Reversed: `BinaryHeap` is a max-heap and we want the earliest
    /// `(time, src, seq)` at the top.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(&self.key())
    }
}

/// A deterministic timestamped event queue with a total pop order.
///
/// Pops come out in ascending `(time, src, seq)` order; `seq` is
/// assigned at push, so events pushed for the same `(time, src)` pop in
/// push order (stability). [`EventQueue::push_replay`] re-inserts a
/// previously popped event with its original sequence number, which is
/// how deferred deliveries (e.g. RMA epoch deferral) re-enter the queue
/// without losing their place in the tie-break order.
pub struct EventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Insert an event; returns the sequence number it was assigned.
    pub fn push(&mut self, time: VTime, src: usize, item: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry(Event {
            time,
            src,
            seq,
            item,
        }));
        seq
    }

    /// Re-insert a previously popped event (deferral/replay), keeping
    /// its original sequence number so the total order is unchanged.
    pub fn push_replay(&mut self, ev: Event<T>) {
        self.heap.push(HeapEntry(ev));
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event<T>> {
        self.heap.pop().map(|e| e.0)
    }

    /// The earliest pending timestamp, if any.
    pub fn peek_time(&self) -> Option<VTime> {
        self.heap.peek().map(|e| e.0.time)
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// ----------------------------------------------------------------------
// The cooperative rank scheduler
// ----------------------------------------------------------------------

/// Where a rank's state machine currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankStatus {
    /// Holds the baton and is executing. At most one rank at a time.
    Running,
    /// Parked inside a blocking receive; only a delivery (or a
    /// structural deadlock) resumes it.
    BlockedRecv,
    /// Parked inside a watchdog receive; a delivery resumes it, and a
    /// global stall (no runnable rank, no pending event) resumes it
    /// with a timeout verdict — the virtual-deadline watchdog.
    BlockedTimeout,
    /// Yielded from a non-blocking poll (or not yet started): runnable
    /// whenever the scheduler has nothing timestamped to deliver.
    PollYield,
    /// The rank program returned (or unwound).
    Done,
}

struct RankSlot<M> {
    inbox: VecDeque<Delivery<M>>,
    status: RankStatus,
    /// Set (with `Running`) when the rank is stall-woken: the scheduler
    /// proved no further progress is possible while it was parked.
    stall_wake: bool,
}

struct CoreState<M> {
    queue: EventQueue<(usize, Delivery<M>)>,
    slots: Vec<RankSlot<M>>,
    /// A fault plan is installed somewhere: late frames for exited
    /// ranks are the crash model, not a wiring bug.
    fault_mode: bool,
    /// A rank panicked (or the fabric hit a wiring bug): every parked
    /// rank must unwind instead of waiting forever.
    poisoned: Option<&'static str>,
    /// The first rank that panicked, so the runner can re-throw *its*
    /// payload rather than a cascade panic from an innocent rank.
    original_panicker: Option<usize>,
}

impl<M> CoreState<M> {
    /// Decide who runs next. Called under the core lock by a rank that
    /// is parking (or finishing); `from` is that rank, used to rotate
    /// poll-yield resumption so a polling rank cannot starve the others.
    fn schedule_next(&mut self, from: usize) -> Wake {
        obs::wallprof::add(obs::wallprof::Counter::SchedPolls, 1);
        let n = self.slots.len();
        // 1) The earliest timestamped event. An inbox only ever fills
        //    here, and its rank resumes at once and drains it before it
        //    can park again, so no parked rank holds an undelivered
        //    frame.
        while let Some(ev) = self.queue.pop() {
            let (dst, d) = ev.item;
            if self.slots[dst].status == RankStatus::Done {
                if self.fault_mode {
                    // A crashed/failed rank's stragglers vanish, like a
                    // closed mailbox under a fault plan.
                    continue;
                }
                self.poisoned = Some(POISON_LATE_FRAME);
                return Wake::All;
            }
            self.slots[dst].inbox.push_back(d);
            self.slots[dst].status = RankStatus::Running;
            return Wake::One(dst);
        }
        // 2) A poll-yielded (or not-yet-started) rank, rotating from
        //    the parker so repeated polls round-robin.
        for off in 1..=n {
            let r = (from + off) % n;
            if self.slots[r].status == RankStatus::PollYield {
                self.slots[r].status = RankStatus::Running;
                return Wake::One(r);
            }
        }
        // 3) Global stall: nothing runnable, nothing queued. Wake the
        //    lowest parked rank with the stall verdict — its watchdog
        //    (or deadlock diagnostics) takes it from there. One at a
        //    time: the woken rank re-enters the scheduler when it next
        //    parks or finishes.
        if let Some(r) = self.slots.iter().position(|s| {
            matches!(
                s.status,
                RankStatus::BlockedRecv | RankStatus::BlockedTimeout
            )
        }) {
            self.slots[r].stall_wake = true;
            self.slots[r].status = RankStatus::Running;
            return Wake::One(r);
        }
        // Every rank is Done; nothing to schedule.
        Wake::Nobody
    }
}

/// Whom a scheduling decision resumes. The decision is taken under the
/// core lock; the wake itself happens after the lock is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wake {
    /// Every rank is done.
    Nobody,
    /// The rank that now holds the baton.
    One(usize),
    /// The core is poisoned: every parked rank must unwind.
    All,
}

/// Shared state of one event-driven cluster: the event queue, per-rank
/// inboxes and statuses, and one doorbell per rank for baton handoff.
pub(crate) struct EventCore<M> {
    state: Mutex<CoreState<M>>,
    /// Rung (set, then the rank's thread unparked) to resume a rank.
    /// A parked rank consumes its bell and re-checks its status under
    /// the lock, so a stale bell costs one spurious look and no more.
    bells: Vec<AtomicBool>,
    /// The rank threads, registered once all of them are spawned.
    threads: OnceLock<Vec<Thread>>,
}

const POISON_CASCADE: &str = "event engine poisoned: another rank panicked";
const POISON_LATE_FRAME: &str = "fabric mailbox closed: a rank thread exited early (event engine)";
const POISON_SPAWN: &str = "event engine poisoned: a rank thread failed to spawn";

impl<M> EventCore<M> {
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "cluster must have at least one rank");
        let slots = (0..n)
            .map(|rank| RankSlot {
                inbox: VecDeque::new(),
                // Rank 0 starts with the baton; every other rank is
                // runnable-from-the-start, which is exactly a poll
                // yield at its first instruction.
                status: if rank == 0 {
                    RankStatus::Running
                } else {
                    RankStatus::PollYield
                },
                stall_wake: false,
            })
            .collect();
        EventCore {
            state: Mutex::new(CoreState {
                queue: EventQueue::new(),
                slots,
                fault_mode: false,
                poisoned: None,
                original_panicker: None,
            }),
            bells: (0..n).map(|_| AtomicBool::new(false)).collect(),
            threads: OnceLock::new(),
        }
    }

    /// Ignore mutex poisoning: unwinding is coordinated through the
    /// explicit `poisoned` flag, which carries a useful message.
    fn lock(&self) -> MutexGuard<'_, CoreState<M>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Treat late frames to finished ranks as the crash model rather
    /// than a wiring bug (set when any endpoint installs a fault plan).
    pub(crate) fn set_fault_mode(&self) {
        self.lock().fault_mode = true;
    }

    /// Record the rank threads, which `ring` needs; no rank runs before
    /// this.
    fn register(&self, threads: Vec<Thread>) {
        self.threads
            .set(threads)
            .expect("rank threads are registered once");
    }

    /// Resume the ranks `wake` names. Called without the core lock, so
    /// a woken rank never blocks on a lock its waker still holds.
    fn ring(&self, wake: Wake) {
        let threads = self
            .threads
            .get()
            .expect("rank threads are registered before any rank runs");
        let ring_one = |r: usize| {
            // Release pairs with the Acquire swap in `wait_for_baton`.
            self.bells[r].store(true, Ordering::Release);
            threads[r].unpark();
        };
        match wake {
            Wake::Nobody => {}
            Wake::One(r) => ring_one(r),
            Wake::All => (0..threads.len()).for_each(ring_one),
        }
    }

    /// Take the scheduling decision for a parking (or finishing) rank,
    /// drop the lock, then ring the rank that now holds the baton. The
    /// `Sched` span covers decision and wake alike.
    fn hand_off(&self, mut st: MutexGuard<'_, CoreState<M>>, from: usize) {
        let _sched = obs::wallprof::span(obs::wallprof::Subsystem::Sched);
        let wake = st.schedule_next(from);
        drop(st);
        self.ring(wake);
    }

    /// Poison the core and wake every rank so parked ones unwind.
    fn poison(&self, mut st: MutexGuard<'_, CoreState<M>>, msg: &'static str) {
        st.poisoned = Some(msg);
        drop(st);
        self.ring(Wake::All);
    }

    /// Park until this rank holds the baton again (status `Running`) or
    /// the core is poisoned, and return the re-taken lock.
    fn wait_for_baton(&self, rank: usize) -> MutexGuard<'_, CoreState<M>> {
        loop {
            // Acquire pairs with the Release store in `ring`.
            while !self.bells[rank].swap(false, Ordering::Acquire) {
                std::thread::park();
            }
            let st = self.lock();
            if st.slots[rank].status == RankStatus::Running || st.poisoned.is_some() {
                return st;
            }
        }
    }

    /// Leave the baton in `status` and block until it comes back.
    fn park<'a>(
        &'a self,
        mut st: MutexGuard<'a, CoreState<M>>,
        rank: usize,
        status: RankStatus,
    ) -> MutexGuard<'a, CoreState<M>> {
        debug_assert!(
            st.slots[rank].inbox.is_empty(),
            "rank {rank} parks with an undelivered frame"
        );
        st.slots[rank].status = status;
        self.hand_off(st, rank);
        self.wait_for_baton(rank)
    }

    /// Block a freshly spawned rank thread until the scheduler starts
    /// it (rank 0 starts when the runner rings it).
    pub(crate) fn start_wait(&self, rank: usize) {
        let st = self.wait_for_baton(rank);
        if let Some(msg) = st.poisoned {
            drop(st);
            panic!("{msg}");
        }
    }

    /// Event-mode blocking receive: pop the inbox or park until a
    /// frame is delivered. A stall wake here means no frame can ever
    /// arrive — a structural deadlock, which the threaded engine would
    /// express as a hang; the event engine makes it a diagnosis.
    pub(crate) fn recv_blocking(&self, rank: usize) -> Delivery<M> {
        let mut st = self.lock();
        loop {
            if let Some(msg) = st.poisoned {
                drop(st);
                panic!("{msg}");
            }
            if let Some(d) = st.slots[rank].inbox.pop_front() {
                st.slots[rank].stall_wake = false;
                return d;
            }
            if st.slots[rank].stall_wake {
                st.slots[rank].stall_wake = false;
                self.poison(
                    st,
                    "event engine stalled: a rank is blocked in recv with no runnable \
                     rank and no pending events (deadlock)",
                );
                panic!(
                    "event engine stalled: rank {rank} blocked in recv with no runnable \
                     rank and no pending events (deadlock)"
                );
            }
            st = self.park(st, rank, RankStatus::BlockedRecv);
        }
    }

    /// Event-mode watchdog receive: like [`EventCore::recv_blocking`],
    /// but a stall wake returns `None` — the virtual-deadline watchdog
    /// verdict ("no progress is coming"), which the threaded engine
    /// approximates with a wall-clock timeout.
    pub(crate) fn recv_progress_or_stall(&self, rank: usize) -> Option<Delivery<M>> {
        let mut st = self.lock();
        loop {
            if let Some(msg) = st.poisoned {
                drop(st);
                panic!("{msg}");
            }
            if let Some(d) = st.slots[rank].inbox.pop_front() {
                st.slots[rank].stall_wake = false;
                return Some(d);
            }
            if st.slots[rank].stall_wake {
                st.slots[rank].stall_wake = false;
                return None;
            }
            st = self.park(st, rank, RankStatus::BlockedTimeout);
        }
    }

    /// Event-mode non-blocking poll: pop the inbox, or yield the baton
    /// once and try again. Returning `None` is possible only after the
    /// scheduler ran — so poll loops make progress for the whole
    /// cluster instead of spinning.
    pub(crate) fn try_recv(&self, rank: usize) -> Option<Delivery<M>> {
        let mut st = self.lock();
        if let Some(msg) = st.poisoned {
            drop(st);
            panic!("{msg}");
        }
        if let Some(d) = st.slots[rank].inbox.pop_front() {
            return Some(d);
        }
        st = self.park(st, rank, RankStatus::PollYield);
        if let Some(msg) = st.poisoned {
            drop(st);
            panic!("{msg}");
        }
        st.slots[rank].inbox.pop_front()
    }

    /// Enqueue a frame for `dst`. `sender_has_plan` mirrors the
    /// threaded engine's closed-mailbox rule: without a fault plan a
    /// frame for a finished rank is a wiring bug.
    pub(crate) fn push(&self, dst: usize, delivery: Delivery<M>, sender_has_plan: bool) {
        let mut st = self.lock();
        if st.slots[dst].status == RankStatus::Done {
            if sender_has_plan || st.fault_mode {
                return;
            }
            drop(st);
            panic!("fabric mailbox closed: a rank thread exited early");
        }
        let (src, time) = (delivery.src, delivery.arrival);
        st.queue.push(time, src, (dst, delivery));
    }

    /// Mark a rank finished and hand the baton on (or, if it unwound,
    /// poison the core so every parked rank unwinds too).
    pub(crate) fn finish_rank(&self, rank: usize, panicked: bool) {
        let mut st = self.lock();
        st.slots[rank].status = RankStatus::Done;
        st.slots[rank].inbox.clear();
        if panicked {
            if st.original_panicker.is_none() {
                st.original_panicker = Some(rank);
            }
            self.poison(st, POISON_CASCADE);
        } else {
            self.hand_off(st, rank);
        }
    }

    fn original_panicker(&self) -> Option<usize> {
        self.lock().original_panicker
    }
}

// ----------------------------------------------------------------------
// The event-driven cluster runner
// ----------------------------------------------------------------------

/// Stack size for rank threads under the event engine. Rank threads
/// never run concurrently — they are coroutine frames — so a modest
/// fixed stack keeps 1024-rank jobs cheap.
const RANK_STACK_BYTES: usize = 2 << 20;

/// [`crate::run_cluster`]'s event-driven twin: run `f` once per rank as
/// a cooperatively scheduled state machine. Same contract — per-rank
/// results in rank order, panics propagate — but only one rank ever
/// executes at a time, driven by the `(time, src, seq)` event queue.
///
/// Every rank thread is pinned to the CPU the caller is running on, so
/// each baton handoff wakes a thread on the waker's own CPU instead of
/// migrating the baton between CPUs.
pub fn run_cluster_event<M, R, F>(topo: Topology, f: F) -> Vec<R>
where
    M: Send + 'static,
    R: Send,
    F: Fn(Endpoint<M>) -> R + Sync,
{
    let n = topo.size();
    let core: Arc<EventCore<M>> = Arc::new(EventCore::new(n));
    let cpu = affinity::current_cpu();
    let f = &f;
    type Caught<R> = Result<R, Box<dyn Any + Send>>;
    let mut spawn_err = None;
    let mut results: Vec<Caught<R>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for rank in 0..n {
            let ep = Endpoint::new_event(rank, topo, core.clone());
            let core = core.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(RANK_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    if let Some(cpu) = cpu {
                        affinity::pin_current_thread(cpu);
                    }
                    core.start_wait(rank);
                    let out = catch_unwind(AssertUnwindSafe(|| f(ep)));
                    core.finish_rank(rank, out.is_err());
                    out
                });
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    spawn_err = Some(e);
                    break;
                }
            }
        }
        core.register(handles.iter().map(|h| h.thread().clone()).collect());
        if spawn_err.is_some() {
            // The spawned ranks unwind from `start_wait`.
            core.poison(core.lock(), POISON_SPAWN);
        } else {
            core.ring(Wake::One(0));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(Err))
            .collect()
    });
    if let Some(e) = spawn_err {
        panic!("spawn rank thread: {e}");
    }
    // Re-throw the first panic from the rank that caused it, not from
    // a rank that merely unwound in the cascade.
    if let Some(r) = core.original_panicker() {
        if results[r].is_err() {
            if let Err(payload) = results.swap_remove(r) {
                resume_unwind(payload);
            }
        }
    }
    results
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        })
        .collect()
}

/// Thread-to-CPU pinning through glibc's scheduler calls.
#[cfg(target_os = "linux")]
mod affinity {
    const WORDS: usize = 1024 / usize::BITS as usize;

    /// Linux's `SCHED_BATCH` policy: a woken thread does not preempt
    /// the running one.
    pub(super) const SCHED_BATCH: i32 = 3;

    /// glibc's `cpu_set_t`: a 1024-bit mask of `unsigned long` words.
    #[repr(C)]
    pub(super) struct CpuSet([usize; WORDS]);

    /// glibc's `struct sched_param`.
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        #[cfg(test)]
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        #[cfg(test)]
        fn sched_getscheduler(pid: i32) -> i32;
    }

    /// The CPU the calling thread is running on, if the kernel reports
    /// one that a `CpuSet` can hold.
    pub(super) fn current_cpu() -> Option<usize> {
        // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
        let cpu = unsafe { sched_getcpu() };
        usize::try_from(cpu)
            .ok()
            .filter(|&c| c < WORDS * usize::BITS as usize)
    }

    /// Restrict the calling thread to `cpu` and give it the batch
    /// policy. Without it, ringing a rank on the same CPU preempts the
    /// ringer before it parks, so the ringer's `Sched` span runs on
    /// while the woken rank works, and each such handoff costs a second
    /// switch back. If the kernel refuses either call, the thread keeps
    /// what it inherited.
    pub(super) fn pin_current_thread(cpu: usize) {
        let bits = usize::BITS as usize;
        let mut set = CpuSet([0; WORDS]);
        set.0[cpu / bits] |= 1 << (cpu % bits);
        // SAFETY: `set` is a live `cpu_set_t` of exactly the size passed,
        // pid 0 names the calling thread, and the call only reads the mask.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `param` is a live `struct sched_param`, priority 0 is the
        // one `SCHED_BATCH` accepts, pid 0 names the calling thread, and the
        // call only reads `param`.
        let _ = unsafe { sched_setscheduler(0, SCHED_BATCH, &param) };
    }

    /// The scheduling policy of the calling thread.
    #[cfg(test)]
    pub(super) fn current_policy() -> i32 {
        // SAFETY: pid 0 names the calling thread; no memory is passed.
        unsafe { sched_getscheduler(0) }
    }

    /// The CPUs the calling thread may run on.
    #[cfg(test)]
    pub(super) fn current_mask() -> Vec<usize> {
        let bits = usize::BITS as usize;
        let mut set = CpuSet([0; WORDS]);
        // SAFETY: `set` is a live, writable `cpu_set_t` of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        (0..WORDS * bits)
            .filter(|&c| set.0[c / bits] & (1 << (c % bits)) != 0)
            .collect()
    }
}

/// Pinning does nothing off Linux.
#[cfg(not(target_os = "linux"))]
mod affinity {
    pub(super) fn current_cpu() -> Option<usize> {
        None
    }

    pub(super) fn pin_current_thread(_cpu: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtime::LogGp;

    fn params() -> LogGp {
        LogGp {
            latency_ns: 1000.0,
            o_send_ns: 100.0,
            o_recv_ns: 100.0,
            gap_msg_ns: 50.0,
            gap_per_byte_ns: 0.1,
        }
    }

    #[test]
    fn queue_pops_in_time_src_seq_order() {
        let mut q = EventQueue::new();
        q.push(VTime::from_nanos(30.0), 0, "c");
        q.push(VTime::from_nanos(10.0), 1, "a2");
        q.push(VTime::from_nanos(10.0), 0, "a1");
        q.push(VTime::from_nanos(20.0), 0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.item).collect();
        assert_eq!(order, vec!["a1", "a2", "b", "c"]);
    }

    #[test]
    fn queue_equal_keys_pop_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.push(VTime::from_nanos(5.0), 3, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|e| e.item).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn queue_replay_keeps_total_order() {
        let mut q = EventQueue::new();
        q.push(VTime::from_nanos(10.0), 0, "first");
        q.push(VTime::from_nanos(10.0), 0, "second");
        let ev = q.pop().unwrap();
        assert_eq!(ev.item, "first");
        // Deferral: the popped event re-enters and still sorts first.
        q.push_replay(ev);
        assert_eq!(q.pop().unwrap().item, "first");
        assert_eq!(q.pop().unwrap().item, "second");
        assert!(q.pop().is_none());
    }

    #[test]
    fn event_ring_matches_threaded_semantics() {
        let topo = Topology::new(2, 4); // 8 ranks
        let results = run_cluster_event::<u64, u64, _>(topo, |mut ep| {
            let n = ep.size();
            let rank = ep.rank();
            let next = (rank + 1) % n;
            if rank == 0 {
                ep.send(next, VTime::ZERO, 8, &params(), 1).unwrap();
                ep.recv_blocking().msg
            } else {
                let d = ep.recv_blocking();
                ep.send(next, d.arrival, 8, &params(), d.msg + 1).unwrap();
                d.msg
            }
        });
        assert_eq!(results[0], 8);
        for (r, v) in results.iter().enumerate().skip(1) {
            assert_eq!(*v, r as u64);
        }
    }

    #[test]
    fn event_engine_poll_loops_make_progress() {
        // Rank 1 spins on try_recv until the frame shows up; the yield
        // must hand the baton to rank 0 so the send ever happens.
        let results = run_cluster_event::<u32, u32, _>(Topology::new(2, 1), |mut ep| {
            if ep.rank() == 0 {
                ep.send(1, VTime::ZERO, 8, &params(), 77).unwrap();
                0
            } else {
                loop {
                    if let Some(d) = ep.try_recv() {
                        return d.msg;
                    }
                }
            }
        });
        assert_eq!(results, vec![0, 77]);
    }

    #[test]
    #[should_panic(expected = "rank 2 failed")]
    fn event_rank_panic_propagates() {
        run_cluster_event::<(), (), _>(Topology::new(4, 1), |ep| {
            if ep.rank() == 2 {
                panic!("rank 2 failed");
            }
            // Other ranks park so the cascade path is exercised too.
            if ep.rank() == 3 {
                let _ = ep.recv_blocking();
            }
        });
    }

    #[test]
    fn watchdog_recv_returns_none_on_structural_stall() {
        let results = run_cluster_event::<u32, bool, _>(Topology::new(2, 1), |ep| {
            if ep.rank() == 0 {
                // Never sends: rank 1's watchdog receive must come back
                // with the stall verdict instead of hanging.
                true
            } else {
                ep.recv_timeout(std::time::Duration::from_millis(1))
                    .is_none()
            }
        });
        assert_eq!(results, vec![true, true]);
    }

    /// Payload of the deliberate failure in the cascade test.
    #[derive(Debug, PartialEq)]
    struct OriginalFailure(usize);

    #[test]
    fn panic_cascade_unwinds_every_kind_of_parked_rank() {
        // Ranks 0..62 park in blocking receives, watchdog receives and
        // poll loops; the last rank to start panics, so the poison must
        // ring every parked rank (`Wake::All`) and the runner must
        // re-throw the original payload rather than a cascade panic.
        let n = 64;
        let caught = catch_unwind(|| {
            run_cluster_event::<(), (), _>(Topology::new(4, 16), |ep| {
                let rank = ep.rank();
                if rank == n - 1 {
                    std::panic::panic_any(OriginalFailure(rank));
                }
                match rank % 3 {
                    0 => {
                        let _ = ep.recv_blocking();
                    }
                    1 => {
                        while ep
                            .recv_timeout(std::time::Duration::from_millis(1))
                            .is_none()
                        {}
                    }
                    _ => while ep.try_recv().is_none() {},
                }
            })
        });
        let payload = caught.expect_err("the job must fail");
        assert_eq!(
            payload.downcast_ref::<OriginalFailure>(),
            Some(&OriginalFailure(n - 1))
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn event_rank_threads_share_one_pinned_cpu_as_batch_threads() {
        let launcher = affinity::current_mask();
        let launcher_policy = affinity::current_policy();
        let seen = run_cluster_event::<(), (Vec<usize>, i32), _>(Topology::new(4, 4), |_| {
            (affinity::current_mask(), affinity::current_policy())
        });
        let cpu = &seen[0].0;
        assert_eq!(cpu.len(), 1, "rank 0 mask {cpu:?}");
        assert!(launcher.contains(&cpu[0]));
        for (rank, (mask, policy)) in seen.iter().enumerate() {
            assert_eq!(mask, cpu, "rank {rank}");
            assert_eq!(*policy, affinity::SCHED_BATCH, "rank {rank}");
        }
        assert_eq!(affinity::current_mask(), launcher, "launcher mask changed");
        assert_eq!(affinity::current_policy(), launcher_policy);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn threaded_rank_threads_keep_the_launcher_mask_and_policy() {
        let launcher = (affinity::current_mask(), affinity::current_policy());
        let seen = crate::run_cluster::<(), _, _>(Topology::new(2, 2), |_| {
            (affinity::current_mask(), affinity::current_policy())
        });
        for (rank, got) in seen.iter().enumerate() {
            assert_eq!(got, &launcher, "rank {rank}");
        }
    }

    #[test]
    fn event_results_are_in_rank_order() {
        let r = run_cluster_event::<(), usize, _>(Topology::new(2, 3), |ep| ep.rank());
        assert_eq!(r, vec![0, 1, 2, 3, 4, 5]);
    }
}
