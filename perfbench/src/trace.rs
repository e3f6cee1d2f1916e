//! The benchmark's own instrumentation: a per-rank [`Recorder`] that
//! marks step boundaries (always) and, in a traced run, records a span
//! around every `Env` call. Nothing is recorded inside the library: the
//! spans time each binding call from the caller's side, and busy time is
//! the calling thread's CPU time, so `wait = wall - busy` is the time the
//! rank was parked (another rank held the baton, or the thread slept in a
//! blocking receive).

use std::time::Instant;

use crate::gen::Digest;

/// Binding family of an `Env` call. `Alloc` (allocating and freeing
/// arrays and direct buffers) and `Runtime` (reading, writing, compute)
/// are the managed-runtime side: application work, not communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    P2p,
    Coll,
    Nbc,
    Rma,
    Wait,
    Alloc,
    Runtime,
}

/// The communication families, in report order.
pub const COMM_FAMILIES: [Family; 5] = [
    Family::P2p,
    Family::Coll,
    Family::Nbc,
    Family::Rma,
    Family::Wait,
];

impl Family {
    pub fn label(self) -> &'static str {
        match self {
            Family::P2p => "p2p",
            Family::Coll => "coll",
            Family::Nbc => "nbc",
            Family::Rma => "rma",
            Family::Wait => "wait",
            Family::Alloc => "alloc",
            Family::Runtime => "runtime",
        }
    }
}

/// Which user-buffer kind the call moves: Java arrays (staged through
/// the buffering layer) or direct buffers. Calls without a payload
/// (barrier) count as `Buffer`; fences count as the window's kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    Array,
    Buffer,
}

pub const APIS: [Api; 2] = [Api::Array, Api::Buffer];

impl Api {
    pub fn label(self) -> &'static str {
        match self {
            Api::Array => "array",
            Api::Buffer => "buffer",
        }
    }
}

/// One `Env` call. Times are nanoseconds since the job's launch; the
/// parent is the step the call ran in (`0` is set-up, steps count from 1).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub rank: u32,
    pub step: u32,
    pub family: Family,
    pub api: Api,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A moment of a rank's run: host wall clock plus the CPU time the
/// rank's own thread has used. A thread reads its own CPU clock exactly;
/// the process clock lags by up to a scheduler tick for threads running
/// on other CPUs, which is too coarse for millisecond steps.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    pub cpu_ns: u64,
}

impl Mark {
    pub fn now() -> Mark {
        Mark {
            at: Instant::now(),
            cpu_ns: thread_cpu_ns(),
        }
    }
}

/// Per-rank measurement context handed to a workload's rank program.
pub struct Recorder {
    pub rank: usize,
    launch: Instant,
    traced: bool,
    step: u32,
    pub spans: Vec<Span>,
    /// `Env` calls made (counted in every run).
    pub calls: u64,
    /// Validation or reference mismatches found by the rank program.
    pub mismatches: u64,
    /// Application-level completion polls on non-blocking collectives.
    pub nbc_polls: u64,
    /// Virtual clock at every step end plus every payload the rank
    /// received (see [`Recorder::fold`]).
    pub digest: Digest,
    pub entered: Instant,
    pub setup_done: Option<Mark>,
    pub timed_end: Option<Mark>,
    /// When each step ended.
    pub step_ends: Vec<Mark>,
    /// Virtual time (ns) at the end of set-up and of the timed phase.
    pub vt_setup_ns: f64,
    pub vt_end_ns: f64,
}

impl Recorder {
    pub fn new(rank: usize, launch: Instant, traced: bool) -> Self {
        Recorder {
            rank,
            launch,
            traced,
            step: 0,
            spans: Vec::new(),
            calls: 0,
            mismatches: 0,
            nbc_polls: 0,
            digest: Digest::default(),
            entered: Instant::now(),
            setup_done: None,
            timed_end: None,
            step_ends: Vec::new(),
            vt_setup_ns: 0.0,
            vt_end_ns: 0.0,
        }
    }

    /// Run one `Env` call, recording a span around it in a traced run.
    /// A call that returns an error fails the job: the rank unwinds and
    /// the runner reports the failure (a collective cannot continue with
    /// one rank missing, so there is nothing to resume).
    pub fn call<T, E: std::fmt::Debug>(
        &mut self,
        name: &'static str,
        family: Family,
        api: Api,
        f: impl FnOnce() -> Result<T, E>,
    ) -> T {
        let out = self.time(name, family, api, f);
        match out {
            Ok(v) => v,
            Err(e) => panic!("rank {}: {name} failed: {e:?}", self.rank),
        }
    }

    /// [`Recorder::call`] for an infallible `Env` call.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        family: Family,
        api: Api,
        f: impl FnOnce() -> T,
    ) -> T {
        self.calls += 1;
        if !self.traced {
            return f();
        }
        let c0 = thread_cpu_ns();
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let c1 = thread_cpu_ns();
        let since = |t: Instant| t.duration_since(self.launch).as_nanos() as u64;
        let (start_ns, end_ns) = (since(t0), since(t1));
        self.spans.push(Span {
            name,
            rank: self.rank as u32,
            step: self.step,
            family,
            api,
            start_ns,
            end_ns,
            busy_ns: c1.saturating_sub(c0).min(end_ns - start_ns),
        });
        out
    }

    /// Count a validation mismatch (the job keeps running; the run fails).
    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.mismatches += 1;
        }
    }

    /// Set-up is over: every rank calls this right after its first barrier.
    pub fn setup_done(&mut self, vt_ns: f64) {
        self.setup_done = Some(Mark::now());
        self.vt_setup_ns = vt_ns;
        self.step = 1;
    }

    /// Fold received payload bytes into the digest.
    pub fn fold(&mut self, bytes: &[u8]) {
        self.digest.payload(bytes);
    }

    /// One application step is over at virtual time `vt_ns`.
    pub fn step_end(&mut self, vt_ns: f64) {
        self.step_ends.push(Mark::now());
        self.digest.f64(vt_ns);
        self.step += 1;
    }

    /// The timed phase is over (teardown and final checks follow).
    pub fn timed_end(&mut self, vt_ns: f64) {
        self.timed_end = Some(Mark::now());
        self.vt_end_ns = vt_ns;
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Reading of a kernel CPU-time clock in nanoseconds (0 where the clock
/// is unavailable).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock ids passed are constants the
    // kernel defines; the call writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_ns(_clock_id: i32) -> u64 {
    0
}

/// CPU time consumed by the calling thread (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(3)
}

/// CPU time consumed by all threads of this process
/// (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it excludes time the
/// threads sat runnable but unscheduled, e.g. stolen by the hypervisor.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(2)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `getrusage(who)`, or all zeros where unavailable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage(who: i32) -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a live, writable `struct rusage` (two timevals and
    // fourteen longs on 64-bit Linux) and `who` is RUSAGE_SELF or
    // RUSAGE_THREAD; the call writes only through the pointer it is given.
    if unsafe { getrusage(who, &mut r) } != 0 {
        return Rusage::default();
    }
    r
}

/// Voluntary context switches of the calling thread so far
/// (`RUSAGE_THREAD`): each is one time the thread parked and was later
/// resumed.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn voluntary_switches() -> u64 {
    rusage(1).nvcsw as u64
}

/// Peak resident set of this process (`ru_maxrss`, the `VmHWM` the
/// kernel keeps), in bytes.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_bytes() -> u64 {
    rusage(0).maxrss as u64 * 1024
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn voluntary_switches() -> u64 {
    0
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_bytes() -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let c0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > c0, "{x}");
    }

    #[test]
    fn spans_only_in_traced_runs() {
        let launch = Instant::now();
        let mut quiet = Recorder::new(0, launch, false);
        let mut loud = Recorder::new(0, launch, true);
        for r in [&mut quiet, &mut loud] {
            let v: u32 = r.call("op", Family::Coll, Api::Buffer, || Ok::<_, ()>(5));
            assert_eq!(v, 5);
            r.setup_done(0.0);
            r.time("op2", Family::P2p, Api::Array, || ());
            assert_eq!(r.calls, 2);
        }
        assert!(quiet.spans.is_empty());
        assert_eq!(loud.spans.len(), 2);
        assert_eq!((loud.spans[0].step, loud.spans[1].step), (0, 1));
        assert!(loud.spans.iter().all(|s| s.busy_ns <= s.wall_ns()));
    }

    #[test]
    fn rusage_fields_are_read() {
        assert!(peak_rss_bytes() > 0);
        let s0 = voluntary_switches();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(voluntary_switches() > s0);
    }
}
