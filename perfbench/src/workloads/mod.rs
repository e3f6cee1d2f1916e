//! The three workloads and the job runner they share.
//!
//! Each workload is a rank program written against the public
//! `mvapich2j::Env` API (not the `ombj` kernels), so every binding call
//! can be timed from the caller's side. A workload's inputs come from
//! its seed alone; one *job* runs them once, and the benchmark repeats
//! identical jobs for as long as it measures.

pub mod bulk;
pub mod coll;
pub mod stencil;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mvapich2j::{run_job_with_obs, Env, JobConfig};

use crate::gen::Digest;
use crate::trace::{process_cpu_ns, thread_cpu_ns, voluntary_switches, Mark, Recorder};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["coll_256", "bulk_pt2pt", "stencil_lossy"];

/// Job size: `Full` for measurement, `Quick` for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

pub trait Workload: Sync {
    /// The job configuration of an untraced run.
    fn config(&self) -> JobConfig;
    /// Timed steps per job.
    fn steps(&self) -> usize;
    /// Sizes of the application payloads one job moves, one entry per
    /// message as the application sees it (for the payload metrics and
    /// the plain host-copy baseline).
    fn payload_sizes(&self) -> Vec<usize>;
    /// The rank program. It must call `rec.setup_done` right after its
    /// first barrier, `rec.step_end` after every step and `rec.timed_end`
    /// after the last one.
    fn run_rank(&self, env: &mut Env, rec: &mut Recorder);
}

/// Build the named workload from `seed`.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "coll_256" => Box::new(coll::Coll::new(seed, scale)),
        "bulk_pt2pt" => Box::new(bulk::Bulk::new(seed, scale)),
        "stencil_lossy" => Box::new(stencil::Stencil::new(seed, scale)),
        _ => return None,
    })
}

/// What one rank hands back.
pub struct RankOut {
    pub rec: Recorder,
    /// Thread CPU time of the rank program.
    pub cpu_ns: u64,
    /// Times the rank thread parked (voluntary context switches).
    pub switches: u64,
}

/// One finished job.
pub struct JobOut {
    pub ranks: Vec<RankOut>,
    pub report: obs::JobReport,
    pub launch: Instant,
    /// Process CPU time the whole job used.
    pub cpu_ns: u64,
}

/// Run one job; a panic in any rank (a failed `Env` call, a stalled
/// engine) comes back as `Err`.
pub fn run(w: &dyn Workload, traced: bool) -> Result<JobOut, String> {
    let mut cfg = w.config();
    cfg.obs.profiling = traced;
    let (launch, launch_cpu_ns) = (Instant::now(), process_cpu_ns());
    let res = catch_unwind(AssertUnwindSafe(|| {
        run_job_with_obs(cfg, |env| {
            let s0 = voluntary_switches();
            let mut rec = Recorder::new(env.rank(), launch, traced);
            let c0 = thread_cpu_ns();
            w.run_rank(env, &mut rec);
            RankOut {
                rec,
                cpu_ns: thread_cpu_ns() - c0,
                switches: voluntary_switches() - s0,
            }
        })
    }));
    let cpu_ns = process_cpu_ns() - launch_cpu_ns;
    match res {
        Ok((ranks, report)) => Ok(JobOut {
            ranks,
            report,
            launch,
            cpu_ns,
        }),
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "rank panicked".to_string())),
    }
}

/// The end-to-end readings of one job. Host timings are CPU time (the
/// steady measure of what the simulator costs on a shared machine), each
/// with its wall-clock twin.
#[derive(Debug, Clone)]
pub struct JobTimes {
    /// Launch until every rank is past its first barrier: CPU the rank
    /// threads used from their start until past that barrier.
    pub setup_s: f64,
    pub setup_wall_s: f64,
    /// CPU the ranks spent from the end of their set-up to the end of
    /// their last step; wall time from the last set-up end to the last
    /// rank's end.
    pub run_s: f64,
    pub run_wall_s: f64,
    /// CPU all ranks spent on each step (between their own step ends),
    /// and the wall time of each step as rank 0 saw it (ms).
    pub steps_ms: Vec<f64>,
    pub steps_wall_ms: Vec<f64>,
    /// Launch until every rank program has started (wall).
    pub spawn_ms: f64,
    /// Rank 0's simulated time per step.
    pub sim_step_us: f64,
    /// Digest of every rank's virtual clock at each step end and of every
    /// payload it received.
    pub digest: u64,
    pub calls: u64,
    pub mismatches: u64,
}

pub fn times(out: &JobOut, steps: usize) -> Result<JobTimes, String> {
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let mut last_setup: Option<Mark> = None;
    let mut setup_cpu_ns = 0;
    let mut last_end = out.launch;
    let mut entered = out.launch;
    let mut run_cpu_ns = 0;
    let mut steps_cpu_ns = vec![0u64; steps];
    let mut digest = Digest::default();
    for r in &out.ranks {
        let rec = &r.rec;
        let (Some(s), Some(e)) = (rec.setup_done, rec.timed_end) else {
            return Err(format!("rank {} skipped its set-up or end mark", rec.rank));
        };
        if rec.step_ends.len() != steps {
            return Err(format!(
                "rank {} ran {} of {steps} steps",
                rec.rank,
                rec.step_ends.len()
            ));
        }
        if last_setup.is_none_or(|m| s.at > m.at) {
            last_setup = Some(s);
        }
        // A thread's CPU clock starts at zero when the thread does.
        setup_cpu_ns += s.cpu_ns;
        last_end = last_end.max(e.at);
        entered = entered.max(rec.entered);
        run_cpu_ns += e.cpu_ns - s.cpu_ns;
        let mut prev = s;
        for (acc, &m) in steps_cpu_ns.iter_mut().zip(&rec.step_ends) {
            *acc += m.cpu_ns - prev.cpu_ns;
            prev = m;
        }
        digest.u64(rec.digest.value());
    }
    let setup = last_setup.ok_or("job has no ranks")?;
    let r0 = &out.ranks[0].rec;
    let mut prev = r0.setup_done.expect("checked above").at;
    let steps_wall_ms = r0
        .step_ends
        .iter()
        .map(|m| {
            let d = secs(prev, m.at) * 1e3;
            prev = m.at;
            d
        })
        .collect();
    Ok(JobTimes {
        setup_s: setup_cpu_ns as f64 / 1e9,
        setup_wall_s: secs(out.launch, setup.at),
        run_s: run_cpu_ns as f64 / 1e9,
        run_wall_s: secs(setup.at, last_end),
        steps_ms: steps_cpu_ns.iter().map(|&ns| ns as f64 / 1e6).collect(),
        steps_wall_ms,
        spawn_ms: secs(out.launch, entered) * 1e3,
        sim_step_us: (r0.vt_end_ns - r0.vt_setup_ns) / 1e3 / steps as f64,
        digest: digest.value(),
        calls: out.ranks.iter().map(|r| r.rec.calls).sum(),
        mismatches: out.ranks.iter().map(|r| r.rec.mismatches).sum(),
    })
}
