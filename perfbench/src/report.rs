//! Metric definitions and their computation from finished jobs.
//!
//! End-to-end metrics come from untraced jobs; per-layer metrics from
//! traced ones (benchmark spans plus the simulator's own `SimPerf`
//! profile and pvars, read as they are).

use std::collections::BTreeMap;

use obs::pvar::PvarSet;
use obs::wallprof::{Counter, Subsystem, NSUBS, SUBSYSTEM_NAMES};

use crate::trace::{Family, APIS, COMM_FAMILIES};
use crate::workloads::{JobOut, JobTimes};

/// End-to-end metrics: `(name, unit)`; all are lower-is-better.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("step_p50_ms", "ms"),
    ("step_p90_ms", "ms"),
    ("sim_step_us", "us"),
    ("peak_rss_mb", "MB"),
];

const CORE_STATS: [(&str, &str); 4] = [
    ("calls", "count"),
    ("ms", "ms"),
    ("busy_ms", "ms"),
    ("wait_ms", "ms"),
];

/// Per-layer metrics other than the `core.<family>.<api>.*` block,
/// `(name, unit)`. The layer is the name's first component; `host` holds
/// the wall-clock twins of the end-to-end host timings.
const LAYER_METRICS: [(&str, &str); 40] = [
    ("simfabric.events", "count"),
    ("simfabric.events_per_s", "1/s"),
    ("simfabric.handoffs", "count"),
    ("simfabric.handoff_us", "us"),
    ("simfabric.fabric_ms", "ms"),
    ("simfabric.spawn_ms", "ms"),
    ("mpisim.engine_ms", "ms"),
    ("mpisim.match_ms", "ms"),
    ("mpisim.match_cmp_per_scan", "cmp/scan"),
    ("mpisim.allocs_per_msg", "allocs/msg"),
    ("mpisim.reliability_ms", "ms"),
    ("mpisim.retransmit_ratio", "ratio"),
    ("mpisim.sched_ms", "ms"),
    ("mpisim.sched_polls", "count"),
    ("mpisim.nbc_polls_per_round", "polls/round"),
    ("mpisim.rma_deferred", "count"),
    ("mpisim.rma_reg_hit_rate", "ratio"),
    ("mpisim.eager_bytes", "B"),
    ("mpisim.rndv_bytes", "B"),
    ("nif.copy_crossings", "count"),
    ("nif.critical_crossings", "count"),
    ("nif.direct_crossings", "count"),
    ("mrt.gc_collections", "count"),
    ("mrt.gc_bytes_copied", "B"),
    ("mrt.heap_alloc_bytes", "B"),
    ("mrt.alloc_ms", "ms"),
    ("mpjbuf.pool_hit_rate", "ratio"),
    ("mpjbuf.fallback_allocs", "count"),
    ("mpjbuf.pool_ms", "ms"),
    ("obs.records", "count"),
    ("obs.ms", "ms"),
    ("obs.trace_overhead", "ratio"),
    ("payload.bytes_per_s", "B/s"),
    ("payload.memcpy_bytes_per_s", "B/s"),
    ("payload.copy_efficiency", "ratio"),
    ("host.setup_wall_s", "s"),
    ("host.run_wall_s", "s"),
    ("host.step_wall_p50_ms", "ms"),
    ("host.step_wall_p90_ms", "ms"),
    ("core.calls", "count"),
];

/// Per-layer metrics, `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for fam in COMM_FAMILIES {
        for api in APIS {
            for (stat, unit) in CORE_STATS {
                out.push((format!("core.{}.{}.{stat}", fam.label(), api.label()), unit));
            }
        }
    }
    out
}

/// Linear-interpolated percentile `p` (0–100) of `v` (sorted here).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = p / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it (`None` below 20 samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // In tenths of a percent, so the sample count stays exact.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10_000)
        .map(|p| p as f64 / 10.0)
}

/// Median over jobs of one reading.
fn median_of(jobs: &[JobTimes], f: fn(&JobTimes) -> f64) -> f64 {
    median(&jobs.iter().map(f).collect::<Vec<f64>>())
}

/// All steps of all jobs, pooled.
fn pooled(jobs: &[JobTimes], f: fn(&JobTimes) -> &[f64]) -> Vec<f64> {
    jobs.iter().flat_map(|j| f(j).iter().copied()).collect()
}

/// End-to-end metrics from the untraced jobs plus the process's peak RSS.
pub fn end_to_end(jobs: &[JobTimes], peak_rss_bytes: u64) -> BTreeMap<String, f64> {
    let steps = pooled(jobs, |j| &j.steps_ms);
    let mut m = BTreeMap::new();
    m.insert("setup_s".into(), median_of(jobs, |j| j.setup_s));
    m.insert("run_s".into(), median_of(jobs, |j| j.run_s));
    m.insert("step_p50_ms".into(), percentile(&steps, 50.0));
    m.insert("step_p90_ms".into(), percentile(&steps, 90.0));
    m.insert("sim_step_us".into(), jobs[0].sim_step_us);
    m.insert(
        "peak_rss_mb".into(),
        peak_rss_bytes as f64 / (1u64 << 20) as f64,
    );
    m
}

/// Sums over the traced jobs that the per-layer metrics divide.
#[derive(Default)]
pub struct LayerSums {
    jobs: u64,
    wall_ns: u64,
    lifetime_ns: u64,
    events: u64,
    subs_ns: [u64; NSUBS],
    counters: [u64; obs::wallprof::NCOUNTERS],
    pvars: PvarSet,
    handoffs: u64,
    cpu_ns: u64,
    nbc_polls: u64,
    calls: u64,
    /// `(calls, wall_ns, busy_ns)` per communication family × API.
    core: BTreeMap<(&'static str, &'static str), (u64, u64, u64)>,
    comm_busy_ns: u64,
    alloc_ns: u64,
    spawn_ms: Vec<f64>,
    run_s: Vec<f64>,
}

impl LayerSums {
    pub fn add(&mut self, out: &JobOut, t: &JobTimes) {
        let perf = out
            .report
            .sim_perf
            .as_ref()
            .expect("traced jobs run with profiling on");
        let totals = perf.totals();
        self.jobs += 1;
        self.wall_ns += perf.wall_ns;
        self.lifetime_ns += perf.ranks.iter().map(|r| r.prof.wall_ns).sum::<u64>();
        self.events += perf.events();
        for i in 0..NSUBS {
            self.subs_ns[i] += totals.subs_ns[i];
        }
        for (acc, c) in self.counters.iter_mut().zip(totals.counters) {
            *acc += c;
        }
        self.pvars.merge(&out.report.merged_pvars());
        for r in &out.ranks {
            self.handoffs += r.switches;
            self.cpu_ns += r.cpu_ns;
            self.nbc_polls += r.rec.nbc_polls;
            self.calls += r.rec.calls;
            for s in &r.rec.spans {
                match s.family {
                    Family::Alloc => {
                        self.alloc_ns += s.wall_ns();
                        continue;
                    }
                    Family::Runtime => continue,
                    _ => {}
                }
                self.comm_busy_ns += s.busy_ns;
                let e = self
                    .core
                    .entry((s.family.label(), s.api.label()))
                    .or_default();
                e.0 += 1;
                e.1 += s.wall_ns();
                e.2 += s.busy_ns;
            }
        }
        self.spawn_ms.push(t.spawn_ms);
        self.run_s.push(t.run_s);
    }

    fn sub_ms(&self, s: Subsystem) -> f64 {
        self.subs_ns[s as usize] as f64 / 1e6 / self.jobs as f64
    }

    fn counter(&self, c: Counter) -> f64 {
        self.counters[c as usize] as f64
    }

    fn pvar(&self, name: &str) -> f64 {
        self.pvars.counter(name) as f64
    }

    /// Benchmark application time: rank CPU time outside communication
    /// calls (filling, checking, and the mini-app's own compute).
    fn app_ns(&self) -> u64 {
        self.cpu_ns.saturating_sub(self.comm_busy_ns)
    }

    /// Job wall time not covered by a subsystem's exclusive time or by
    /// application work: baton handoffs, thread wake-ups, and binding
    /// code outside the profiled subsystems.
    pub fn unattributed_ns(&self) -> u64 {
        let subs: u64 = self.subs_ns.iter().sum();
        self.wall_ns
            .saturating_sub(subs)
            .saturating_sub(self.app_ns())
    }

    /// Subsystem share of job wall time (the right base), in percent.
    pub fn share_of_wall_pct(&self, i: usize) -> f64 {
        100.0 * self.subs_ns[i] as f64 / self.wall_ns.max(1) as f64
    }

    /// The same share over the ranks' summed thread lifetimes, as the
    /// simulator's own `sim-perf` report computes it. Under the event
    /// engine the lifetimes overlap almost entirely, so this base is
    /// about `ranks ×` the wall and under-counts every share.
    pub fn share_of_lifetimes_pct(&self, i: usize) -> f64 {
        100.0 * self.subs_ns[i] as f64 / self.lifetime_ns.max(1) as f64
    }

    /// The per-layer metrics. `untraced` are the untraced jobs and
    /// `job_cpu_s` their median whole-job CPU time; `payload_bytes` is
    /// what one job's application moves; `memcpy_bps` the plain
    /// host-copy rate.
    pub fn metrics(
        &self,
        untraced: &[JobTimes],
        job_cpu_s: f64,
        payload_bytes: f64,
        memcpy_bps: f64,
    ) -> BTreeMap<String, f64> {
        let untraced_run_s = median_of(untraced, |j| j.run_s);
        let wall_steps = pooled(untraced, |j| &j.steps_wall_ms);
        let jobs = self.jobs as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let per_job = |v: f64| v / jobs;
        let hits = self.pvar("mpjbuf.pool.hits");
        let misses = self.pvar("mpjbuf.pool.misses");
        let reg_hit = self.pvar("rma.reg.hit");
        let reg_miss = self.pvar("rma.reg.miss");
        let bytes_per_s = ratio(payload_bytes, untraced_run_s);
        let mut m: BTreeMap<String, f64> = [
            ("simfabric.events", per_job(self.events as f64)),
            (
                "simfabric.events_per_s",
                ratio(per_job(self.events as f64), job_cpu_s),
            ),
            ("simfabric.handoffs", per_job(self.handoffs as f64)),
            (
                "simfabric.handoff_us",
                ratio(self.unattributed_ns() as f64 / 1e3, self.handoffs as f64),
            ),
            ("simfabric.fabric_ms", self.sub_ms(Subsystem::Fabric)),
            ("simfabric.spawn_ms", median(&self.spawn_ms)),
            ("mpisim.engine_ms", self.sub_ms(Subsystem::Engine)),
            ("mpisim.match_ms", self.sub_ms(Subsystem::Match)),
            (
                "mpisim.match_cmp_per_scan",
                ratio(
                    self.counter(Counter::MatchComparisons),
                    self.counter(Counter::MatchScans),
                ),
            ),
            (
                "mpisim.allocs_per_msg",
                ratio(
                    self.counter(Counter::Allocs),
                    self.counter(Counter::Messages),
                ),
            ),
            ("mpisim.reliability_ms", self.sub_ms(Subsystem::Reliability)),
            (
                "mpisim.retransmit_ratio",
                ratio(
                    self.pvar("fabric.retransmits"),
                    self.counter(Counter::Injections),
                ),
            ),
            ("mpisim.sched_ms", self.sub_ms(Subsystem::Sched)),
            (
                "mpisim.sched_polls",
                per_job(self.counter(Counter::SchedPolls)),
            ),
            (
                "mpisim.nbc_polls_per_round",
                ratio(self.nbc_polls as f64, self.pvar("coll.nb.rounds")),
            ),
            (
                "mpisim.rma_deferred",
                per_job(self.pvar("rma.epoch.deferred")),
            ),
            (
                "mpisim.rma_reg_hit_rate",
                ratio(reg_hit, reg_hit + reg_miss),
            ),
            (
                "mpisim.eager_bytes",
                per_job(self.pvar("pt2pt.eager_bytes")),
            ),
            ("mpisim.rndv_bytes", per_job(self.pvar("pt2pt.rndv_bytes"))),
            (
                "nif.copy_crossings",
                per_job(self.pvar("nif.crossings.copy")),
            ),
            (
                "nif.critical_crossings",
                per_job(self.pvar("nif.crossings.critical")),
            ),
            (
                "nif.direct_crossings",
                per_job(self.pvar("nif.crossings.direct")),
            ),
            (
                "mrt.gc_collections",
                per_job(self.pvar("mrt.gc.collections")),
            ),
            (
                "mrt.gc_bytes_copied",
                per_job(self.pvar("mrt.gc.bytes_copied")),
            ),
            (
                "mrt.heap_alloc_bytes",
                per_job(self.pvar("mrt.heap.alloc_bytes")),
            ),
            ("mrt.alloc_ms", per_job(self.alloc_ns as f64 / 1e6)),
            ("mpjbuf.pool_hit_rate", ratio(hits, hits + misses)),
            (
                "mpjbuf.fallback_allocs",
                per_job(self.pvar("mpjbuf.pool.fallback_allocs")),
            ),
            ("mpjbuf.pool_ms", self.sub_ms(Subsystem::Pool)),
            ("obs.records", per_job(self.counter(Counter::ObsRecords))),
            ("obs.ms", self.sub_ms(Subsystem::Obs)),
            (
                "obs.trace_overhead",
                ratio(median(&self.run_s), untraced_run_s),
            ),
            ("payload.bytes_per_s", bytes_per_s),
            ("payload.memcpy_bytes_per_s", memcpy_bps),
            ("payload.copy_efficiency", ratio(bytes_per_s, memcpy_bps)),
            ("core.calls", per_job(self.calls as f64)),
            ("host.setup_wall_s", median_of(untraced, |j| j.setup_wall_s)),
            ("host.run_wall_s", median_of(untraced, |j| j.run_wall_s)),
            ("host.step_wall_p50_ms", percentile(&wall_steps, 50.0)),
            ("host.step_wall_p90_ms", percentile(&wall_steps, 90.0)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for fam in COMM_FAMILIES {
            for api in APIS {
                let (calls, wall, busy) = self
                    .core
                    .get(&(fam.label(), api.label()))
                    .copied()
                    .unwrap_or_default();
                let key = |stat: &str| format!("core.{}.{}.{stat}", fam.label(), api.label());
                m.insert(key("calls"), per_job(calls as f64));
                m.insert(key("ms"), per_job(wall as f64 / 1e6));
                m.insert(key("busy_ms"), per_job(busy as f64 / 1e6));
                m.insert(key("wait_ms"), per_job((wall - busy) as f64 / 1e6));
            }
        }
        m
    }

    /// Text block: subsystem shares on both bases, and the time split.
    pub fn render_shares(&self) -> String {
        let mut s = format!(
            "# subsystem shares over {} traced job(s): of job wall | of summed rank lifetimes (sim-perf base)\n",
            self.jobs
        );
        for (i, name) in SUBSYSTEM_NAMES.iter().enumerate() {
            s.push_str(&format!(
                "#   {name:<12} {:>7.3}% | {:>9.5}%\n",
                self.share_of_wall_pct(i),
                self.share_of_lifetimes_pct(i)
            ));
        }
        let pct = |ns: u64| 100.0 * ns as f64 / self.wall_ns.max(1) as f64;
        s.push_str(&format!(
            "#   app {:.1}%  unattributed {:.1}% of job wall\n",
            pct(self.app_ns()),
            pct(self.unattributed_ns())
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: starts with a letter or digit,
    /// at most 64 of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Whether `unit` is a valid unit: at most 16 of letters, digits, `_`,
    /// `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let mut all: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        all.extend(per_layer());
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        for (n, u) in &all {
            assert!(valid_name(n), "bad name {n}");
            assert!(valid_unit(u), "bad unit {u} of {n}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric names");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn validity_rules_reject_bad_names() {
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!valid_unit("µs"));
        assert!(valid_unit("1/s"));
    }

    #[test]
    fn percentiles() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(percentile(&v, 90.0), 91.0);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
    }

    #[test]
    fn shares_use_job_wall_not_summed_lifetimes() {
        let mut l = LayerSums {
            jobs: 1,
            wall_ns: 1_000,
            lifetime_ns: 32_000,
            ..Default::default()
        };
        l.subs_ns[Subsystem::Sched as usize] = 250;
        assert_eq!(l.share_of_wall_pct(Subsystem::Sched as usize), 25.0);
        assert!((l.share_of_lifetimes_pct(Subsystem::Sched as usize) - 0.78125).abs() < 1e-12);
    }
}
