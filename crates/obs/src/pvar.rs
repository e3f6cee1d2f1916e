//! Performance variables (pvars), in the spirit of the MPI_T tool
//! information interface.
//!
//! A pvar is a named, typed metric a library layer exports because a tool
//! might want to read it: protocol decision counters, queue-depth gauges,
//! pause-time histograms. Names are dotted paths (`pt2pt.eager_msgs`,
//! `mrt.gc.pauses_ns`); the catalogue lives in the README's
//! "Observability" section.
//!
//! Three classes, mirroring MPI_T's counter / level / aggregate split:
//!
//! * **Counter** — monotonically increasing `u64` (events, bytes).
//! * **Gauge** — instantaneous level; records the last and the high-water
//!   value (unexpected-queue depth, outstanding pool buffers).
//! * **Hist** — log2-bucket histogram of `f64` samples (GC pause ns).
//!
//! Sets support `diff` (interval measurement, like `MPI_T_pvar_read`
//! before/after a phase) and `merge` (cross-rank aggregation).

use std::collections::BTreeMap;

/// Number of log2 buckets: bucket `i` holds samples in `[2^(i-1), 2^i)`
/// (bucket 0 holds samples `< 1`).
pub const HIST_BUCKETS: usize = 64;

/// A log2-bucket histogram over non-negative `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Log2Hist {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: f64,
    pub max: f64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }
}

/// Bucket index for a sample (negative samples clamp to bucket 0).
pub fn bucket_of(v: f64) -> usize {
    if v < 1.0 {
        return 0;
    }
    let n = v as u64;
    ((64 - n.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

impl Log2Hist {
    /// Record one sample.
    pub fn observe(&mut self, v: f64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Bucket-wise accumulate `other` into `self`.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

/// One pvar's current value. Histograms are boxed so the bucket array
/// does not size every counter's slot (telemetry keeps one pvar set per
/// time bin).
#[derive(Debug, Clone, PartialEq)]
pub enum PvarValue {
    Counter(u64),
    Gauge { last: i64, max: i64 },
    Hist(Box<Log2Hist>),
}

impl PvarValue {
    /// Counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            PvarValue::Counter(n) => Some(*n),
            _ => None,
        }
    }

    /// Gauge high-water mark, if this is a gauge.
    pub fn as_gauge_max(&self) -> Option<i64> {
        match self {
            PvarValue::Gauge { max, .. } => Some(*max),
            _ => None,
        }
    }

    /// Histogram, if this is one.
    pub fn as_hist(&self) -> Option<&Log2Hist> {
        match self {
            PvarValue::Hist(h) => Some(h.as_ref()),
            _ => None,
        }
    }
}

/// A named set of pvars. `BTreeMap` keeps iteration (and therefore every
/// dump/export) in deterministic name order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PvarSet {
    vars: BTreeMap<String, PvarValue>,
}

impl PvarSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump a counter by `n` (registers it at 0 on first touch).
    pub fn count(&mut self, name: &str, n: u64) {
        match self.vars.get_mut(name) {
            Some(PvarValue::Counter(c)) => *c += n,
            Some(other) => panic!("pvar {name:?} is not a counter: {other:?}"),
            None => {
                self.vars.insert(name.to_string(), PvarValue::Counter(n));
            }
        }
    }

    /// Set a gauge's level (high-water mark is kept automatically).
    pub fn gauge_set(&mut self, name: &str, v: i64) {
        match self.vars.get_mut(name) {
            Some(PvarValue::Gauge { last, max }) => {
                *last = v;
                if v > *max {
                    *max = v;
                }
            }
            Some(other) => panic!("pvar {name:?} is not a gauge: {other:?}"),
            None => {
                self.vars
                    .insert(name.to_string(), PvarValue::Gauge { last: v, max: v });
            }
        }
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, name: &str, v: f64) {
        match self.vars.get_mut(name) {
            Some(PvarValue::Hist(h)) => h.observe(v),
            Some(other) => panic!("pvar {name:?} is not a histogram: {other:?}"),
            None => {
                let mut h = Box::<Log2Hist>::default();
                h.observe(v);
                self.vars.insert(name.to_string(), PvarValue::Hist(h));
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<&PvarValue> {
        self.vars.get(name)
    }

    /// Counter value by name (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.get(name).and_then(PvarValue::as_counter).unwrap_or(0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &PvarValue)> {
        self.vars.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn len(&self) -> usize {
        self.vars.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Cross-rank aggregation: counters add, gauges keep the max level,
    /// histograms merge bucket-wise. A name present in only one set is
    /// carried over unchanged.
    pub fn merge(&mut self, other: &PvarSet) {
        for (name, ov) in &other.vars {
            match (self.vars.get_mut(name), ov) {
                (Some(PvarValue::Counter(a)), PvarValue::Counter(b)) => *a += b,
                (Some(PvarValue::Gauge { last, max }), PvarValue::Gauge { last: bl, max: bm }) => {
                    *last = (*last).max(*bl);
                    *max = (*max).max(*bm);
                }
                (Some(PvarValue::Hist(a)), PvarValue::Hist(b)) => a.merge(b),
                (Some(mine), theirs) => {
                    panic!("pvar {name:?} type mismatch in merge: {mine:?} vs {theirs:?}")
                }
                (None, v) => {
                    self.vars.insert(name.clone(), v.clone());
                }
            }
        }
    }

    /// Serialize as a JSON object: counters as numbers, gauges as
    /// `{"last","max"}`, histograms as `{"count","mean","max"}` (the
    /// bucket array is an internal detail; summary stats are what the
    /// analyzers read).
    pub fn write_json(&self, w: &mut crate::json::JsonBuf) {
        w.begin_obj();
        for (name, v) in self.iter() {
            w.key(name);
            match v {
                PvarValue::Counter(n) => w.uint_val(*n),
                PvarValue::Gauge { last, max } => {
                    w.begin_obj();
                    w.key("last");
                    w.int_val(*last);
                    w.key("max");
                    w.int_val(*max);
                    w.end_obj();
                }
                PvarValue::Hist(h) => {
                    w.begin_obj();
                    w.key("count");
                    w.uint_val(h.count);
                    w.key("mean");
                    w.num_val(h.mean());
                    w.key("max");
                    w.num_val(h.max);
                    w.end_obj();
                }
            }
        }
        w.end_obj();
    }

    /// Interval measurement: what happened since `earlier` was captured.
    /// Counters and histogram counts subtract (saturating); gauges keep
    /// the later reading as-is.
    pub fn diff(&self, earlier: &PvarSet) -> PvarSet {
        let mut out = PvarSet::new();
        for (name, now) in &self.vars {
            let then = earlier.vars.get(name);
            let v = match (now, then) {
                (PvarValue::Counter(a), Some(PvarValue::Counter(b))) => {
                    PvarValue::Counter(a.saturating_sub(*b))
                }
                (PvarValue::Hist(a), Some(PvarValue::Hist(b))) => {
                    let mut h = a.clone();
                    for (x, y) in h.buckets.iter_mut().zip(b.buckets.iter()) {
                        *x = x.saturating_sub(*y);
                    }
                    h.count = a.count.saturating_sub(b.count);
                    h.sum = (a.sum - b.sum).max(0.0);
                    PvarValue::Hist(h)
                }
                (v, _) => v.clone(),
            };
            out.vars.insert(name.clone(), v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_register_lazily() {
        let mut p = PvarSet::new();
        assert_eq!(p.counter("pt2pt.eager_msgs"), 0);
        p.count("pt2pt.eager_msgs", 1);
        p.count("pt2pt.eager_msgs", 3);
        assert_eq!(p.counter("pt2pt.eager_msgs"), 4);
    }

    #[test]
    fn gauges_track_last_and_high_water() {
        let mut p = PvarSet::new();
        p.gauge_set("q.depth", 2);
        p.gauge_set("q.depth", 7);
        p.gauge_set("q.depth", 1);
        assert_eq!(
            p.get("q.depth"),
            Some(&PvarValue::Gauge { last: 1, max: 7 })
        );
    }

    #[test]
    fn hist_buckets_are_log2() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(0.9), 0);
        assert_eq!(bucket_of(1.0), 1);
        assert_eq!(bucket_of(1.5), 1);
        assert_eq!(bucket_of(2.0), 2);
        assert_eq!(bucket_of(3.0), 2);
        assert_eq!(bucket_of(4.0), 3);
        assert_eq!(bucket_of(1024.0), 11);
        assert_eq!(bucket_of(f64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn hist_stats() {
        let mut h = Log2Hist::default();
        for v in [1.0, 2.0, 3.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.max, 10.0);
        assert_eq!(h.buckets[1], 1); // 1.0
        assert_eq!(h.buckets[2], 2); // 2.0, 3.0
        assert_eq!(h.buckets[4], 1); // 10.0
    }

    #[test]
    fn merge_semantics_per_class() {
        let mut a = PvarSet::new();
        a.count("c", 5);
        a.gauge_set("g", 3);
        a.observe("h", 2.0);
        let mut b = PvarSet::new();
        b.count("c", 7);
        b.gauge_set("g", 9);
        b.observe("h", 8.0);
        b.count("only_b", 1);
        a.merge(&b);
        assert_eq!(a.counter("c"), 12);
        assert_eq!(a.get("g").unwrap().as_gauge_max(), Some(9));
        let h = a.get("h").unwrap().as_hist().unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 8.0);
        assert_eq!(a.counter("only_b"), 1);
    }

    #[test]
    fn merge_is_commutative_on_counters_and_hists() {
        let mut a = PvarSet::new();
        a.count("c", 5);
        a.observe("h", 4.0);
        let mut b = PvarSet::new();
        b.count("c", 2);
        b.observe("h", 100.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn diff_subtracts_counters_and_hist_counts() {
        let mut before = PvarSet::new();
        before.count("c", 10);
        before.observe("h", 1.0);
        let mut after = before.clone();
        after.count("c", 5);
        after.observe("h", 2.0);
        after.gauge_set("g", 4);
        let d = after.diff(&before);
        assert_eq!(d.counter("c"), 5);
        assert_eq!(d.get("h").unwrap().as_hist().unwrap().count, 1);
        assert_eq!(d.get("g").unwrap().as_gauge_max(), Some(4));
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut p = PvarSet::new();
        p.count("z", 1);
        p.count("a", 1);
        p.count("m", 1);
        let names: Vec<&str> = p.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn json_export_covers_all_classes() {
        let mut p = PvarSet::new();
        p.count("c", 3);
        p.gauge_set("g", -2);
        p.gauge_set("g", 5);
        p.observe("h", 4.0);
        let mut w = crate::json::JsonBuf::new();
        p.write_json(&mut w);
        let s = w.finish();
        assert!(s.contains(r#""c":3"#));
        assert!(s.contains(r#""g":{"last":5,"max":5}"#));
        assert!(s.contains(r#""h":{"count":1,"mean":4,"max":4}"#));
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn type_confusion_panics() {
        let mut p = PvarSet::new();
        p.gauge_set("x", 1);
        p.count("x", 1);
    }
}
