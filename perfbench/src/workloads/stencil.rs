//! `stencil_lossy`: a heat-diffusion mini-app on 32 ranks (4 nodes × 8)
//! under the event engine, on a lossy fabric with the flight ring and
//! telemetry on.
//!
//! The grid is split into horizontal strips, one per rank (a 1-D domain
//! decomposition); each rank's strip lives in a Java `double[]` exposed
//! as a one-sided window. Every step moves the two edge rows to the
//! neighbours' ghost rows with `put_array` and closes the epoch with a
//! fence; every few steps an `iallreduce` of the update's residual is
//! posted and overlapped with the next interior update, which polls it
//! between row chunks. The fabric drops, corrupts, duplicates and delays
//! frames from a seeded plan. The final field must match a plain-Rust
//! sequential run bit for bit, and every residual must match the
//! sequential one.
//!
//! Why: it runs the same fabric and engine as `coll_256` through other
//! paths — reliability framing and retransmits, RMA epochs and the
//! registration cache (edge rows are larger than the RMA eager limit),
//! NBC schedule polls, collections of the per-step edge arrays, and
//! always-on `obs`
//! probes — so a fast-path gain that costs the reliability path shows.

use mvapich2j::{EngineMode, Env, JRequest, JobConfig, ReduceOp, TestOutcome, Topology};
use simfabric::FaultPlan;
use vtime::VDur;

use super::{Scale, Workload};
use crate::gen::Rng;
use crate::trace::{Api, Family, Recorder};

const ALPHA: f64 = 0.2;
/// Simulated compute time of one cell update, charged as the interior
/// is written back, so the residual all-reduce overlaps modelled work.
const CELL_NS: f64 = 2.0;
/// Seeded hot spots in the initial field.
const SPOTS: usize = 24;

/// The 5-point update, shared by the ranks and the reference so both
/// round identically.
#[inline]
fn update(c: f64, up: f64, down: f64, left: f64, right: f64) -> f64 {
    c + ALPHA * (up + down + left + right - 4.0 * c)
}

pub struct Stencil {
    topo: Topology,
    /// Rows per rank and row width.
    rows: usize,
    width: usize,
    steps: usize,
    /// A residual all-reduce is posted after every `check`-th step.
    check: usize,
    fault_seed: u64,
    /// Initial global field, row-major.
    init: Vec<f64>,
    /// Sequential reference: the final field and each posted residual.
    final_field: Vec<f64>,
    residuals: Vec<f64>,
}

/// Advance the global field one step in place (fixed boundary), and
/// return the sum of squared changes.
fn reference_step(field: &mut [f64], next: &mut [f64], rows: usize, w: usize) -> f64 {
    next.copy_from_slice(field);
    let mut res = 0.0;
    for g in 1..rows - 1 {
        for j in 1..w - 1 {
            let i = g * w + j;
            let v = update(
                field[i],
                field[i - w],
                field[i + w],
                field[i - 1],
                field[i + 1],
            );
            res += (v - field[i]) * (v - field[i]);
            next[i] = v;
        }
    }
    field.copy_from_slice(next);
    res
}

impl Stencil {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (topo, rows, width, steps, check) = match scale {
            Scale::Full => (Topology::new(4, 8), 4, 2560, 80, 4),
            Scale::Quick => (Topology::new(2, 2), 4, 2560, 8, 4),
        };
        let grows = topo.size() * rows;
        let mut rng = Rng::stream(seed, 3);
        let mut init = vec![0.0; grows * width];
        for _ in 0..SPOTS {
            let g = 1 + rng.below(grows as u64 - 2) as usize;
            let j = 1 + rng.below(width as u64 - 2) as usize;
            init[g * width + j] = 100.0 + 900.0 * rng.unit();
        }
        let fault_seed = rng.next_u64();
        let mut field = init.clone();
        let mut next = vec![0.0; field.len()];
        let residuals = (1..=steps)
            .map(|_| reference_step(&mut field, &mut next, grows, width))
            .collect::<Vec<f64>>()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| (i + 1) % check == 0)
            .map(|(_, r)| r)
            .collect();
        Stencil {
            topo,
            rows,
            width,
            steps,
            check,
            fault_seed,
            init,
            final_field: field,
            residuals,
        }
    }

    /// Loss rates low enough that every job completes, with a 5 µs
    /// retransmission timeout (a few fabric round trips): a lost frame
    /// then costs about one step's communication, so seeds that lose a
    /// few more frames than others do not swamp the step time.
    fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::parse("drop=0.002,corrupt=0.0005,dup=0.002,jitter=300,rto=5000")
            .expect("static fault spec parses");
        plan.seed = self.fault_seed;
        plan
    }
}

/// An outstanding residual all-reduce and the value it must produce.
struct Pending {
    req: JRequest,
    expect: f64,
}

impl Stencil {
    /// Poll (or, with `block`, finish) the outstanding residual
    /// all-reduce; on completion check it against the reference.
    fn progress(
        &self,
        env: &mut Env,
        rec: &mut Recorder,
        slot: &mut Option<Pending>,
        res: mvapich2j::JArray<f64>,
        block: bool,
    ) {
        let Some(p) = slot.take() else { return };
        rec.nbc_polls += 1;
        let expect = p.expect;
        if block {
            rec.call("wait", Family::Wait, Api::Array, || env.wait(p.req));
        } else {
            match rec.call("test", Family::Wait, Api::Array, || env.test(p.req)) {
                TestOutcome::Done(_) => {}
                TestOutcome::Pending(req) => {
                    *slot = Some(Pending { req, expect });
                    return;
                }
            }
        }
        let got = rec.call("array_get", Family::Runtime, Api::Array, || {
            env.array_get(res, 0)
        });
        rec.check((got - expect).abs() <= 1e-9 * expect.abs().max(1e-300));
        rec.fold(&got.to_le_bytes());
    }
}

impl Workload for Stencil {
    fn config(&self) -> JobConfig {
        // Telemetry every 50 virtual µs: about 80 samples per rank a job.
        let obs = obs::ObsOptions::default()
            .with_flight()
            .with_telemetry(50_000.0);
        let mut cfg = JobConfig::mvapich2j(self.topo)
            .with_engine(EngineMode::EventDriven)
            .with_faults(self.fault_plan())
            .with_obs(obs);
        // -Xms1m: the strip (120 KiB) plus a few steps of edge garbage
        // between collections, instead of 32 default 16 MiB heaps.
        cfg.heap_initial = 1 << 20;
        cfg
    }

    fn steps(&self) -> usize {
        self.steps
    }

    fn payload_sizes(&self) -> Vec<usize> {
        // Per step, every interior boundary carries one edge row each way.
        let edges = 2 * (self.topo.size() - 1);
        vec![self.width * 8; edges * self.steps]
    }

    fn run_rank(&self, env: &mut Env, rec: &mut Recorder) {
        use Api::Array;
        let world = env.world();
        let me = env.rank();
        let last = env.size() - 1;
        let (r, w) = (self.rows, self.width);
        let g0 = me * r; // global row of local interior row 1
        let grows = env.size() * r;

        let field = rec.call("new_array", Family::Alloc, Array, || {
            env.new_array::<f64>((r + 2) * w)
        });
        let res_send = rec.call("new_array", Family::Alloc, Array, || {
            env.new_array::<f64>(1)
        });
        let res_recv = rec.call("new_array", Family::Alloc, Array, || {
            env.new_array::<f64>(1)
        });
        let mine = &self.init[g0 * w..(g0 + r) * w];
        rec.call("array_write", Family::Runtime, Array, || {
            env.array_write(field, w, mine)
        });
        let win = rec.call("win_create_array", Family::Rma, Array, || {
            env.win_create_array(field, world)
        });
        rec.call("win_fence", Family::Rma, Array, || env.win_fence(win));

        let mut local = vec![0.0f64; (r + 2) * w];
        let mut next = vec![0.0f64; r * w];
        // Move this rank's edge rows (the first and last of `rows`, which
        // holds interior rows only) into the neighbours' ghost rows. Each
        // edge goes out of a fresh `double[]`, as Java code would copy it,
        // so the collector has garbage to reclaim.
        let halo = |env: &mut Env, rec: &mut Recorder, rows: &[f64]| {
            let edges = [
                (me > 0, &rows[..w], me.wrapping_sub(1), (r + 1) * w * 8),
                (me < last, &rows[(r - 1) * w..], me + 1, 0),
            ];
            for (exists, edge, target, disp) in edges {
                if !exists {
                    continue;
                }
                let a = rec.call("new_array", Family::Alloc, Array, || {
                    env.new_array::<f64>(w)
                });
                rec.call("array_write", Family::Runtime, Array, || {
                    env.array_write(a, 0, edge)
                });
                rec.call("put_array", Family::Rma, Array, || {
                    env.put_array(win, a, w as i32, target, disp)
                });
                rec.call("free_array", Family::Alloc, Array, || env.free_array(a));
            }
            rec.call("win_fence", Family::Rma, Array, || env.win_fence(win));
        };
        // Warm-up: the initial halo exchange, then the first barrier.
        halo(env, rec, mine);
        rec.call("barrier", Family::Coll, Api::Buffer, || env.barrier(world));
        rec.setup_done(env.now().as_nanos());

        let chunks = 4.min(r);
        let mut pending: Option<Pending> = None;
        for step in 1..=self.steps {
            rec.call("array_read", Family::Runtime, Array, || {
                env.array_read(field, 0, &mut local)
            });
            let mut residual = 0.0;
            for (i, row) in next.chunks_exact_mut(w).enumerate() {
                let g = g0 + i;
                let base = (i + 1) * w; // `local` starts with the top ghost row
                for (j, out) in row.iter_mut().enumerate() {
                    let k = base + j;
                    let c = local[k];
                    *out = if g == 0 || g == grows - 1 || j == 0 || j == w - 1 {
                        c
                    } else {
                        let v = update(c, local[k - w], local[k + w], local[k - 1], local[k + 1]);
                        residual += (v - c) * (v - c);
                        v
                    };
                }
            }
            // Write the update back chunk by chunk, polling the previous
            // residual all-reduce in between (compute/communication overlap).
            let per = r.div_ceil(chunks);
            for c in 0..chunks {
                let (lo, hi) = (c * per, ((c + 1) * per).min(r));
                let part = &next[lo * w..hi * w];
                rec.call("array_write", Family::Runtime, Array, || {
                    env.array_write(field, (lo + 1) * w, part)
                });
                let work = VDur::from_nanos(CELL_NS * part.len() as f64);
                rec.time("compute", Family::Runtime, Array, || env.compute(work));
                self.progress(env, rec, &mut pending, res_recv, false);
            }
            self.progress(env, rec, &mut pending, res_recv, true);
            if step % self.check == 0 {
                rec.call("array_set", Family::Runtime, Array, || {
                    env.array_set(res_send, 0, residual)
                });
                let req = rec.call("iallreduce_array", Family::Nbc, Array, || {
                    env.iallreduce_array(res_send, res_recv, 1, ReduceOp::Sum, world)
                });
                let expect = self.residuals[step / self.check - 1];
                pending = Some(Pending { req, expect });
            }
            halo(env, rec, &next);
            rec.step_end(env.now().as_nanos());
        }
        self.progress(env, rec, &mut pending, res_recv, true);
        rec.timed_end(env.now().as_nanos());

        rec.call("array_read", Family::Runtime, Array, || {
            env.array_read(field, w, &mut next)
        });
        let expect = &self.final_field[g0 * w..(g0 + r) * w];
        let same = next
            .iter()
            .zip(expect)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        rec.check(same);
        for v in &next {
            rec.digest.f64(*v);
        }
        rec.call("win_free", Family::Rma, Array, || env.win_free(win));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_and_reference_are_seeded() {
        let (a, b, c) = (
            Stencil::new(9, Scale::Quick),
            Stencil::new(9, Scale::Quick),
            Stencil::new(10, Scale::Quick),
        );
        assert_eq!(a.init, b.init);
        assert_eq!(a.final_field, b.final_field);
        assert_eq!(a.fault_seed, b.fault_seed);
        assert_ne!(a.init, c.init);
        assert_ne!(a.fault_seed, c.fault_seed);
        assert_eq!(a.residuals.len(), a.steps / a.check);
        assert!(a.residuals.iter().all(|&r| r > 0.0));
    }
}
