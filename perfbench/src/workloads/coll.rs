//! `coll_256`: 256 ranks (8 nodes × 32) on the event engine, one small
//! blocking collective per step over direct buffers.
//!
//! Why: the event scheduler's park/resume handoff, `mpisim` matching and
//! the collective algorithms do nearly all the work; payloads are at most
//! 1 KiB, so copying and the managed-runtime layers (`mrt`, `nif`,
//! `mpjbuf`) sit idle. A change to the handoff or matching path shows
//! here first.

use mvapich2j::datatype::{BYTE, LONG};
use mvapich2j::{EngineMode, Env, JobConfig, ReduceOp, Topology};

use super::{Scale, Workload};
use crate::gen::{mix, stratified_indices, stratified_sizes, Rng};
use crate::trace::{Api, Family, Recorder};

const MAX_BYTES: usize = 1024;
const MIN_BYTES: usize = 8;

#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Sum of `elems` 64-bit lanes; `sums` is the plain-Rust reference.
    Allreduce {
        elems: usize,
        sums: Vec<i64>,
    },
    Bcast {
        bytes: usize,
        root: usize,
    },
    Barrier,
}

pub struct Coll {
    seed: u64,
    topo: Topology,
    ops: Vec<Op>,
}

/// Rank `rank`'s contribution to lane `lane` of step `step` (20 bits, so
/// 256-rank sums stay far from overflow).
fn lane_value(seed: u64, step: usize, rank: usize, lane: usize) -> i64 {
    (mix(seed ^ mix(((step as u64) << 40) ^ ((rank as u64) << 20) ^ lane as u64)) >> 44) as i64
}

/// Byte `i` of the broadcast payload of step `step`.
fn bcast_byte(seed: u64, step: usize, i: usize) -> u8 {
    mix(seed ^ mix(((step as u64) << 32) ^ i as u64)) as u8
}

impl Coll {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (topo, per_op) = match scale {
            Scale::Full => (Topology::new(8, 32), 30),
            Scale::Quick => (Topology::new(2, 4), 2),
        };
        let n = topo.size();
        let mut rng = Rng::stream(seed, 1);
        let reduce_sizes = stratified_sizes(&mut rng, per_op, MIN_BYTES, MAX_BYTES, 8);
        let bcast_sizes = stratified_sizes(&mut rng, per_op, MIN_BYTES, MAX_BYTES, 1);
        let roots = stratified_indices(&mut rng, per_op, n);
        let mut ops: Vec<Op> = reduce_sizes
            .iter()
            .map(|&b| Op::Allreduce {
                elems: b / 8,
                sums: Vec::new(),
            })
            .chain(
                bcast_sizes
                    .iter()
                    .zip(roots)
                    .map(|(&bytes, root)| Op::Bcast { bytes, root }),
            )
            .chain((0..per_op).map(|_| Op::Barrier))
            .collect();
        rng.shuffle(&mut ops);
        for (step, op) in ops.iter_mut().enumerate() {
            if let Op::Allreduce { elems, sums } = op {
                *sums = (0..*elems)
                    .map(|l| (0..n).map(|r| lane_value(seed, step, r, l)).sum())
                    .collect();
            }
        }
        Coll { seed, topo, ops }
    }
}

impl Workload for Coll {
    fn config(&self) -> JobConfig {
        let mut cfg = JobConfig::mvapich2j(self.topo).with_engine(EngineMode::EventDriven);
        // -Xms1m: the program keeps no Java objects, and 256 default
        // 16 MiB heaps would make set-up a page-zeroing benchmark.
        cfg.heap_initial = 1 << 20;
        cfg
    }

    fn steps(&self) -> usize {
        self.ops.len()
    }

    fn payload_sizes(&self) -> Vec<usize> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Allreduce { elems, .. } => Some(elems * 8),
                Op::Bcast { bytes, .. } => Some(*bytes),
                Op::Barrier => None,
            })
            .collect()
    }

    fn run_rank(&self, env: &mut Env, rec: &mut Recorder) {
        use Api::Buffer;
        let world = env.world();
        let me = env.rank();
        let send = rec.time("new_direct", Family::Alloc, Buffer, || {
            env.new_direct(MAX_BYTES)
        });
        let recv = rec.time("new_direct", Family::Alloc, Buffer, || {
            env.new_direct(MAX_BYTES)
        });
        // Warm-up: one collective of each payload kind at the largest size.
        let lanes = (MAX_BYTES / 8) as i32;
        rec.call("allreduce_buffer", Family::Coll, Buffer, || {
            env.allreduce_buffer(send, recv, lanes, &LONG, ReduceOp::Sum, world)
        });
        rec.call("bcast_buffer", Family::Coll, Buffer, || {
            env.bcast_buffer(recv, MAX_BYTES as i32, &BYTE, 0, world)
        });
        rec.call("barrier", Family::Coll, Buffer, || env.barrier(world));
        rec.setup_done(env.now().as_nanos());

        let mut out = vec![0u8; MAX_BYTES];
        for (step, op) in self.ops.iter().enumerate() {
            match op {
                Op::Allreduce { elems, sums } => {
                    let mine: Vec<u8> = (0..*elems)
                        .flat_map(|l| lane_value(self.seed, step, me, l).to_le_bytes())
                        .collect();
                    rec.call("direct_write", Family::Runtime, Buffer, || {
                        let (rt, clock) = env.runtime_mut();
                        rt.direct_write_bytes(send, 0, &mine, clock)
                    });
                    rec.call("allreduce_buffer", Family::Coll, Buffer, || {
                        env.allreduce_buffer(send, recv, *elems as i32, &LONG, ReduceOp::Sum, world)
                    });
                    let got = &mut out[..elems * 8];
                    rec.call("direct_read", Family::Runtime, Buffer, || {
                        let (rt, clock) = env.runtime_mut();
                        rt.direct_read_bytes(recv, 0, got, clock)
                    });
                    let ok = got
                        .chunks_exact(8)
                        .zip(sums)
                        .all(|(c, &s)| i64::from_le_bytes(c.try_into().expect("8-byte lane")) == s);
                    rec.check(ok);
                    rec.fold(got);
                }
                Op::Bcast { bytes, root } => {
                    let bytes = *bytes;
                    if me == *root {
                        let pattern: Vec<u8> =
                            (0..bytes).map(|i| bcast_byte(self.seed, step, i)).collect();
                        rec.call("direct_write", Family::Runtime, Buffer, || {
                            let (rt, clock) = env.runtime_mut();
                            rt.direct_write_bytes(recv, 0, &pattern, clock)
                        });
                    }
                    rec.call("bcast_buffer", Family::Coll, Buffer, || {
                        env.bcast_buffer(recv, bytes as i32, &BYTE, *root, world)
                    });
                    let got = &mut out[..bytes];
                    rec.call("direct_read", Family::Runtime, Buffer, || {
                        let (rt, clock) = env.runtime_mut();
                        rt.direct_read_bytes(recv, 0, got, clock)
                    });
                    let ok = got
                        .iter()
                        .enumerate()
                        .all(|(i, &b)| b == bcast_byte(self.seed, step, i));
                    rec.check(ok);
                    rec.fold(got);
                }
                Op::Barrier => rec.call("barrier", Family::Coll, Buffer, || env.barrier(world)),
            }
            rec.step_end(env.now().as_nanos());
        }
        rec.timed_end(env.now().as_nanos());
        rec.call("free_direct", Family::Alloc, Buffer, || {
            env.free_direct(send)
        });
        rec.call("free_direct", Family::Alloc, Buffer, || {
            env.free_direct(recv)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seeded_and_balanced() {
        let a = Coll::new(11, Scale::Full);
        let b = Coll::new(11, Scale::Full);
        let c = Coll::new(12, Scale::Full);
        assert_eq!(a.ops, b.ops);
        assert_ne!(a.ops, c.ops);
        for w in [&a, &c] {
            let barriers = w.ops.iter().filter(|o| **o == Op::Barrier).count();
            assert_eq!((w.ops.len(), barriers), (90, 30));
            assert!(w
                .payload_sizes()
                .iter()
                .all(|&s| (MIN_BYTES..=MAX_BYTES).contains(&s)));
        }
    }
}
