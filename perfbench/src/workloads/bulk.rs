//! `bulk_pt2pt`: 2 ranks on two nodes under the threaded engine (two
//! runnable threads), one `osu_bw` window per step.
//!
//! Why: the payload path does the work — datatype pack/unpack, `mrt`
//! copies and collections, `nif` crossings and `mpjbuf` staging — with
//! about one engine handoff per message. Even steps move Java arrays,
//! odd steps direct buffers, so both halves of the bindings API are
//! priced on the same sizes; every message is checked byte for byte.

use mvapich2j::datatype::{BYTE, INT};
use mvapich2j::{DirectBuffer, Env, JArray, JRequest, JobConfig, Topology};

use super::{Scale, Workload};
use crate::gen::{mix, stratified_sizes, Rng};
use crate::trace::{Api, Family, Recorder};

/// Messages in flight per step (one `osu_bw` window).
const WINDOW: usize = 4;
const TAG_DATA: i32 = 1;
const TAG_ACK: i32 = 2;

pub struct Bulk {
    seed: u64,
    /// Message size of each step.
    sizes: Vec<usize>,
    max: usize,
    /// Seeded payload source; message `(step, slot)` is a window of it,
    /// kept as bytes for direct buffers and as `byte[]` for arrays.
    pool: Vec<u8>,
    pool_i8: Vec<i8>,
}

impl Bulk {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (per_api, lo, hi) = match scale {
            Scale::Full => (56, 16 << 10, 1 << 20),
            Scale::Quick => (2, 16 << 10, 64 << 10),
        };
        let mut rng = Rng::stream(seed, 2);
        // Each API gets its own stratified draw, so both cover the range.
        let arrays = stratified_sizes(&mut rng, per_api, lo, hi, 8);
        let buffers = stratified_sizes(&mut rng, per_api, lo, hi, 8);
        let sizes = arrays
            .into_iter()
            .zip(buffers)
            .flat_map(|(a, b)| [a, b])
            .collect();
        let pool: Vec<u8> = (0..2 * hi).map(|_| rng.next_u64() as u8).collect();
        let pool_i8 = pool.iter().map(|&b| b as i8).collect();
        Bulk {
            seed,
            sizes,
            max: hi,
            pool,
            pool_i8,
        }
    }

    /// Where in the pool the payload of message `slot` of step `step` lies.
    fn payload(&self, step: usize, slot: usize) -> std::ops::Range<usize> {
        let size = self.sizes[step];
        let span = (self.pool.len() - size) as u64;
        let off = (mix(self.seed ^ ((step * WINDOW + slot) as u64)) % span) as usize;
        off..off + size
    }

    fn api(step: usize) -> Api {
        if step.is_multiple_of(2) {
            Api::Array
        } else {
            Api::Buffer
        }
    }
}

/// One message's user buffer.
#[derive(Clone, Copy)]
enum UserBuf {
    Array(JArray<i8>),
    Direct(DirectBuffer),
}

/// The receiver's host-side copies of what arrived.
struct Host {
    array: Vec<i8>,
    bytes: Vec<u8>,
}

/// One side's user buffers: a Java array and a direct buffer per window slot.
struct Slots {
    arrays: Vec<JArray<i8>>,
    bufs: Vec<DirectBuffer>,
}

impl Slots {
    fn new(env: &mut Env, rec: &mut Recorder, max: usize) -> Slots {
        let mut s = Slots {
            arrays: Vec::with_capacity(WINDOW),
            bufs: Vec::with_capacity(WINDOW),
        };
        for _ in 0..WINDOW {
            s.arrays
                .push(rec.call("new_array", Family::Alloc, Api::Array, || {
                    env.new_array::<i8>(max)
                }));
            s.bufs
                .push(rec.time("new_direct", Family::Alloc, Api::Buffer, || {
                    env.new_direct(max)
                }));
        }
        s
    }

    /// The buffer of window slot `slot` for `api`.
    fn get(&self, api: Api, slot: usize) -> UserBuf {
        match api {
            Api::Array => UserBuf::Array(self.arrays[slot]),
            Api::Buffer => UserBuf::Direct(self.bufs[slot]),
        }
    }

    fn free(self, env: &mut Env, rec: &mut Recorder) {
        for a in self.arrays {
            rec.call("free_array", Family::Alloc, Api::Array, || {
                env.free_array(a)
            });
        }
        for b in self.bufs {
            rec.call("free_direct", Family::Alloc, Api::Buffer, || {
                env.free_direct(b)
            });
        }
    }
}

impl Bulk {
    fn send_window(&self, env: &mut Env, rec: &mut Recorder, slots: &Slots, step: usize, n: usize) {
        let world = env.world();
        let api = Self::api(step);
        let mut reqs: Vec<JRequest> = Vec::with_capacity(WINDOW);
        for slot in 0..WINDOW {
            let range = self.payload(step, slot);
            let req = match slots.get(api, slot) {
                UserBuf::Array(a) => {
                    let data = &self.pool_i8[range];
                    rec.call("array_write", Family::Runtime, api, || {
                        env.array_write(a, 0, data)
                    });
                    rec.call("isend_array", Family::P2p, api, || {
                        env.isend_array(a, n as i32, 1, TAG_DATA, world)
                    })
                }
                UserBuf::Direct(b) => {
                    let data = &self.pool[range];
                    rec.call("direct_write", Family::Runtime, api, || {
                        let (rt, clock) = env.runtime_mut();
                        rt.direct_write_bytes(b, 0, data, clock)
                    });
                    rec.call("isend_buffer", Family::P2p, api, || {
                        env.isend_buffer(b, n as i32, &BYTE, 1, TAG_DATA, world)
                    })
                }
            };
            reqs.push(req);
        }
        rec.call("waitall", Family::Wait, api, || env.waitall(reqs));
    }

    fn recv_window(
        &self,
        env: &mut Env,
        rec: &mut Recorder,
        slots: &Slots,
        step: usize,
        n: usize,
        host: &mut Host,
    ) {
        let world = env.world();
        let api = Self::api(step);
        // Java-array steps receive into a fresh `byte[]` per message, as
        // Java code usually does, so the collector has garbage to reclaim.
        let dests: Vec<UserBuf> = (0..WINDOW)
            .map(|slot| match api {
                Api::Array => UserBuf::Array(
                    rec.call("new_array", Family::Alloc, api, || env.new_array::<i8>(n)),
                ),
                Api::Buffer => slots.get(api, slot),
            })
            .collect();
        let reqs: Vec<JRequest> = dests
            .iter()
            .map(|d| match *d {
                UserBuf::Array(a) => rec.call("irecv_array", Family::P2p, api, || {
                    env.irecv_array(a, n as i32, 0, TAG_DATA, world)
                }),
                UserBuf::Direct(b) => rec.call("irecv_buffer", Family::P2p, api, || {
                    env.irecv_buffer(b, n as i32, &BYTE, 0, TAG_DATA, world)
                }),
            })
            .collect();
        let statuses = rec.call("waitall", Family::Wait, api, || env.waitall(reqs));
        for (slot, (st, dest)) in statuses.iter().zip(&dests).enumerate() {
            let range = self.payload(step, slot);
            let ok = match *dest {
                UserBuf::Array(a) => {
                    let got = &mut host.array[..n];
                    rec.call("array_read", Family::Runtime, api, || {
                        env.array_read(a, 0, got)
                    });
                    rec.call("free_array", Family::Alloc, api, || env.free_array(a));
                    *got == self.pool_i8[range.clone()]
                }
                UserBuf::Direct(b) => {
                    let got = &mut host.bytes[..n];
                    rec.call("direct_read", Family::Runtime, api, || {
                        let (rt, clock) = env.runtime_mut();
                        rt.direct_read_bytes(b, 0, got, clock)
                    });
                    *got == self.pool[range.clone()]
                }
            };
            rec.check(ok && st.bytes == n);
            // Equal to what arrived whenever the check passed.
            rec.fold(&self.pool[range]);
        }
    }
}

impl Workload for Bulk {
    fn config(&self) -> JobConfig {
        JobConfig::mvapich2j(Topology::new(2, 1))
    }

    fn steps(&self) -> usize {
        self.sizes.len()
    }

    fn payload_sizes(&self) -> Vec<usize> {
        self.sizes.iter().flat_map(|&s| [s; WINDOW]).collect()
    }

    fn run_rank(&self, env: &mut Env, rec: &mut Recorder) {
        let world = env.world();
        let me = env.rank();
        let slots = Slots::new(env, rec, self.max);
        let ack = rec.time("new_direct", Family::Alloc, Api::Buffer, || {
            env.new_direct(4)
        });
        let mut host = Host {
            array: vec![0; self.max],
            bytes: vec![0; self.max],
        };
        // Warm-up: one largest message over each API, then the first barrier.
        let (a, b) = (slots.arrays[0], slots.bufs[0]);
        let n = self.max as i32;
        if me == 0 {
            rec.call("send_array", Family::P2p, Api::Array, || {
                env.send_array(a, n, 1, TAG_DATA, world)
            });
            rec.call("send_buffer", Family::P2p, Api::Buffer, || {
                env.send_buffer(b, n, &BYTE, 1, TAG_DATA, world)
            });
        } else {
            rec.call("recv_array", Family::P2p, Api::Array, || {
                env.recv_array(a, n, 0, TAG_DATA, world)
            });
            rec.call("recv_buffer", Family::P2p, Api::Buffer, || {
                env.recv_buffer(b, n, &BYTE, 0, TAG_DATA, world)
            });
        }
        rec.call("barrier", Family::Coll, Api::Buffer, || env.barrier(world));
        rec.setup_done(env.now().as_nanos());

        for (step, &n) in self.sizes.iter().enumerate() {
            if me == 0 {
                self.send_window(env, rec, &slots, step, n);
                rec.call("recv_buffer", Family::P2p, Api::Buffer, || {
                    env.recv_buffer(ack, 1, &INT, 1, TAG_ACK, world)
                });
            } else {
                self.recv_window(env, rec, &slots, step, n, &mut host);
                rec.call("send_buffer", Family::P2p, Api::Buffer, || {
                    env.send_buffer(ack, 1, &INT, 0, TAG_ACK, world)
                });
            }
            rec.step_end(env.now().as_nanos());
        }
        rec.timed_end(env.now().as_nanos());
        slots.free(env, rec);
        rec.call("free_direct", Family::Alloc, Api::Buffer, || {
            env.free_direct(ack)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seeded() {
        let (a, b, c) = (
            Bulk::new(5, Scale::Full),
            Bulk::new(5, Scale::Full),
            Bulk::new(6, Scale::Full),
        );
        assert_eq!((&a.sizes, &a.pool), (&b.sizes, &b.pool));
        assert_ne!(a.pool, c.pool);
        assert_ne!(a.sizes, c.sizes);
        assert_eq!(a.payload(3, 2), b.payload(3, 2));
        assert!(a.sizes.iter().all(|s| (16 << 10..=1 << 20).contains(s)));
    }
}
