//! The native library reads and writes the bindings' storage in place:
//! receives land only on the bytes their datatype or block layout names,
//! a window of receives may share one destination, and one direct buffer
//! cannot be both the source and the destination of a collective.

use mvapich2j::datatype::{Datatype, INT};
use mvapich2j::{run_job, BindError, DirectBuffer, Env, JobConfig, MrtError, ReduceOp, Topology};

const SENTINEL: u8 = 0xAB;

fn cfg(ranks: usize) -> JobConfig {
    JobConfig::mvapich2j(Topology::single_node(ranks))
}

fn sentinel_buffer(env: &mut Env, cap: usize) -> DirectBuffer {
    let buf = env.new_direct(cap);
    for i in 0..cap {
        env.direct_put::<i8>(buf, i, SENTINEL as i8).unwrap();
    }
    buf
}

fn buffer_bytes(env: &mut Env, buf: DirectBuffer) -> Vec<u8> {
    (0..buf.capacity())
        .map(|i| env.direct_get::<i8>(buf, i).unwrap() as u8)
        .collect()
}

fn put_ints(env: &mut Env, buf: DirectBuffer, vals: &[i32]) {
    for (i, &v) in vals.iter().enumerate() {
        env.direct_put::<i32>(buf, i * 4, v).unwrap();
    }
}

/// Expected buffer image: sentinel everywhere except `ints` at their
/// element indices.
fn image(env: &mut Env, cap: usize, ints: &[(usize, i32)]) -> Vec<u8> {
    let want = sentinel_buffer(env, cap);
    for &(idx, v) in ints {
        env.direct_put::<i32>(want, idx * 4, v).unwrap();
    }
    buffer_bytes(env, want)
}

#[test]
fn osu_bw_window_shares_one_destination() {
    const N: usize = 8;
    const LEN: usize = 64;
    let pools = run_job(cfg(2), |env| {
        let w = env.world();
        if env.rank() == 0 {
            let bufs: Vec<DirectBuffer> = (0..N).map(|_| env.new_direct(LEN * 4)).collect();
            let arr = env.new_array::<i32>(LEN).unwrap();
            let mut reqs = Vec::new();
            for (i, &b) in bufs.iter().enumerate() {
                let vals: Vec<i32> = (0..LEN as i32).map(|k| i as i32 * 1000 + k).collect();
                put_ints(env, b, &vals);
                reqs.push(
                    env.isend_buffer(b, LEN as i32, &INT, 1, i as i32, w)
                        .unwrap(),
                );
            }
            env.waitall(reqs).unwrap();
            for i in 0..N {
                let vals: Vec<i32> = (0..LEN as i32).map(|k| -(i as i32) * 1000 - k).collect();
                env.array_write(arr, 0, &vals).unwrap();
                env.send_array(arr, LEN as i32, 1, 100 + i as i32, w)
                    .unwrap();
            }
        } else {
            // One direct buffer behind the whole window.
            let recv = env.new_direct(LEN * 4);
            let reqs = (0..N)
                .map(|i| env.irecv_buffer(recv, LEN as i32, &INT, 0, i as i32, w))
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            let sts = env.waitall(reqs).unwrap();
            for (i, st) in sts.iter().enumerate() {
                assert_eq!((st.source, st.tag, st.bytes), (0, i as i32, LEN * 4));
            }
            for k in 0..LEN {
                let got = env.direct_get::<i32>(recv, k * 4).unwrap();
                assert_eq!(got, (N as i32 - 1) * 1000 + k as i32);
            }

            // One array behind the whole window.
            let arr = env.new_array::<i32>(LEN).unwrap();
            let reqs = (0..N)
                .map(|i| env.irecv_array(arr, LEN as i32, 0, 100 + i as i32, w))
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            let sts = env.waitall(reqs).unwrap();
            for (i, st) in sts.iter().enumerate() {
                assert_eq!((st.source, st.tag, st.bytes), (0, 100 + i as i32, LEN * 4));
            }
            let mut got = vec![0i32; LEN];
            env.array_read(arr, 0, &mut got).unwrap();
            let want: Vec<i32> = (0..LEN as i32)
                .map(|k| -(N as i32 - 1) * 1000 - k)
                .collect();
            assert_eq!(got, want);
        }
        env.pool_stats()
    });
    for s in pools {
        assert_eq!(s.outstanding, 0, "{s:?}");
    }
}

#[test]
fn shared_destination_overlap_winner() {
    // Rank 1 posts from rank 2 first and from rank 0 second, but rank 2
    // only sends after rank 0 has, so completion order is the reverse of
    // posting order. A direct buffer keeps the last message to complete;
    // an array is unstaged in request order, so it keeps the last posted.
    const LEN: usize = 16;
    let fill = |src: i32, k: usize| src * 1000 + k as i32;
    let pools = run_job(cfg(3), move |env| {
        let w = env.world();
        let me = env.rank() as i32;
        match me {
            0 => {
                let buf = env.new_direct(LEN * 4);
                put_ints(env, buf, &(0..LEN).map(|k| fill(0, k)).collect::<Vec<_>>());
                for (tag, go) in [(0, 7), (1, 8)] {
                    env.send_buffer(buf, LEN as i32, &INT, 1, tag, w).unwrap();
                    env.send_buffer(buf, 1, &INT, 2, go, w).unwrap();
                }
            }
            2 => {
                let buf = env.new_direct(LEN * 4);
                put_ints(env, buf, &(0..LEN).map(|k| fill(2, k)).collect::<Vec<_>>());
                for (tag, go) in [(0, 7), (1, 8)] {
                    let sig = env.new_direct(4);
                    env.recv_buffer(sig, 1, &INT, 0, go, w).unwrap();
                    env.send_buffer(buf, LEN as i32, &INT, 1, tag, w).unwrap();
                }
            }
            _ => {
                let recv = env.new_direct(LEN * 4);
                let reqs = [2, 0]
                    .iter()
                    .map(|&src| env.irecv_buffer(recv, LEN as i32, &INT, src, 0, w))
                    .collect::<Result<Vec<_>, _>>()
                    .unwrap();
                let sts = env.waitall(reqs).unwrap();
                assert_eq!((sts[0].source, sts[1].source), (2, 0));
                for k in 0..LEN {
                    assert_eq!(env.direct_get::<i32>(recv, k * 4).unwrap(), fill(2, k));
                }

                let arr = env.new_array::<i32>(LEN).unwrap();
                let reqs = [2, 0]
                    .iter()
                    .map(|&src| env.irecv_array(arr, LEN as i32, src, 1, w))
                    .collect::<Result<Vec<_>, _>>()
                    .unwrap();
                let sts = env.waitall(reqs).unwrap();
                assert_eq!((sts[0].source, sts[1].source), (2, 0));
                let mut got = vec![0i32; LEN];
                env.array_read(arr, 0, &mut got).unwrap();
                assert_eq!(got, (0..LEN).map(|k| fill(0, k)).collect::<Vec<_>>());
            }
        }
        env.pool_stats()
    });
    for s in pools {
        assert_eq!(s.outstanding, 0, "{s:?}");
    }
}

#[test]
fn strided_receives_leave_the_gaps_alone() {
    // vector(2 blocks, 1 int, stride 3): two elements cover ints 0, 3, 4
    // and 7 of a 16-int buffer.
    let dt = Datatype::vector(2, 1, 3, INT).unwrap();
    run_job(cfg(2), move |env| {
        let w = env.world();
        if env.rank() == 0 {
            let buf = env.new_direct(16);
            for tag in 0..2 {
                put_ints(env, buf, &[10 + tag, 20 + tag, 30 + tag, 40 + tag]);
                env.send_buffer(buf, 4, &INT, 1, tag, w).unwrap();
            }
        } else {
            let blocking = sentinel_buffer(env, 64);
            env.recv_buffer(blocking, 2, &dt, 0, 0, w).unwrap();
            let want = image(env, 64, &[(0, 10), (3, 20), (4, 30), (7, 40)]);
            assert_eq!(buffer_bytes(env, blocking), want);

            let posted = sentinel_buffer(env, 64);
            let req = env.irecv_buffer(posted, 2, &dt, 0, 1, w).unwrap();
            env.wait(req).unwrap();
            let want = image(env, 64, &[(0, 11), (3, 21), (4, 31), (7, 41)]);
            assert_eq!(buffer_bytes(env, posted), want);
        }
    });
}

#[test]
fn vectored_receives_leave_the_displacement_gaps_alone() {
    // Rank r contributes two ints; blocks land at elements 0 and 3 of an
    // 8-int destination, so elements 2, 5, 6 and 7 are gaps.
    let counts = [2i32, 2];
    let displs = [0i32, 3];
    run_job(cfg(2), move |env| {
        let w = env.world();
        let me = env.rank() as i32;
        let send = env.new_direct(8);
        put_ints(env, send, &[me * 10 + 1, me * 10 + 2]);
        let blocks = [(0, 1), (1, 2), (3, 11), (4, 12)];

        let recv = sentinel_buffer(env, 32);
        let out = (me == 0).then_some(recv);
        env.gatherv_buffer(send, 2, out, &counts, &displs, &INT, 0, w)
            .unwrap();
        if me == 0 {
            assert_eq!(buffer_bytes(env, recv), image(env, 32, &blocks));
        }

        let recv = sentinel_buffer(env, 32);
        env.allgatherv_buffer(send, 2, recv, &counts, &displs, &INT, w)
            .unwrap();
        assert_eq!(buffer_bytes(env, recv), image(env, 32, &blocks));

        let send = env.new_array::<i32>(2).unwrap();
        env.array_write(send, 0, &[me * 10 + 1, me * 10 + 2])
            .unwrap();
        let recv = env.new_array::<i32>(8).unwrap();
        env.array_write(recv, 0, &[-7; 8]).unwrap();
        let out = (me == 0).then_some(recv);
        env.gatherv_array(send, 2, out, &counts, &displs, 0, w)
            .unwrap();
        if me == 0 {
            let mut got = [0i32; 8];
            env.array_read(recv, 0, &mut got).unwrap();
            assert_eq!(got, [1, 2, -7, 11, 12, -7, -7, -7]);
        }
    });
}

#[test]
fn array_scatter_leaves_elements_past_the_block_alone() {
    run_job(cfg(2), |env| {
        let w = env.world();
        let me = env.rank();
        let src = env.new_array::<i32>(4).unwrap();
        env.array_write(src, 0, &[1, 2, 3, 4]).unwrap();
        let recv = env.new_array::<i32>(5).unwrap();
        env.array_write(recv, 0, &[-7; 5]).unwrap();
        let send = (me == 0).then_some(src);
        env.scatter_array(send, recv, 2, 0, w).unwrap();
        let mut got = [0i32; 5];
        env.array_read(recv, 0, &mut got).unwrap();
        let b = 2 * me as i32;
        assert_eq!(got, [b + 1, b + 2, -7, -7, -7]);
    });
}

#[test]
fn aliased_collective_buffers_are_rejected() {
    let outcomes = run_job(cfg(2), |env| {
        let w = env.world();
        let buf = env.new_direct(16);
        let aliased = env.allreduce_buffer(buf, buf, 4, &INT, ReduceOp::Sum, w);
        // The rejection happens before the native call, so the job stays
        // in step: a correct collective still completes afterwards.
        let recv = env.new_direct(16);
        env.allreduce_buffer(buf, recv, 4, &INT, ReduceOp::Sum, w)
            .unwrap();
        aliased
    });
    for out in outcomes {
        assert_eq!(out, Err(BindError::Runtime(MrtError::AliasedBuffers)));
    }
}
