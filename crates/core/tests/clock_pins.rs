//! Pins every public binding's virtual clock and delivered payload.
//!
//! A 4-rank job (2 nodes × 2 ranks) runs one binding once per flavour
//! (direct buffer, Java array, or a strided vector datatype over direct
//! buffers). Each rank folds its final `now()` bits and the bytes it
//! received into an FNV-1a hash; the ranks' hashes fold in rank order
//! into one `u64` per (operation, flavour), compared against a constant.
//!
//! The conformance harness compares clocks only across reruns and
//! payloads only across flavours; these pins catch any change to what a
//! single call charges or delivers. Both cluster engines must reproduce
//! the same constants.

use mvapich2j::datatype::{Datatype, INT};
use mvapich2j::{
    run_job, CommHandle, DirectBuffer, EngineMode, Env, JArray, JobConfig, ReduceOp, Topology,
};

const P: usize = 4;
/// Ints per rank block in the contiguous collectives.
const K: usize = 6;
/// Ints in a rendezvous-sized point-to-point message.
const BIG: usize = 4096;

#[derive(Clone, Copy, Debug)]
enum Fl {
    Buf,
    Arr,
    /// `Datatype::vector(2, 1, 2, INT)` over direct buffers.
    Vec,
}

/// One side of a binding call: a direct buffer or an int array.
#[derive(Clone, Copy)]
enum Io {
    Buf(DirectBuffer),
    Arr(JArray<i32>),
}

fn value(rank: usize, i: usize, salt: usize) -> i32 {
    (rank * 1000 + i * 7 + salt * 31 + 1) as i32
}

/// Storage for `ints` 32-bit lanes, filled with this rank's pattern.
fn input(env: &mut Env, fl: Fl, ints: usize, salt: usize) -> Io {
    let me = env.rank();
    let vals: Vec<i32> = (0..ints).map(|i| value(me, i, salt)).collect();
    match fl {
        Fl::Arr => {
            let a = env.new_array::<i32>(ints).unwrap();
            env.array_write(a, 0, &vals).unwrap();
            Io::Arr(a)
        }
        Fl::Buf | Fl::Vec => {
            let b = env.new_direct(ints * 4);
            for (i, v) in vals.into_iter().enumerate() {
                env.direct_put(b, i * 4, v).unwrap();
            }
            Io::Buf(b)
        }
    }
}

/// Zeroed storage for `ints` 32-bit lanes.
fn output(env: &mut Env, fl: Fl, ints: usize) -> Io {
    match fl {
        Fl::Arr => Io::Arr(env.new_array::<i32>(ints).unwrap()),
        Fl::Buf | Fl::Vec => Io::Buf(env.new_direct(ints * 4)),
    }
}

fn buf(io: Io) -> DirectBuffer {
    match io {
        Io::Buf(b) => b,
        Io::Arr(_) => panic!("expected a direct buffer"),
    }
}

fn arr(io: Io) -> JArray<i32> {
    match io {
        Io::Arr(a) => a,
        Io::Buf(_) => panic!("expected an array"),
    }
}

/// The bytes `io` holds (read after the clock is sampled).
fn contents(env: &mut Env, io: Io) -> Vec<u8> {
    match io {
        Io::Buf(b) => env.runtime_mut().0.direct_bytes(b).unwrap().to_vec(),
        Io::Arr(a) => {
            let mut v = vec![0i32; a.len()];
            env.array_read(a, 0, &mut v).unwrap();
            v.iter().flat_map(|x| x.to_le_bytes()).collect()
        }
    }
}

/// The datatype, its element count per block, and the int lanes a block
/// of that many elements spans.
fn shape(fl: Fl, count: usize) -> (Datatype, i32, usize) {
    match fl {
        Fl::Vec => {
            let dt = Datatype::vector(2, 1, 2, INT).unwrap();
            let lanes = dt.span(count) / 4;
            (dt, count as i32, lanes)
        }
        Fl::Buf | Fl::Arr => (INT, count as i32, count),
    }
}

type Op = fn(&mut Env, Fl, CommHandle) -> Vec<Io>;

fn barrier(env: &mut Env, _: Fl, w: CommHandle) -> Vec<Io> {
    env.barrier(w).unwrap();
    vec![]
}

fn bcast(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let (dt, n, lanes) = shape(fl, K);
    let io = if env.rank() == 1 {
        input(env, fl, lanes, 1)
    } else {
        output(env, fl, lanes)
    };
    match io {
        Io::Buf(b) => env.bcast_buffer(b, n, &dt, 1, w).unwrap(),
        Io::Arr(a) => env.bcast_array(a, n, 1, w).unwrap(),
    }
    vec![io]
}

fn reduce(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let root = 2;
    let send = input(env, fl, K, 2);
    let recv = (env.rank() == root).then(|| output(env, fl, K));
    match send {
        Io::Buf(s) => env
            .reduce_buffer(s, recv.map(buf), K as i32, &INT, ReduceOp::Sum, root, w)
            .unwrap(),
        Io::Arr(s) => env
            .reduce_array(s, recv.map(arr), K as i32, ReduceOp::Sum, root, w)
            .unwrap(),
    }
    recv.into_iter().collect()
}

fn allreduce(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let (dt, n, lanes) = shape(fl, K / 2);
    let send = input(env, fl, lanes, 3);
    let recv = output(env, fl, lanes);
    match (send, recv) {
        (Io::Buf(s), Io::Buf(r)) => env
            .allreduce_buffer(s, r, n, &dt, ReduceOp::Sum, w)
            .unwrap(),
        (Io::Arr(s), Io::Arr(r)) => env.allreduce_array(s, r, n, ReduceOp::Max, w).unwrap(),
        _ => unreachable!(),
    }
    vec![recv]
}

fn gather(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let root = 0;
    let (dt, n, lanes) = shape(fl, K / 2);
    let (_, _, all) = shape(fl, K / 2 * P);
    let send = input(env, fl, lanes, 4);
    let recv = (env.rank() == root).then(|| output(env, fl, all));
    match send {
        Io::Buf(s) => env
            .gather_buffer(s, recv.map(buf), n, &dt, root, w)
            .unwrap(),
        Io::Arr(s) => env.gather_array(s, recv.map(arr), n, root, w).unwrap(),
    }
    recv.into_iter().collect()
}

/// Counts and displacements (in datatype extents) of the vectored
/// collectives: rank `r` contributes `VCOUNTS[r]` elements, with gaps
/// between the blocks.
const VCOUNTS: [i32; P] = [1, 2, 1, 2];
const VDISPLS: [i32; P] = [0, 2, 5, 7];
const VTOTAL: usize = 9;

fn gatherv(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let root = 3;
    let me = env.rank();
    let (dt, n, lanes) = shape(fl, VCOUNTS[me] as usize);
    let (_, _, all) = shape(fl, VTOTAL);
    let send = input(env, fl, lanes, 5);
    let recv = (me == root).then(|| output(env, fl, all));
    match send {
        Io::Buf(s) => env
            .gatherv_buffer(s, n, recv.map(buf), &VCOUNTS, &VDISPLS, &dt, root, w)
            .unwrap(),
        Io::Arr(s) => env
            .gatherv_array(s, n, recv.map(arr), &VCOUNTS, &VDISPLS, root, w)
            .unwrap(),
    }
    recv.into_iter().collect()
}

fn scatter(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let root = 2;
    let (dt, n, lanes) = shape(fl, K / 2);
    let (_, _, all) = shape(fl, K / 2 * P);
    let send = (env.rank() == root).then(|| input(env, fl, all, 6));
    let recv = output(env, fl, lanes);
    match recv {
        Io::Buf(r) => env
            .scatter_buffer(send.map(buf), r, n, &dt, root, w)
            .unwrap(),
        Io::Arr(r) => env.scatter_array(send.map(arr), r, n, root, w).unwrap(),
    }
    vec![recv]
}

fn scatterv(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let root = 1;
    let me = env.rank();
    let send = (me == root).then(|| input(env, fl, VTOTAL, 7));
    let recv = output(env, fl, K);
    let n = VCOUNTS[me];
    match recv {
        Io::Buf(r) => env
            .scatterv_buffer(send.map(buf), &VCOUNTS, &VDISPLS, r, n, &INT, root, w)
            .unwrap(),
        Io::Arr(r) => env
            .scatterv_array(send.map(arr), &VCOUNTS, &VDISPLS, r, n, root, w)
            .unwrap(),
    }
    vec![recv]
}

fn allgather(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let (dt, n, lanes) = shape(fl, K / 2);
    let (_, _, all) = shape(fl, K / 2 * P);
    let send = input(env, fl, lanes, 8);
    let recv = output(env, fl, all);
    match (send, recv) {
        (Io::Buf(s), Io::Buf(r)) => env.allgather_buffer(s, r, n, &dt, w).unwrap(),
        (Io::Arr(s), Io::Arr(r)) => env.allgather_array(s, r, n, w).unwrap(),
        _ => unreachable!(),
    }
    vec![recv]
}

fn allgatherv(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let n = VCOUNTS[env.rank()];
    let send = input(env, fl, n as usize, 9);
    let recv = output(env, fl, VTOTAL);
    match (send, recv) {
        (Io::Buf(s), Io::Buf(r)) => env
            .allgatherv_buffer(s, n, r, &VCOUNTS, &VDISPLS, &INT, w)
            .unwrap(),
        (Io::Arr(s), Io::Arr(r)) => env
            .allgatherv_array(s, n, r, &VCOUNTS, &VDISPLS, w)
            .unwrap(),
        _ => unreachable!(),
    }
    vec![recv]
}

fn alltoall(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let (dt, n, _) = shape(fl, 2);
    let (_, _, all) = shape(fl, 2 * P);
    let send = input(env, fl, all, 10);
    let recv = output(env, fl, all);
    match (send, recv) {
        (Io::Buf(s), Io::Buf(r)) => env.alltoall_buffer(s, r, n, &dt, w).unwrap(),
        (Io::Arr(s), Io::Arr(r)) => env.alltoall_array(s, r, n, w).unwrap(),
        _ => unreachable!(),
    }
    vec![recv]
}

fn alltoallv(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    // Every rank sends `j + 1` ints to rank `j`, so rank `r` receives
    // `r + 1` from each peer.
    let me = env.rank();
    let scounts = [1, 2, 3, 4];
    let sdispls = [0, 1, 3, 6];
    let rcounts = [me as i32 + 1; P];
    let rdispls: Vec<i32> = (0..P as i32).map(|j| j * (me as i32 + 2)).collect();
    let send = input(env, fl, 10, 11);
    let recv = output(env, fl, P * (P + 1));
    match (send, recv) {
        (Io::Buf(s), Io::Buf(r)) => env
            .alltoallv_buffer(s, &scounts, &sdispls, r, &rcounts, &rdispls, &INT, w)
            .unwrap(),
        (Io::Arr(s), Io::Arr(r)) => env
            .alltoallv_array(s, &scounts, &sdispls, r, &rcounts, &rdispls, w)
            .unwrap(),
        _ => unreachable!(),
    }
    vec![recv]
}

fn ibcast(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let root = 3;
    let (dt, n, lanes) = shape(fl, K);
    let io = if env.rank() == root {
        input(env, fl, lanes, 12)
    } else {
        output(env, fl, lanes)
    };
    let req = match io {
        Io::Buf(b) => env.ibcast_buffer(b, n, &dt, root, w).unwrap(),
        Io::Arr(a) => env.ibcast_array(a, n, root, w).unwrap(),
    };
    env.wait(req).unwrap();
    vec![io]
}

fn iallreduce(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let send = input(env, fl, K, 13);
    let recv = output(env, fl, K);
    let req = match (send, recv) {
        (Io::Buf(s), Io::Buf(r)) => env
            .iallreduce_buffer(s, r, K as i32, &INT, ReduceOp::Sum, w)
            .unwrap(),
        (Io::Arr(s), Io::Arr(r)) => env
            .iallreduce_array(s, r, K as i32, ReduceOp::Min, w)
            .unwrap(),
        _ => unreachable!(),
    };
    env.wait(req).unwrap();
    vec![recv]
}

fn iallgather(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let send = input(env, fl, K, 14);
    let recv = output(env, fl, K * P);
    let req = match (send, recv) {
        (Io::Buf(s), Io::Buf(r)) => env.iallgather_buffer(s, r, K as i32, &INT, w).unwrap(),
        (Io::Arr(s), Io::Arr(r)) => env.iallgather_array(s, r, K as i32, w).unwrap(),
        _ => unreachable!(),
    };
    env.wait(req).unwrap();
    vec![recv]
}

fn igather(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let root = 1;
    let send = input(env, fl, K, 15);
    let recv = (env.rank() == root).then(|| output(env, fl, K * P));
    let req = match send {
        Io::Buf(s) => env
            .igather_buffer(s, recv.map(buf), K as i32, &INT, root, w)
            .unwrap(),
        Io::Arr(s) => env
            .igather_array(s, recv.map(arr), K as i32, root, w)
            .unwrap(),
    };
    env.wait(req).unwrap();
    recv.into_iter().collect()
}

fn ialltoall(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let send = input(env, fl, 2 * P, 16);
    let recv = output(env, fl, 2 * P);
    let req = match (send, recv) {
        (Io::Buf(s), Io::Buf(r)) => env.ialltoall_buffer(s, r, 2, &INT, w).unwrap(),
        (Io::Arr(s), Io::Arr(r)) => env.ialltoall_array(s, r, 2, w).unwrap(),
        _ => unreachable!(),
    };
    env.wait(req).unwrap();
    vec![recv]
}

/// Ranks 0 and 1 send a rendezvous-sized message across the node
/// boundary to ranks 2 and 3.
fn send_recv(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let me = env.rank();
    if me < 2 {
        match input(env, fl, BIG, 17) {
            Io::Buf(b) => env.send_buffer(b, BIG as i32, &INT, me + 2, 5, w).unwrap(),
            Io::Arr(a) => env.send_array(a, BIG as i32, me + 2, 5, w).unwrap(),
        }
        vec![]
    } else {
        let io = output(env, fl, BIG);
        let src = me as i32 - 2;
        match io {
            Io::Buf(b) => env.recv_buffer(b, BIG as i32, &INT, src, 5, w).map(drop),
            Io::Arr(a) => env.recv_array(a, BIG as i32, src, 5, w).map(drop),
        }
        .unwrap();
        vec![io]
    }
}

/// Every rank posts an eager and a rendezvous receive from its left
/// neighbour and the matching sends to its right one, then drains all
/// four requests with one `waitall`.
fn isend_irecv(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let me = env.rank();
    let (left, right) = ((me + P - 1) % P, (me + 1) % P);
    let mut reqs = Vec::new();
    let mut outs = Vec::new();
    for (tag, n) in [(1, K), (2, BIG)] {
        let io = output(env, fl, n);
        reqs.push(match io {
            Io::Buf(b) => env
                .irecv_buffer(b, n as i32, &INT, left as i32, tag, w)
                .unwrap(),
            Io::Arr(a) => env.irecv_array(a, n as i32, left as i32, tag, w).unwrap(),
        });
        outs.push(io);
    }
    for (tag, n) in [(1, K), (2, BIG)] {
        reqs.push(match input(env, fl, n, 18 + tag as usize) {
            Io::Buf(b) => env.isend_buffer(b, n as i32, &INT, right, tag, w).unwrap(),
            Io::Arr(a) => env.isend_array(a, n as i32, right, tag, w).unwrap(),
        });
    }
    env.waitall(reqs).unwrap();
    outs
}

/// Even ranks send two strided vector elements to the next odd rank,
/// which scatters them back into the same stride.
fn send_dt(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let dt = Datatype::vector(3, 2, 4, INT).unwrap();
    let lanes = dt.span(2) / 4;
    let me = env.rank();
    if me.is_multiple_of(2) {
        match input(env, fl, lanes, 21) {
            Io::Buf(b) => env.send_buffer(b, 2, &dt, me + 1, 7, w).unwrap(),
            Io::Arr(a) => env.send_array_dt(a, 2, &dt, me + 1, 7, w).unwrap(),
        }
        vec![]
    } else {
        let io = output(env, fl, lanes);
        match io {
            Io::Buf(b) => env.recv_buffer(b, 2, &dt, me as i32 - 1, 7, w).map(drop),
            Io::Arr(a) => env.recv_array_dt(a, 2, &dt, me as i32 - 1, 7, w).map(drop),
        }
        .unwrap();
        vec![io]
    }
}

/// Array subsets: even ranks send ints 3..8 into ints 2..7 of the next
/// odd rank.
fn send_slice(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let me = env.rank();
    if me.is_multiple_of(2) {
        let a = arr(input(env, fl, 16, 22));
        env.send_array_slice(a, 3, 5, me + 1, 8, w).unwrap();
        vec![]
    } else {
        let a = arr(output(env, fl, 16));
        env.recv_array_slice(a, 2, 5, me as i32 - 1, 8, w).unwrap();
        vec![Io::Arr(a)]
    }
}

/// One fenced epoch: put ints 0..4 and accumulate into ints 4..8 of the
/// right neighbour's window, and get ints 8..12 of the left one's, which
/// no put or accumulate of the epoch touches.
fn rma_epoch(env: &mut Env, fl: Fl, w: CommHandle) -> Vec<Io> {
    let me = env.rank();
    let (left, right) = ((me + P - 1) % P, (me + 1) % P);
    let mem = input(env, fl, 16, 23);
    let win = match mem {
        Io::Buf(b) => env.win_create_buffer(b, w).unwrap(),
        Io::Arr(a) => env.win_create_array(a, w).unwrap(),
    };
    let put = input(env, fl, 4, 24);
    let acc = input(env, fl, 4, 25);
    let got = output(env, fl, 4);
    env.win_fence(win).unwrap();
    match (put, acc, got) {
        (Io::Buf(p), Io::Buf(a), Io::Buf(g)) => {
            env.put_buffer(win, p, 4, &INT, right, 0).unwrap();
            env.accumulate_buffer(win, a, 4, ReduceOp::Sum, right, 16)
                .unwrap();
            env.get_buffer(win, g, 4, &INT, left, 32).unwrap();
        }
        (Io::Arr(p), Io::Arr(a), Io::Arr(g)) => {
            env.put_array(win, p, 4, right, 0).unwrap();
            env.accumulate_array(win, a, 4, ReduceOp::Sum, right, 16)
                .unwrap();
            env.get_array(win, g, 4, left, 32).unwrap();
        }
        _ => unreachable!(),
    }
    env.win_fence(win).unwrap();
    env.win_free(win).unwrap();
    vec![mem, got]
}

/// (operation, flavour, binding driver, pinned hash).
const PINS: &[(&str, Fl, Op, u64)] = &[
    ("barrier", Fl::Buf, barrier, 0xc08e_543a_7b8a_98a5),
    ("bcast", Fl::Buf, bcast, 0xe442_6640_cc04_5ace),
    ("bcast", Fl::Arr, bcast, 0x68ff_525d_1136_f465),
    ("bcast", Fl::Vec, bcast, 0xd85a_9a77_5fe7_a01e),
    ("reduce", Fl::Buf, reduce, 0x1168_cc54_75b2_0348),
    ("reduce", Fl::Arr, reduce, 0x81f7_7641_6eb6_66e3),
    ("allreduce", Fl::Buf, allreduce, 0x2f60_7203_4edb_e079),
    ("allreduce", Fl::Arr, allreduce, 0x0a19_dbe3_1219_41fd),
    ("allreduce", Fl::Vec, allreduce, 0x73ef_3ffa_84ec_cd69),
    ("gather", Fl::Buf, gather, 0xcf28_52af_8846_0764),
    ("gather", Fl::Arr, gather, 0xfb7d_fafb_b2c8_fb5b),
    ("gather", Fl::Vec, gather, 0x3049_1848_b98b_5d0b),
    ("gatherv", Fl::Buf, gatherv, 0x6172_d3b2_6b5f_f23f),
    ("gatherv", Fl::Arr, gatherv, 0x1ce1_cfe5_4bc6_869e),
    ("gatherv", Fl::Vec, gatherv, 0x66e6_b7bc_1d06_bb3b),
    ("scatter", Fl::Buf, scatter, 0xeaf5_3d14_46d0_1c6b),
    ("scatter", Fl::Arr, scatter, 0x08b2_8b9a_68d7_01a0),
    ("scatter", Fl::Vec, scatter, 0x6747_074e_27b0_33a4),
    ("scatterv", Fl::Buf, scatterv, 0x1acf_5ed4_9cfd_495e),
    ("scatterv", Fl::Arr, scatterv, 0x71b1_53ba_4f74_efc9),
    ("allgather", Fl::Buf, allgather, 0xdf46_9fb9_4d54_a1ad),
    ("allgather", Fl::Arr, allgather, 0x83d7_d177_10b1_8cb5),
    ("allgather", Fl::Vec, allgather, 0x451a_5269_1377_f4a5),
    ("allgatherv", Fl::Buf, allgatherv, 0xa6eb_2bcf_c441_275d),
    ("allgatherv", Fl::Arr, allgatherv, 0x89d4_c732_30e2_4c55),
    ("alltoall", Fl::Buf, alltoall, 0x7d81_0012_ad5d_e291),
    ("alltoall", Fl::Arr, alltoall, 0x96c4_c23a_e3e5_154a),
    ("alltoall", Fl::Vec, alltoall, 0x5b80_422e_1e30_a7da),
    ("alltoallv", Fl::Buf, alltoallv, 0x6bf6_e2bb_77cd_929c),
    ("alltoallv", Fl::Arr, alltoallv, 0x01a7_1eb4_cbf4_8ab8),
    ("ibcast", Fl::Buf, ibcast, 0x94f3_759d_56d1_1f57),
    ("ibcast", Fl::Arr, ibcast, 0xc694_173e_775e_01cb),
    ("ibcast", Fl::Vec, ibcast, 0x7791_5a4e_db6d_c25d),
    ("iallreduce", Fl::Buf, iallreduce, 0x3ba9_0ff0_8b5b_56d5),
    ("iallreduce", Fl::Arr, iallreduce, 0xa621_abee_7a96_2b05),
    ("iallgather", Fl::Buf, iallgather, 0x3a6b_af48_f783_f0d1),
    ("iallgather", Fl::Arr, iallgather, 0xc6eb_f1f3_8e15_5e15),
    ("igather", Fl::Buf, igather, 0x8f2b_a45f_2424_ad8f),
    ("igather", Fl::Arr, igather, 0x5506_a48d_8978_0907),
    ("ialltoall", Fl::Buf, ialltoall, 0x7825_17ba_f7e9_d220),
    ("ialltoall", Fl::Arr, ialltoall, 0x8945_64c3_8362_7f1e),
    ("send_recv", Fl::Buf, send_recv, 0xe979_4901_1ba7_8645),
    ("send_recv", Fl::Arr, send_recv, 0xd5c2_7674_c180_d9a1),
    ("isend_irecv", Fl::Buf, isend_irecv, 0x2da8_8ee9_f55c_3522),
    ("isend_irecv", Fl::Arr, isend_irecv, 0xc093_b18b_cba0_a9f4),
    ("send_dt", Fl::Buf, send_dt, 0x1ed5_b3ec_b99b_0af3),
    ("send_dt", Fl::Arr, send_dt, 0x15db_e059_355c_1a91),
    ("send_slice", Fl::Arr, send_slice, 0x68ed_29ee_2025_a020),
    ("rma_epoch", Fl::Buf, rma_epoch, 0x4755_64c4_678a_f458),
    ("rma_epoch", Fl::Arr, rma_epoch, 0xa14c_d995_6ef0_e37c),
];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Run `op` once on every rank and fold each rank's clock bits and
/// received payload into one hash.
fn pin(engine: EngineMode, fl: Fl, op: Op) -> u64 {
    let cfg = JobConfig::mvapich2j(Topology::new(2, 2)).with_engine(engine);
    let per_rank = run_job(cfg, move |env| {
        let w = env.world();
        let outs = op(env, fl, w);
        let mut h = FNV_OFFSET;
        fnv(&mut h, &env.now().as_nanos().to_bits().to_le_bytes());
        for io in outs {
            let bytes = contents(env, io);
            fnv(&mut h, &bytes);
        }
        h
    });
    let mut h = FNV_OFFSET;
    for r in per_rank {
        fnv(&mut h, &r.to_le_bytes());
    }
    h
}

fn check(engine: EngineMode) {
    let mut wrong = Vec::new();
    for &(name, fl, op, want) in PINS {
        let got = pin(engine, fl, op);
        if got != want {
            wrong.push(format!(
                "{name}/{fl:?}: got {got:#018x}, pinned {want:#018x}"
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "{engine:?}: virtual clock or payload moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn every_binding_keeps_its_clock_under_the_threaded_engine() {
    check(EngineMode::Threaded);
}

#[test]
fn every_binding_keeps_its_clock_under_the_event_engine() {
    check(EngineMode::EventDriven);
}
