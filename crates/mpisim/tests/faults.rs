//! Reliability-sublayer tests: MPI jobs running over a deliberately
//! faulty fabric must still deliver every payload intact (ack +
//! retransmit ride over drops, corruption, and duplication), stay
//! deterministic under a fixed seed, pay nothing when the plan injects
//! nothing, and convert a crashed peer into a typed `RankFailed` error
//! under `MPI_ERRORS_RETURN` instead of hanging or aborting.

use std::time::Instant;

use mpisim::datatype::{BYTE, INT};
use mpisim::{run_mpi, run_mpi_faulty, Errhandler, MpiError, Profile, ReduceOp};
use simfabric::{FaultPlan, Topology};

fn ints(v: &[i32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn to_ints(b: &[u8]) -> Vec<i32> {
    b.chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// A plan lossy enough that a multi-iteration job is statistically
/// certain to exercise drop, corruption, and duplication paths.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::parse("drop=0.05,corrupt=0.02,dup=0.05,jitter=300")
        .map(|mut p| {
            p.seed = seed;
            p
        })
        .unwrap()
}

#[test]
fn lossy_pt2pt_delivers_every_payload_intact() {
    // Patterned payloads across the eager→rendezvous switch: the
    // reliability sublayer must hide every injected fault.
    run_mpi_faulty(
        Topology::new(2, 1),
        Profile::mvapich2(),
        lossy_plan(42),
        |mpi| {
            let w = mpi.world();
            let me = mpi.rank(w).unwrap();
            for (iter, n) in [8usize, 64, 1024, 1 << 17]
                .iter()
                .cycle()
                .take(40)
                .enumerate()
            {
                let want: Vec<u8> = (0..*n).map(|i| (i as u8) ^ (iter as u8)).collect();
                if me == 0 {
                    mpi.send(&want, *n as i32, &BYTE, 1, 7, w).unwrap();
                } else {
                    let mut got = vec![0u8; *n];
                    let st = mpi.recv(&mut got, *n as i32, &BYTE, 0, 7, w).unwrap();
                    assert_eq!(got, want, "iteration {iter}: payload corrupted end-to-end");
                    assert_eq!(st.bytes, *n);
                }
            }
        },
    );
}

#[test]
fn lossy_collectives_validate_on_four_ranks() {
    let results = run_mpi_faulty(
        Topology::new(2, 2),
        Profile::mvapich2(),
        lossy_plan(7),
        |mpi| {
            let w = mpi.world();
            let me = mpi.rank(w).unwrap() as i32;
            let n = mpi.size(w).unwrap() as i32;
            // Allreduce-sum of rank ids, twice (re-exercises the links).
            for _ in 0..3 {
                let mine = ints(&[me, me * 2]);
                let mut out = vec![0u8; 8];
                mpi.allreduce(&mine, &mut out, 2, &INT, ReduceOp::Sum, w)
                    .unwrap();
                let expect = vec![n * (n - 1) / 2, n * (n - 1)];
                assert_eq!(to_ints(&out), expect);
            }
            // Bcast a payload large enough for the tree algorithms.
            let mut buf = if me == 0 {
                (0..4000u16)
                    .flat_map(|i| (i as i32).to_le_bytes())
                    .collect()
            } else {
                vec![0u8; 16000]
            };
            mpi.bcast(&mut buf, 4000, &INT, 0, w).unwrap();
            let got = to_ints(&buf);
            assert!(got.iter().enumerate().all(|(i, &v)| v == i as i32));
            mpi.wtime()
        },
    );
    assert_eq!(results.len(), 4);
}

#[test]
fn same_seed_replays_byte_identically_different_seed_may_not() {
    let run = |seed: u64| {
        run_mpi_faulty(
            Topology::new(2, 1),
            Profile::mvapich2(),
            lossy_plan(seed),
            |mpi| {
                let w = mpi.world();
                let me = mpi.rank(w).unwrap();
                for _ in 0..50 {
                    let mut buf = [0u8; 64];
                    if me == 0 {
                        mpi.send(&buf, 64, &BYTE, 1, 0, w).unwrap();
                        mpi.recv(&mut buf, 64, &BYTE, 1, 0, w).unwrap();
                    } else {
                        mpi.recv(&mut buf, 64, &BYTE, 0, 0, w).unwrap();
                        mpi.send(&buf, 64, &BYTE, 0, 0, w).unwrap();
                    }
                }
                mpi.now().as_nanos()
            },
        )
    };
    let a = run(42);
    let b = run(42);
    assert_eq!(a, b, "identical seeds must replay the exact virtual times");
    // Drops reshape arrival times, so a different seed almost surely
    // lands elsewhere — detect the pathological "plan ignored" case.
    let c = run(1042);
    assert_ne!(a, c, "fault plan had no effect on timing at all");
}

#[test]
fn inactive_plan_has_zero_virtual_time_overhead() {
    // The reliability sublayer (sequencing, checksums, acks) must never
    // charge the application clock: a plan that injects nothing yields
    // bit-identical virtual times to no plan at all.
    let workload = |mpi: &mut mpisim::Mpi| {
        let w = mpi.world();
        let me = mpi.rank(w).unwrap();
        for n in [16usize, 512, 1 << 16] {
            let buf = vec![3u8; n];
            let mut out = vec![0u8; n];
            if me == 0 {
                mpi.send(&buf, n as i32, &BYTE, 1, 1, w).unwrap();
                mpi.recv(&mut out, n as i32, &BYTE, 1, 1, w).unwrap();
            } else {
                mpi.recv(&mut out, n as i32, &BYTE, 0, 1, w).unwrap();
                mpi.send(&buf, n as i32, &BYTE, 0, 1, w).unwrap();
            }
        }
        mpi.now().as_nanos()
    };
    let clean = run_mpi(Topology::new(2, 1), Profile::mvapich2(), workload);
    let framed = run_mpi_faulty(
        Topology::new(2, 1),
        Profile::mvapich2(),
        FaultPlan::new(99), // active sublayer, zero injected faults
        workload,
    );
    assert_eq!(
        clean, framed,
        "reliability framing must be free of virtual-time cost when no fault fires"
    );
}

#[test]
fn crashed_peer_surfaces_rank_failed_under_errors_return() {
    // Rank 1 dies at virtual time 0; rank 0 (ERRORS_RETURN) blocks on a
    // receive that can never be satisfied. The watchdog must convert the
    // stall into `RankFailed` within its real-time bound instead of
    // hanging forever or aborting the process.
    let mut plan = FaultPlan::new(0);
    plan.crash = Some((1, 0.0));
    plan.watchdog_ms = 100;
    let results = run_mpi_faulty(Topology::new(2, 1), Profile::mvapich2(), plan, |mpi| {
        let w = mpi.world();
        mpi.set_errhandler(w, Errhandler::ErrorsReturn).unwrap();
        if mpi.rank(w).unwrap() == 0 {
            let started = Instant::now();
            let mut buf = [0u8; 8];
            let err = mpi.recv(&mut buf, 8, &BYTE, 1, 0, w).unwrap_err();
            let waited = started.elapsed();
            assert!(
                waited.as_millis() < 5_000,
                "watchdog must fire near its bound, waited {waited:?}"
            );
            err
        } else {
            // The crashed rank stops initiating operations: its own call
            // errors out immediately (vtime 0 >= crash time 0).
            mpi.send(&[0u8; 8], 8, &BYTE, 0, 0, w).unwrap_err()
        }
    });
    assert!(
        matches!(results[0], MpiError::RankFailed { rank: 1 }),
        "rank 0 got {:?}",
        results[0]
    );
    assert!(
        matches!(results[1], MpiError::RankFailed { rank: 1 }),
        "rank 1 got {:?}",
        results[1]
    );
}

#[test]
fn sends_to_a_crashed_rank_fail_after_retries() {
    // Rank 1 crashes mid-run; rank 0's eager sends to it are blackholed
    // by the fabric, and after the retry budget the reliability layer
    // reports the peer as failed (not a generic transport failure).
    let mut plan = FaultPlan::new(0);
    plan.crash = Some((1, 1.0)); // dies at t=1 ns: every send arrives later
    plan.watchdog_ms = 100;
    plan.rto_ns = 50.0; // keep the backoff sum tiny
    plan.max_retries = 3;
    let results = run_mpi_faulty(Topology::new(2, 1), Profile::mvapich2(), plan, |mpi| {
        let w = mpi.world();
        mpi.set_errhandler(w, Errhandler::ErrorsReturn).unwrap();
        if mpi.rank(w).unwrap() == 0 {
            Some(mpi.send(&[7u8; 32], 32, &BYTE, 1, 0, w).unwrap_err())
        } else {
            None
        }
    });
    assert!(
        matches!(results[0], Some(MpiError::RankFailed { rank: 1 })),
        "got {:?}",
        results[0]
    );
}

#[test]
fn errors_abort_is_the_default_errhandler() {
    run_mpi(Topology::new(1, 2), Profile::mvapich2(), |mpi| {
        let w = mpi.world();
        assert_eq!(mpi.errhandler(w), Errhandler::ErrorsAbort);
        mpi.set_errhandler(w, Errhandler::ErrorsReturn).unwrap();
        assert_eq!(mpi.errhandler(w), Errhandler::ErrorsReturn);
        // Derived communicators inherit the parent's handler.
        let dup = mpi.comm_dup(w).unwrap();
        assert_eq!(mpi.errhandler(dup), Errhandler::ErrorsReturn);
    });
}

#[test]
fn slowdown_shifts_timing_but_not_results() {
    let run = |plan: Option<FaultPlan>| {
        let f = |mpi: &mut mpisim::Mpi| {
            let w = mpi.world();
            let me = mpi.rank(w).unwrap() as i32;
            let mut out = vec![0u8; 4];
            mpi.allreduce(&ints(&[me + 1]), &mut out, 1, &INT, ReduceOp::Prod, w)
                .unwrap();
            (to_ints(&out)[0], mpi.now().as_nanos())
        };
        match plan {
            Some(p) => run_mpi_faulty(Topology::new(2, 1), Profile::mvapich2(), p, f),
            None => run_mpi(Topology::new(2, 1), Profile::mvapich2(), f),
        }
    };
    let mut plan = FaultPlan::new(0);
    plan.slowdown = Some((1, 4.0));
    let slow = run(Some(plan));
    let fast = run(None);
    assert_eq!(slow[0].0, 2, "1 * 2 on both ranks");
    assert_eq!(slow[0].0, fast[0].0);
    assert!(
        slow[1].1 > fast[1].1,
        "a 4x straggler must finish later: {} vs {}",
        slow[1].1,
        fast[1].1
    );
}

#[test]
fn lossy_run_detects_and_retransmits_exactly_as_pinned() {
    // Eager and rendezvous payloads of every length class over the
    // lossy plan, with per-rank fault pvars recorded. The counts are a
    // function of the plan's seeded fates alone: they pin that the frame
    // checksum rejects exactly the copies the plan corrupted, no more and
    // no fewer, however the checksum is computed.
    let counts = run_mpi_faulty(
        Topology::new(2, 1),
        Profile::mvapich2(),
        lossy_plan(42),
        |mpi| {
            let w = mpi.world();
            let me = mpi.rank(w).unwrap();
            obs::install(me, obs::ObsOptions::default());
            for (iter, n) in [5usize, 64, 1023, 9000, 40_000]
                .iter()
                .cycle()
                .take(400)
                .enumerate()
            {
                let mut buf: Vec<u8> = (0..*n).map(|i| (i * 7 + iter) as u8).collect();
                let peer = 1 - me;
                if (iter + me) % 2 == 0 {
                    mpi.send(&buf, *n as i32, &BYTE, peer, 3, w).unwrap();
                } else {
                    mpi.recv(&mut buf, *n as i32, &BYTE, peer as i32, 3, w)
                        .unwrap();
                }
            }
            mpi.barrier(w).unwrap();
            let pvars = obs::uninstall().expect("recorder installed").pvars;
            [
                "fabric.corrupt_detected",
                "fabric.retransmits",
                "fabric.drops_injected",
                "fabric.dups_suppressed",
            ]
            .map(|name| pvars.counter(name))
        },
    );
    // [corrupt_detected, retransmits, drops_injected, dups_suppressed]
    // per rank, as the byte-at-a-time checksum counted them.
    assert_eq!(counts, vec![[7, 22, 15, 17], [7, 23, 16, 2]]);
}
