//! Workspace-level tests for the simulator self-profiling layer
//! (`obs::wallprof`), which `ombj --perf` and perfbench's traced run
//! both read. The core contract: wall-clock telemetry lives strictly
//! *outside* every determinism surface — digests, dumps, and measured
//! series are bit-identical with profiling on, off, or across reruns,
//! while the wall numbers themselves are free to differ run to run.

use ombj::{run_with_obs, Api, BenchOptions, Benchmark, Library, RunSpec};
use simfabric::{EngineMode, Topology};

fn latency_spec() -> RunSpec {
    RunSpec {
        library: Library::Mvapich2J,
        benchmark: Benchmark::Latency,
        api: Api::Buffer,
        topo: Topology::new(2, 1),
        opts: BenchOptions {
            max_size: 1 << 14,
            ..BenchOptions::quick()
        },
        faults: None,
        engine: EngineMode::Threaded,
    }
}

fn profiled_and_traced() -> obs::ObsOptions {
    obs::ObsOptions {
        tracing: true,
        profiling: true,
        ..Default::default()
    }
}

#[test]
fn profiling_preserves_bitwise_determinism() {
    // Two profiled runs: every determinism digest is byte-identical even
    // though the embedded wall-clock profiles inevitably differ.
    let run_once = || run_with_obs(latency_spec(), profiled_and_traced());
    let (s1, r1) = run_once();
    let (s2, r2) = run_once();
    assert_eq!(s1, s2, "measured series must replay exactly");
    assert_eq!(r1.pvar_dump(), r2.pvar_dump(), "pvar dump is a digest");
    assert_eq!(
        r1.chrome_trace_json(),
        r2.chrome_trace_json(),
        "trace file is a digest"
    );
    // JobReport equality itself is a determinism digest: it must hold
    // even though both reports carry (different) wall-clock profiles.
    assert_eq!(r1, r2, "report equality must ignore wall metrics");
    for r in [&r1, &r2] {
        let p = r.sim_perf.as_ref().expect("profiling was on");
        assert!(p.wall_ns > 0, "job wall clock must have advanced");
        assert!(p.events() > 0, "latency run injects and delivers");
    }
}

#[test]
fn profiling_has_zero_virtual_cost() {
    // The measured numbers are bit-identical with profiling on or off:
    // wallprof reads `Instant`, never a virtual clock.
    let (with, _) = run_with_obs(latency_spec(), obs::ObsOptions::profiled());
    let (without, _) = run_with_obs(latency_spec(), obs::ObsOptions::default());
    assert_eq!(
        with.unwrap().points,
        without.unwrap().points,
        "profiling must not advance any virtual clock"
    );
}

#[test]
fn wall_metrics_never_reach_determinism_digests() {
    let (_, report) = run_with_obs(latency_spec(), profiled_and_traced());
    assert!(report.sim_perf.is_some(), "profile was collected");
    // The digest surfaces never mention wall-clock fields, so the
    // profile cannot leak into byte-diffed CI artifacts.
    for digest in [report.pvar_dump(), report.chrome_trace_json()] {
        for key in ["wall_ns", "wall_ms", "events_per_sec", "vns_per_ws"] {
            assert!(
                !digest.contains(key),
                "wall-clock key {key:?} leaked into a determinism digest"
            );
        }
    }
    // RankReport equality also excludes the per-rank wall profile.
    let mut a = report.ranks[0].clone();
    let mut b = report.ranks[0].clone();
    a.wall = Some(obs::wallprof::RankWallProf {
        wall_ns: 1,
        ..Default::default()
    });
    b.wall = Some(obs::wallprof::RankWallProf {
        wall_ns: 999_999,
        ..Default::default()
    });
    assert_eq!(a, b, "rank equality must ignore the wall profile");
}

#[test]
fn disabled_profiling_and_obs_paths_stay_cheap() {
    // Satellite experiment (see EXPERIMENTS.md): with no recorder and no
    // profiler installed, the instrumentation probes on the hot path are
    // a single thread-local read — no formatting, no allocation. The
    // bound is deliberately generous (debug builds, shared CI boxes):
    // 100k disabled probes must finish inside 250 ms, i.e. < 2.5 µs per
    // probe where the real cost is a few nanoseconds.
    obs::uninstall();
    obs::wallprof::reset();
    assert!(!obs::tracing_enabled());
    assert!(!obs::wallprof::enabled());
    const N: u64 = 100_000;
    let start = std::time::Instant::now();
    for i in 0..N {
        obs::count("disabled.counter", 1);
        obs::wallprof::add(obs::wallprof::Counter::Deliveries, 1);
        let _s = obs::wallprof::span(obs::wallprof::Subsystem::Engine);
        std::hint::black_box(i);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_millis() < 250,
        "disabled probes took {elapsed:?} for {N} iterations"
    );
    // And they must observe nothing: a fresh harvest sees no state.
    assert!(obs::wallprof::harvest().is_none());
}

#[test]
fn rma_put_latency_allocs_exactly_one_buffer_per_message() {
    // Regression guard for an old drift: `win_create` used to charge
    // its one-time window allocation to `Allocs`, nudging the RMA
    // benchmark's allocs/msg to 1.007. The steady-state contract is
    // exact: every Buffer-API put stages one pooled buffer and sends one
    // message, so Allocs == Messages and alloc_per_msg is 1.00, not
    // 1.00-and-change.
    let spec = RunSpec {
        benchmark: Benchmark::PutLatency,
        opts: BenchOptions {
            max_size: 1 << 12,
            ..BenchOptions::quick()
        },
        ..latency_spec()
    };
    let (series, report) = run_with_obs(spec, obs::ObsOptions::profiled());
    series.expect("put_latency runs under the Buffer API");
    let perf = report.sim_perf.expect("profiling was on");
    let totals = perf.totals();
    let allocs = totals.counter(obs::wallprof::Counter::Allocs);
    let messages = totals.counter(obs::wallprof::Counter::Messages);
    assert!(messages > 0, "the benchmark sent messages");
    assert_eq!(
        allocs, messages,
        "RMA put must charge exactly one staging alloc per message"
    );
    assert_eq!(perf.allocs_per_msg(), 1.0, "alloc_per_msg is exact");
}

#[test]
fn sim_perf_is_engine_labeled_and_comparable_across_engines() {
    // Events are counted per rank (injections + deliveries), so the
    // events/sec metric means the same thing under both engines; the
    // profile says which engine produced it.
    let threaded = latency_spec();
    let mut event = latency_spec();
    event.engine = EngineMode::EventDriven;
    let (s_t, r_t) = run_with_obs(threaded, obs::ObsOptions::profiled());
    let (s_e, r_e) = run_with_obs(event, obs::ObsOptions::profiled());
    assert_eq!(
        s_t.unwrap().points,
        s_e.unwrap().points,
        "virtual-time series must not depend on the engine"
    );
    let p_t = r_t.sim_perf.expect("profiling was on");
    let p_e = r_e.sim_perf.expect("profiling was on");
    assert_eq!(p_t.engine, "threaded");
    assert_eq!(p_e.engine, "event");
    assert_eq!(
        p_t.events(),
        p_e.events(),
        "per-rank event counts are engine-invariant"
    );
    assert!(p_e.render_text().contains("(event engine)"));
    let mut w = obs::json::JsonBuf::new();
    p_e.write_json(&mut w);
    assert!(w.finish().contains("\"engine\":\"event\""));
}

#[test]
fn match_depth_pvars_are_structural() {
    // Satellite 6: the tag-matching pvars. `pt2pt.match.scans` counts
    // one scan per accepted delivery / posted-list probe, so it is
    // structural (identical across reruns — covered by the pvar-dump
    // digest test above). Here: it fires on a pt2pt run, and the
    // posted-depth gauge is bounded by what the benchmark can post.
    let (_, report) = run_with_obs(latency_spec(), obs::ObsOptions::default());
    let merged = report.merged_pvars();
    assert!(merged.counter("pt2pt.match.scans") > 0, "scans pvar fires");
    let depth = merged
        .get("pt2pt.match.maxdepth")
        .and_then(|v| v.as_gauge_max())
        .expect("maxdepth gauge present");
    assert!(
        (1..=2).contains(&depth),
        "osu_latency posts one recv at a time (saw depth {depth})"
    );
}
