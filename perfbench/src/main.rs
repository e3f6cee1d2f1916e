//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload coll_256|bulk_pt2pt|stencil_lossy|all \
//!     --seed N --seconds S --trace 0|1 [--quick] [--spans-out FILE]
//! ```
//!
//! One run builds the workload's inputs from the seed, repeats identical
//! untraced jobs for three quarters of `--seconds` (the end-to-end
//! metrics), then traced jobs for the rest (the per-layer metrics), and
//! checks every output. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics under `--trace 0` and the per-layer ones under `--trace 1`.
//! Any failed check makes `correct` false and the exit code 1.
//! See `perfbench/README.md` for the metrics and workloads.

mod gen;
mod report;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use obs::json::JsonBuf;

use workloads::{JobTimes, Scale, Workload};

/// Untraced jobs per run, at least (`setup_s` is their median).
const MIN_JOBS: usize = 3;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    spans_out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        spans_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.scale = Scale::Quick,
            "--spans-out" => a.spans_out = Some(val()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(a)
}

/// Outcome of one workload run.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAIL {why}"));
    }
}

/// Plain single-threaded host copy over `sizes`: bytes per second.
fn memcpy_baseline(sizes: &[usize], budget: Duration) -> f64 {
    let max = sizes.iter().copied().max().unwrap_or(0);
    let src: Vec<u8> = (0..max).map(|i| i as u8).collect();
    let mut dst = vec![0u8; max];
    let pass_bytes: usize = sizes.iter().sum();
    let mut rates = Vec::new();
    let t0 = Instant::now();
    while rates.len() < 3 || t0.elapsed() < budget {
        let p0 = Instant::now();
        for &s in sizes {
            dst[..s].copy_from_slice(std::hint::black_box(&src[..s]));
            std::hint::black_box(&mut dst);
        }
        rates.push(pass_bytes as f64 / p0.elapsed().as_secs_f64());
    }
    report::median(&rates)
}

fn run_workload(a: &Args, w: &dyn Workload) -> Outcome {
    let mut o = Outcome {
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        notes: Vec::new(),
    };
    let budget = Duration::from_secs_f64(a.seconds);
    let steps = w.steps();
    let mut untraced: Vec<JobTimes> = Vec::new();
    let mut job_cpu: Vec<f64> = Vec::new();
    let mut traced: Vec<JobTimes> = Vec::new();
    let mut layers = report::LayerSums::default();
    let mut spans = Vec::new();
    let t0 = Instant::now();
    let mut reference: Option<(u64, f64)> = None;
    while untraced.len() + traced.len() < MIN_JOBS + 1 || t0.elapsed() < budget {
        let trace = untraced.len() >= MIN_JOBS && t0.elapsed() >= budget.mul_f64(0.75);
        let out = match workloads::run(w, trace) {
            Ok(out) => out,
            Err(e) => {
                o.attempted += 1;
                o.fail(format!("job aborted: {e}"));
                return o;
            }
        };
        let t = match workloads::times(&out, steps) {
            Ok(t) => t,
            Err(e) => {
                o.attempted += 1;
                o.fail(e);
                return o;
            }
        };
        o.attempted += t.calls;
        if t.mismatches > 0 {
            o.failed += t.mismatches;
            o.notes.push(format!(
                "FAIL {} output mismatches in a {} job",
                t.mismatches,
                if trace { "traced" } else { "untraced" }
            ));
        }
        // Same inputs, same simulated result: every job, traced or not,
        // must reproduce the first one's digest and simulated step time.
        match reference {
            None => reference = Some((t.digest, t.sim_step_us)),
            Some((d, s)) if d != t.digest || s.to_bits() != t.sim_step_us.to_bits() => {
                o.fail(format!(
                    "{} job diverged: digest {:016x} sim_step_us {} (first job: {d:016x} {s})",
                    if trace { "traced" } else { "untraced" },
                    t.digest,
                    t.sim_step_us
                ))
            }
            Some(_) => {}
        }
        if trace {
            layers.add(&out, &t);
            if a.spans_out.is_some() && traced.is_empty() {
                spans = out.ranks.iter().flat_map(|r| r.rec.spans.clone()).collect();
            }
            traced.push(t);
        } else {
            job_cpu.push(out.cpu_ns as f64 / 1e9);
            untraced.push(t);
        }
    }
    let (digest, _) = reference.expect("at least one job ran");
    let sizes = w.payload_sizes();
    let memcpy = memcpy_baseline(&sizes, Duration::from_millis(200));
    let e2e = report::end_to_end(&untraced, trace::peak_rss_bytes());
    o.metrics = if a.trace {
        o.notes.push(layers.render_shares());
        let payload = sizes.iter().sum::<usize>() as f64;
        layers.metrics(&untraced, report::median(&job_cpu), payload, memcpy)
    } else {
        e2e
    };
    let nsteps = untraced.len() * steps;
    o.notes.push(format!(
        "# jobs: {} untraced + {} traced, {steps} steps each; step samples {nsteps} \
         (highest percentile with >=10 samples beyond: {}); setup/run samples {}",
        untraced.len(),
        traced.len(),
        report::highest_supported_percentile(nsteps).map_or("none".into(), |p| format!("p{p}")),
        untraced.len(),
    ));
    let runs: Vec<f64> = untraced.iter().map(|t| t.run_s).collect();
    o.notes.push(format!(
        "# run_s over untraced jobs: min {:.4} median {:.4} max {:.4} (CPU s); wall median {:.4} s",
        runs.iter().copied().fold(f64::INFINITY, f64::min),
        report::median(&runs),
        runs.iter().copied().fold(0.0, f64::max),
        report::median(&untraced.iter().map(|t| t.run_wall_s).collect::<Vec<_>>()),
    ));
    o.notes.push(format!("# digest {digest:016x}"));
    if let Some(path) = &a.spans_out {
        if let Err(e) = write_spans(path, &spans) {
            o.notes
                .push(format!("# could not write spans to {path}: {e}"));
        }
    }
    o
}

/// Spans of the first traced job as JSON lines.
fn write_spans(path: &str, spans: &[trace::Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            f,
            "{{\"name\":\"{}\",\"rank\":{},\"step\":{},\"family\":\"{}\",\"api\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{}}}",
            s.name,
            s.rank,
            s.step,
            s.family.label(),
            s.api.label(),
            s.start_ns,
            s.end_ns,
            s.busy_ns
        )?;
    }
    f.flush()
}

/// The metrics a run prints, `(name, unit)` in report order.
fn metric_list(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut w = JsonBuf::new();
    w.begin_obj();
    w.key("correct");
    w.bool_val(correct);
    w.key("attempted");
    w.uint_val(attempted.max(1));
    w.key("failed");
    w.uint_val(failed);
    w.key("metrics");
    w.begin_obj();
    for (name, v, unit) in metrics {
        w.key(name);
        w.begin_obj();
        w.key("value");
        w.num_val(*v);
        w.key("unit");
        w.str_val(unit);
        w.end_obj();
    }
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// Run one workload and print its report; returns whether it passed.
fn run_one(a: &Args) -> bool {
    let w = workloads::build(&a.workload, a.seed, a.scale).expect("name validated");
    let o = run_workload(a, w.as_ref());
    let correct = o.failed == 0;
    let listed = metric_list(a.trace);
    let expected = listed.len();
    let ordered: Vec<(String, f64, &str)> = listed
        .into_iter()
        .filter_map(|(n, u)| o.metrics.get(&n).map(|&v| (n, v, u)))
        .collect();
    println!(
        "# perfbench {} seed {} ({}, {} s)",
        a.workload,
        a.seed,
        if a.trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        },
        a.seconds
    );
    for n in &o.notes {
        print!("{n}");
        if !n.ends_with('\n') {
            println!();
        }
    }
    for (n, v, u) in &ordered {
        println!("{n:<34} {v:>16.6} {u}");
    }
    println!(
        "error_rate {:.3e} ({} failed of {} attempted)",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    let complete = correct && ordered.len() == expected;
    println!("{}", result_json(complete, o.attempted, o.failed, &ordered));
    complete
}

/// `--workload all`: each workload in its own process (so `peak_rss_mb`
/// is that workload's alone), then one combined result line.
fn run_all(a: &Args, argv: &[String]) -> bool {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return false;
        }
    };
    let mut common: Vec<&String> = Vec::new();
    let mut it = argv.iter();
    while let Some(x) = it.next() {
        if x == "--workload" {
            it.next();
        } else {
            common.push(x);
        }
    }
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for name in workloads::NAMES {
        let run = std::process::Command::new(&exe)
            .args(&common)
            .args(["--workload", name])
            .output();
        let out = match run {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: cannot run {name}: {e}");
                return false;
            }
        };
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let parsed = text.lines().last().and_then(|l| obs::json::parse(l).ok());
        let Some(v) = parsed else {
            correct = false;
            failed += 1;
            continue;
        };
        correct &= out.status.success() && v.get("correct").and_then(|c| c.as_bool()) == Some(true);
        attempted += v.get("attempted").and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
        failed += v.get("failed").and_then(|x| x.as_f64()).unwrap_or(0.0) as u64;
        for (m, u) in metric_list(a.trace) {
            let value = v
                .get("metrics")
                .and_then(|ms| ms.get(&m))
                .and_then(|e| e.get("value"));
            if let Some(x) = value.and_then(|x| x.as_f64()) {
                metrics.push((format!("{name}.{m}"), x, u));
            }
        }
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1 [--quick] [--spans-out FILE]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let ok = if a.workload == "all" {
        run_all(&a, &argv)
    } else {
        run_one(&a)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 3,
            seconds: 0.01,
            trace,
            scale: Scale::Quick,
            spans_out: None,
        }
    }

    /// Quick mode: every workload runs untraced and traced in seconds,
    /// passes its checks, and reports every metric.
    #[test]
    fn quick_mode_runs_every_workload() {
        for name in workloads::NAMES {
            for trace in [false, true] {
                let a = args(name, trace);
                let w = workloads::build(name, a.seed, a.scale).unwrap();
                let o = run_workload(&a, w.as_ref());
                assert_eq!(o.failed, 0, "{name}: {:?}", o.notes);
                assert!(o.attempted > 0);
                for (m, _) in metric_list(trace) {
                    let v = o
                        .metrics
                        .get(&m)
                        .unwrap_or_else(|| panic!("{name}: no {m}"));
                    assert!(v.is_finite() && *v >= 0.0, "{name}: {m} = {v}");
                }
                if !trace {
                    // End-to-end metrics are never zero.
                    assert!(
                        o.metrics.values().all(|&v| v > 0.0),
                        "{name}: {:?}",
                        o.metrics
                    );
                }
            }
        }
    }

    #[test]
    fn spans_are_written_as_json_lines() {
        let path =
            std::env::temp_dir().join(format!("perfbench-spans-{}.jsonl", std::process::id()));
        let mut a = args("bulk_pt2pt", true);
        a.spans_out = Some(path.to_string_lossy().into_owned());
        let w = workloads::build(&a.workload, a.seed, a.scale).unwrap();
        let o = run_workload(&a, w.as_ref());
        assert_eq!(o.failed, 0, "{:?}", o.notes);
        let text = std::fs::read_to_string(&path).expect("spans file");
        std::fs::remove_file(&path).expect("remove spans file");
        let lines: Vec<&str> = text.lines().collect();
        assert!(!lines.is_empty());
        for l in lines {
            let v = obs::json::parse(l).expect("each line is JSON");
            assert!(v.get("busy_ns").and_then(|x| x.as_f64()).is_some());
        }
    }

    #[test]
    fn digest_depends_on_the_seed_only() {
        let digest = |seed| {
            let w = workloads::build("stencil_lossy", seed, Scale::Quick).unwrap();
            let out = workloads::run(w.as_ref(), false).unwrap();
            workloads::times(&out, w.steps()).unwrap().digest
        };
        assert_eq!(digest(4), digest(4));
        assert_ne!(digest(4), digest(5));
    }

    #[test]
    fn args_are_checked() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&s(&["--workload", "nope"])).is_err());
        assert!(parse_args(&s(&["--workload", "coll_256", "--trace", "2"])).is_err());
        assert!(parse_args(&s(&["--workload", "coll_256", "--seconds", "0"])).is_err());
        let a = parse_args(&s(&[
            "--workload",
            "all",
            "--seed",
            "9",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((a.seed, a.trace), (9, true));
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = obs::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|x| x.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|x| x.as_str())
                            .unwrap_or_default()
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let owned = |l: Vec<(String, &str)>| {
            l.into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(listed("end_to_end"), owned(metric_list(false)));
        assert_eq!(listed("per_layer"), owned(metric_list(true)));
        let names: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, workloads::NAMES);
    }
}
