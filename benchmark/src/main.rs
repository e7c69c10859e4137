//! The FleetIO benchmark: four user workloads driven through the crates'
//! public entry points, an untraced pass for end-to-end metrics and a
//! traced pass for per-layer metrics. See `README.md` next to this
//! package for the workloads, the metrics and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload colo --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod colo;
mod fleet;
mod measure;
mod record;
mod sim;
mod trace;
mod train;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use fleetio_des::rng::derive_seed_indexed;
use fleetio_obs::prof::{self, alloc::CountingAllocator};

use measure::{median, percentile, Checks, Job};
use trace::Profile;

/// Whether allocations are being counted (traced jobs only).
static COUNTING: AtomicBool = AtomicBool::new(false);

/// The process allocator: the system allocator, routed through the
/// profiler's counting allocator while a traced job runs, so untraced
/// jobs pay one relaxed load per allocation.
struct BenchAlloc;

// SAFETY: both branches delegate to `System` (`CountingAllocator` only
// bumps thread-local counters before calling it), so every block is a
// `System` block whichever branch allocated it, and may be freed or
// reallocated through `System` at any time.
unsafe impl GlobalAlloc for BenchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAllocator.alloc(layout)
        } else {
            System.alloc(layout)
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAllocator.realloc(ptr, layout, new_size)
        } else {
            System.realloc(ptr, layout, new_size)
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            CountingAllocator.alloc_zeroed(layout)
        } else {
            System.alloc_zeroed(layout)
        }
    }
}

#[global_allocator]
static ALLOC: BenchAlloc = BenchAlloc;

/// End-to-end metrics: name, unit. Every workload reports every one.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sim_s_per_host_s", "s/s"),
    ("window_ms_p50", "ms"),
    ("window_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("job_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name, unit. Layers off a workload's path read 0.
const PER_LAYER: [(&str, &str); 65] = [
    ("des.events", "count"),
    ("des.host_ns_per_event", "ns"),
    ("flash.nand_ops", "count"),
    ("flash.erases", "count"),
    ("flash.gc_runs", "count"),
    ("flash.waf", "ratio"),
    ("flash.self_ms", "ms"),
    ("flash.allocs", "count"),
    ("vssd.run_until_calls", "count"),
    ("vssd.events_per_run_until", "ratio"),
    ("vssd.self_ms", "ms"),
    ("vssd.finish_window_ms", "ms"),
    ("vssd.allocs", "count"),
    ("workloads.requests", "count"),
    ("fleetio.run_window_ms", "ms"),
    ("fleetio.driver_self_ms", "ms"),
    ("fleetio.policy_ms", "ms"),
    ("fleetio.warm_up_s", "s"),
    ("fleetio.allocs", "count"),
    ("rl.collect_ms", "ms"),
    ("rl.update_ms", "ms"),
    ("rl.update_share", "ratio"),
    ("rl.collect_parallel_eff", "ratio"),
    ("rl.transitions", "count"),
    ("rl.self_ms", "ms"),
    ("rl.allocs", "count"),
    ("ml.minibatch_us", "us"),
    ("ml.self_ms", "ms"),
    ("ml.allocs", "count"),
    ("fleet.run_window_ms", "ms"),
    ("fleet.shard_busy_ms", "ms"),
    ("fleet.parallel_eff", "ratio"),
    ("fleet.worker_imbalance", "ratio"),
    ("fleet.join_wait_ms", "ms"),
    ("fleet.merge_ms", "ms"),
    ("fleet.migrations", "count"),
    ("fleet.self_ms", "ms"),
    ("fleet.allocs", "count"),
    ("obs.events_recorded", "count"),
    ("obs.record_overhead", "ratio"),
    ("store.segments", "count"),
    ("store.bytes_per_event", "B"),
    ("store.write_ms", "ms"),
    ("store.record_events_per_s", "1/s"),
    ("store.write_wait_share", "ratio"),
    ("store.verify_ms", "ms"),
    ("store.decode_events_per_s", "1/s"),
    ("store.query_scan_ratio", "ratio"),
    ("store.diff_ms", "ms"),
    ("store.readback_events_per_s", "1/s"),
    ("store.self_ms", "ms"),
    ("store.allocs", "count"),
    ("alloc.per_sim_event", "ratio"),
    ("alloc.per_transition", "ratio"),
    ("alloc.per_window", "ratio"),
    ("alloc.per_recorded_event", "ratio"),
    ("sim.lc_p99_ms", "sim_ms"),
    ("sim.bi_mb_s", "MB/s"),
    ("sim.util", "ratio"),
    ("sim.slo_attainment_pct", "%"),
    ("sim.util_spread_last", "ratio"),
    ("sim.digest", "hash"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("host.threads", "count"),
];

/// Per-layer metrics that are counts or modelled results: they repeat
/// exactly across jobs of one seed.
const COUNTERS: [&str; 17] = [
    "flash.nand_ops",
    "flash.erases",
    "flash.gc_runs",
    "flash.waf",
    "workloads.requests",
    "rl.transitions",
    "fleet.migrations",
    "obs.events_recorded",
    "store.segments",
    "store.bytes_per_event",
    "store.query_scan_ratio",
    "sim.lc_p99_ms",
    "sim.bi_mb_s",
    "sim.util",
    "sim.slo_attainment_pct",
    "sim.util_spread_last",
    "sim.digest",
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["colo", "train", "fleet", "record"];

/// The percentile `window_ms_tail` reports: the highest that leaves at
/// least ten windows beyond it in a run of the benchmark's length. It is
/// fixed per workload so that runs with one job more or less report the
/// same percentile.
fn tail_percentile(workload: &str) -> f64 {
    match workload {
        "train" => 95.0,
        _ => 90.0,
    }
}

/// How many inputs a run cycles through, each derived from `--seed`.
/// The host cost of a job depends on its input (address streams set
/// cache locality), so a run that averages several inputs moves less
/// from seed to seed; each input still repeats at least once per run.
fn inputs_per_run(workload: &str) -> u64 {
    match workload {
        "colo" => 3,
        "train" => 2,
        _ => 4,
    }
}

/// How much fixed work one job of each workload does.
#[derive(Debug, Clone, Copy)]
struct Scale {
    colo_windows: usize,
    train_iterations: usize,
    train_horizon: usize,
    fleet_windows: u32,
    record_windows: u32,
}

impl Scale {
    /// The benchmark's scale.
    const FULL: Scale = Scale {
        colo_windows: 40,
        train_iterations: 3,
        train_horizon: 24,
        fleet_windows: 12,
        record_windows: 8,
    };

    /// The smallest scale that still passes every output check.
    #[cfg(test)]
    const TINY: Scale = Scale {
        colo_windows: 2,
        train_iterations: 1,
        train_horizon: 2,
        fleet_windows: 8,
        record_windows: 2,
    };
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::FULL,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {}",
            args.seconds
        ));
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Where the record workload writes its stores: under the build
/// directory, inside the checkout.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join(format!("bench-scratch-{}", std::process::id()))
}

/// One run's outcome: the checks and every metric with its unit.
struct Outcome {
    checks: Checks,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Runs jobs of one workload until `seconds` have passed (at least one;
/// with tracing, untraced and traced jobs alternate and at least one of
/// each runs), then derives the pass's metrics.
fn run(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let scratch = scratch_dir();
    let inputs = inputs_per_run(&args.workload);
    // (input index, job) in run order, per pass.
    let mut untraced: Vec<(u64, Job)> = Vec::new();
    let mut traced: Vec<(u64, Job)> = Vec::new();
    let mut profile = Profile::default();
    let start = Instant::now();
    loop {
        let traced_job = args.trace && untraced.len() > traced.len();
        // A traced job repeats the input of the untraced job before it,
        // so tracing is checked not to change what is simulated.
        let input = (untraced.len() - usize::from(traced_job)) as u64 % inputs;
        let seed = derive_seed_indexed(args.seed, "benchmark-input", input);
        if traced_job {
            prof::reset();
            COUNTING.store(true, Ordering::Relaxed);
            prof::enable();
        }
        let trace_acc = traced_job.then_some(&mut profile);
        let job = run_job(args, seed, &scratch, &mut checks, trace_acc);
        if traced_job {
            prof::disable();
            COUNTING.store(false, Ordering::Relaxed);
            profile.take();
            traced.push((input, job));
        } else {
            untraced.push((input, job));
        }
        let done = start.elapsed().as_secs_f64() >= args.seconds;
        if done && (!args.trace || !traced.is_empty()) {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // Jobs of one input simulate the same thing: their digests and
    // deterministic counters must repeat exactly.
    let all: Vec<&(u64, Job)> = untraced.iter().chain(&traced).collect();
    for (i, (input, job)) in all.iter().enumerate() {
        if let Some((j, (_, earlier))) = all[..i].iter().enumerate().find(|(_, e)| e.0 == *input) {
            checks.check(counters(job) == counters(earlier), || {
                format!(
                    "{}: job {i} counters {:?} differ from job {j}'s {:?}",
                    args.workload,
                    counters(job),
                    counters(earlier)
                )
            });
        }
    }
    let untraced: Vec<Job> = untraced.into_iter().map(|(_, j)| j).collect();
    let traced: Vec<Job> = traced.into_iter().map(|(_, j)| j).collect();
    println!(
        "deterministic counters of the first input (seed {}):",
        args.seed
    );
    for (name, value) in counters(&untraced[0]) {
        println!("  {name:<26} {value}");
    }
    let metrics = if args.trace {
        per_layer(&untraced, &traced, &profile)
    } else {
        end_to_end(args, &untraced)
    };
    Outcome { checks, metrics }
}

fn run_job(
    args: &Args,
    seed: u64,
    scratch: &std::path::Path,
    checks: &mut Checks,
    trace: Option<&mut Profile>,
) -> Job {
    let s = args.scale;
    match args.workload.as_str() {
        "colo" => colo::job(seed, s.colo_windows, checks),
        "train" => train::job(seed, s.train_iterations, s.train_horizon, checks),
        "fleet" => fleet::job(seed, s.fleet_windows, checks, trace),
        "record" => record::job(seed, s.record_windows, scratch, checks),
        other => unreachable!("workload {other:?} passed argument checks"),
    }
}

/// A job's deterministic counters, by name.
fn counters(job: &Job) -> Vec<(&'static str, f64)> {
    let mut out = vec![("des.events", job.events)];
    for name in COUNTERS {
        let value = match name {
            "sim.digest" => digest_value(job.digest),
            _ => job.samples.get(name).map_or(0.0, |v| median(v)),
        };
        out.push((name, value));
    }
    out
}

/// The digest as a JSON-exact number (its low 52 bits).
fn digest_value(digest: u64) -> f64 {
    (digest & ((1 << 52) - 1)) as f64
}

fn per_job(jobs: &[Job], f: impl Fn(&Job) -> f64) -> f64 {
    median(&jobs.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(args: &Args, jobs: &[Job]) -> Vec<(&'static str, f64, &'static str)> {
    // Whole cycles of the inputs only, so that every run weighs its
    // inputs equally: window times spread widely within a job, and one
    // extra job of one input moves the pooled median.
    let inputs = inputs_per_run(&args.workload) as usize;
    let jobs = if jobs.len() < inputs {
        jobs
    } else {
        &jobs[..jobs.len() - jobs.len() % inputs]
    };
    let windows: Vec<f64> = jobs.iter().flat_map(|j| j.window_ms.clone()).collect();
    let tail = tail_percentile(&args.workload);
    let beyond = (windows.len() as f64 * (1.0 - tail / 100.0)).floor();
    println!(
        "windows: {} samples over {} jobs; window_ms_tail is p{tail}, {beyond} windows beyond it",
        windows.len(),
        jobs.len()
    );
    let values = [
        per_job(jobs, |j| j.setup_s),
        per_job(jobs, |j| j.sim_s / j.wall_s),
        median(&windows),
        percentile(&windows, tail),
        per_job(jobs, |j| j.ops / j.wall_s),
        per_job(jobs, |j| j.wall_s),
        per_job(jobs, |j| j.cpu_s),
        measure::peak_rss_mb(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn per_layer(
    untraced: &[Job],
    traced: &[Job],
    profile: &Profile,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    // Samples from untraced jobs where they have them: timed calls then
    // carry no tracing cost. Trace-only figures come from traced jobs.
    for (name, _) in PER_LAYER {
        let pooled = |jobs: &[Job]| -> Vec<f64> {
            jobs.iter()
                .flat_map(|j| j.samples.get(name).cloned().unwrap_or_default())
                .collect()
        };
        let mut samples = pooled(untraced);
        if samples.is_empty() {
            samples = pooled(traced);
        }
        values.insert(name, median(&samples));
    }

    let measured = profile.measured();
    let n = traced.len() as f64;
    let events = traced.iter().map(|j| j.events).sum::<f64>();
    // Counts and modelled results of the first input, which repeat
    // exactly from run to run of one seed.
    values.extend(counters(&untraced[0]));
    let run_until = measured.named("engine.run_until");
    values.insert(
        "des.host_ns_per_event",
        run_until.total_ns as f64 / events.max(1.0),
    );
    values.insert("vssd.run_until_calls", run_until.calls as f64 / n);
    values.insert(
        "vssd.events_per_run_until",
        events / (run_until.calls as f64).max(1.0),
    );
    values.insert(
        "vssd.finish_window_ms",
        measured.named("engine.finish_window").total_ns as f64 / n / 1e6,
    );
    let layers = measured.layers();
    for (layer, (self_ns, allocs)) in &layers {
        if let Some(name) = listed(&format!("{layer}.self_ms")) {
            values.insert(name, *self_ns as f64 / n / 1e6);
        }
        if let Some(name) = listed(&format!("{layer}.allocs")) {
            values.insert(name, *allocs as f64 / n);
        }
    }
    // The driver's self time is the fleetio layer's: benchmark spans
    // around `fleetio` calls, less the engine spans inside them.
    let layer_ns = |l: &str| layers.get(l).map_or(0.0, |v| v.0 as f64);
    values.insert("fleetio.driver_self_ms", layer_ns("fleetio") / n / 1e6);
    let minibatch = measured.named("ppo.minibatch");
    values.insert(
        "ml.minibatch_us",
        ratio(minibatch.total_ns as f64, minibatch.calls as f64) / 1e3,
    );
    // Worker threads per parallel phase, and the share of those threads'
    // time inside the phase spent working.
    let workers = measured.named("rollout.worker");
    let collect = measured.named("rl:collect_parallel_envs");
    let per_collect = ratio(workers.calls as f64, collect.calls as f64);
    values.insert(
        "rl.collect_parallel_eff",
        ratio(
            workers.total_ns as f64,
            per_collect * collect.total_ns as f64,
        ),
    );
    let shards = measured.named("fleet.shard");
    let per_window = ratio(
        shards.calls as f64,
        measured.named("fleet.window").calls as f64,
    );
    values.insert("host.threads", 1.0 + per_collect.max(per_window));

    let allocs = measured.total_allocs() as f64;
    let sum = |f: fn(&Job) -> f64| traced.iter().map(f).sum::<f64>();
    let transitions = sum(|j| j.samples.get("rl.transitions").map_or(0.0, |v| v[0]));
    let windows = sum(|j| j.window_ms.len() as f64);
    let recorded = sum(|j| j.samples.get("recorded_events").map_or(0.0, |v| v[0]));
    values.insert("alloc.per_sim_event", ratio(allocs, events));
    values.insert("alloc.per_transition", ratio(allocs, transitions));
    values.insert("alloc.per_window", ratio(allocs, windows));
    values.insert("alloc.per_recorded_event", ratio(allocs, recorded));

    // Each traced job repeats the input of the untraced job before it.
    let overheads: Vec<f64> = traced
        .iter()
        .zip(untraced)
        .map(|(t, u)| t.wall_s / u.wall_s)
        .collect();
    values.insert("trace.overhead", median(&overheads));
    let traced_wall_ns = sum(|j| j.wall_s) * 1e9;
    values.insert(
        "trace.unattributed_share",
        layer_ns("bench") / traced_wall_ns,
    );

    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// The per-layer metric called `name`, if there is one.
fn listed(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|(m, _)| *m).find(|m| *m == name)
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Renders a float so that it parses back to the same value; JSON has
/// no non-finite numbers, so those become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn render(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted,
        outcome.checks.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetio-benchmark: {e}");
            eprintln!(
                "usage: fleetio-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    measure::pin_mmap_threshold();
    let outcome = run(&args);
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!("{}", render(&outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_obs::json::{self, Value};

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        let field = |m: &Value, k: &str| {
            let obj = m.as_object().expect("metric is an object");
            obj[k].as_str().expect("string field").to_string()
        };
        doc.as_object().expect("BENCHMARK.json is an object")[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn declared_metrics_match_the_reported_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), pairs(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<&str> = doc.as_object().expect("object")["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| {
                w.as_object().expect("workload")["name"]
                    .as_str()
                    .expect("name")
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// Every workload at tiny scale, untraced and traced: its checks pass
    /// and its last output line carries every metric, finite.
    #[test]
    fn every_workload_reports_every_metric_in_both_passes() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    scale: Scale::TINY,
                };
                let outcome = run(&args);
                let what = format!("{workload} trace={trace}");
                assert!(outcome.checks.attempted > 0, "{what}: nothing checked");
                assert_eq!(outcome.checks.failed, 0, "{what}: checks failed");
                let line = json::parse(&render(&outcome)).expect("result line parses");
                let obj = line.as_object().expect("result is an object");
                let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                let metrics = obj["metrics"].as_object().expect("metrics object");
                let expected = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                assert_eq!(metrics.len(), expected.len(), "{what}");
                for (name, unit) in expected {
                    let m = metrics[*name].as_object().expect("metric object");
                    let value = m["value"].as_f64().unwrap_or(f64::NAN);
                    assert!(value.is_finite(), "{what}: {name} = {value}");
                    assert_eq!(m["unit"].as_str(), Some(*unit), "{what}: {name}");
                    if !trace {
                        assert!(value > 0.0, "{what}: {name} reads {value}");
                    }
                }
            }
        }
    }
}
