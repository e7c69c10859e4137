//! `record`: the demo run recorded twice into run stores with the same
//! seed, then read back — open, verify, decode, a one-tenant time-range
//! query, one query per decision window, and a diff of the two
//! recordings.

use std::path::Path;

use fleetio::RunSpec;
use fleetio_obs::prof;
use fleetio_store::{
    diff_stores, query, record_run, DiffOutcome, EventFilter, RunStore, DEFAULT_SEGMENT_BYTES,
};

use crate::measure::{timed, Checks, Digest, Job, Phase};
use crate::sim;

/// Replay anchors are written every this many windows, as a recording
/// meant for time travel would.
const CHECKPOINT_EVERY: u32 = 4;

/// The tenant the read-back query selects (the YCSB vSSD).
const QUERY_TENANT: u32 = 0;

/// Runs the spec once unrecorded (its set-up is the job's set-up time
/// and its wall the base of `obs.record_overhead`), records it twice
/// under `scratch`, and reads the recordings back; the read-back is the
/// measured phase.
pub fn job(seed: u64, windows: u32, scratch: &Path, checks: &mut Checks) -> Job {
    let spec = RunSpec::demo(seed, windows, CHECKPOINT_EVERY);
    let mut job = Job::default();
    let mut digest = Digest::default();

    let setup = Phase::start();
    let setup_span = prof::span("bench:setup");
    let (mut coloc, _) = timed("fleetio:new", || spec.build());
    let ((), warm_ms) = timed("fleetio:warm_up", || coloc.warm_up(spec.warm_fraction));
    drop(setup_span);
    job.setup_s = setup.stop().0;
    job.sample("fleetio.warm_up_s", warm_ms / 1e3);
    let unrecorded = Phase::start();
    for _ in 0..windows {
        let (_, ms) = timed("fleetio:run_window", || coloc.run_window());
        job.sample("fleetio.run_window_ms", ms);
    }
    let unrecorded_s = job.setup_s + unrecorded.stop().0;
    sim::engine_counters(&mut job, [coloc.engine()]);
    sim::colocation_outputs(&mut job, &[&coloc], &mut digest);
    drop(coloc);

    let dirs = [scratch.join("a"), scratch.join("b")];
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    // Recording's wall time is mostly per-segment fsync, whose latency on
    // a shared virtual disk drifts between minutes; it is reported per
    // layer, and the measured phase is the read-back, which is CPU-bound.
    let job_span = prof::span("bench:job");
    let recording = Phase::start();
    let mut manifests = Vec::new();
    for dir in &dirs {
        let (report, ms) = timed("store:record_run", || {
            record_run(&spec, dir, DEFAULT_SEGMENT_BYTES)
        });
        manifests.push(report.expect("record the demo run").manifest);
        job.sample("store.write_ms", ms);
        job.sample("obs.record_overhead", ms / 1e3 / unrecorded_s);
    }
    let (record_wall, record_cpu) = recording.stop();

    let phase = Phase::start();
    let (a, _) = timed("store:open", || RunStore::open(&dirs[0]));
    let (b, _) = timed("store:open", || RunStore::open(&dirs[1]));
    let (a, b) = (a.expect("open recording a"), b.expect("open recording b"));
    let total = a.manifest().total_events;
    // Events that could match `filter`: those of the segments its
    // index check cannot skip.
    let scanned = |filter: &EventFilter| -> u64 {
        a.manifest()
            .segments
            .iter()
            .filter(|m| filter.may_match_segment(m))
            .map(|m| m.events)
            .sum()
    };

    let (verify, verify_ms) = timed("store:verify", || a.verify());
    checks.check(verify.clean(), || {
        format!("record: verify found damage: {verify:?}")
    });

    let (events, decode_ms) = timed("store:events", || a.events());
    let events = events.expect("decode recording a");
    checks.check(events.len() as u64 == total, || {
        format!("record: read back {} of {total} events", events.len())
    });
    // The one-tenant query below must equal a linear scan of the decoded
    // events; count it now so the events are freed before the diff.
    let window_ns = spec.window.as_nanos();
    let windows = u64::from(windows);
    let span_ns = windows * window_ns;
    let filter = EventFilter {
        tenant: Some(QUERY_TENANT),
        from_ns: Some(span_ns / 4),
        to_ns: Some(span_ns / 2),
        kind: None,
    };
    let linear = events.iter().filter(|e| filter.matches(e)).count();
    drop(events);

    // One time-range query per decision window: together they must
    // return every event exactly once. The last range is open-ended, as
    // the run's final window flushes land on its closing boundary.
    let mut processed = 2 * total;
    let mut per_window = 0;
    for w in 0..windows {
        let filter = EventFilter {
            from_ns: Some(w * window_ns),
            to_ns: (w + 1 < windows).then_some((w + 1) * window_ns),
            ..EventFilter::default()
        };
        let (selected, ms) = timed("store:query", || query(&a, &filter));
        per_window += selected.expect("query one window").events.len() as u64;
        processed += scanned(&filter);
        job.window_ms.push(ms);
    }
    checks.check(per_window == total, || {
        format!("record: window queries returned {per_window} of {total} events")
    });

    let (selected, _) = timed("store:query", || query(&a, &filter));
    let selected = selected.expect("query one tenant");
    processed += scanned(&filter);

    let (diff, diff_ms) = timed("store:diff", || diff_stores(&a, &b));
    processed += 2 * total;
    (job.wall_s, job.cpu_s) = phase.stop();
    drop(job_span);

    checks.check(selected.events.len() == linear, || {
        format!(
            "record: query returned {} events, a linear scan {linear}",
            selected.events.len()
        )
    });
    let identical = matches!(diff, Ok(DiffOutcome::Identical { events }) if events == total);
    checks.check(identical, || {
        format!("record: same-seed recordings differ: {diff:?}")
    });

    let recorded: u64 = manifests.iter().map(|m| m.total_events).sum();
    // The recordings replay the unrecorded run's simulation exactly (the
    // same-seed diff checks it), so the job processed its DES events once
    // per recording; the flash counters stay per run.
    job.events *= manifests.len() as f64;
    let manifest = &manifests[0];
    job.sim_s = windows as f64 * spec.window.as_secs_f64();
    job.ops = processed as f64;
    job.sample("recorded_events", recorded as f64);
    job.sample("store.record_events_per_s", recorded as f64 / record_wall);
    job.sample("store.write_wait_share", 1.0 - record_cpu / record_wall);
    job.sample("store.readback_events_per_s", processed as f64 / job.wall_s);
    job.sample("store.verify_ms", verify_ms);
    job.sample(
        "store.decode_events_per_s",
        total as f64 / (decode_ms / 1e3),
    );
    job.sample("store.diff_ms", diff_ms);
    job.sample(
        "store.query_scan_ratio",
        selected.segments_scanned as f64 / selected.segments_total.max(1) as f64,
    );
    job.sample("obs.events_recorded", manifest.total_events as f64);
    job.sample("store.segments", manifest.segments.len() as f64);
    let bytes: u64 = manifest.segments.iter().map(|s| s.bytes).sum();
    job.sample("store.bytes_per_event", bytes as f64 / total as f64);
    for m in &manifests {
        digest.u64(m.total_events);
        digest.u64(m.stream_fingerprint);
    }
    job.digest = digest.finish();
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    job
}
