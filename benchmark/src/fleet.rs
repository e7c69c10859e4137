//! `fleet`: the hotspot-consolidation fleet — 64 vSSDs on 16 shard
//! engines advanced by two workers, with migrations, batched policy
//! inference and SLO accounting at every window merge.

use fleetio_fleet::{default_model, FleetRuntime, FleetSpec};
use fleetio_obs::prof;

use crate::measure::{timed, Checks, Digest, Job, Phase};
use crate::sim::POLICY_SEED;
use crate::trace::Profile;

/// Shard-advancing worker threads.
pub const WORKERS: usize = 2;

/// Builds the fleet and runs `windows` decision windows. With `trace`
/// set, each window's spans are taken separately so the shard advance's
/// parallel efficiency and join wait are measured per window.
pub fn job(seed: u64, windows: u32, checks: &mut Checks, mut trace: Option<&mut Profile>) -> Job {
    let mut spec = FleetSpec::hotspot(seed);
    spec.windows = windows;
    let mut job = Job::default();

    let setup = Phase::start();
    let setup_span = prof::span("bench:setup");
    let (mut rt, _) = timed("fleet:new", || {
        FleetRuntime::new(&spec, default_model(POLICY_SEED), WORKERS)
    });
    drop(setup_span);
    job.setup_s = setup.stop().0;

    let mut digest = Digest::default();
    let mut spreads = Vec::new();
    let (mut ops, mut events) = (0u64, 0u64);
    let phase = Phase::start();
    let job_span = prof::span("bench:job");
    for _ in 0..windows {
        let (report, ms) = timed("fleet:run_window", || rt.run_window());
        job.window_ms.push(ms);
        job.sample("fleet.run_window_ms", ms);
        if let Some(profile) = trace.as_deref_mut() {
            window_spans(&mut job, &profile.take());
        }
        spreads.push(report.util_spread());
        ops += report.total_ops;
        events = report.events_processed;
        for u in &report.shard_utils {
            digest.f64(*u);
        }
        digest.u64(report.total_ops);
        digest.u64(report.total_bytes);
        digest.u64(report.events_processed);
    }
    drop(job_span);
    (job.wall_s, job.cpu_s) = phase.stop();

    let migrations = rt.migration_log();
    checks.check(!migrations.is_empty(), || {
        "fleet: no tenant migrated".to_string()
    });
    let (first, last) = (spreads[0], spreads[spreads.len() - 1]);
    checks.check(last < first, || {
        format!("fleet: util spread did not shrink ({first:.3} -> {last:.3})")
    });
    for m in migrations {
        for v in [
            m.window,
            m.tenant,
            m.from.shard,
            m.from.slot,
            m.to.shard,
            m.to.slot,
        ] {
            digest.u64(u64::from(v));
        }
    }
    let (mut observed, mut violations) = (0u32, 0u32);
    for t in 0..spec.tenants.len() as u32 {
        if let Some(tracker) = rt.slo_tracker(t) {
            observed += tracker.observed();
            violations += tracker.violations();
        }
    }
    digest.u64(u64::from(violations));

    job.sim_s = f64::from(spec.shards * windows) * spec.window.as_secs_f64();
    job.ops = ops as f64;
    job.events = events as f64;
    job.sample("workloads.requests", ops as f64);
    job.sample("fleet.migrations", migrations.len() as f64);
    job.sample(
        "sim.slo_attainment_pct",
        100.0 * f64::from(observed - violations) / f64::from(observed.max(1)),
    );
    job.sample("sim.util_spread_last", last);
    job.digest = digest.finish();
    job
}

/// Per-window shard-advance figures from one window's spans. The
/// advance's wall time is `fleet.window`'s self time (its only child on
/// the calling thread is the merge; shard spans run on the workers).
fn window_spans(job: &mut Job, w: &Profile) {
    let shard = w.named("fleet.shard");
    let advance_ns = w.named("fleet.window").self_ns() as f64;
    // A worker flushes its spans as it exits; a window whose spans
    // straddle two reports is left out of the per-window figures.
    if shard.calls != WORKERS as u64 || advance_ns <= 0.0 {
        return;
    }
    let busy = shard.total_ns as f64;
    let capacity = WORKERS as f64 * advance_ns;
    job.sample("fleet.shard_busy_ms", busy / 1e6);
    job.sample("fleet.parallel_eff", busy / capacity);
    job.sample(
        "fleet.worker_imbalance",
        shard.max_ns as f64 / (busy / WORKERS as f64),
    );
    job.sample("fleet.join_wait_ms", (capacity - busy).max(0.0) / 1e6);
    job.sample(
        "fleet.merge_ms",
        w.named("fleet.merge").total_ns as f64 / 1e6,
    );
}
