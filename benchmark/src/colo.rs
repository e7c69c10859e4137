//! `colo`: Figure 16's mixed layout on one paper-default engine, driven
//! window by window under the scripted heuristic policy.

use fleetio::baselines::{HeuristicPolicy, WindowPolicy};
use fleetio::experiment::mixed_layout;
use fleetio::{Colocation, FleetIoConfig};
use fleetio_des::SimDuration;
use fleetio_obs::prof;
use fleetio_workloads::WorkloadKind::{MlPrep, TeraSort, VdiWeb, Ycsb};

use crate::measure::{timed, Checks, Digest, Job, Phase};
use crate::sim;

/// Pre-fill fraction of every vSSD before the first window.
const WARM_FRACTION: f64 = 0.7;

/// Builds the engine, runs `windows` decision windows and checks that
/// every tenant completes I/O in every window.
pub fn job(seed: u64, windows: usize, checks: &mut Checks) -> Job {
    let cfg = FleetIoConfig::default();
    let slo = SimDuration::from_millis(2);
    let tenants = mixed_layout(
        &cfg,
        &[VdiWeb, Ycsb],
        4,
        &[TeraSort, MlPrep],
        &[Some(slo), Some(slo)],
        seed,
    );
    let shares: Vec<_> = tenants.iter().map(|t| (4, t.kind)).collect();
    let mut job = Job::default();

    let setup = Phase::start();
    let setup_span = prof::span("bench:setup");
    let ((mut coloc, mut policy), _) = timed("fleetio:new", || {
        (
            Colocation::new(cfg.engine.clone(), tenants, cfg.decision_interval),
            HeuristicPolicy::new(cfg.clone(), &shares),
        )
    });
    let ((), warm_ms) = timed("fleetio:warm_up", || coloc.warm_up(WARM_FRACTION));
    drop(setup_span);
    job.setup_s = setup.stop().0;
    job.sample("fleetio.warm_up_s", warm_ms / 1e3);

    let mut digest = Digest::default();
    let mut ops = 0u64;
    let phase = Phase::start();
    let job_span = prof::span("bench:job");
    for w in 0..windows {
        let (summaries, run_ms) = timed("fleetio:run_window", || coloc.run_window());
        let ((), policy_ms) = timed("fleetio:on_window", || {
            policy.on_window(&mut coloc, &summaries)
        });
        job.window_ms.push(run_ms + policy_ms);
        job.sample("fleetio.run_window_ms", run_ms);
        job.sample("fleetio.policy_ms", policy_ms);
        for (id, s) in &summaries {
            checks.check(s.total_ops > 0, || {
                format!("colo: tenant {id} completed no I/O in window {w}")
            });
            ops += s.total_ops;
            digest.u64(s.total_ops);
            digest.u64(s.total_bytes);
            digest.u64(s.p99_latency.as_nanos());
        }
    }
    drop(job_span);
    (job.wall_s, job.cpu_s) = phase.stop();

    job.sim_s = windows as f64 * cfg.decision_interval.as_secs_f64();
    job.ops = ops as f64;
    sim::engine_counters(&mut job, [coloc.engine()]);
    sim::colocation_outputs(&mut job, &[&coloc], &mut digest);
    job.digest = digest.finish();
    job
}
