//! Deterministic counters and modelled results read from engines through
//! their public accessors.

use fleetio::Colocation;
use fleetio_des::SimDuration;
use fleetio_vssd::engine::Engine;
use fleetio_workloads::WorkloadCategory;

use crate::measure::{Digest, Job};

/// Seed of the policy weights the `train` and `fleet` workloads start
/// from. Fixed, so that the workload seed varies traffic, placement and
/// sampling but not the weights, whose harvesting habits set how much
/// work a window does.
pub const POLICY_SEED: u64 = 0x5151;

/// Adds the DES and flash work counters of `engines` to `job`; their
/// DES events count as the job's.
pub fn engine_counters<'a>(job: &mut Job, engines: impl IntoIterator<Item = &'a Engine>) {
    let (mut events, mut nand, mut erases, mut gc, mut host_w, mut flash_w) = (0u64, 0, 0, 0, 0, 0);
    for e in engines {
        let s = e.device().stats();
        events += e.events_processed();
        nand += s.nand_ops;
        erases += s.erases;
        gc += s.gc_runs;
        host_w += s.host_write_bytes;
        flash_w += s.flash_write_bytes;
    }
    job.events = events as f64;
    job.sample("flash.nand_ops", nand as f64);
    job.sample("flash.erases", erases as f64);
    job.sample("flash.gc_runs", gc as f64);
    let waf = if host_w == 0 {
        1.0
    } else {
        flash_w as f64 / host_w as f64
    };
    job.sample("flash.waf", waf);
}

/// The modelled results of colocations since construction: requests
/// completed, mean P99 of the latency-sensitive tenants, mean bandwidth
/// of the bandwidth-intensive ones, and device utilization against the
/// theoretical peak. Also folds each tenant's cumulative totals into
/// `digest`.
pub fn colocation_outputs(job: &mut Job, colocs: &[&Colocation], digest: &mut Digest) {
    let (mut lc, mut bi) = (Vec::new(), Vec::new());
    let (mut requests, mut bytes, mut capacity) = (0u64, 0u64, 0.0);
    for coloc in colocs {
        let engine = coloc.engine();
        let secs = engine.now().as_nanos() as f64 / 1e9;
        capacity += secs * engine.config().flash.device_peak_bytes_per_sec();
        for id in coloc.tenant_ids() {
            let cum = engine.cumulative(id);
            let p99 = cum
                .latency
                .percentile(99.0)
                .unwrap_or(SimDuration::ZERO)
                .as_nanos();
            digest.u64(cum.requests);
            digest.u64(cum.bytes);
            digest.u64(p99);
            requests += cum.requests;
            bytes += cum.bytes;
            match coloc.kind_of(id).category() {
                WorkloadCategory::LatencySensitive => lc.push(p99 as f64 / 1e6),
                WorkloadCategory::BandwidthIntensive => bi.push(cum.bytes as f64 / secs / 1e6),
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    job.sample("workloads.requests", requests as f64);
    job.sample("sim.lc_p99_ms", mean(&lc));
    job.sample("sim.bi_mb_s", mean(&bi));
    job.sample("sim.util", bytes as f64 / capacity);
}
