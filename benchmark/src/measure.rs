//! Measurement plumbing shared by the workloads: the per-job record,
//! timed calls, output checks, order statistics and `/proc` readers.

use std::collections::BTreeMap;
use std::time::Instant;

use fleetio_obs::prof;

/// One repeat of a workload's fixed unit of work, built from a fresh
/// set-up. Every job of one seed does identical simulated work, so its
/// counters and digest must repeat exactly.
#[derive(Debug, Default)]
pub struct Job {
    /// Host seconds of construction plus warm-up fill.
    pub setup_s: f64,
    /// Host seconds of the measured phase (set-up excluded).
    pub wall_s: f64,
    /// User plus sys CPU seconds of the measured phase, all threads.
    pub cpu_s: f64,
    /// Host milliseconds per decision window.
    pub window_ms: Vec<f64>,
    /// Simulated engine-seconds covered by the measured phase (summed
    /// over engines).
    pub sim_s: f64,
    /// The workload's user-visible operations completed in the measured
    /// phase.
    pub ops: f64,
    /// DES events processed in the measured phase, all engines.
    pub events: f64,
    /// FNV-1a digest of the job's simulated outputs.
    pub digest: u64,
    /// Per-layer samples by metric name; a metric reports the median.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Job {
    /// Adds one sample of a per-layer metric.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// Ops attempted and failed: every output check is one op.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
}

impl Checks {
    /// Records one check; a failing one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Runs `f` inside the profiler span `name` and returns its result with
/// the host milliseconds it took. With profiling off the span costs one
/// relaxed load, so timed calls read the same in both passes.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = prof::span(name);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Wall and CPU clock of a phase.
pub struct Phase {
    t0: Instant,
    cpu0: f64,
}

impl Phase {
    /// Starts both clocks.
    pub fn start() -> Self {
        Phase {
            cpu0: process_cpu_s(),
            t0: Instant::now(),
        }
    }

    /// Host seconds and CPU seconds since [`Phase::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.t0.elapsed().as_secs_f64();
        (wall, process_cpu_s() - self.cpu0)
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linear-interpolated percentile of `v` (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// User plus sys CPU seconds of this process, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15; `rest` starts at field 3.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        // Linux reports these in USER_HZ, which is 100.
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pins glibc's mmap threshold at its 128 KiB default, so every block
/// above it is mapped on allocation and unmapped on free. Left alone,
/// glibc raises the threshold after the first large free and serves
/// later large blocks from the heap, whose high-water mark then follows
/// the order of the large frees rather than the live data: `record`'s
/// `VmHWM` read 53 to 73 MB across seeds whose jobs decode the same
/// number of events to within 2 %. A no-op off glibc.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only sets an allocator parameter; it is
        // called before any thread other than main exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// A streaming FNV-1a digest of simulated outputs.
#[derive(Debug, Default)]
pub struct Digest(fleetio_des::hash::Fnv64);

impl Digest {
    /// Absorbs an integer.
    pub fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    /// Absorbs a float bit-exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}
