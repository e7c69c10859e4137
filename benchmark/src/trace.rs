//! The traced pass: `obs::prof` span reports summed across a job, and
//! the roll-up of span self time and allocations into the crates' layers.

use std::collections::BTreeMap;

use fleetio_obs::prof::{self, SpanStats};

/// Span statistics summed over several profiler reports, keyed by
/// root-to-span name path.
#[derive(Debug, Default)]
pub struct Profile {
    spans: BTreeMap<Vec<String>, SpanStats>,
}

impl Profile {
    /// Takes the profiler's report (flushing the calling thread) and adds
    /// it; returns that report's own spans for per-window analysis.
    pub fn take(&mut self) -> Profile {
        let mut window = Profile::default();
        for s in prof::take_report().spans {
            add(self.spans.entry(s.path.clone()).or_default(), &s.stats);
            add(window.spans.entry(s.path).or_default(), &s.stats);
        }
        window
    }

    /// The spans of the measured phase: the `bench:job` tree and the
    /// worker threads' roots, without set-up and calls made outside it.
    pub fn measured(&self) -> Profile {
        let spans = self
            .spans
            .iter()
            .filter(|(path, _)| path[0] == "bench:job" || !path[0].contains(':'))
            .map(|(p, s)| (p.clone(), *s))
            .collect();
        Profile { spans }
    }

    /// Summed statistics of every span named `name`, at any depth.
    pub fn named(&self, name: &str) -> SpanStats {
        let mut out = SpanStats::default();
        for (path, stats) in &self.spans {
            if path.last().is_some_and(|n| n == name) {
                add(&mut out, stats);
            }
        }
        out
    }

    /// Self time (ns) and self allocations per layer. A span's self
    /// allocations are its inclusive count minus its direct children's.
    /// The self time of a span that waits on worker threads is waiting,
    /// not work, and is left out (see `WAIT_SPANS`).
    pub fn layers(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_allocs: BTreeMap<&[String], u64> = BTreeMap::new();
        for (path, stats) in &self.spans {
            if let Some((_, parent)) = path.split_last() {
                if !parent.is_empty() {
                    *child_allocs.entry(parent).or_default() += stats.alloc_count;
                }
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (path, stats) in &self.spans {
            let name = path.last().map_or("", String::as_str);
            let entry = out.entry(layer_of(name)).or_default();
            if !WAIT_SPANS.contains(&name) {
                entry.0 += stats.self_ns();
            }
            let children = child_allocs.get(path.as_slice()).copied().unwrap_or(0);
            entry.1 += stats.alloc_count.saturating_sub(children);
        }
        out
    }

    /// Allocations made inside root spans, i.e. by every thread's
    /// profiled work.
    pub fn total_allocs(&self) -> u64 {
        self.spans
            .iter()
            .filter(|(path, _)| path.len() == 1)
            .map(|(_, s)| s.alloc_count)
            .sum()
    }
}

fn add(into: &mut SpanStats, s: &SpanStats) {
    if s.calls > 0 {
        into.min_ns = if into.calls == 0 {
            s.min_ns
        } else {
            into.min_ns.min(s.min_ns)
        };
        into.max_ns = into.max_ns.max(s.max_ns);
    }
    into.calls += s.calls;
    into.total_ns += s.total_ns;
    into.child_ns += s.child_ns;
    into.alloc_count += s.alloc_count;
    into.alloc_bytes += s.alloc_bytes;
}

/// The crate a span's time belongs to. Benchmark-side spans are named
/// `<crate>:<call>`; the program's own spans keep their names.
fn layer_of(name: &str) -> &'static str {
    if let Some((layer, _)) = name.split_once(':') {
        return LAYERS
            .iter()
            .copied()
            .find(|l| *l == layer)
            .unwrap_or("bench");
    }
    match name.split('.').next().unwrap_or("") {
        "flash" => "flash",
        "engine" => "vssd",
        "rollout" => "rl",
        "ppo" if name == "ppo.minibatch" => "ml",
        "ppo" => "rl",
        "fleet" => "fleet",
        _ => "bench",
    }
}

/// Spans whose work runs on worker threads while the calling thread
/// waits for them: their self time is reported as wait
/// (`fleet.join_wait_ms`, `rl.collect_parallel_eff`), not as work.
const WAIT_SPANS: [&str; 2] = ["rl:collect_parallel_envs", "fleet.window"];

/// Layers whose self time and allocations are reported, plus `bench`
/// for the benchmark's own glue between calls.
const LAYERS: [&str; 8] = [
    "flash", "vssd", "fleetio", "rl", "ml", "fleet", "store", "bench",
];
