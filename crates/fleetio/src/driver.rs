//! The collocation driver: workloads × vSSDs × engine, window by window.
//!
//! Latency-sensitive workloads replay open-loop (timed Poisson arrivals);
//! bandwidth-intensive workloads run closed-loop (a target number of
//! outstanding requests, §see `fleetio-workloads`). [`drive`] advances
//! the engine in small ticks so closed-loop sources are topped up promptly
//! after completions; it is the one tenant loop, shared by [`Colocation`]
//! and the fleet's shards. [`Colocation`] freezes per-vSSD window
//! summaries at each decision boundary.

use fleetio_des::window::WindowSummary;
use fleetio_des::{SimDuration, SimTime};
use fleetio_vssd::engine::{Engine, EngineConfig};
use fleetio_vssd::request::{IoOp, IoRequest};
use fleetio_vssd::vssd::{VssdConfig, VssdId};
use fleetio_workloads::gen::ClosedLoopWorkload;
use fleetio_workloads::{SyntheticWorkload, TraceRecord, WorkloadKind, WorkloadSpec};

/// One tenant of a collocation: a vSSD plus the workload running on it.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// The vSSD configuration (channels, isolation, SLO, throttling).
    pub config: VssdConfig,
    /// The workload to run.
    pub kind: WorkloadKind,
    /// Seed for the workload's random stream.
    pub seed: u64,
    /// The tenant's service-level objective (p95/p99 latency targets
    /// plus an optional throughput floor), evaluated per decision
    /// window by the fleet's SLO accounting. `None` exempts the tenant.
    /// Distinct from `config.slo`, the engine's per-request scheduling
    /// deadline.
    pub slo_spec: Option<fleetio_obs::SloSpec>,
}

impl TenantSpec {
    /// Convenience constructor (no window-level SLO).
    pub fn new(config: VssdConfig, kind: WorkloadKind, seed: u64) -> Self {
        TenantSpec {
            config,
            kind,
            seed,
            slo_spec: None,
        }
    }

    /// Attaches a window-level SLO.
    pub fn with_slo_spec(mut self, slo: fleetio_obs::SloSpec) -> Self {
        self.slo_spec = Some(slo);
        self
    }
}

/// Host tick: the driver submits open-loop arrivals and tops closed-loop
/// sources up every `TICK` of simulated time.
const TICK: SimDuration = SimDuration::from_millis(1);

/// Trace records kept per tenant; when full, the oldest half is dropped.
const TRACE_CAP: usize = 100_000;

#[derive(Debug)]
enum Source {
    Open(SyntheticWorkload),
    Closed {
        gen: ClosedLoopWorkload,
        outstanding: u32,
    },
}

impl Source {
    fn new(spec: WorkloadSpec, capacity: u64, seed: u64) -> Self {
        if spec.is_closed_loop() {
            Source::Closed {
                gen: ClosedLoopWorkload::new(spec, capacity, seed),
                outstanding: 0,
            }
        } else {
            Source::Open(SyntheticWorkload::new(spec, capacity, seed))
        }
    }

    /// Discards open-loop arrivals up to `now`, so the stream starts then.
    fn skip_to(&mut self, now: SimTime) {
        if let Source::Open(gen) = self {
            let _ = gen.requests_until(now);
        }
    }
}

/// One tenant's I/O feed into an engine: the vSSD it drives, the workload
/// generating its requests, and the trace of requests it has submitted.
/// [`drive`] advances an engine with a set of feeds.
#[derive(Debug)]
pub struct TenantFeed {
    vssd: VssdId,
    kind: WorkloadKind,
    source: Source,
    trace: Vec<TraceRecord>,
}

impl TenantFeed {
    /// A feed of `spec` (reported as `kind`) into `vssd`, whose logical
    /// capacity is `capacity` bytes. The open-loop clock starts at zero.
    pub fn new(
        vssd: VssdId,
        kind: WorkloadKind,
        spec: WorkloadSpec,
        capacity: u64,
        seed: u64,
    ) -> Self {
        TenantFeed {
            vssd,
            kind,
            source: Source::new(spec, capacity, seed),
            trace: Vec::new(),
        }
    }

    /// Starts the open-loop clock at `now` instead of zero.
    pub fn starting_at(mut self, now: SimTime) -> Self {
        self.source.skip_to(now);
        self
    }

    /// The workload kind the feed reports.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// The newest submitted requests, up to an internal cap.
    pub fn trace(&self) -> &[TraceRecord] {
        &self.trace
    }

    /// Consumes the feed, returning its trace.
    pub fn into_trace(self) -> Vec<TraceRecord> {
        self.trace
    }
}

fn to_request(vssd: VssdId, rec: TraceRecord) -> IoRequest {
    IoRequest {
        vssd,
        op: if rec.is_read { IoOp::Read } else { IoOp::Write },
        offset: rec.offset,
        len: rec.len,
        arrival: rec.at,
    }
}

fn push_trace(trace: &mut Vec<TraceRecord>, rec: TraceRecord) {
    if trace.len() >= TRACE_CAP {
        // Keep the newest half when full.
        trace.drain(..TRACE_CAP / 2);
    }
    trace.push(rec);
}

/// Advances `engine` to `end`, one host tick at a time, feeding it from
/// `feeds`: each tick submits open-loop arrivals up to the tick's end,
/// runs the engine there, credits completions back to closed-loop
/// sources, and tops those up to their phase concurrency. A completion on
/// a vSSD without a feed (a detached fleet slot draining) is ignored.
pub fn drive(engine: &mut Engine, feeds: &mut [&mut TenantFeed], end: SimTime) {
    while engine.now() < end {
        let t = (engine.now() + TICK).min(end);
        for feed in feeds.iter_mut() {
            if let Source::Open(gen) = &mut feed.source {
                for rec in gen.requests_until(t) {
                    push_trace(&mut feed.trace, rec);
                    engine.submit(to_request(feed.vssd, rec));
                }
            }
        }
        engine.run_until(t);
        for c in engine.drain_completed() {
            if let Some(feed) = feeds.iter_mut().find(|f| f.vssd == c.vssd) {
                if let Source::Closed { outstanding, .. } = &mut feed.source {
                    *outstanding = outstanding.saturating_sub(1);
                }
            }
        }
        let now = engine.now();
        for feed in feeds.iter_mut() {
            if let Source::Closed { gen, outstanding } = &mut feed.source {
                let target = gen.concurrency_at(now);
                while *outstanding < target {
                    let rec = gen.make_request(now);
                    push_trace(&mut feed.trace, rec);
                    engine.submit(to_request(feed.vssd, rec));
                    *outstanding += 1;
                }
            }
        }
    }
}

/// A running collocation experiment.
#[derive(Debug)]
pub struct Colocation {
    engine: Engine,
    tenants: Vec<TenantFeed>,
    window: SimDuration,
}

impl Colocation {
    /// Builds a collocation on an engine described by `engine_cfg`.
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations (see [`Engine::new`]).
    pub fn new(engine_cfg: EngineConfig, tenants: Vec<TenantSpec>, window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        let configs: Vec<VssdConfig> = tenants.iter().map(|t| t.config.clone()).collect();
        let engine = Engine::new(engine_cfg, configs);
        let tenants = tenants
            .into_iter()
            .map(|spec| {
                let id = spec.config.id;
                let capacity = engine.logical_capacity_bytes(id);
                TenantFeed::new(id, spec.kind, spec.kind.spec(), capacity, spec.seed)
            })
            .collect();
        Colocation {
            engine,
            tenants,
            window,
        }
    }

    /// The engine, for policies that act on it.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// The engine, read-only.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Installs an observability sink on the engine, returning the previous
    /// one. Every [`Colocation::run_window`] then streams the request
    /// lifecycle, NAND spans, GC/gSB activity and per-tenant window flushes
    /// into it; sinks never change simulation results.
    pub fn set_obs_sink(
        &mut self,
        sink: Box<dyn fleetio_obs::ObsSink>,
    ) -> Box<dyn fleetio_obs::ObsSink> {
        self.engine.set_obs_sink(sink)
    }

    /// Removes the engine's sink (restoring the no-op default) so its
    /// captured trace can be exported.
    pub fn take_obs_sink(&mut self) -> Box<dyn fleetio_obs::ObsSink> {
        self.engine.take_obs_sink()
    }

    /// Tenant ids in registration order.
    pub fn tenant_ids(&self) -> Vec<VssdId> {
        self.tenants.iter().map(|t| t.vssd).collect()
    }

    fn tenant_mut(&mut self, id: VssdId) -> &mut TenantFeed {
        self.tenants
            .iter_mut()
            .find(|t| t.vssd == id)
            .unwrap_or_else(|| panic!("unknown tenant {id}"))
    }

    fn tenant(&self, id: VssdId) -> &TenantFeed {
        self.tenants
            .iter()
            .find(|t| t.vssd == id)
            .unwrap_or_else(|| panic!("unknown tenant {id}"))
    }

    /// The workload kind running on `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant.
    pub fn kind_of(&self, id: VssdId) -> WorkloadKind {
        self.tenant(id).kind
    }

    /// Swaps the workload on tenant `id` (used by the Figure 17 robustness
    /// experiment). The new stream starts at the current simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant.
    pub fn swap_workload(&mut self, id: VssdId, kind: WorkloadKind, seed: u64) {
        let capacity = self.engine.logical_capacity_bytes(id);
        let now = self.engine.now();
        let tenant = self.tenant_mut(id);
        // Carry over the outstanding count so in-flight requests drain
        // naturally under the new source.
        let carried = match &tenant.source {
            Source::Closed { outstanding, .. } => *outstanding,
            Source::Open(_) => 0,
        };
        let mut source = Source::new(kind.spec(), capacity, seed);
        source.skip_to(now);
        if let Source::Closed { outstanding, .. } = &mut source {
            *outstanding = carried;
        }
        tenant.kind = kind;
        tenant.source = source;
    }

    /// Replaces tenant `id`'s generator with an arbitrary spec (used by
    /// calibration runs that need synthetic load shapes outside the named
    /// workload catalogue). The tenant keeps its reported kind.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant or the spec is invalid.
    pub fn override_spec(&mut self, id: VssdId, spec: WorkloadSpec, seed: u64) {
        let capacity = self.engine.logical_capacity_bytes(id);
        self.tenant_mut(id).source = Source::new(spec, capacity, seed);
    }

    /// The decision-window length.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Pre-fills every tenant's vSSD to `fraction` of its logical space
    /// (§4.1 warm-up).
    pub fn warm_up(&mut self, fraction: f64) {
        for t in &self.tenants {
            self.engine.warm_up(t.vssd, fraction);
        }
    }

    /// The I/O trace collected for tenant `id` (most recent requests, up
    /// to an internal cap), for workload typing.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a tenant.
    pub fn trace_of(&self, id: VssdId) -> &[TraceRecord] {
        &self.tenant(id).trace
    }

    /// Advances one decision window, feeding workloads and returning the
    /// per-tenant window summaries in tenant order.
    pub fn run_window(&mut self) -> Vec<(VssdId, WindowSummary)> {
        let end = self.engine.now() + self.window;
        let mut feeds: Vec<&mut TenantFeed> = self.tenants.iter_mut().collect();
        drive(&mut self.engine, &mut feeds, end);
        self.tenants
            .iter()
            .map(|t| (t.vssd, self.engine.finish_window(t.vssd)))
            .collect()
    }

    /// Runs `n` windows, discarding summaries (warm-up / fast-forward).
    pub fn run_windows(&mut self, n: usize) {
        for _ in 0..n {
            let _ = self.run_window();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_flash::addr::ChannelId;
    use fleetio_flash::config::FlashConfig;

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            flash: FlashConfig::training_test(),
            ..Default::default()
        }
    }

    fn chans(range: std::ops::Range<u16>) -> Vec<ChannelId> {
        range.map(ChannelId).collect()
    }

    #[test]
    fn open_loop_tenant_produces_window_traffic() {
        let spec = TenantSpec::new(
            VssdConfig::hardware(VssdId(0), chans(0..2)),
            WorkloadKind::Ycsb,
            1,
        );
        let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(2));
        let out = c.run_window();
        assert_eq!(out.len(), 1);
        let (id, w) = &out[0];
        assert_eq!(*id, VssdId(0));
        // YCSB at ~4000 req/s → thousands of ops in 2 s.
        assert!(w.total_ops > 4000, "ops {}", w.total_ops);
        assert!(w.read_ratio > 0.9, "read ratio {}", w.read_ratio);
        assert!(!c.trace_of(VssdId(0)).is_empty());
    }

    #[test]
    fn closed_loop_tenant_saturates_its_channels() {
        let spec = TenantSpec::new(
            VssdConfig::hardware(VssdId(0), chans(0..2)),
            WorkloadKind::TeraSort,
            2,
        );
        let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(2));
        // Skip into the read phase.
        let out = c.run_window();
        let (_, w) = &out[0];
        // 2 channels × 64 MiB/s peak ≈ 134 MB/s; a concurrency-24 closed
        // loop should land well above half of that during its phases.
        assert!(w.avg_bandwidth > 4.0e7, "bandwidth {}", w.avg_bandwidth);
    }

    #[test]
    fn closed_loop_bandwidth_scales_with_channels() {
        let run = |n_ch: u16| {
            let spec = TenantSpec::new(
                VssdConfig::hardware(VssdId(0), chans(0..n_ch)),
                WorkloadKind::MlPrep,
                3,
            );
            let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(2));
            let mut bw = 0.0;
            for _ in 0..3 {
                let out = c.run_window();
                bw += out[0].1.avg_bandwidth;
            }
            bw / 3.0
        };
        let two = run(2);
        let four = run(4);
        assert!(four > two * 1.5, "no scaling: 2ch {two}, 4ch {four}");
    }

    #[test]
    fn two_tenants_are_isolated_on_hardware() {
        let tenants = vec![
            TenantSpec::new(
                VssdConfig::hardware(VssdId(0), chans(0..2)),
                WorkloadKind::Ycsb,
                4,
            ),
            TenantSpec::new(
                VssdConfig::hardware(VssdId(1), chans(2..4)),
                WorkloadKind::TeraSort,
                5,
            ),
        ];
        let mut c = Colocation::new(small_cfg(), tenants, SimDuration::from_secs(2));
        let out = c.run_window();
        assert_eq!(out.len(), 2);
        assert!(out[0].1.total_ops > 0);
        assert!(out[1].1.total_ops > 0);
    }

    #[test]
    fn swap_workload_changes_stream() {
        let spec = TenantSpec::new(
            VssdConfig::hardware(VssdId(0), chans(0..2)),
            WorkloadKind::Ycsb,
            6,
        );
        let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(1));
        c.run_window();
        assert_eq!(c.kind_of(VssdId(0)), WorkloadKind::Ycsb);
        c.swap_workload(VssdId(0), WorkloadKind::VdiWeb, 7);
        assert_eq!(c.kind_of(VssdId(0)), WorkloadKind::VdiWeb);
        let out = c.run_window();
        assert!(out[0].1.total_ops > 0);
    }

    #[test]
    fn warm_up_runs_without_time_passing() {
        let spec = TenantSpec::new(
            VssdConfig::hardware(VssdId(0), chans(0..2)),
            WorkloadKind::Ycsb,
            8,
        );
        let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(1));
        c.warm_up(0.5);
        assert_eq!(c.engine().now(), SimTime::ZERO);
    }

    #[test]
    fn windows_partition_time() {
        let spec = TenantSpec::new(
            VssdConfig::hardware(VssdId(0), chans(0..2)),
            WorkloadKind::Tpce,
            9,
        );
        let mut c = Colocation::new(small_cfg(), vec![spec], SimDuration::from_secs(2));
        c.run_windows(3);
        assert_eq!(c.engine().now(), SimTime::from_secs(6));
    }
}
