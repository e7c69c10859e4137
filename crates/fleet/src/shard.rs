//! One fleet shard: an SSD engine with fixed vSSD slots that tenants
//! attach to and detach from at window boundaries.
//!
//! Windows run on `fleetio::driver::drive`, the tick loop
//! `fleetio::Colocation` uses, fed only by occupied slots: empty slots
//! stay provisioned (their window summaries flush as idle), and a
//! freshly detached slot keeps completing in-flight requests — the
//! drain the control plane waits out before reusing the slot.
//! Migration is control-plane only: no engine state moves, the
//! tenant's generator restarts at the destination from an
//! epoch-derived seed, fast-forwarded to the shard's current simulated
//! time.

use fleetio_des::window::WindowSummary;
use fleetio_des::{LatencyHistogram, SimDuration};
use fleetio_obs::{ObsEvent, ObsSink};
use fleetio_vssd::engine::{Engine, EngineConfig, VssdSnapshot};
use fleetio_vssd::vssd::{VssdConfig, VssdId};
use fleetio_workloads::{TraceRecord, WorkloadKind};

use fleetio::actions::AgentAction;
use fleetio::driver::{drive, TenantFeed};

#[derive(Debug)]
struct Resident {
    tenant: u32,
    feed: TenantFeed,
}

#[derive(Debug)]
struct Slot {
    vssd: VssdId,
    resident: Option<Resident>,
}

/// One shard's per-window report: all slots in slot order, occupied or
/// not, plus the engine's cumulative event counter.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardWindowReport {
    /// The shard index.
    pub shard: u32,
    /// Resident tenant per slot at window end (`None` = empty).
    pub tenants: Vec<Option<u32>>,
    /// Per-slot window summaries, slot order.
    pub summaries: Vec<(VssdId, WindowSummary)>,
    /// Per-slot engine snapshots at window end, slot order.
    pub snapshots: Vec<VssdSnapshot>,
    /// Per-slot exact-bucket request-latency histograms for the window,
    /// slot order — the fleet's SLO substrate, captured just before the
    /// window flush resets the accumulator.
    pub latencies: Vec<LatencyHistogram>,
    /// Queued page operations across all slots at window end (the
    /// shard's backlog gauge).
    pub queue_depth: u64,
    /// Cumulative engine events processed (monotone across windows).
    pub events_processed: u64,
}

/// One SSD of the fleet.
#[derive(Debug)]
pub struct Shard {
    id: u32,
    engine: Engine,
    slots: Vec<Slot>,
    window: SimDuration,
}

impl Shard {
    /// Builds a shard whose engine carves its channels into
    /// `slot_configs` hardware-isolated vSSD slots.
    ///
    /// # Panics
    ///
    /// Panics on configurations the engine rejects and on a zero
    /// window.
    pub fn new(
        id: u32,
        engine_cfg: EngineConfig,
        slot_configs: Vec<VssdConfig>,
        window: SimDuration,
    ) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        let slots = slot_configs
            .iter()
            .map(|c| Slot {
                vssd: c.id,
                resident: None,
            })
            .collect();
        Shard {
            id,
            engine: Engine::new(engine_cfg, slot_configs),
            slots,
            window,
        }
    }

    /// The shard index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of slots.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// The engine's current simulated time.
    pub fn now(&self) -> fleetio_des::SimTime {
        self.engine.now()
    }

    /// The resident tenant of `slot`, if any.
    pub fn tenant_at(&self, slot: usize) -> Option<u32> {
        self.slots[slot].resident.as_ref().map(|r| r.tenant)
    }

    /// The workload kind running in `slot`, if occupied.
    pub fn kind_at(&self, slot: usize) -> Option<WorkloadKind> {
        self.slots[slot].resident.as_ref().map(|r| r.feed.kind())
    }

    /// The I/O trace collected for the resident of `slot` (newest
    /// requests up to an internal cap), for workload typing at
    /// migration time.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn trace_at(&self, slot: usize) -> &[TraceRecord] {
        self.slots[slot]
            .resident
            .as_ref()
            .expect("slot is occupied")
            .feed
            .trace()
    }

    /// The logical capacity of `slot`'s vSSD in bytes.
    pub fn slot_capacity_bytes(&self, slot: usize) -> u64 {
        self.engine.logical_capacity_bytes(self.slots[slot].vssd)
    }

    /// Pre-fills every slot to `fraction` of its logical space.
    pub fn warm_up_all(&mut self, fraction: f64) {
        for i in 0..self.slots.len() {
            let vssd = self.slots[i].vssd;
            self.engine.warm_up(vssd, fraction);
        }
    }

    /// Attaches `tenant` running `kind` to `slot`, its generator seeded
    /// with `seed` and fast-forwarded to the shard's current time (the
    /// open-loop clock starts *now*, not at zero). `phase_rotation`
    /// rotates the kind's phase cycle left so the tenant starts mid-job
    /// (see [`fleetio_workloads::WorkloadSpec::rotate_phases`]).
    ///
    /// # Panics
    ///
    /// Panics if the slot is occupied.
    pub fn attach(
        &mut self,
        slot: usize,
        tenant: u32,
        kind: WorkloadKind,
        seed: u64,
        phase_rotation: u32,
    ) {
        assert!(
            self.slots[slot].resident.is_none(),
            "slot {}/{slot} is occupied",
            self.id
        );
        let vssd = self.slots[slot].vssd;
        let capacity = self.engine.logical_capacity_bytes(vssd);
        let mut spec = kind.spec();
        spec.rotate_phases(phase_rotation as usize);
        let feed = TenantFeed::new(vssd, kind, spec, capacity, seed).starting_at(self.engine.now());
        self.slots[slot].resident = Some(Resident { tenant, feed });
    }

    /// Detaches the resident of `slot`, returning the tenant index and
    /// its collected trace. In-flight requests drain naturally over the
    /// following window; the control plane holds the slot out of
    /// service until then.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn detach(&mut self, slot: usize) -> (u32, Vec<TraceRecord>) {
        let resident = self.slots[slot]
            .resident
            .take()
            .expect("detach of an empty slot");
        (resident.tenant, resident.feed.into_trace())
    }

    /// Applies one tenant's RL decision to `slot`: priority plus the
    /// two harvest admission actions, denominated in channels of
    /// bandwidth exactly as `fleetio::env` does.
    pub fn apply_action(&mut self, slot: usize, action: AgentAction) {
        let vssd = self.slots[slot].vssd;
        let ch_bw = self.engine.channel_peak_bytes_per_sec();
        self.engine.set_priority(vssd, action.priority);
        self.engine
            .submit_action(action.make_harvestable_action(vssd, ch_bw));
        self.engine
            .submit_action(action.harvest_action(vssd, ch_bw));
    }

    /// Installs an observability sink on the shard's engine, returning
    /// the previous one. Per-shard streams are deterministic regardless
    /// of which worker thread advances the shard.
    pub fn set_obs_sink(&mut self, sink: Box<dyn ObsSink>) -> Box<dyn ObsSink> {
        self.engine.set_obs_sink(sink)
    }

    /// Removes the shard's sink (restoring the no-op default).
    pub fn take_obs_sink(&mut self) -> Box<dyn ObsSink> {
        self.engine.take_obs_sink()
    }

    /// Cumulative engine events processed.
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }

    /// Advances one decision window and freezes every slot's summary
    /// (idle slots flush as idle — the fleet's merge sees a fixed-shape
    /// report every window).
    pub fn run_window(&mut self) -> ShardWindowReport {
        let end = self.engine.now() + self.window;
        let mut feeds: Vec<&mut TenantFeed> = self
            .slots
            .iter_mut()
            .filter_map(|s| s.resident.as_mut().map(|r| &mut r.feed))
            .collect();
        drive(&mut self.engine, &mut feeds, end);
        // Latency histograms and queue depths are read before
        // `finish_window` resets the per-window accumulators.
        let latencies: Vec<LatencyHistogram> = self
            .slots
            .iter()
            .map(|s| self.engine.window_latency(s.vssd).clone())
            .collect();
        let queue_depth = self
            .slots
            .iter()
            .map(|s| self.engine.queued_ops(s.vssd) as u64)
            .sum();
        let summaries: Vec<(VssdId, WindowSummary)> = self
            .slots
            .iter()
            .map(|s| (s.vssd, self.engine.finish_window(s.vssd)))
            .collect();
        let snapshots = self
            .slots
            .iter()
            .map(|s| self.engine.snapshot(s.vssd))
            .collect();
        ShardWindowReport {
            shard: self.id,
            tenants: self
                .slots
                .iter()
                .map(|s| s.resident.as_ref().map(|r| r.tenant))
                .collect(),
            summaries,
            snapshots,
            latencies,
            queue_depth,
            events_processed: self.engine.events_processed(),
        }
    }

    /// Records a control-plane event (SLO verdict, migration) into the
    /// shard's obs stream. Called only from the fleet's serial phases,
    /// so per-shard streams stay deterministic across worker counts.
    pub fn emit_obs(&mut self, ev: ObsEvent) {
        self.engine.emit_obs(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleetio_flash::addr::ChannelId;
    use fleetio_flash::config::FlashConfig;

    fn shard() -> Shard {
        let cfg = EngineConfig {
            flash: FlashConfig::training_test(),
            ..Default::default()
        };
        let slots = (0..4u16)
            .map(|i| {
                VssdConfig::hardware(VssdId(u32::from(i)), vec![ChannelId(i)])
                    .with_slo(SimDuration::from_millis(2))
            })
            .collect();
        Shard::new(0, cfg, slots, SimDuration::from_millis(500))
    }

    #[test]
    fn empty_slots_report_idle_windows() {
        let mut s = shard();
        let report = s.run_window();
        assert_eq!(report.summaries.len(), 4);
        assert_eq!(report.tenants, vec![None; 4]);
        assert!(report.summaries.iter().all(|(_, w)| w.total_ops == 0));
    }

    #[test]
    fn attached_tenant_produces_traffic_and_trace() {
        let mut s = shard();
        s.attach(1, 7, WorkloadKind::Ycsb, 99, 0);
        assert_eq!(s.tenant_at(1), Some(7));
        let report = s.run_window();
        assert!(report.summaries[1].1.total_ops > 0);
        assert_eq!(report.summaries[0].1.total_ops, 0);
        assert!(!s.trace_at(1).is_empty());
        assert_eq!(report.tenants[1], Some(7));
    }

    #[test]
    fn detach_drains_and_slot_reattaches() {
        let mut s = shard();
        s.attach(0, 3, WorkloadKind::TeraSort, 5, 0);
        s.run_window();
        let (tenant, trace) = s.detach(0);
        assert_eq!(tenant, 3);
        assert!(!trace.is_empty());
        // Drain window: in-flight requests finish, no new arrivals.
        s.run_window();
        let quiet = s.run_window();
        assert_eq!(quiet.summaries[0].1.total_ops, 0, "slot fully drained");
        // The slot is reusable; the open-loop clock starts at now.
        s.attach(0, 9, WorkloadKind::Ycsb, 6, 0);
        let busy = s.run_window();
        assert!(busy.summaries[0].1.total_ops > 0);
    }

    #[test]
    #[should_panic(expected = "is occupied")]
    fn double_attach_panics() {
        let mut s = shard();
        s.attach(0, 1, WorkloadKind::Ycsb, 1, 0);
        s.attach(0, 2, WorkloadKind::Ycsb, 2, 0);
    }

    #[test]
    fn same_seed_shards_report_identically() {
        let run = || {
            let mut s = shard();
            s.attach(0, 0, WorkloadKind::Ycsb, 11, 0);
            s.attach(2, 1, WorkloadKind::TeraSort, 12, 0);
            (0..3).map(|_| s.run_window()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
