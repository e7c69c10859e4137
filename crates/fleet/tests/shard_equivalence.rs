//! A single fleet shard and a `Colocation` hosting the same tenants on
//! the same engine are the same simulation: both run their windows on
//! `fleetio::driver::drive`, so every window summary must match exactly.

use fleetio::{Colocation, TenantSpec};
use fleetio_des::SimDuration;
use fleetio_flash::addr::ChannelId;
use fleetio_flash::config::FlashConfig;
use fleetio_fleet::Shard;
use fleetio_vssd::engine::EngineConfig;
use fleetio_vssd::vssd::{VssdConfig, VssdId};
use fleetio_workloads::WorkloadKind;

const KINDS: [WorkloadKind; 4] = [
    WorkloadKind::Ycsb,
    WorkloadKind::TeraSort,
    WorkloadKind::VdiWeb,
    WorkloadKind::MlPrep,
];

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        flash: FlashConfig::training_test(),
        ..Default::default()
    }
}

fn slot_configs() -> Vec<VssdConfig> {
    (0..4u16)
        .map(|i| VssdConfig::hardware(VssdId(u32::from(i)), vec![ChannelId(i)]))
        .collect()
}

#[test]
fn single_shard_matches_colocation_window_for_window() {
    let window = SimDuration::from_millis(500);

    let mut shard = Shard::new(0, engine_cfg(), slot_configs(), window);
    for (slot, kind) in KINDS.into_iter().enumerate() {
        shard.attach(slot, slot as u32, kind, 100 + slot as u64, 0);
    }
    shard.warm_up_all(0.5);

    let tenants = slot_configs()
        .into_iter()
        .zip(KINDS)
        .enumerate()
        .map(|(i, (config, kind))| TenantSpec::new(config, kind, 100 + i as u64))
        .collect();
    let mut coloc = Colocation::new(engine_cfg(), tenants, window);
    coloc.warm_up(0.5);

    let mut ops = [0u64; 4];
    for w in 0..6 {
        let from_shard = shard.run_window().summaries;
        let from_coloc = coloc.run_window();
        assert_eq!(from_shard, from_coloc, "window {w} diverged");
        for (total, (_, summary)) in ops.iter_mut().zip(&from_coloc) {
            *total += summary.total_ops;
        }
    }
    assert!(ops.iter().all(|&n| n > 0), "idle tenant: ops {ops:?}");
}
