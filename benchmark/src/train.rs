//! `train`: the pre-training loop driven through its public parts — two
//! persistent environments collected in parallel, then one PPO update on
//! the real rollout buffer, per iteration.

use fleetio::agent::ppo_config;
use fleetio::experiment::hardware_layout;
use fleetio::{FleetIoConfig, FleetIoEnv};
use fleetio_des::rng::SmallRng;
use fleetio_obs::prof;
use fleetio_rl::parallel::collect_parallel_envs;
use fleetio_rl::{MultiAgentEnv, PpoPolicy, PpoTrainer, StepResult};
use fleetio_workloads::WorkloadKind::{BatchAnalytics, Tpce};

use crate::measure::{timed, Checks, Digest, Job, Phase};
use crate::sim::{self, POLICY_SEED};

/// Rollout environments, one per collection thread.
const ENVS: usize = 2;

/// Pre-fill fraction of every vSSD before training starts.
const WARM_FRACTION: f64 = 0.5;

/// A training environment whose every step (one decision window) is
/// timed from the collecting worker thread.
struct TimedEnv {
    env: FleetIoEnv,
    step_ms: Vec<f64>,
}

impl MultiAgentEnv for TimedEnv {
    fn n_agents(&self) -> usize {
        self.env.n_agents()
    }

    fn obs_dim(&self) -> usize {
        self.env.obs_dim()
    }

    fn action_dims(&self) -> Vec<usize> {
        self.env.action_dims()
    }

    fn reset(&mut self) -> Vec<Vec<f32>> {
        self.env.reset()
    }

    fn step(&mut self, actions: &[Vec<usize>]) -> StepResult {
        let (out, ms) = timed("fleetio:env_step", || self.env.step(actions));
        self.step_ms.push(ms);
        out
    }
}

/// Builds the trainer and environments, then runs `iterations` rounds
/// of `horizon`-window parallel collection plus one PPO update each.
pub fn job(seed: u64, iterations: usize, horizon: usize, checks: &mut Checks) -> Job {
    let cfg = FleetIoConfig::default();
    let tenants = hardware_layout(&cfg, &[Tpce, BatchAnalytics], &[None, None], seed);
    let mut job = Job::default();

    let setup = Phase::start();
    let setup_span = prof::span("bench:setup");
    let (mut trainer, _) = timed("rl:new", || {
        let mut rng = SmallRng::seed_from_u64(POLICY_SEED);
        let policy = PpoPolicy::new(
            cfg.obs_dim(),
            &cfg.action_dims(),
            &cfg.hidden_layers,
            &mut rng,
        );
        let mut trainer = PpoTrainer::new(policy, cfg.obs_dim(), ppo_config(&cfg), POLICY_SEED);
        trainer.normalizer.freeze();
        trainer
    });
    let (mut envs, envs_ms) = timed("fleetio:env_new", || {
        (0..ENVS)
            .map(|i| TimedEnv {
                env: FleetIoEnv::new(
                    cfg.clone(),
                    tenants.clone(),
                    FleetIoEnv::default_rewards(&cfg, &tenants),
                    WARM_FRACTION,
                    horizon,
                    seed.wrapping_add(i as u64),
                ),
                step_ms: Vec::new(),
            })
            .collect::<Vec<_>>()
    });
    drop(setup_span);
    job.setup_s = setup.stop().0;
    job.sample("fleetio.warm_up_s", envs_ms / 1e3);

    let gamma = trainer.config().gamma;
    let expected = ENVS * tenants.len() * horizon;
    let mut digest = Digest::default();
    let (mut transitions, mut collect_total, mut update_total) = (0usize, 0.0, 0.0);
    let phase = Phase::start();
    let job_span = prof::span("bench:job");
    for it in 0..iterations {
        let (buffer, collect_ms) = timed("rl:collect_parallel_envs", || {
            collect_parallel_envs(
                &mut envs,
                &trainer.policy,
                &trainer.normalizer,
                horizon,
                gamma,
                seed.wrapping_add(it as u64),
            )
        });
        checks.check(buffer.len() == expected, || {
            format!(
                "train: buffer holds {} transitions, expected {expected}",
                buffer.len()
            )
        });
        transitions += buffer.len();
        for t in buffer.transitions() {
            digest.f64(t.reward);
            digest.f64(t.value);
            for &a in &t.action {
                digest.u64(a as u64);
            }
        }
        let (stats, update_ms) = timed("rl:update", || trainer.update(buffer));
        let fields = [
            stats.policy_loss,
            stats.value_loss,
            stats.entropy,
            stats.kl,
            stats.clip_fraction,
            stats.mean_reward,
        ];
        checks.check(fields.iter().all(|v| v.is_finite()), || {
            format!("train: non-finite PPO stats in iteration {it}: {stats:?}")
        });
        for v in fields {
            digest.f64(v);
        }
        job.sample("rl.collect_ms", collect_ms);
        job.sample("rl.update_ms", update_ms);
        collect_total += collect_ms;
        update_total += update_ms;
    }
    drop(job_span);
    (job.wall_s, job.cpu_s) = phase.stop();

    for env in &mut envs {
        job.window_ms.append(&mut env.step_ms);
    }
    let window_secs = cfg.decision_interval.as_secs_f64();
    job.sim_s = (ENVS * iterations * horizon) as f64 * window_secs;
    job.ops = transitions as f64;
    job.sample("rl.transitions", transitions as f64);
    job.sample(
        "rl.update_share",
        update_total / (collect_total + update_total),
    );
    sim::engine_counters(&mut job, envs.iter().map(|e| e.env.colocation().engine()));
    let colocs: Vec<_> = envs.iter().map(|e| e.env.colocation()).collect();
    sim::colocation_outputs(&mut job, &colocs, &mut digest);
    job.digest = digest.finish();
    job
}
