//! `fleet-mix`: `FleetEngine::run` over a seeded `UserPopulation`,
//! 64 shards, one worker per CPU. Each timed round is one whole fleet
//! under its own population seed; the population mixes locations,
//! distances, paths, configs, motion and fault plans.
//!
//! The outside replay rebuilds every shard's timeline from the public
//! `UserPopulation`, `FaultPlan::derive` and `SessionStore` APIs, runs
//! it serially, and must reproduce the engine's report and telemetry.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use wearlock::config::NamedConfig;
use wearlock::environment::Environment;
use wearlock::session::{AttemptOptions, UnlockSession};
use wearlock_faults::{plan_seed, FaultPlan};
use wearlock_fleet::{FleetConfig, FleetEngine, FleetReport, SessionStore, UserPopulation};
use wearlock_runtime::SweepRunner;
use wearlock_telemetry::{AttemptOutcome, MetricsRecorder};

use crate::layers::{self, ProbeInput, Samples};
use crate::measure::{self, median, run_rounds, timed, timed_allocs, Args, Outcome};
use crate::session_office::{check_report, SessionTrace};
use crate::sink::HostClock;
use crate::{checks, session_office};

/// Fleet size: 2 users per shard against 1 live session per shard, so
/// returning users both hit and evict; ~2 attempts per user on average
/// (0.5–3.5 by user), ~2 s of host time per fleet.
const USERS: u64 = 128;
const SESSION_CAPACITY: usize = 1;
/// A short queue so bursts on a shard meet admission control.
const QUEUE_BUDGET: usize = 1;
const DURATION_S: f64 = 120.0;
const MEAN_RATE_HZ: f64 = 1.0 / 60.0;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Warm-up attempts per paper configuration and set-up.
const WARMUP_OPS: u64 = 2;
/// Stream tag separating warm-up seeds from the fleet's.
const WARMUP_STREAM: u64 = 0x5741_524d; // "WARM"
/// Attempts the per-layer probe walks.
const PROBES: usize = 24;

/// The fleet of round `round` under the workload seed.
pub fn fleet_config(seed: u64, round: u64) -> FleetConfig {
    FleetConfig {
        seed: plan_seed(seed, round),
        users: USERS,
        shards: wearlock_fleet::DEFAULT_SHARDS,
        duration_s: DURATION_S,
        mean_arrival_rate_hz: MEAN_RATE_HZ,
        session_capacity: SESSION_CAPACITY,
        queue_budget: QUEUE_BUDGET,
        max_attempts_per_user: 32,
    }
}

/// Invariants of one fleet report and its telemetry.
fn check_fleet(r: &FleetReport, metrics: &MetricsRecorder, out: &mut Outcome) {
    out.check(r.arrivals == r.accepted + r.rejected, || {
        format!(
            "arrivals {} != accepted {} + rejected {}",
            r.arrivals, r.accepted, r.rejected
        )
    });
    out.check(r.unlocked <= r.accepted, || {
        format!("unlocked {} > accepted {}", r.unlocked, r.accepted)
    });
    out.check(r.evictions_within_budget(), || {
        format!(
            "evictions {} / creations {} / accepted {}",
            r.evictions, r.session_creations, r.accepted
        )
    });
    out.check(metrics.attempts() == r.accepted, || {
        format!(
            "telemetry funnel total {} != accepted {}",
            metrics.attempts(),
            r.accepted
        )
    });
}

/// What the outside replay measured.
struct Replay {
    report: FleetReport,
    metrics: MetricsRecorder,
    shard_busy_s: Vec<f64>,
    wall_s: f64,
    profile_us: Vec<f64>,
    session_new_us: Vec<f64>,
    merge_s: f64,
    trace: SessionTrace,
    /// Stage and telemetry totals over all shards.
    clock: HostClock<'static>,
    /// Accepted attempts that reached the acoustic channel.
    channel_attempts: Vec<(ProbeInput, u64)>,
}

/// Replays `cfg` shard by shard on this thread. With `traced`, each
/// attempt runs under a [`HostClock`] forwarding to the shard's
/// recorder; otherwise the recorder is the sink, as in the engine.
fn replay(cfg: &FleetConfig, traced: bool, out: &mut Outcome) -> Replay {
    let t0 = Instant::now();
    let pop = UserPopulation::new(cfg.seed, cfg.users, cfg.mean_arrival_rate_hz);
    let mut r = Replay {
        report: FleetReport {
            users: cfg.users,
            shards: cfg.shards,
            duration_s: cfg.duration_s,
            arrivals: 0,
            accepted: 0,
            rejected: 0,
            unlocked: 0,
            unlock_rate: 0.0,
            throughput_per_s: 0.0,
            p50_latency_s: 0.0,
            p99_latency_s: 0.0,
            session_creations: 0,
            evictions: 0,
        },
        metrics: MetricsRecorder::new(),
        shard_busy_s: Vec::new(),
        wall_s: 0.0,
        profile_us: Vec::new(),
        session_new_us: Vec::new(),
        merge_s: 0.0,
        trace: SessionTrace::default(),
        clock: HostClock::new(None),
        channel_attempts: Vec::new(),
    };
    let mut latencies = Vec::new();
    let mut locals = Vec::with_capacity(cfg.shards);
    for shard in 0..cfg.shards {
        let busy = Instant::now();
        let mut profiles = BTreeMap::new();
        let mut timeline: Vec<(f64, u64, u64)> = Vec::new();
        let mut user = shard as u64;
        while user < pop.len() {
            let ((profile, arrivals), t) = timed(|| {
                let p = pop.profile(user);
                let a = pop.arrivals(&p, cfg.duration_s, cfg.max_attempts_per_user);
                (p, a)
            });
            r.profile_us.push(t * 1e6);
            for (k, &at) in arrivals.iter().enumerate() {
                timeline.push((at, user, k as u64));
            }
            profiles.insert(user, profile);
            user += cfg.shards as u64;
        }
        timeline.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        r.report.arrivals += timeline.len() as u64;

        let local = MetricsRecorder::new();
        let clock = HostClock::new(Some(&local));
        let mut store: SessionStore<UnlockSession> = SessionStore::new(cfg.session_capacity);
        let mut in_flight: VecDeque<f64> = VecDeque::new();
        let mut server_free = 0.0f64;
        for (t, user, attempt) in timeline {
            while in_flight.front().is_some_and(|&done| done <= t) {
                in_flight.pop_front();
            }
            if in_flight.len() >= cfg.queue_budget.max(1) {
                r.report.rejected += 1;
                continue;
            }
            r.report.accepted += 1;
            let profile = &profiles[&user];
            let session = store.get_or_create(user, || {
                let (s, t) = timed(|| {
                    UnlockSession::new(layers::config(profile.named, 0))
                        .expect("valid configs make sessions")
                });
                r.session_new_us.push(t * 1e6);
                s
            });
            let seed = UserPopulation::attempt_seed(profile, attempt);
            let plan = FaultPlan::derive(&profile.faults, attempt);
            let options = if traced {
                AttemptOptions::new().fault_plan(plan).sink(&clock)
            } else {
                AttemptOptions::new().fault_plan(plan).sink(&local)
            };
            clock.begin();
            let (series, s, a) = timed_allocs(|| {
                session.run(&profile.env, &options, &mut StdRng::seed_from_u64(seed))
            });
            check_report(&series, out);
            r.trace.record(&series, s, a);
            if series.outcome.unlocked() {
                r.report.unlocked += 1;
            }
            if series.attempts.iter().any(|a| a.volume.is_some()) {
                r.channel_attempts.push((
                    ProbeInput {
                        config: layers::config(profile.named, 0),
                        env: profile.env.clone(),
                        faults: profile.faults,
                        attempt,
                    },
                    seed,
                ));
            }
            let service = series.total_delay.value().max(0.0);
            let wait = (server_free - t).max(0.0);
            latencies.push(wait + service);
            server_free = server_free.max(t) + service;
            in_flight.push_back(server_free);
        }
        r.report.session_creations += store.creations();
        r.report.evictions += store.evictions();
        r.clock.absorb(&clock);
        locals.push(local);
        r.shard_busy_s.push(busy.elapsed().as_secs_f64());
    }
    let (_, merge_s) = timed(|| {
        for l in &locals {
            r.metrics.merge_from(l);
        }
    });
    r.merge_s = merge_s;
    latencies.sort_by(f64::total_cmp);
    let pct = |q: f64| match latencies.len() {
        0 => 0.0,
        n => latencies[(((n - 1) as f64) * q).round() as usize],
    };
    let acc = r.report.accepted;
    r.report.unlock_rate = if acc == 0 {
        0.0
    } else {
        r.report.unlocked as f64 / acc as f64
    };
    r.report.throughput_per_s = acc as f64 / cfg.duration_s;
    r.report.p50_latency_s = pct(0.5);
    r.report.p99_latency_s = pct(0.99);
    r.wall_s = t0.elapsed().as_secs_f64();
    r
}

fn funnel(metrics: &MetricsRecorder, rejected: u64) -> Vec<(String, u64)> {
    let mut counts: Vec<(String, u64)> = AttemptOutcome::ALL
        .iter()
        .map(|&o| (o.name().to_string(), metrics.outcome_count(o)))
        .collect();
    counts.push(("rejected_by_admission".to_string(), rejected));
    counts
}

/// Round-0 checks shared by the timed run and the per-layer run: the
/// serial engine and the outside replay must reproduce the parallel
/// engine's report and telemetry.
struct RoundZero {
    serial_wall_s: f64,
    replay: Replay,
}

fn round_zero(
    cfg: &FleetConfig,
    report: &FleetReport,
    metrics: &MetricsRecorder,
    traced: bool,
    out: &mut Outcome,
) -> RoundZero {
    let engine = FleetEngine::new(*cfg);
    let serial_metrics = MetricsRecorder::new();
    let (serial, serial_wall_s) = timed(|| engine.run(&SweepRunner::serial(), &serial_metrics));
    out.check(
        serial == *report && serial_metrics.to_json() == metrics.to_json(),
        || "fleet report differs between 1 and N workers".to_string(),
    );
    let replay = replay(cfg, traced, out);
    out.check(replay.report == *report, || {
        format!("outside replay {:?} != engine {report:?}", replay.report)
    });
    out.check(replay.metrics.to_json() == metrics.to_json(), || {
        "outside replay telemetry differs from the engine's".to_string()
    });
    RoundZero {
        serial_wall_s,
        replay,
    }
}

/// Emits the fleet, runtime and telemetry layer metrics of round 0.
fn emit_fleet_layers(report: &FleetReport, parallel_wall_s: f64, z: &RoundZero, out: &mut Outcome) {
    let busy = &z.replay.shard_busy_s;
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let max = busy.iter().copied().fold(0.0, f64::max);
    out.metric(
        "runtime.parallel_speedup",
        z.serial_wall_s / parallel_wall_s,
        "ratio",
    );
    out.metric("runtime.shard_busy_max_over_mean", max / mean, "ratio");
    out.metric(
        "fleet.population_us_per_user",
        median(&z.replay.profile_us),
        "us",
    );
    out.metric(
        "fleet.session_new_us",
        median(&z.replay.session_new_us),
        "us",
    );
    out.metric(
        "fleet.store_hit_ratio",
        1.0 - report.session_creations as f64 / report.accepted.max(1) as f64,
        "ratio",
    );
    out.metric("fleet.evictions", report.evictions as f64, "count");
    out.metric("fleet.rejected", report.rejected as f64, "count");
    out.metric(
        "telemetry.record_us_per_attempt",
        z.replay.clock.telemetry_s() * 1e6 / report.accepted.max(1) as f64,
        "us",
    );
    out.metric("telemetry.merge_ms", z.replay.merge_s * 1e3, "ms");
}

/// The fleet layer metrics for workloads that run no fleet: round 0 of
/// this workload's fleet under the same seed, run and replayed.
pub fn layer_metrics(seed: u64, out: &mut Outcome) {
    let cfg = fleet_config(seed, 0);
    let metrics = MetricsRecorder::new();
    let (report, wall) = timed(|| FleetEngine::new(cfg).run(&SweepRunner::new(0), &metrics));
    check_fleet(&report, &metrics, out);
    let z = round_zero(&cfg, &report, &metrics, true, out);
    emit_fleet_layers(&report, wall, &z, out);
}

pub fn run(args: &Args, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;
    let runner = SweepRunner::new(0);
    // Set-up builds the engine and one session per paper configuration,
    // warmed by default-office attempts, so its cost does not depend on
    // which users the seed draws.
    let (setup_s, engine) = measure::setup(start, SETUP_REPS, || {
        let engine = FleetEngine::new(fleet_config(seed, 0));
        let env = Environment::default();
        for (k, named) in [
            NamedConfig::Config1,
            NamedConfig::Config2,
            NamedConfig::Config3,
        ]
        .into_iter()
        .enumerate()
        {
            let mut s =
                UnlockSession::new(layers::config(named, 0)).expect("valid configs make sessions");
            for i in 0..WARMUP_OPS {
                let rng =
                    &mut session_office::op_rng(seed ^ WARMUP_STREAM, k as u64 * WARMUP_OPS + i);
                s.run(&env, &AttemptOptions::new(), rng);
            }
        }
        engine
    });

    let mut first: Option<(FleetReport, MetricsRecorder, f64)> = None;
    let seconds = if args.trace {
        args.seconds * 0.5
    } else {
        args.seconds
    };
    let timed_phase = run_rounds(seconds, |round| {
        let engine = if round == 0 {
            engine
        } else {
            FleetEngine::new(fleet_config(seed, round as u64))
        };
        let metrics = MetricsRecorder::new();
        let (report, wall) = timed(|| engine.run(&runner, &metrics));
        check_fleet(&report, &metrics, &mut out);
        let ops = report.accepted;
        if first.is_none() {
            first = Some((report, metrics, wall));
        }
        ops
    });
    out.attempted = timed_phase.ops;
    let (report, metrics, wall) = first.expect("at least one round");
    let cfg = fleet_config(seed, 0);
    let z = round_zero(&cfg, &report, &metrics, args.trace, &mut out);

    if !args.trace {
        timed_phase.end_to_end(setup_s, &mut out);
    } else {
        emit_fleet_layers(&report, wall, &z, &mut out);
        // Every k-th attempt that reached the channel, so the probes
        // spread over all shards' users.
        let reached = &z.replay.channel_attempts;
        let step = (reached.len() / PROBES).max(1);
        let probes: Vec<(ProbeInput, u64)> =
            reached.iter().step_by(step).take(PROBES).cloned().collect();
        let samples: Samples = layers::probe_all(&probes, &mut out);
        z.replay.trace.emit(&z.replay.clock, &samples, &mut out);
        samples.emit(&mut out);
        out.metric(
            "trace.overhead_ratio",
            z.replay.wall_s / z.serial_wall_s,
            "ratio",
        );
    }
    checks::common(&mut out, seed);
    measure::print_funnel("fleet-mix", &funnel(&metrics, report.rejected));
    out
}
