//! `session-office`: a closed loop of `UnlockSession::run` on one
//! session, one thread, in the default environment (office, 0.3 m, line
//! of sight, seated), fault-free, with one RNG seed per operation.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use wearlock::config::NamedConfig;
use wearlock::environment::Environment;
use wearlock::session::{
    outcome_event, AttemptOptions, Outcome as SessionOutcome, ResilienceReport, UnlockPath,
    UnlockSession,
};
use wearlock_faults::{plan_seed, FaultConfig, FaultIntensity};
use wearlock_telemetry::AttemptOutcome;

use crate::alloc::Counts;
use crate::layers::{self, ProbeInput, Samples, Shares};
use crate::measure::{self, median, quantile, run_rounds, timed_allocs, Args, Outcome};
use crate::sink::{HostClock, STAGES};
use crate::{checks, fleet_mix};

/// Operations per timed round (~0.3 s).
const ROUND_OPS: u64 = 10;
/// Warm-up operations per set-up.
const WARMUP_OPS: u64 = 4;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Every this many operations, one is re-run on a fresh session.
const RERUN_EVERY: u64 = 25;
/// Attempts the per-layer probe walks.
const PROBES: u64 = 24;
/// Stream tag separating warm-up seeds from operation seeds.
const WARMUP_STREAM: u64 = 0x5741_524d; // "WARM"

/// The RNG of operation `i` under the workload seed.
pub fn op_rng(seed: u64, i: u64) -> StdRng {
    StdRng::seed_from_u64(plan_seed(seed, i))
}

/// A fault configuration for the per-layer fault probe on workloads
/// that run fault-free, so `faults.apply_us` times a real plan.
pub fn reference_faults(seed: u64) -> FaultConfig {
    FaultConfig::new(plan_seed(seed, 0x4641_554c), FaultIntensity::uniform(0.5))
}

/// Outcome counts in funnel order.
#[derive(Debug, Default, Clone)]
pub struct Funnel([u64; 11]);

impl Funnel {
    pub fn add(&mut self, o: AttemptOutcome) {
        let i = AttemptOutcome::ALL
            .iter()
            .position(|&x| x == o)
            .expect("ALL lists every outcome");
        self.0[i] += 1;
    }

    pub fn counts(&self) -> Vec<(String, u64)> {
        AttemptOutcome::ALL
            .iter()
            .zip(self.0)
            .map(|(o, n)| (o.name().to_string(), n))
            .collect()
    }
}

/// Output checks every session report must pass: total delay is the
/// sum of the stage delays, energies are finite and non-negative, an
/// acoustic unlock names its mode and data channels.
pub fn check_report(series: &ResilienceReport, out: &mut Outcome) {
    let mut sum = 0.0;
    for a in &series.attempts {
        let stages: f64 = a.delays.iter().map(|d| d.1.value()).sum();
        let total = a.total_delay.value();
        out.check(
            (total - stages).abs() <= 1e-9 * total.abs().max(1.0),
            || format!("total delay {total} != stage sum {stages}"),
        );
        out.check(
            a.watch_energy_j.is_finite()
                && a.watch_energy_j >= 0.0
                && a.phone_energy_j.is_finite()
                && a.phone_energy_j >= 0.0,
            || format!("energies {} / {} J", a.watch_energy_j, a.phone_energy_j),
        );
        if let SessionOutcome::Unlocked(UnlockPath::Acoustic(mode)) = a.outcome {
            out.check(a.mode == Some(mode) && !a.data_channels.is_empty(), || {
                format!("acoustic unlock without mode/channels: {:?}", a.mode)
            });
        }
        sum += total;
    }
    let want = sum + series.backoff_delay.value() + series.pin_delay.map_or(0.0, |p| p.value());
    let got = series.total_delay.value();
    out.check((got - want).abs() <= 1e-9 * want.abs().max(1.0), || {
        format!("series delay {got} != attempts {want}")
    });
}

/// Host-side trace of `UnlockSession::run` calls.
#[derive(Debug, Default)]
pub struct SessionTrace {
    run_s: Vec<f64>,
    allocs: Counts,
    /// Attempts that reached sensor synthesis, phase 1 and phase 2.
    reached: [u64; 3],
}

impl SessionTrace {
    pub fn record(&mut self, series: &ResilienceReport, run_s: f64, allocs: Counts) {
        self.run_s.push(run_s);
        self.allocs.allocs += allocs.allocs;
        self.allocs.bytes += allocs.bytes;
        for a in &series.attempts {
            for (k, stage) in ["wireless:sensor-transfer", "audio:phase1", "audio:phase2"]
                .iter()
                .enumerate()
            {
                if a.delays.iter().any(|d| d.0 == *stage) {
                    self.reached[k] += 1;
                }
            }
        }
    }

    /// Emits the `session.*` metrics; `session.self_ms` is the mean run
    /// time minus the mean time of the probed layer calls an attempt
    /// makes (see [`Samples::attempt_ms`]), so it carries the noise of
    /// both measurements.
    pub fn emit(&self, clock: &HostClock<'_>, layers: &Samples, out: &mut Outcome) {
        let n = self.run_s.len().max(1) as f64;
        let share = |k: usize| self.reached[k] as f64 / n;
        let shares = Shares {
            sensors: share(0),
            phase1: share(1),
            phase2: share(2),
        };
        let mean_ms = self.run_s.iter().sum::<f64>() * 1e3 / n;
        out.metric("session.run_p50_ms", median(&self.run_s) * 1e3, "ms");
        out.metric("session.run_p90_ms", quantile(&self.run_s, 0.9) * 1e3, "ms");
        out.metric("session.self_ms", mean_ms - layers.attempt_ms(shares), "ms");
        out.metric(
            "session.allocs_per_attempt",
            self.allocs.allocs as f64 / n,
            "count",
        );
        out.metric(
            "session.alloc_mb_per_attempt",
            self.allocs.bytes as f64 / (1024.0 * 1024.0) / n,
            "MiB",
        );
        out.metric("session.phase2_per_attempt", shares.phase2, "ratio");
        for stage in STAGES {
            out.metric(
                format!("session.host_ms.{}", stage.replace(':', "-")),
                clock.mean_ms(stage),
                "ms",
            );
        }
    }
}

/// Runs `n` traced operations of this workload on a fresh session
/// (the reference session loop of workloads that run no sessions).
pub fn traced_loop(
    seed: u64,
    first_op: u64,
    n: u64,
    out: &mut Outcome,
) -> (SessionTrace, HostClock<'static>) {
    let env = Environment::default();
    let mut session = UnlockSession::new(layers::config(NamedConfig::Config1, 0))
        .expect("valid config makes a session");
    let clock = HostClock::new(None);
    let mut trace = SessionTrace::default();
    let options = AttemptOptions::new().sink(&clock);
    for i in first_op..first_op + n {
        if session.lockout().is_locked_out() {
            session.enter_pin();
        }
        clock.begin();
        let (series, s, a) = timed_allocs(|| session.run(&env, &options, &mut op_rng(seed, i)));
        check_report(&series, out);
        trace.record(&series, s, a);
    }
    (trace, clock)
}

/// Probe inputs for `n` default-office attempts from the workload seed.
pub fn office_probes(seed: u64, n: u64) -> Vec<(ProbeInput, u64)> {
    (0..n)
        .map(|i| {
            (
                ProbeInput {
                    config: layers::config(NamedConfig::Config1, 0),
                    env: Environment::default(),
                    faults: reference_faults(seed),
                    attempt: i,
                },
                plan_seed(seed ^ 0x5052_4f42, i),
            )
        })
        .collect()
}

pub fn run(args: &Args, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;
    let env = Environment::default();
    let (setup_s, mut session) = measure::setup(start, SETUP_REPS, || {
        let mut s = UnlockSession::new(layers::config(NamedConfig::Config1, 0))
            .expect("valid config makes a session");
        for k in 0..WARMUP_OPS {
            s.run(
                &env,
                &AttemptOptions::new(),
                &mut op_rng(seed ^ WARMUP_STREAM, k),
            );
        }
        s
    });

    let mut funnel = Funnel::default();
    let mut reruns: Vec<(u64, u64, ResilienceReport)> = Vec::new();
    let mut next = 0u64;
    let mut pin_entries = 0u64;
    let mut loop_ops = |session: &mut UnlockSession,
                        seconds: f64,
                        options: &AttemptOptions<'_>,
                        clock: Option<&HostClock<'_>>,
                        trace: &mut SessionTrace,
                        out: &mut Outcome| {
        run_rounds(seconds, |_| {
            for _ in 0..ROUND_OPS {
                let i = next;
                next += 1;
                // After three token rejections in a row the session locks
                // out; the user then unlocks with the PIN, which clears
                // the lockout before the next attempt.
                if session.lockout().is_locked_out() {
                    session.enter_pin();
                    pin_entries += 1;
                }
                let before = session.last_counter();
                if let Some(c) = clock {
                    c.begin();
                }
                let (series, s, a) =
                    timed_allocs(|| session.run(&env, options, &mut op_rng(seed, i)));
                check_report(&series, out);
                let after = session.last_counter();
                out.check(after >= before, || {
                    format!("HOTP counter {before} -> {after}")
                });
                for a in &series.attempts {
                    funnel.add(outcome_event(a.outcome));
                }
                if clock.is_some() {
                    trace.record(&series, s, a);
                }
                if i.is_multiple_of(RERUN_EVERY) {
                    reruns.push((i, before, series));
                }
            }
            ROUND_OPS
        })
    };

    let mut trace = SessionTrace::default();
    if !args.trace {
        let timed = loop_ops(
            &mut session,
            args.seconds,
            &AttemptOptions::new(),
            None,
            &mut trace,
            &mut out,
        );
        out.attempted = timed.ops;
        timed.end_to_end(setup_s, &mut out);
    } else {
        let plain = loop_ops(
            &mut session,
            args.seconds * 0.4,
            &AttemptOptions::new(),
            None,
            &mut trace,
            &mut out,
        );
        let clock = HostClock::new(None);
        let options = AttemptOptions::new().sink(&clock);
        let traced = loop_ops(
            &mut session,
            args.seconds * 0.4,
            &options,
            Some(&clock),
            &mut trace,
            &mut out,
        );
        out.attempted = plain.ops + traced.ops;
        let samples = layers::probe_all(&office_probes(seed, PROBES), &mut out);
        trace.emit(&clock, &samples, &mut out);
        samples.emit(&mut out);
        fleet_mix::layer_metrics(seed, &mut out);
        out.metric(
            "trace.overhead_ratio",
            traced.s_per_op() / plain.s_per_op(),
            "ratio",
        );
    }

    // A sampled operation re-run on a fresh session holding the same
    // HOTP counter must give an identical report.
    for (i, counter, want) in &reruns {
        let mut fresh = UnlockSession::new(layers::config(NamedConfig::Config1, *counter))
            .expect("valid config makes a session");
        let got = fresh.run(&env, &AttemptOptions::new(), &mut op_rng(seed, *i));
        out.check(format!("{got:?}") == format!("{want:?}"), || {
            format!("operation {i} differs when re-run on a fresh session")
        });
    }
    out.check(!reruns.is_empty(), || "no operation was re-run".to_string());
    checks::common(&mut out, seed);
    let mut counts = funnel.counts();
    counts.push(("pin_entries_after_lockout".to_string(), pin_entries));
    measure::print_funnel("session-office", &counts);
    out
}
