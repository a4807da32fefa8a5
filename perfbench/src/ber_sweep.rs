//! `ber-sweep`: the Fig. 5 sweep (`fig5::sweep`) over all six
//! modulations and the full 0–70 dB Eb/N0 grid on one worker. Each
//! timed round is one whole sweep under its own seed; an operation is
//! one BER frame (modulator → speaker → AWGN → microphone →
//! demodulator).

use std::time::Instant;

use rand::Rng;

use wearlock_acoustics::hardware::{MicrophoneModel, SpeakerModel};
use wearlock_acoustics::noise::gaussian_noise;
use wearlock_bench::fig5::{self, BerPoint};
use wearlock_dsp::units::{Db, Seconds, Spl};
use wearlock_faults::plan_seed;
use wearlock_modem::config::OfdmConfig;
use wearlock_modem::demodulator::bit_error_rate;
use wearlock_modem::{DemodScratch, Modulation, OfdmDemodulator, OfdmModulator};
use wearlock_runtime::{task_rng, SweepRunner};

use crate::layers::{self, Samples};
use crate::measure::{self, run_rounds, timed, timed_allocs, Args, Outcome};
use crate::{checks, fleet_mix, session_office};

/// Bits asked of each (modulation, Eb/N0) point: `fig5::sweep` rounds
/// up to whole frames, so every point runs one frame and a sweep is 90
/// frames (~0.6 s). The output checks pool the bits of all sweeps.
const BITS_PER_POINT: usize = 1;
/// Eb/N0 of the warm-up frames each set-up runs per modulation, dB.
const WARMUP_EBN0: [f64; 3] = [0.0, 20.0, 40.0];
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;
/// Reference session attempts and layer probes for the layers a BER
/// frame never calls.
const REFERENCE_OPS: u64 = 24;
/// Binomial slack of the AWGN-theory bound, in standard deviations.
const SLACK_SIGMAS: f64 = 4.0;

/// The Fig. 5 Eb/N0 grid, dB.
fn grid() -> Vec<f64> {
    (0..=14).map(|i| i as f64 * 5.0).collect()
}

/// Frames one sweep runs: `fig5::sweep`'s rounds per point, summed.
fn frames_per_sweep(cfg: &OfdmConfig) -> u64 {
    let points = grid().len() as u64;
    Modulation::ALL
        .iter()
        .map(|m| {
            let chunk = cfg.bits_per_block(m.bits_per_symbol()) * 10;
            BITS_PER_POINT.div_ceil(chunk).max(1) as u64 * points
        })
        .sum()
}

fn sweep_seed(seed: u64, round: u64) -> u64 {
    plan_seed(seed, round)
}

/// Measured BER is never better than coherent AWGN theory for BPSK and
/// QPSK (the simulated speaker, microphone and pilot overhead only add
/// loss), up to a binomial slack; BPSK is clean at the top of the grid.
fn check_points(points: &[BerPoint], out: &mut Outcome) {
    let top = grid().last().copied().expect("non-empty grid");
    for p in points {
        let e = p.ebn0.value();
        if matches!(p.modulation, Modulation::Bpsk | Modulation::Qpsk) {
            let n = p.bits as f64;
            let theory = checks::bpsk_ber(e);
            let floor = n * theory - SLACK_SIGMAS * (n * theory * (1.0 - theory)).sqrt() - 1.0;
            out.check(p.ber * n >= floor, || {
                format!(
                    "{} at {e} dB: BER {} below AWGN theory {theory}",
                    p.modulation, p.ber
                )
            });
        }
        if p.modulation == Modulation::Bpsk && e == top {
            out.check(p.ber <= 1e-3, || format!("BPSK at {e} dB: BER {}", p.ber));
        }
    }
}

/// `fig5::sweep` on one worker, re-enacted frame by frame from public
/// calls with the same per-point RNG streams, each stage timed. Returns
/// the points, which must equal the sweep's bitwise.
fn traced_sweep(seed: u64, s: &mut Samples) -> (Vec<BerPoint>, f64, u64) {
    let cfg = OfdmConfig::default();
    let tx = OfdmModulator::new(cfg.clone()).expect("default config");
    let rx = OfdmDemodulator::new(cfg.clone()).expect("default config");
    let speaker = SpeakerModel::smartphone().with_ringing(Seconds(0.0));
    let mic = MicrophoneModel::ideal().with_jitter(0.05);
    let sr = cfg.sample_rate();
    let mut scratch = DemodScratch::new();
    let mut points = Vec::new();
    let mut frames = 0u64;
    let t0 = Instant::now();
    let mut extra_s = 0.0;
    let grid: Vec<(Modulation, f64)> = Modulation::ALL
        .iter()
        .flat_map(|&m| grid().into_iter().map(move |e| (m, e)))
        .collect();
    for (i, &(m, e)) in grid.iter().enumerate() {
        let mut rng = task_rng(seed, i);
        let chunk = cfg.bits_per_block(m.bits_per_symbol()) * 10;
        let rounds = BITS_PER_POINT.div_ceil(chunk).max(1);
        let mut errs = 0.0;
        let mut total = 0usize;
        for _ in 0..rounds {
            let payload: Vec<bool> = (0..chunk).map(|_| rng.gen()).collect();
            let (wave, t_mod, a_mod) =
                timed_allocs(|| tx.modulate(&payload, m).expect("valid payload"));
            s.add("modem.modulate_us", t_mod * 1e6);
            let (emitted, t) = timed(|| speaker.emit(&wave, Spl(60.0), sr));
            s.add("acoustics.speaker_emit_ms", t * 1e3);
            let data_start = cfg.preamble_len() + cfg.post_preamble_guard();
            let data_energy: f64 = emitted[data_start.min(emitted.len())..]
                .iter()
                .map(|x| x * x)
                .sum();
            let gamma = Db(e).to_linear_power();
            let sigma = (data_energy / (2.0 * gamma * payload.len() as f64)).sqrt();
            let mut rec = emitted;
            let noise = gaussian_noise(rec.len(), sigma, &mut rng);
            for (x, n) in rec.iter_mut().zip(noise) {
                *x += n;
            }
            let (rec, t) = timed(|| mic.record(&rec, sr, &mut rng));
            s.add("acoustics.mic_record_ms", t * 1e3);
            // Detection alone is timed on the side; it is not part of
            // the frame and its time is taken out of the traced total.
            let (_, t) = timed(|| rx.detect_with(&rec, &mut scratch));
            s.add("modem.detect_us", t * 1e6);
            extra_s += t;
            let (res, t, a_demod) =
                timed_allocs(|| rx.demodulate_with(&rec, m, payload.len(), &mut scratch));
            s.add("modem.demodulate_us", t * 1e6);
            s.add(
                "modem.allocs_per_frame",
                (a_mod.allocs + a_demod.allocs) as f64,
            );
            let ber = match res {
                Ok(r) => bit_error_rate(&payload, &r.bits),
                Err(_) => 0.5,
            };
            errs += ber * chunk as f64;
            total += chunk;
            frames += 1;
        }
        points.push(BerPoint {
            modulation: m,
            ebn0: Db(e),
            ber: errs / total as f64,
            bits: total,
        });
    }
    (points, t0.elapsed().as_secs_f64() - extra_s, frames)
}

pub fn run(args: &Args, start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;
    let grid = grid();
    let serial = SweepRunner::serial();
    let (setup_s, frames) = measure::setup(start, SETUP_REPS, || {
        let cfg = OfdmConfig::default();
        let tx = OfdmModulator::new(cfg.clone()).expect("default config");
        let rx = OfdmDemodulator::new(cfg.clone()).expect("default config");
        let mut rng = task_rng(sweep_seed(seed, u64::MAX), 0);
        for m in Modulation::ALL {
            for ebn0 in WARMUP_EBN0 {
                let payload: Vec<bool> = (0..cfg.bits_per_block(m.bits_per_symbol()) * 10)
                    .map(|_| rng.gen())
                    .collect();
                fig5::ber_at_ebn0(&tx, &rx, m, Db(ebn0), &payload, &mut rng);
            }
        }
        frames_per_sweep(&cfg)
    });

    let mut first: Option<Vec<BerPoint>> = None;
    // Bits and bit errors of every point, pooled over all sweeps.
    let mut pooled: Vec<BerPoint> = Vec::new();
    let seconds = if args.trace {
        args.seconds * 0.4
    } else {
        args.seconds
    };
    let timed_phase = run_rounds(seconds, |round| {
        let points = fig5::sweep(
            &grid,
            BITS_PER_POINT,
            sweep_seed(seed, round as u64),
            &serial,
        );
        out.check(points.len() == grid.len() * Modulation::ALL.len(), || {
            format!("sweep returned {} points", points.len())
        });
        if pooled.is_empty() {
            pooled = points
                .iter()
                .map(|p| BerPoint {
                    ber: 0.0,
                    bits: 0,
                    ..*p
                })
                .collect();
        }
        for (acc, p) in pooled.iter_mut().zip(&points) {
            // `ber` holds the error count until the pool is closed.
            acc.ber += p.ber * p.bits as f64;
            acc.bits += p.bits;
        }
        if first.is_none() {
            first = Some(points);
        }
        frames
    });
    out.attempted = timed_phase.ops;
    for p in pooled.iter_mut() {
        p.ber /= p.bits.max(1) as f64;
    }
    check_points(&pooled, &mut out);

    if !args.trace {
        timed_phase.end_to_end(setup_s, &mut out);
    } else {
        let mut frame_layers = Samples::default();
        let (points, traced_s, traced_frames) =
            traced_sweep(sweep_seed(seed, 0), &mut frame_layers);
        out.check(Some(&points) == first.as_ref(), || {
            "re-enacted sweep differs from fig5::sweep".to_string()
        });
        out.attempted += traced_frames;
        // Layers a BER frame never calls are measured on the default
        // office attempt, like session-office.
        let mut samples = layers::probe_all(
            &session_office::office_probes(seed, REFERENCE_OPS),
            &mut out,
        );
        let (trace, clock) = session_office::traced_loop(seed, 0, REFERENCE_OPS, &mut out);
        trace.emit(&clock, &samples, &mut out);
        for name in [
            "acoustics.speaker_emit_ms",
            "acoustics.mic_record_ms",
            "modem.modulate_us",
            "modem.detect_us",
            "modem.demodulate_us",
            "modem.allocs_per_frame",
        ] {
            samples.set(name, vec![frame_layers.median(name)]);
        }
        samples.emit(&mut out);
        fleet_mix::layer_metrics(seed, &mut out);
        out.metric(
            "trace.overhead_ratio",
            (traced_s / traced_frames as f64) / timed_phase.s_per_op(),
            "ratio",
        );
    }
    checks::common(&mut out, seed);

    let funnel: Vec<(String, u64)> = Modulation::ALL
        .iter()
        .flat_map(|&m| {
            let points = pooled.iter().filter(|p| p.modulation == m);
            let bits: usize = points.clone().map(|p| p.bits).sum();
            let errors: f64 = points.map(|p| p.ber * p.bits as f64).sum();
            [
                (format!("{m}_bits_ok"), bits as u64 - errors.round() as u64),
                (format!("{m}_bit_errors"), errors.round() as u64),
            ]
        })
        .collect();
    measure::print_funnel("ber-sweep", &funnel);
    out
}
