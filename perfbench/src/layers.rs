//! Per-layer probes: calls into each crate's public functions, timed
//! from here, on the inputs a workload's attempts use.
//!
//! One probe walks an attempt's layer calls in pipeline order: sensor
//! synthesis and the motion filter, the ambient recording, modem
//! construction and probe synthesis, the probe transmission (split into
//! the channel simulator's stages), fault injection, detection and probe
//! analysis, the token round trip through auth, modulation, the token
//! transmission and demodulation. The split transmission is checked
//! bitwise against `AcousticLink::transmit` on a clone of the same RNG,
//! so the stage times belong to exactly the samples the link produces.
//! Phase 2 uses the configured data channels (the session re-selects
//! channels of equal count from the probed spectrum first).

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use wearlock::config::{NamedConfig, WearLockConfig};
use wearlock::environment::{Environment, MotionScenario};
use wearlock::trim;
use wearlock_acoustics::channel::{
    AcousticLink, PathKind, DEFAULT_LEAD_PAD, DEFAULT_TAIL_PAD, SPEED_OF_SOUND,
};
use wearlock_acoustics::hardware::{MicrophoneModel, SpeakerModel};
use wearlock_acoustics::multipath::ImpulseResponse;
use wearlock_auth::token::{
    bits_to_token, repetition_decode, repetition_encode, token_to_bits, TokenGenerator,
    TokenVerifier,
};
use wearlock_dsp::resample::fractional_delay;
use wearlock_dsp::units::{Seconds, Spl};
use wearlock_faults::{FaultConfig, FaultPlan};
use wearlock_modem::coding::{conv_encode, viterbi_decode, TokenCoding};
use wearlock_modem::{DemodScratch, OfdmDemodulator, OfdmModulator, TransmissionMode, TxScratch};
use wearlock_sensors::activity::{synthesize_different_pair, synthesize_pair};

use crate::measure::{median, timed, timed_allocs, Outcome};

/// The speaker every benchmark config names explicitly (the session
/// default), so layer calls see the model the session uses.
pub fn speaker() -> SpeakerModel {
    SpeakerModel::smartphone()
}

/// Preamble score below which the session denies (its default), set
/// explicitly so the probe's detection threshold matches the session's
/// `max(score, 0.3)`.
const NLOS_SCORE: f64 = 0.05;

/// The configuration every workload's sessions run: the named paper
/// configuration (Config1 by default) with explicit speaker and
/// detection settings.
pub fn config(named: NamedConfig, otp_counter: u64) -> WearLockConfig {
    WearLockConfig::builder()
        .named(named)
        .speaker(speaker())
        .nlos_score_threshold(NLOS_SCORE)
        .otp_counter(otp_counter)
        .build()
        .expect("benchmark configs are valid")
}

/// Per-layer samples by metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    /// Median of the samples of `name` (0 if none).
    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }

    /// Replaces the samples of `name`.
    pub fn set(&mut self, name: &'static str, v: Vec<f64>) {
        self.0.insert(name, v);
    }

    /// Emits the median of every sampled metric.
    pub fn emit(&self, out: &mut Outcome) {
        for (name, v) in &self.0 {
            out.metric(*name, median(v), unit_of(name));
        }
    }

    /// Mean of the samples of `name` (0 if none).
    pub fn mean(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len().max(1) as f64)
    }

    /// Mean host milliseconds the probed layers take per attempt, each
    /// layer weighted by the share of attempts that reach it: sensor
    /// synthesis and the motion filter, phase 1 (ambient recording,
    /// modem construction, probe synthesis, transmission, probe
    /// analysis) and phase 2 (construction, token, modulation,
    /// transmission, demodulation). Detection runs inside probe analysis
    /// and demodulation, and fault derivation outside
    /// `UnlockSession::run`, so neither is added.
    pub fn attempt_ms(&self, shares: Shares) -> f64 {
        let us = |n| self.mean(n) / 1e3;
        let ms = |n| self.mean(n);
        shares.sensors * (us("sensors.synthesize_us") + us("sensors.motion_filter_us"))
            + shares.phase1
                * (ms("acoustics.record_ambient_ms")
                    + us("modem.construct_us")
                    + us("modem.probe_us")
                    + ms("acoustics.transmit_ms")
                    + us("modem.analyze_probe_us"))
            + shares.phase2
                * (us("modem.construct_us")
                    + us("auth.token_us")
                    + us("modem.modulate_us")
                    + ms("acoustics.transmit_ms")
                    + us("modem.demodulate_us"))
    }
}

/// Shares of attempts that reach each stretch of the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    pub sensors: f64,
    pub phase1: f64,
    pub phase2: f64,
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_us") {
        "us"
    } else if name.contains("alloc_mb") {
        "MiB"
    } else {
        "count"
    }
}

/// One attempt's inputs for [`probe`].
#[derive(Debug, Clone)]
pub struct ProbeInput {
    pub config: WearLockConfig,
    pub env: Environment,
    pub faults: FaultConfig,
    pub attempt: u64,
}

/// Reused buffers, as the session reuses its own.
#[derive(Debug, Default)]
pub struct Scratch {
    tx: TxScratch,
    demod: DemodScratch,
    probe: Vec<f64>,
    wave: Vec<f64>,
}

/// Walks one attempt's layer calls (see the module docs), adding one
/// sample per metric to `s`.
pub fn probe(
    p: &ProbeInput,
    rng: &mut StdRng,
    scratch: &mut Scratch,
    s: &mut Samples,
    out: &mut Outcome,
) {
    let cfg = &p.config;
    let env = &p.env;

    let ((phone, watch), t) = timed(|| match env.motion {
        MotionScenario::CoLocated { activity } => {
            synthesize_pair(activity, env.sensor_samples, &mut *rng)
        }
        MotionScenario::Different { phone, watch } => {
            synthesize_different_pair(phone, watch, env.sensor_samples, &mut *rng)
        }
    });
    s.add("sensors.synthesize_us", t * 1e6);
    let (_, t) = timed(|| cfg.motion_filter().evaluate(&phone, &watch));
    s.add("sensors.motion_filter_us", t * 1e6);

    let mic = cfg.receiver_microphone();
    let link = AcousticLink::builder()
        .distance(env.distance)
        .noise(env.location.noise_model())
        .path(env.path)
        .speaker(speaker())
        .microphone(mic.clone())
        .build()
        .expect("environment distances are positive");
    let (ambient, t) = timed(|| link.record_ambient(4_096, &mut *rng));
    s.add("acoustics.record_ambient_ms", t * 1e3);
    let volume = cfg.required_volume(wearlock_dsp::level::spl(&ambient));

    let plan_tx = |s: &mut Samples| {
        let (pair, t) = timed(|| {
            let tx = OfdmModulator::new(cfg.modem().clone()).expect("valid modem");
            let rx = OfdmDemodulator::new(cfg.modem().clone())
                .expect("valid modem")
                .with_detection_threshold(NLOS_SCORE.max(0.3));
            (tx, rx)
        });
        s.add("modem.construct_us", t * 1e6);
        pair
    };

    // Phase 1: probe.
    let (tx, rx) = plan_tx(s);
    let (r, t) = timed(|| tx.probe_into(cfg.probe_blocks(), &mut scratch.tx, &mut scratch.probe));
    r.expect("probe is valid");
    s.add("modem.probe_us", t * 1e6);
    let mut probe_rec = transmit(&link, &mic, &scratch.probe, volume, rng, s, out);

    let (plan, t_plan) = timed(|| FaultPlan::derive(&p.faults, p.attempt));
    let (_, t_apply1) = timed(|| plan.phase1.apply(&mut probe_rec));

    let sr = cfg.modem().sample_rate();
    let pad = trim::search_pad(sr);
    let window = |rec: &[f64], len: usize, lead: f64, rx: OfdmDemodulator| {
        let w = trim::plan_trim(rec, sr, len, lead);
        let rx = if w.detected {
            let (lo, hi) = w.search_bounds(pad, cfg.modem().preamble_len());
            rx.with_search_window(lo, hi)
        } else {
            rx
        };
        (w, rx)
    };
    let (w1, rx) = window(
        &probe_rec,
        scratch.probe.len(),
        trim::PROBE_NOISE_LEAD_S,
        rx,
    );
    let trimmed = w1.slice(&probe_rec);
    let (_, t) = timed(|| rx.detect_with(trimmed, &mut scratch.demod));
    s.add("modem.detect_us", t * 1e6);
    let (report, t) = timed(|| rx.analyze_probe_with(trimmed, &mut scratch.demod));
    s.add("modem.analyze_probe_us", t * 1e6);
    let mode = report
        .ok()
        .and_then(|r| {
            cfg.policy()
                .select_mode(r.ebn0(cfg.modem(), TransmissionMode::Qpsk.modulation()))
        })
        .unwrap_or(TransmissionMode::Qpsk);

    // Phase 2: token.
    let coding = cfg.token_coding();
    let mut generator = TokenGenerator::new(cfg.otp_key(), 0);
    let mut verifier = TokenVerifier::new(cfg.otp_key(), 0, 3);
    let (coded, t) = timed(|| {
        let bits = token_to_bits(generator.next_token());
        let coded = match coding {
            TokenCoding::Repetition(r) => repetition_encode(&bits, r),
            TokenCoding::Convolutional => conv_encode(&bits),
        };
        let decoded = match coding {
            TokenCoding::Repetition(r) => repetition_decode(&coded, wearlock_auth::TOKEN_BITS, r),
            TokenCoding::Convolutional => viterbi_decode(&coded, wearlock_auth::TOKEN_BITS).ok(),
        };
        let token = decoded.as_deref().and_then(bits_to_token);
        (coded, token.map(|t| verifier.verify(t)))
    });
    s.add("auth.token_us", t * 1e6);
    let (coded, verdict) = coded;
    out.check(
        matches!(verdict, Some(wearlock_auth::VerifyOutcome::Accepted { .. })),
        || format!("clean token round trip not accepted: {verdict:?}"),
    );

    let (tx2, rx2) = plan_tx(s);
    let modulation = mode.modulation();
    let (r, t_mod, a_mod) =
        timed_allocs(|| tx2.modulate_into(&coded, modulation, &mut scratch.tx, &mut scratch.wave));
    r.expect("coded token is non-empty");
    s.add("modem.modulate_us", t_mod * 1e6);
    let mut token_rec = transmit(&link, &mic, &scratch.wave, volume, rng, s, out);
    let (_, t_apply2) = timed(|| plan.phase2.apply(&mut token_rec));
    s.add("faults.apply_us", (t_plan + t_apply1 + t_apply2) * 1e6);

    let (w2, rx2) = window(
        &token_rec,
        scratch.wave.len(),
        trim::TOKEN_NOISE_LEAD_S,
        rx2,
    );
    let token_trimmed = w2.slice(&token_rec);
    let (_, t_demod, a_demod) = timed_allocs(|| {
        rx2.demodulate_with(token_trimmed, modulation, coded.len(), &mut scratch.demod)
    });
    s.add("modem.demodulate_us", t_demod * 1e6);
    s.add(
        "modem.allocs_per_frame",
        (a_mod.allocs + a_demod.allocs) as f64,
    );
}

/// `AcousticLink::transmit` split into its stages, each timed, with the
/// whole call timed and allocation-counted on a clone of `rng`; the two
/// recordings and the RNG states after them must agree bitwise.
fn transmit(
    link: &AcousticLink,
    mic: &MicrophoneModel,
    signal: &[f64],
    volume: Spl,
    rng: &mut StdRng,
    s: &mut Samples,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut reference = rng.clone();
    let (want, t, a) = timed_allocs(|| link.transmit(signal, volume, &mut reference));
    s.add("acoustics.transmit_ms", t * 1e3);
    s.add("acoustics.allocs_per_transmit", a.allocs as f64);
    s.add(
        "acoustics.alloc_mb_per_transmit",
        a.bytes as f64 / (1024.0 * 1024.0),
    );

    let sr = link.sample_rate();
    let spk = speaker();
    let (emitted, t) = timed(|| spk.emit(signal, volume, sr));
    s.add("acoustics.speaker_emit_ms", t * 1e3);
    let (travelled, t) = timed(|| {
        let gain = link.propagation().amplitude_gain(link.distance());
        let delay = link.distance().value() / SPEED_OF_SOUND * sr.value();
        let mut v = fractional_delay(&emitted, delay);
        for x in v.iter_mut() {
            *x *= gain;
        }
        v
    });
    s.add("acoustics.fractional_delay_ms", t * 1e3);
    let (faded, t) = timed(|| {
        let ir = match link.path() {
            PathKind::LineOfSight => {
                ImpulseResponse::line_of_sight(Seconds(0.004), 60.0, 0.25, sr, &mut *rng)
            }
            PathKind::BodyBlocked { block_db } => {
                ImpulseResponse::body_blocked(Seconds(0.0025), block_db, sr, &mut *rng)
            }
        }
        .expect("static multipath parameters are valid");
        ir.apply(&travelled)
    });
    s.add("acoustics.multipath_ms", t * 1e3);
    let total = DEFAULT_LEAD_PAD + faded.len() + DEFAULT_TAIL_PAD;
    let (mut recording, t) = timed(|| link.noise().generate(total, sr, &mut *rng));
    s.add("acoustics.noise_generate_ms", t * 1e3);
    for (i, &v) in faded.iter().enumerate() {
        recording[DEFAULT_LEAD_PAD + i] += v;
    }
    let (got, t) = timed(|| mic.record(&recording, sr, &mut *rng));
    s.add("acoustics.mic_record_ms", t * 1e3);

    out.check(got == want && *rng == reference, || {
        "staged transmit differs from AcousticLink::transmit".to_string()
    });
    got
}

/// Runs [`probe`] over `inputs` (each with its own RNG seed) after one
/// unrecorded warm-up probe, and returns the samples.
pub fn probe_all(inputs: &[(ProbeInput, u64)], out: &mut Outcome) -> Samples {
    use rand::SeedableRng;
    let mut scratch = Scratch::default();
    let mut warm = Samples::default();
    if let Some((p, seed)) = inputs.first() {
        probe(
            p,
            &mut StdRng::seed_from_u64(*seed),
            &mut scratch,
            &mut warm,
            out,
        );
    }
    let mut s = Samples::default();
    for (p, seed) in inputs {
        probe(
            p,
            &mut StdRng::seed_from_u64(*seed),
            &mut scratch,
            &mut s,
            out,
        );
    }
    s
}
