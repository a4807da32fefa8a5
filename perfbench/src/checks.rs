//! Reference checks computed apart from the program under test.

use rand::rngs::StdRng;
use rand::SeedableRng;

use wearlock::config::WearLockConfig;
use wearlock_acoustics::channel::AcousticLink;
use wearlock_acoustics::hardware::MicrophoneModel;
use wearlock_acoustics::noise::Location;
use wearlock_auth::hotp::{hotp_binary, hotp_decimal};
use wearlock_dsp::units::{Meters, SampleRate, Spl};

use crate::measure::Outcome;

/// RFC 4226 Appendix D: secret, then (truncated value, 6-digit HOTP)
/// for counters 0..=9.
const RFC4226_KEY: &[u8] = b"12345678901234567890";
const RFC4226: [(u32, u32); 10] = [
    (0x4c93cf18, 755224),
    (0x41397eea, 287082),
    (0x082fef30, 359152),
    (0x66ef7655, 969429),
    (0x61c5938a, 338314),
    (0x33c083d4, 254676),
    (0x7256c032, 287922),
    (0x04e5b397, 162583),
    (0x2823443f, 399871),
    (0x2679dc69, 520489),
];

/// Tolerance of a full-band recording's SPL around
/// `Location::ambient_spl`, dB.
pub const AMBIENT_TOLERANCE_DB: f64 = 1.0;

/// Runs every check that does not depend on the workload.
pub fn common(out: &mut Outcome, seed: u64) {
    hotp(out);
    spreading_loss(out);
    ambient_spl(out, seed);
}

fn hotp(out: &mut Outcome) {
    for (counter, &(binary, decimal)) in RFC4226.iter().enumerate() {
        let b = hotp_binary(RFC4226_KEY, counter as u64);
        let d = hotp_decimal(RFC4226_KEY, counter as u64, 6);
        out.check(b == binary && d == decimal, || {
            format!("RFC 4226 count {counter}: got {b:#x}/{d}, want {binary:#x}/{decimal}")
        });
    }
}

/// Spherical spreading: received SPL falls by 20·log10(2) dB per
/// distance doubling (beyond the 5 cm reference distance).
fn spreading_loss(out: &mut Outcome) {
    let want = 20.0 * 2f64.log10();
    for d in [0.1, 0.2, 0.4, 0.8, 1.6] {
        let rx = |m: f64| {
            AcousticLink::builder()
                .distance(Meters(m))
                .build()
                .expect("positive distance")
                .predicted_rx_spl(Spl(70.0))
                .value()
        };
        let drop = rx(d) - rx(2.0 * d);
        out.check((drop - want).abs() < 1e-9, || {
            format!(
                "spreading loss {d} m -> {} m: {drop} dB, want {want}",
                2.0 * d
            )
        });
    }
}

/// The SPL of one second of `record_ambient` matches the location's
/// nominal ambient SPL within [`AMBIENT_TOLERANCE_DB`] through a
/// full-band microphone. Through the session's watch microphone the
/// 7 kHz band limit can only remove power, at most the out-of-band share
/// of a white spectrum (10·log10(22.05/7) ≈ 5 dB), so the level must lie
/// in [nominal − 5 dB − tolerance, nominal + tolerance].
fn ambient_spl(out: &mut Outcome, seed: u64) {
    let watch = WearLockConfig::default().receiver_microphone();
    let band_loss = 10.0 * (SampleRate::CD.value() / 2.0 / 7_000.0).log10();
    let mut rng = StdRng::seed_from_u64(seed);
    for loc in [
        Location::QuietRoom,
        Location::Office,
        Location::ClassRoom,
        Location::Cafe,
        Location::GroceryStore,
    ] {
        let want = loc.ambient_spl().value();
        let mut level = |mic: MicrophoneModel| {
            let link = AcousticLink::builder()
                .noise(loc.noise_model())
                .microphone(mic)
                .build()
                .expect("default distance");
            wearlock_dsp::level::spl(&link.record_ambient(44_100, &mut rng)).value()
        };
        let full = level(MicrophoneModel::ideal());
        out.check((full - want).abs() <= AMBIENT_TOLERANCE_DB, || {
            format!("{loc:?} full-band ambient SPL {full:.2} dB, nominal {want} dB")
        });
        let got = level(watch.clone());
        let ok =
            got <= want + AMBIENT_TOLERANCE_DB && got >= want - band_loss - AMBIENT_TOLERANCE_DB;
        out.check(ok, || {
            format!("{loc:?} watch-microphone ambient SPL {got:.2} dB, nominal {want} dB")
        });
    }
}

/// Complementary error function (Numerical Recipes `erfcc`, Chebyshev
/// fit with fractional error below 1.2e-7 everywhere).
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let r = t * poly.exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

/// Coherent BPSK/QPSK bit error rate over AWGN: Q(√(2·Eb/N0)).
pub fn bpsk_ber(ebn0_db: f64) -> f64 {
    let g = 10f64.powf(ebn0_db / 10.0);
    0.5 * erfc(g.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_matches_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_207).abs() < 1e-7);
        assert!((erfc(-1.0) - 1.842_700_793).abs() < 1e-7);
        // BPSK at 9.6 dB is the textbook 1e-5 point.
        assert!((bpsk_ber(9.6) / 1e-5 - 1.0).abs() < 0.1);
    }
}
