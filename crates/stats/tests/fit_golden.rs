//! Bit-level fingerprints of `fit_all` and `fit_best` on fixed-seed
//! samples.
//!
//! Every field of every returned `FitResult` (family, parameters, KS, R²,
//! SSE) is folded into an FNV-1a hash through `f64::to_bits`, so a solver
//! change that moves a single bit of any reported fit fails here. The
//! samples cover the shapes the fitting code treats specially:
//!
//! - tick-rounded exponential gaps, whose quantile anchors repeat;
//! - a continuous two-phase hyperexponential (the EM start);
//! - a Gamma with non-integer shape (the incomplete-gamma CDF);
//! - a Normal;
//! - 20 values, fewer than the 64 least-squares anchors;
//! - a two-valued sample.
//!
//! The fingerprints were captured on x86_64 Linux. `exp`, `ln` and `powf`
//! come from the platform's libm, so another platform may differ in the
//! last bits; everything else in the fit is plain IEEE arithmetic.

use commchar_stats::fit::{FitContext, FitResult};
use commchar_stats::Dist;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over 64-bit words, byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

fn fingerprint(fits: &[FitResult]) -> u64 {
    let mut h = Fnv::new();
    for r in fits {
        for b in r.dist.family_name().bytes() {
            h.word(u64::from(b));
        }
        if let Dist::Erlang { k, .. } = r.dist {
            h.word(u64::from(k));
        }
        for p in r.dist.params() {
            h.float(p);
        }
        h.float(r.ks);
        h.float(r.r2);
        h.float(r.sse);
    }
    h.0
}

fn samples_of(d: Dist, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| d.sample(&mut rng)).collect()
}

fn cases() -> Vec<(&'static str, Vec<f64>)> {
    let two_valued = (0..64).map(|i| if i % 8 < 5 { 3.0 } else { 7.0 }).collect();
    vec![
        (
            "tick_exponential",
            samples_of(Dist::exponential(0.2), 3000, 11).iter().map(|x| x.round()).collect(),
        ),
        ("hyperexp2", samples_of(Dist::hyper_exp2(0.2, 1.0, 0.02), 2500, 10)),
        ("gamma", samples_of(Dist::gamma(2.6, 0.08), 3000, 21)),
        ("normal", samples_of(Dist::normal(50.0, 5.0), 2000, 5)),
        ("twenty", samples_of(Dist::exponential(0.1), 20, 3)),
        ("two_valued", two_valued),
    ]
}

/// `(case, fit_all fingerprint, fit_best fingerprint)`.
const GOLDEN: [(&str, u64, u64); 6] = [
    ("tick_exponential", 0xbb89_e1d3_131e_5e0e, 0x4058_13b9_b622_a1a6),
    ("hyperexp2", 0x41ed_3e4b_4131_f079, 0x8c8b_dcd5_7219_607a),
    ("gamma", 0x7c46_925a_a42d_a258, 0x1403_d5fa_4fed_c783),
    ("normal", 0xb6ae_4df7_d564_9799, 0x62de_ce90_2965_46da),
    ("twenty", 0xb3f8_8a33_5c9e_cbd7, 0x27cc_800e_d39b_549e),
    ("two_valued", 0x6cd2_d89a_8c7d_06fb, 0xb6f8_eed2_0924_32fa),
];

#[test]
fn fits_match_their_golden_fingerprints() {
    let mut mismatches = Vec::new();
    for ((name, samples), &(golden_name, all_fp, best_fp)) in cases().iter().zip(&GOLDEN) {
        assert_eq!(*name, golden_name, "case table and golden table out of step");
        let ctx = FitContext::new(samples);
        let all = ctx.fit_all();
        let best = ctx.fit_best().expect("deterministic always applies");
        let (got_all, got_best) = (fingerprint(&all), fingerprint(std::slice::from_ref(&best)));
        if (got_all, got_best) != (all_fp, best_fp) {
            mismatches.push(format!(
                "{name}: fit_all {got_all:#018x} (golden {all_fp:#018x}), \
                 fit_best {got_best:#018x} (golden {best_fp:#018x}); best = {best:?}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "fit fingerprints moved:\n{}", mismatches.join("\n"));
}
