//! The model's only transcendentals: `exp`, `sigmoid` and `tanh` in f32.
//!
//! Every function is a fixed sequence of IEEE multiplies, adds, divides,
//! compares-and-selects and bit operations — no table, no data-dependent
//! branch, no libm call — so one scalar call and one lane of an
//! auto-vectorised loop over a slice produce the same bits. That is what
//! lets the autodiff tape ([`crate::Graph::sigmoid`], [`crate::Graph::tanh`])
//! and the row code of [`crate::dense`] — the GRU and attention that the
//! tape's fused ops and the CSR inference kernel in `deepgate-gnn` share —
//! call the same code, while the elementwise loops run a vector wide instead
//! of one libm call per element. The unit tests state the error bounds against an f64 reference
//! and pin the edge behaviour.

/// Smallest input whose exponential is a normal f32 (`ln 2^-126`, rounded
/// towards zero); below it [`exp`] returns `0.0`, never a denormal.
const EXP_LO: f32 = -87.336_54;
/// Largest input whose exponential is finite (`ln f32::MAX`, rounded
/// down); above it [`exp`] returns `+inf`.
const EXP_HI: f32 = 88.722_83;
/// `ln 2` split Cody–Waite style: the high part has few enough mantissa
/// bits that `n * LN2_HI` is exact for every `n` the clamp admits.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 * 2^23`: adding it rounds a small float to the nearest integer and
/// leaves that integer in the low mantissa bits of the sum.
const ROUND: f32 = 12_582_912.0;

/// `e^x`, within 2e-7 relative of the exact value over the whole range.
///
/// `0.0` below the normal range (`x < -87.33654`), `+inf` above `88.72283`,
/// NaN for NaN.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // x = n ln2 + r with |r| <= ln2 / 2; the clamp keeps n in [-126, 128].
    let xc = x.clamp(EXP_LO, EXP_HI);
    let t = xc * std::f32::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let r = (xc - n * LN2_HI) - n * LN2_LO;
    // e^r = 1 + r + r^2 P(r), P a degree-5 near-minimax fit.
    let mut p = 1.989_299_2e-4;
    p = p * r + 1.393_545_2e-3;
    p = p * r + 8.333_309e-3;
    p = p * r + 4.166_644_8e-2;
    p = p * r + 1.666_666_7e-1;
    p = p * r + 0.5;
    let e = 1.0 + (r + r * r * p);
    // Scale by 2^n: the low bits of `t` hold n, so shifting them onto the
    // exponent field of `e` adds n to it. `e` is in [0.707, 1.415], below 1
    // when n = 128 and at least 1 when n = -126 (the tests walk both ends),
    // so the field stays inside the normal range.
    let y = f32::from_bits(e.to_bits().wrapping_add(t.to_bits() << 23));
    let y = if x < EXP_LO { 0.0 } else { y };
    let y = if x > EXP_HI { f32::INFINITY } else { y };
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// The logistic function `1 / (1 + e^-x)`, within 2e-7 absolute; exactly
/// `0.0` / `1.0` once the exponential saturates.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// Hyperbolic tangent, within 2e-7 absolute and odd bit for bit
/// (`tanh(-x) == -tanh(x)`, signed zeros included): an odd polynomial below
/// `|x| = 0.625`, where `1 - 2 / (e^2|x| + 1)` would cancel, and that
/// expression above it. Both are evaluated and one is selected.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let z = a * a;
    // tanh(a) = a + a z P(z) on [0, 0.625].
    let mut p = -6.096_714e-3;
    p = p * z + 2.099_718e-2;
    p = p * z - 5.385_091e-2;
    p = p * z + 1.333_277e-1;
    p = p * z - 3.333_333e-1;
    let small = a + a * z * p;
    let big = 1.0 - 2.0 / (exp(a + a) + 1.0);
    let t = if a < 0.625 { small } else { big };
    f32::from_bits(t.to_bits() | (x.to_bits() & 0x8000_0000))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `stride`-th f32 of `[-limit, limit]`, both signs, zero first.
    fn sweep(limit: f32, stride: usize) -> impl Iterator<Item = f32> {
        (0..=limit.to_bits())
            .step_by(stride)
            .map(f32::from_bits)
            .flat_map(|x| [x, -x])
    }

    fn ref_sigmoid(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }

    #[test]
    fn errors_against_f64_stay_inside_the_stated_bounds() {
        let (mut worst_exp, mut worst_sig, mut worst_tanh) = (0.0f64, 0.0f64, 0.0f64);
        for x in sweep(20.0, 509).chain([-20.0, 20.0]) {
            let xd = f64::from(x);
            worst_exp = worst_exp.max(((f64::from(exp(x)) - xd.exp()) / xd.exp()).abs());
            worst_sig = worst_sig.max((f64::from(sigmoid(x)) - ref_sigmoid(xd)).abs());
            worst_tanh = worst_tanh.max((f64::from(tanh(x)) - xd.tanh()).abs());
        }
        // The relative bound on exp holds to both ends of its range.
        for x in sweep(EXP_HI, 4099).chain([EXP_LO, EXP_HI]) {
            if x >= EXP_LO {
                let xd = f64::from(x);
                worst_exp = worst_exp.max(((f64::from(exp(x)) - xd.exp()) / xd.exp()).abs());
            }
        }
        println!("max error: exp {worst_exp:.2e} relative, sigmoid {worst_sig:.2e}, tanh {worst_tanh:.2e} absolute");
        assert!(worst_exp <= 2e-7, "exp relative error {worst_exp:e}");
        assert!(worst_sig <= 2e-7, "sigmoid absolute error {worst_sig:e}");
        assert!(worst_tanh <= 2e-7, "tanh absolute error {worst_tanh:e}");
    }

    #[test]
    fn sigmoid_is_non_decreasing_and_outputs_stay_in_range() {
        let mut xs: Vec<f32> = sweep(20.0, 509).chain(sweep(f32::MAX, 1 << 16)).collect();
        xs.sort_by(f32::total_cmp);
        let mut previous = 0.0f32;
        for x in xs {
            let (s, t) = (sigmoid(x), tanh(x));
            assert!((0.0..=1.0).contains(&s), "sigmoid({x:e}) = {s:e}");
            assert!((-1.0..=1.0).contains(&t), "tanh({x:e}) = {t:e}");
            let e = exp(x);
            assert!(e == 0.0 || e.is_normal() || e == f32::INFINITY);
            if x.abs() <= 20.0 {
                assert!(s >= previous, "sigmoid decreases at {x:e}");
                previous = s;
            }
        }
    }

    #[test]
    fn exp_flushes_below_the_normal_range_and_saturates_above_it() {
        // 100 000 consecutive floats inwards from each end are normal…
        for (end, finite_side) in [(EXP_LO, f32::MIN_POSITIVE), (EXP_HI, f32::MAX)] {
            let mut x = end;
            for _ in 0..100_000 {
                let y = exp(x);
                assert!(y.is_normal(), "exp({x:e}) = {y:e}");
                x = f32::from_bits(x.to_bits() - 1);
            }
            let rel = (f64::from(exp(end)) - f64::from(finite_side)) / f64::from(finite_side);
            assert!(
                rel.abs() < 1e-5,
                "exp({end:e}) is {rel:e} off the range end"
            );
        }
        // …and the first float outwards is 0.0 / +inf, never a denormal.
        assert_eq!(exp(f32::from_bits(EXP_LO.to_bits() + 1)).to_bits(), 0);
        assert_eq!(exp(f32::from_bits(EXP_HI.to_bits() + 1)), f32::INFINITY);
        for x in [-87.4, -88.0, -100.0, -1e30, f32::NEG_INFINITY] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x:e})");
        }
        for x in [88.73, 100.0, 1e30, f32::INFINITY] {
            assert_eq!(exp(x), f32::INFINITY, "exp({x:e})");
        }
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
    }

    #[test]
    fn nan_in_nan_out() {
        // A payload in the low mantissa bits must not leak into the exponent.
        for bits in [f32::NAN.to_bits(), 0x7fc0_0155, 0xffc0_0001, 0x7f80_0001] {
            let x = f32::from_bits(bits);
            assert!(exp(x).is_nan() && sigmoid(x).is_nan() && tanh(x).is_nan());
        }
    }

    #[test]
    fn sigmoid_and_tanh_saturate_exactly() {
        assert_eq!(sigmoid(200.0), 1.0);
        assert_eq!(sigmoid(-200.0).to_bits(), 0);
        assert_eq!(sigmoid(-100.0).to_bits(), 0);
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(sigmoid(0.0), 0.5);
        for x in [20.0, 50.0, 1e30, f32::INFINITY] {
            assert_eq!(tanh(x), 1.0);
            assert_eq!(tanh(-x), -1.0);
        }
    }

    #[test]
    fn tanh_is_odd_bit_for_bit() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        for x in sweep(f32::MAX, 65_521).chain(sweep(1.0, 8_191)) {
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "x = {x:e}");
        }
    }

    /// The claim the kernel ↔ tape exactness contract rests on: a loop over a
    /// slice (which the optimiser vectorises in `--release`) and one opaque
    /// scalar call per element give the same bits.
    #[test]
    fn slice_loop_equals_scalar_calls_bit_for_bit() {
        fn scalar_calls(f: fn(f32) -> f32, xs: &[f32]) -> Vec<u32> {
            let f = std::hint::black_box(f);
            xs.iter().map(|&x| f(x).to_bits()).collect()
        }
        fn bits(xs: &[f32]) -> Vec<u32> {
            xs.iter().map(|x| x.to_bits()).collect()
        }
        let input: Vec<f32> = (0..1000)
            .map(|i| (i as f32 - 500.0) * 0.0437 + (i % 7) as f32 * 1e-3)
            .chain([0.0, -0.0, 0.625, -0.625, 88.0, -88.0, 200.0, -200.0])
            .collect();
        let (mut e, mut s, mut t) = (input.clone(), input.clone(), input.clone());
        e.iter_mut().for_each(|v| *v = exp(*v));
        s.iter_mut().for_each(|v| *v = sigmoid(*v));
        t.iter_mut().for_each(|v| *v = tanh(*v));
        assert_eq!(bits(&e), scalar_calls(exp, &input), "exp");
        assert_eq!(bits(&s), scalar_calls(sigmoid, &input), "sigmoid");
        assert_eq!(bits(&t), scalar_calls(tanh, &input), "tanh");
    }
}
