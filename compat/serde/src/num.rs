//! Number text without `core::fmt`: the shortest round-trip `f64` form
//! (Ryu's `d2d` over the build-generated 125-bit power-of-five tables)
//! laid out exactly as `format!("{x}")` plus the writer's `.0` rule, and
//! `u64`/`i64` through a digit-pair table.
//!
//! One rule differs from published Ryu: an exact tie between two shortest
//! candidates rounds *up*, as std does (`1658206780088562.25` prints
//! `1658206780088562.3`; round-half-even would print `…562.2`).

include!(concat!(env!("OUT_DIR"), "/pow5.rs"));

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BITS: u32 = 11;
const BIAS: i32 = 1023;
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_BITCOUNT: i32 = 125;

/// `"00" "01" … "99"`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

const ZEROS: &[u8; 64] = &[b'0'; 64];

/// Writes the decimal digits of `n` right-aligned to end at `buf[end]`;
/// returns the index of the first digit.
fn digits(mut n: u64, buf: &mut [u8], end: usize) -> usize {
    let mut i = end;
    let mut pair = |buf: &mut [u8], k: usize| {
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[2 * k..2 * k + 2]);
    };
    // Four digits per 64-bit division, then two at a time.
    while n >= 10_000 {
        let quad = (n % 10_000) as usize;
        n /= 10_000;
        pair(buf, quad % 100);
        pair(buf, quad / 100);
    }
    let mut n = n as usize;
    if n >= 100 {
        pair(buf, n % 100);
        n /= 100;
    }
    if n >= 10 {
        pair(buf, n);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    i
}

/// Appends `n` in decimal.
pub(crate) fn write_u64(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0u8; 20];
    let start = digits(n, &mut buf, 20);
    out.extend_from_slice(&buf[start..]);
}

/// Appends `n` in decimal.
pub(crate) fn write_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    write_u64(out, n.unsigned_abs());
}

fn push_zeros(out: &mut Vec<u8>, mut n: usize) {
    while n > 0 {
        let k = n.min(ZEROS.len());
        out.extend_from_slice(&ZEROS[..k]);
        n -= k;
    }
}

/// Appends finite `x` as `format!("{x}")` prints it, plus `.0` when that
/// has no fraction: `-0.0`, `1024.0`, `0.000123`, `1e21` in full.
pub(crate) fn write_f64(out: &mut Vec<u8>, x: f64) {
    debug_assert!(x.is_finite());
    if x.is_sign_negative() {
        out.push(b'-');
    }
    if x == 0.0 {
        out.extend_from_slice(b"0.0");
        return;
    }
    let (mantissa, exp) = d2d(x.to_bits());

    // Digits end at `END`; the layout grows into the room on both sides,
    // and the rare long zero runs (|exp| beyond the buffer) go through
    // `push_zeros`.
    const END: usize = 32;
    let mut buf = [b'0'; 64];
    let start = digits(mantissa, &mut buf, END);
    let n = END - start;
    let point = n as i32 + exp; // digits before the decimal point
    if exp >= 0 {
        let zeros = exp as usize;
        if END + zeros + 2 <= buf.len() {
            buf[END + zeros..END + zeros + 2].copy_from_slice(b".0");
            out.extend_from_slice(&buf[start..END + zeros + 2]);
        } else {
            out.extend_from_slice(&buf[start..END]);
            push_zeros(out, zeros);
            out.extend_from_slice(b".0");
        }
    } else if point > 0 {
        let point = point as usize;
        buf.copy_within(start..start + point, start - 1);
        buf[start - 1 + point] = b'.';
        out.extend_from_slice(&buf[start - 1..END]);
    } else {
        let zeros = (-point) as usize;
        if zeros + 2 <= start {
            let lead = start - zeros - 2;
            buf[lead..lead + 2].copy_from_slice(b"0.");
            out.extend_from_slice(&buf[lead..END]);
        } else {
            out.extend_from_slice(b"0.");
            push_zeros(out, zeros);
            out.extend_from_slice(&buf[start..END]);
        }
    }
}

// ── Ryu d2d ──────────────────────────────────────────────────────────

/// `ceil(log2(5^e))` for `e >= 1`, and 1 for `e == 0`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn pow5_factor(mut v: u64) -> u32 {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count
}

fn multiple_of_pow5(v: u64, p: u32) -> bool {
    pow5_factor(v) >= p
}

/// `(m * mul) >> j` for a 125-bit `mul` and `j >= 64`.
fn mul_shift(m: u64, mul: (u64, u64), j: i32) -> u64 {
    let low = u128::from(m) * u128::from(mul.0);
    let high = u128::from(m) * u128::from(mul.1);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest decimal `(digits, exponent)` with `digits * 10^exponent`
/// reading back as the positive finite `f64` of `bits`; among shortest
/// candidates the closest, ties rounding up.
fn d2d(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & ((1 << EXPONENT_BITS) - 1)) as u32;
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    let accept_bounds = m2.is_multiple_of(2);

    // The interval of decimal candidates: [mm, mp] around mv, in units of
    // 2^e2 / 4.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mut vr, mut vp, mut vm, e10);
    // Whether mm's dropped digits are all zero, so mm itself is a
    // candidate. (Ryu also tracks mv's, but only to round an exact tie
    // to even.)
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, i);
        vp = mul_shift(mv + 2, mul, i);
        vm = mul_shift(mv - 1 - mm_shift, mul, i);
        // At most one of mp, mv and mm is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds two candidates.
    let (mut removed, mut last_removed) = (0, 0);
    if vm_trailing_zeros {
        // Rare: mm is exact, so keep dropping its zeros too.
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm.is_multiple_of(10);
            (last_removed, vr, vp, vm) = (vr % 10, vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        while vm_trailing_zeros && vm.is_multiple_of(10) {
            (last_removed, vr, vp, vm) = (vr % 10, vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    } else {
        if vp / 100 > vm / 100 {
            (last_removed, vr, vp, vm) = (vr % 100 / 10, vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            (last_removed, vr, vp, vm) = (vr % 10, vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Round to nearest: published Ryu rounds an exact ...50..0 tail to
    // even; std rounds it up, so `last_removed >= 5` alone decides. Step
    // up also when vr sits on an excluded lower bound.
    let below = vr == vm && (!accept_bounds || !vm_trailing_zeros);
    (vr + u64::from(below || last_removed >= 5), e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writer's float text as it was built on `core::fmt`: the oracle.
    fn oracle(x: f64) -> String {
        let s = format!("{x}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            s + ".0"
        }
    }

    fn kernel(x: f64) -> String {
        let mut s = Vec::new();
        write_f64(&mut s, x);
        String::from_utf8(s).unwrap()
    }

    fn check(x: f64) {
        if x.is_finite() {
            assert_eq!(kernel(x), oracle(x), "bits {:#018x}", x.to_bits());
        }
    }

    /// SplitMix64: a fixed-seed stream of bit patterns.
    fn patterns(seed: u64, n: usize) -> impl Iterator<Item = u64> {
        let mut state = seed;
        (0..n).map(move |_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn tables_match_published_ryu() {
        assert_eq!(POW5_INV_SPLIT[0], (1, 2_305_843_009_213_693_952));
        assert_eq!(
            POW5_INV_SPLIT[1],
            (11_068_046_444_225_730_970, 1_844_674_407_370_955_161)
        );
        assert_eq!(POW5_SPLIT[0], (0, 1_152_921_504_606_846_976));
        assert_eq!((POW5_INV_SPLIT.len(), POW5_SPLIT.len()), (342, 326));
    }

    #[test]
    fn random_bit_patterns_match_std() {
        for bits in patterns(0x5eed_5eed, 2_000_000) {
            check(f64::from_bits(bits));
        }
    }

    /// The same comparison over 10^8 patterns; run with
    /// `cargo test -p serde -- --ignored`.
    #[test]
    #[ignore]
    fn exhaustive_random_bit_patterns_match_std() {
        for bits in patterns(0xe4a0_571e, 100_000_000) {
            check(f64::from_bits(bits));
        }
    }

    #[test]
    fn edge_families_match_std() {
        // Every exponent with mantissas {0, 1, 2^51, max}, each ± 1 ulp.
        for exp in 0..2047u64 {
            for mantissa in [0, 1, 1 << 51, (1 << 52) - 1] {
                let bits = exp << 52 | mantissa;
                for b in [bits.wrapping_sub(1), bits, bits + 1] {
                    check(f64::from_bits(b));
                    check(-f64::from_bits(b));
                }
            }
        }
        // Subnormals: the smallest thousand and a spread of the rest.
        for bits in (1..1000).chain((1..1u64 << 52).step_by(1 << 41)) {
            check(f64::from_bits(bits));
        }
        // Around 2^53, where integers stop being exact.
        let two53 = (1u64 << 53) as f64;
        for k in 0..200 {
            check(two53 + k as f64);
            check(two53 - k as f64);
        }
        // 10^k and 5·10^k across the whole range.
        for k in -325..=308 {
            let ten: f64 = format!("1e{k}").parse().unwrap();
            let five: f64 = format!("5e{k}").parse().unwrap();
            check(ten);
            check(five);
            check(-ten);
        }
        // Small integers and halves.
        for n in 0..10_000 {
            check(f64::from(n));
            check(f64::from(n) + 0.5);
            check(f64::from(n) / 1000.0);
        }
        for x in [
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            0.1,
            0.2,
            0.3,
            1e21,
            1e22,
            1e23,
        ] {
            check(x);
        }
    }

    #[test]
    fn exact_ties_round_up_like_std() {
        let tie = f64::from_bits(0x4317_9085_685d_83c9);
        assert_eq!(tie * 4.0, 6_632_827_120_354_249.0); // 1658206780088562.25
        assert_eq!(kernel(tie), "1658206780088562.3");
        assert_eq!(kernel(tie), oracle(tie));
    }

    #[test]
    fn signed_zero_and_layout() {
        assert_eq!(kernel(-0.0), "-0.0");
        assert_eq!(kernel(0.0), "0.0");
        assert_eq!(kernel(1024.0), "1024.0");
        assert_eq!(kernel(0.000_123), "0.000123");
        assert_eq!(kernel(-2.5), "-2.5");
        assert_eq!(kernel(1e21), format!("1{}.0", "0".repeat(21)));
        assert_eq!(kernel(5e-324), format!("0.{}5", "0".repeat(323)));
    }

    #[test]
    fn f32_widening_matches_std() {
        for bits in patterns(0xf32, 200_000) {
            check(f64::from(f32::from_bits(bits as u32)));
        }
        for x in [0.1f32, 1.0 / 3.0, f32::MAX, f32::MIN_POSITIVE, 16_777_217.0] {
            check(f64::from(x));
        }
    }

    #[test]
    fn integers_match_std() {
        let int = |n: i64| {
            let mut s = Vec::new();
            write_i64(&mut s, n);
            assert_eq!(s, n.to_string().as_bytes());
        };
        let uint = |n: u64| {
            let mut s = Vec::new();
            write_u64(&mut s, n);
            assert_eq!(s, n.to_string().as_bytes());
        };
        for k in 0..19 {
            let p = 10i64.pow(k);
            for n in [p - 1, p, p + 1] {
                int(n);
                int(-n);
                uint(n as u64);
            }
        }
        for k in 19..20 {
            let p = 10u64.pow(k);
            for n in [p - 1, p, p + 1] {
                uint(n);
            }
        }
        for n in [0, i64::MIN, i64::MAX, i64::MIN + 1] {
            int(n);
        }
        uint(u64::MAX);
        for bits in patterns(0x1e7, 100_000) {
            int(bits as i64);
            uint(bits);
        }
    }
}
