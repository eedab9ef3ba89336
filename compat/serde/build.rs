//! Generates the power-of-five tables of the shortest round-trip `f64`
//! printer (`src/num.rs`, Ryu's `d2d`) into `$OUT_DIR/pow5.rs`, so no
//! table data is checked in. Each entry is a 125-bit value split into
//! `(low 64 bits, high bits)`:
//!
//! - `POW5_SPLIT[i]` is `5^i` shifted to exactly 125 significant bits;
//! - `POW5_INV_SPLIT[i]` is `floor(2^(bitlen(5^i) - 1 + 125) / 5^i) + 1`.
//!
//! The arithmetic is a little-endian `u32`-limb bignum: multiplication
//! and division by small factors are all the tables need, because
//! `floor(floor(a / 5) / 5) == floor(a / 25)`.

use std::fmt::Write as _;

/// Significant bits per table entry.
const BITS: usize = 125;
/// Entries of each table, as in the published Ryu tables.
const POW5_INV_LEN: usize = 342;
const POW5_LEN: usize = 326;

/// Little-endian `u32` limbs, no trailing zero limbs.
#[derive(Clone)]
struct Big(Vec<u32>);

impl Big {
    fn pow2(n: usize) -> Self {
        let mut limbs = vec![0; n / 32 + 1];
        limbs[n / 32] = 1 << (n % 32);
        Big(limbs)
    }

    fn mul_small(&mut self, m: u32) {
        let mut carry = 0u64;
        for limb in &mut self.0 {
            let t = u64::from(*limb) * u64::from(m) + carry;
            *limb = t as u32;
            carry = t >> 32;
        }
        if carry != 0 {
            self.0.push(carry as u32);
        }
    }

    fn div_small(&mut self, d: u32) {
        let mut rem = 0u64;
        for limb in self.0.iter_mut().rev() {
            let t = (rem << 32) | u64::from(*limb);
            *limb = (t / u64::from(d)) as u32;
            rem = t % u64::from(d);
        }
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
    }

    fn bit_len(&self) -> usize {
        self.0
            .last()
            .map_or(0, |top| 32 * self.0.len() - top.leading_zeros() as usize)
    }

    /// Bits `shift..shift + 128` as a `u128`.
    fn bits_from(&self, shift: usize) -> u128 {
        (0..128)
            .filter(|b| {
                let bit = shift + b;
                self.0
                    .get(bit / 32)
                    .is_some_and(|limb| limb >> (bit % 32) & 1 == 1)
            })
            .fold(0, |acc, b| acc | 1 << b)
    }
}

fn table(out: &mut String, name: &str, entries: &[u128]) {
    writeln!(
        out,
        "pub(crate) static {name}: [(u64, u64); {}] = [",
        entries.len()
    )
    .unwrap();
    for e in entries {
        writeln!(out, "    ({}, {}),", *e as u64, (e >> 64) as u64).unwrap();
    }
    out.push_str("];\n");
}

fn main() {
    let mut pow5 = Big(vec![1]);
    let (mut split, mut inv) = (Vec::new(), Vec::new());
    for i in 0..POW5_INV_LEN.max(POW5_LEN) {
        let len = pow5.bit_len();
        if i < POW5_LEN {
            split.push(if len >= BITS {
                pow5.bits_from(len - BITS)
            } else {
                pow5.bits_from(0) << (BITS - len)
            });
        }
        if i < POW5_INV_LEN {
            let mut q = Big::pow2(len - 1 + BITS);
            for _ in 0..i {
                q.div_small(5);
            }
            inv.push(q.bits_from(0) + 1);
        }
        pow5.mul_small(5);
    }
    let mut out = String::from("// Generated by build.rs: Ryu's 125-bit power-of-five tables.\n");
    table(&mut out, "POW5_INV_SPLIT", &inv);
    table(&mut out, "POW5_SPLIT", &split);
    let path = std::path::Path::new(&std::env::var("OUT_DIR").unwrap()).join("pow5.rs");
    std::fs::write(path, out).unwrap();
    println!("cargo:rerun-if-changed=build.rs");
}
