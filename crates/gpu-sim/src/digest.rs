//! Canonical content hashing for run identity.
//!
//! The sweep-farm result cache (crate `caps-metrics`) keys whole
//! simulations by a digest of *everything that determines their
//! statistics*: the full [`GpuConfig`](crate::config::GpuConfig), the
//! engine selection, the workload's kernel IR, the scale, and the cycle
//! ceiling. This module provides the two halves of that contract:
//!
//! * [`Digest`] — a dependency-free, endian-stable, 128-bit streaming
//!   hash (two independent FNV-1a-style lanes with a SplitMix64
//!   finalizer). It is **not** cryptographic; it only needs to make
//!   accidental collisions between distinct run specifications
//!   negligible (~2⁻⁶⁴ per pair at 128 bits).
//! * [`Hashable`] — the structural traversal. Implementations write
//!   every semantically meaningful field, framing variable-length data
//!   with length prefixes and enum variants with discriminant tags so
//!   that distinct values can never serialize to the same byte stream.
//!
//! The rule for implementors: *if changing a field can change a run's
//! [`Stats`](crate::stats::Stats), the field must be written.* The
//! digest property tests in `caps-metrics` enforce this by flipping
//! configuration fields and kernel-IR instructions one at a time and
//! asserting the key moves.

/// 128-bit streaming content hash.
///
/// Two 64-bit multiply-xor lanes are fed the same byte stream with
/// different initial states and different odd multipliers, then each is
/// passed through a SplitMix64 finalizer. Output is stable across
/// platforms, endianness, and Rust versions (no `std::hash` involved).
#[derive(Debug, Clone)]
pub struct Digest {
    a: u64,
    b: u64,
}

const OFFSET_A: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a 64 offset basis
const OFFSET_B: u64 = 0x8422_2325_cbf2_9ce4; // word-swapped basis
const PRIME_A: u64 = 0x0000_0100_0000_01b3; // FNV-1a 64 prime
const PRIME_B: u64 = 0x9e37_79b9_7f4a_7c15; // odd golden-ratio constant

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// Fresh digest with the standard initial state.
    pub fn new() -> Self {
        Digest {
            a: OFFSET_A,
            b: OFFSET_B,
        }
    }

    /// Fresh digest pre-salted with an arbitrary context string (cache
    /// schema versions, build fingerprints).
    pub fn with_salt(salt: &str) -> Self {
        let mut d = Self::new();
        d.write_str(salt);
        d
    }

    /// Absorb raw bytes. All typed writers funnel through here.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a ^ x as u64).wrapping_mul(PRIME_A);
            self.b = (self.b ^ x as u64).wrapping_mul(PRIME_B);
        }
    }

    /// Absorb a one-byte enum-discriminant / framing tag.
    #[inline]
    pub fn write_tag(&mut self, tag: u8) {
        self.write_bytes(&[tag]);
    }

    /// Absorb a `u32` (little-endian).
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb an `i64` (little-endian two's complement).
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `usize` widened to 64 bits so 32- and 64-bit hosts agree.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb a string, length-prefixed so concatenations cannot collide.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Finalize into the 128-bit key. The digest may keep absorbing
    /// afterwards; `finish` is a pure read.
    pub fn finish(&self) -> u128 {
        ((splitmix64(self.a) as u128) << 64) | splitmix64(self.b) as u128
    }

    /// The key as fixed-width lowercase hex (cache file stem).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.finish())
    }
}

/// Types whose full semantic content can be streamed into a [`Digest`].
///
/// Contract: two values compare equal under the type's own notion of
/// behavioural equality **iff** they write identical byte streams.
pub trait Hashable {
    /// Stream every semantically meaningful field into `d`.
    fn digest_into(&self, d: &mut Digest);
}

/// One-shot convenience: digest a single value with a fresh state.
pub fn fingerprint<T: Hashable + ?Sized>(value: &T) -> u128 {
    let mut d = Digest::new();
    value.digest_into(&mut d);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = Digest::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = Digest::new();
        b.write_u32(1);
        b.write_u32(2);
        assert_eq!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.write_u32(2);
        c.write_u32(1);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn length_prefix_prevents_concat_collisions() {
        let mut a = Digest::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Digest::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn salt_changes_every_key() {
        let mut a = Digest::with_salt("v1");
        let mut b = Digest::with_salt("v2");
        a.write_u64(42);
        b.write_u64(42);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn finish_is_a_pure_read() {
        let mut d = Digest::new();
        d.write_u64(7);
        let first = d.finish();
        assert_eq!(first, d.finish());
        d.write_u64(8);
        assert_ne!(first, d.finish());
    }

    #[test]
    fn hex_is_fixed_width() {
        let mut d = Digest::new();
        d.write_tag(0);
        assert_eq!(d.hex().len(), 32);
        assert_eq!(d.hex(), format!("{:032x}", d.finish()));
    }

    #[test]
    fn single_bit_flips_move_both_lanes() {
        // Not a statistical test — just a guard that the second lane is
        // actually wired up and not mirroring the first.
        let mut base = Digest::new();
        base.write_u64(0);
        let mut flip = Digest::new();
        flip.write_u64(1);
        let (b, f) = (base.finish(), flip.finish());
        assert_ne!(b as u64, f as u64, "low lane must move");
        assert_ne!((b >> 64) as u64, (f >> 64) as u64, "high lane must move");
    }
}
