//! Memory access coalescer.
//!
//! Per §II-A, up to 32 per-thread requests of one warp instruction are
//! merged into as few 128 B cache-line requests as possible. Perfectly
//! regular warps produce one or two line requests; divergent/indirect
//! warps can produce up to 32. The paper's prefetcher only targets loads
//! that coalesce into at most four lines (§V-B).
//!
//! Affine lane addresses are monotone in the lane index (§IV), so their
//! unique lines follow in closed form and no lane is deduplicated:
//! a lane stride of at most one line touches every line between the
//! first and the last lane's, and a wider stride touches one line per
//! lane. Indirect patterns evaluate and deduplicate every lane.

use crate::isa::{AddrPattern, AffinePattern};
use crate::types::{line_base, Addr, CtaCoord};

/// Coalesces one warp memory instruction into unique line requests,
/// preserving first-touch lane order (deterministic).
///
/// `out` is a reusable scratch vector; it is cleared first.
pub fn coalesce(
    pattern: &AddrPattern,
    cta: CtaCoord,
    warp_in_cta: u32,
    iter: u32,
    active_lanes: u32,
    line_size: u32,
    out: &mut Vec<Addr>,
) {
    match pattern {
        AddrPattern::Affine(p) => {
            coalesce_affine(p, cta, warp_in_cta, iter, active_lanes, line_size, out)
        }
        AddrPattern::Indirect(_) => coalesce_lanes(
            pattern,
            cta,
            warp_in_cta,
            iter,
            active_lanes,
            line_size,
            out,
        ),
    }
}

/// Closed form for an affine pattern. Lane `i`'s address is
/// `first + i·stride`; consecutive lanes whose addresses differ by at
/// most one line land in the same or an adjacent line, so the lines run
/// gap-free from the first lane's to the last lane's (descending for a
/// negative stride), and lanes more than a line apart never share one.
fn coalesce_affine(
    p: &AffinePattern,
    cta: CtaCoord,
    warp_in_cta: u32,
    iter: u32,
    active_lanes: u32,
    line_size: u32,
    out: &mut Vec<Addr>,
) {
    out.clear();
    if active_lanes == 0 {
        return;
    }
    let first = p.addr(cta, warp_in_cta, 0, iter);
    let stride = p.lane_stride;
    if stride.unsigned_abs() <= line_size as u64 {
        let last = p.addr(cta, warp_in_cta, active_lanes - 1, iter);
        let (from, to) = (line_base(first, line_size), line_base(last, line_size));
        let step = if stride < 0 {
            (line_size as Addr).wrapping_neg()
        } else {
            line_size as Addr
        };
        let mut line = from;
        for _ in 0..=from.abs_diff(to) / line_size as Addr {
            out.push(line);
            line = line.wrapping_add(step);
        }
    } else {
        let mut addr = first;
        for _ in 0..active_lanes {
            out.push(line_base(addr, line_size));
            addr = addr.wrapping_add(stride as Addr);
        }
    }
}

/// Per-lane reference: evaluate every active lane and keep each line's
/// first touch. Indirect patterns take this path; the closed form for
/// affine ones is tested against it.
fn coalesce_lanes(
    pattern: &AddrPattern,
    cta: CtaCoord,
    warp_in_cta: u32,
    iter: u32,
    active_lanes: u32,
    line_size: u32,
    out: &mut Vec<Addr>,
) {
    out.clear();
    for lane in 0..active_lanes {
        let line = line_base(pattern.addr(cta, warp_in_cta, lane, iter), line_size);
        // Linear scan beats hashing at these sizes: divergent warps
        // produce up to 32 unique lines.
        if !out.contains(&line) {
            out.push(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{CtaTerm, IndirectPattern};
    use proptest::prelude::*;

    fn cta0() -> CtaCoord {
        CtaCoord {
            x: 0,
            y: 0,
            linear: 0,
        }
    }

    #[test]
    fn dense_float_warp_coalesces_to_one_line() {
        let p = AddrPattern::Affine(AffinePattern::dense(0, CtaTerm::Linear { pitch: 4096 }));
        let mut out = Vec::new();
        coalesce(&p, cta0(), 0, 0, 32, 128, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn unaligned_dense_warp_spans_two_lines() {
        let p = AddrPattern::Affine(AffinePattern {
            base: 64,
            cta_term: CtaTerm::Linear { pitch: 4096 },
            warp_stride: 128,
            lane_stride: 4,
            iter_stride: 0,
        });
        let mut out = Vec::new();
        coalesce(&p, cta0(), 0, 0, 32, 128, &mut out);
        assert_eq!(out, vec![0, 128]);
    }

    #[test]
    fn wide_lane_stride_fans_out() {
        // 128 B per lane: every lane touches its own line.
        let p = AddrPattern::Affine(AffinePattern {
            base: 0,
            cta_term: CtaTerm::Linear { pitch: 0 },
            warp_stride: 0,
            lane_stride: 128,
            iter_stride: 0,
        });
        let mut out = Vec::new();
        coalesce(&p, cta0(), 0, 0, 32, 128, &mut out);
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn broadcast_access_is_one_line() {
        let p = AddrPattern::Affine(AffinePattern {
            base: 0x1000,
            cta_term: CtaTerm::Linear { pitch: 0 },
            warp_stride: 0,
            lane_stride: 0,
            iter_stride: 0,
        });
        let mut out = Vec::new();
        coalesce(&p, cta0(), 0, 0, 32, 128, &mut out);
        assert_eq!(out, vec![0x1000]);
    }

    #[test]
    fn active_lane_count_limits_fanout() {
        let p = AddrPattern::Affine(AffinePattern {
            base: 0,
            cta_term: CtaTerm::Linear { pitch: 0 },
            warp_stride: 0,
            lane_stride: 128,
            iter_stride: 0,
        });
        let mut out = Vec::new();
        coalesce(&p, cta0(), 0, 0, 4, 128, &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn indirect_pattern_is_divergent() {
        let p = AddrPattern::Indirect(IndirectPattern {
            region_base: 0,
            region_len: 1 << 26,
            salt: 11,
        });
        let mut out = Vec::new();
        coalesce(&p, cta0(), 0, 0, 32, 128, &mut out);
        assert!(
            out.len() > 4,
            "indirect warp should span many lines, got {}",
            out.len()
        );
    }

    #[test]
    fn lines_are_line_aligned_and_unique() {
        let p = AddrPattern::Indirect(IndirectPattern {
            region_base: 1 << 20,
            region_len: 1 << 22,
            salt: 3,
        });
        let mut out = Vec::new();
        coalesce(&p, cta0(), 2, 1, 32, 128, &mut out);
        for (i, &a) in out.iter().enumerate() {
            assert_eq!(a % 128, 0);
            assert!(!out[..i].contains(&a));
        }
    }

    proptest! {
        /// The closed form equals the per-lane scan for any affine
        /// pattern whose lane addresses stay non-negative: lane strides
        /// negative, zero, below, at and above the line size, unaligned
        /// bases, 1–32 active lanes, and non-zero CTA, warp and
        /// iteration terms.
        #[test]
        fn affine_closed_form_matches_the_lane_scan(
            base in 0u64..1 << 20,
            lane_stride in -600i64..=600,
            active_lanes in 1u32..=32,
            linear_pitch in -4096i64..=4096,
            x_pitch in -512i64..=512,
            y_pitch in -8192i64..=8192,
            two_d in prop::bool::ANY,
            warp_stride in -4096i64..=4096,
            iter_stride in -2048i64..=2048,
            warp_in_cta in 0u32..16,
            iter in 0u32..64,
            cta_x in 0u32..64,
            cta_y in 0u32..16,
            line_shift in 5u32..=8,
            snap in 0u32..4,
        ) {
            let line_size = 1u32 << line_shift;
            // A quarter of the cases snap the stride onto the line-size
            // boundaries, which random draws rarely hit.
            let lane_stride = match snap {
                0 => [0, line_size as i64, -(line_size as i64), line_size as i64 + 1]
                    [(base % 4) as usize],
                _ => lane_stride,
            };
            let cta = CtaCoord { x: cta_x, y: cta_y, linear: cta_y * 64 + cta_x };
            let cta_term = if two_d {
                CtaTerm::Surface2D { x_pitch, y_pitch }
            } else {
                CtaTerm::Linear { pitch: linear_pitch }
            };
            let p = AffinePattern { base, cta_term, warp_stride, lane_stride, iter_stride };
            // Shift the base so the lowest lane address is non-negative.
            let lowest = (0..active_lanes)
                .map(|lane| {
                    base as i64
                        + cta_term.theta(cta)
                        + warp_in_cta as i64 * warp_stride
                        + lane as i64 * lane_stride
                        + iter as i64 * iter_stride
                })
                .min()
                .unwrap();
            let p = AddrPattern::Affine(AffinePattern {
                base: (base as i64 - lowest.min(0)) as Addr,
                ..p
            });
            let (mut closed, mut scan) = (vec![0xdead_beef], Vec::new());
            coalesce(&p, cta, warp_in_cta, iter, active_lanes, line_size, &mut closed);
            coalesce_lanes(&p, cta, warp_in_cta, iter, active_lanes, line_size, &mut scan);
            prop_assert_eq!(closed, scan, "{:?} lanes {} line {}", p, active_lanes, line_size);
        }
    }

    #[test]
    fn negative_lane_stride_emits_descending_lines() {
        let p = AddrPattern::Affine(AffinePattern {
            base: 1000,
            cta_term: CtaTerm::Linear { pitch: 0 },
            warp_stride: 0,
            lane_stride: -8,
            iter_stride: 0,
        });
        let mut out = Vec::new();
        coalesce(&p, cta0(), 0, 0, 32, 128, &mut out);
        // Lanes span 1000 down to 752: lines 896, 768, 640.
        assert_eq!(out, vec![896, 768, 640]);
    }

    #[test]
    fn no_active_lanes_emit_no_lines() {
        let p = AddrPattern::Affine(AffinePattern::dense(0, CtaTerm::Linear { pitch: 0 }));
        let mut out = vec![1];
        coalesce(&p, cta0(), 0, 0, 0, 128, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn scratch_vector_is_cleared() {
        let p = AddrPattern::Affine(AffinePattern::dense(0, CtaTerm::Linear { pitch: 0 }));
        let mut out = vec![0xdead_beef];
        coalesce(&p, cta0(), 0, 0, 32, 128, &mut out);
        assert_eq!(out, vec![0]);
    }
}
