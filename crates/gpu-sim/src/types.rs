//! Fundamental identifier and address types shared by every simulator
//! component.
//!
//! The simulator uses plain integer newtype-free aliases where the meaning is
//! unambiguous (`Addr`, `Cycle`) and small structs where a value mixes
//! coordinate spaces (`CtaCoord`).

/// A byte address in the simulated global memory space.
pub type Addr = u64;

/// A simulated clock cycle count (core clock domain).
pub type Cycle = u64;

/// Program counter of a static instruction. The kernel IR gives every
/// memory instruction a distinct `Pc` so prefetch tables can be PC-indexed,
/// exactly as the hardware proposal indexes its tables by load PC.
pub type Pc = u32;

/// Index of an SM (streaming multiprocessor) within the GPU.
pub type SmId = usize;

/// Hardware warp slot index, local to one SM (0..max_warps_per_sm).
pub type WarpSlot = usize;

/// Hardware CTA slot index, local to one SM (0..max_ctas_per_sm).
pub type CtaSlot = usize;

/// Compact identifier of a co-resident kernel context (tenant). Warps,
/// CTAs, and memory requests carry it end to end so per-kernel state —
/// ready queues, CAP per-CTA tables, prefetch streams, L2/DRAM
/// attribution — never cross-pollinates between tenants. Id `0` is the
/// first tenant, the only one of a solo run: every tag derived from it
/// (address offset, PC tag) is the identity, so a solo run sees its
/// kernel's own addresses and PCs.
pub type KernelId = u8;

/// Maximum co-resident kernel contexts. Small and fixed so per-kernel
/// side counters can live in `[u64; MAX_TENANTS]` arrays on the hot
/// structures instead of heap maps.
pub const MAX_TENANTS: usize = 4;

/// Two-dimensional CTA coordinates within the kernel grid, plus the
/// flattened launch-order id. GPU kernels commonly derive load addresses
/// from `blockIdx.x`/`blockIdx.y`, which is why the base address of a CTA
/// is not a simple linear function of its launch id (paper §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CtaCoord {
    /// `blockIdx.x`
    pub x: u32,
    /// `blockIdx.y`
    pub y: u32,
    /// Flattened launch-order index: `y * grid_dim.x + x`.
    pub linear: u32,
}

impl CtaCoord {
    /// Builds the coordinate for flattened id `linear` in a grid that is
    /// `grid_x` CTAs wide.
    #[inline]
    pub fn from_linear(linear: u32, grid_x: u32) -> Self {
        debug_assert!(grid_x > 0);
        CtaCoord {
            x: linear % grid_x,
            y: linear / grid_x,
            linear,
        }
    }
}

/// Round an address down to the containing cache-line base.
#[inline]
pub fn line_base(addr: Addr, line_size: u32) -> Addr {
    debug_assert!(line_size.is_power_of_two());
    addr & !(line_size as Addr - 1)
}

/// Kinds of memory access arriving at a cache, used for priority and for
/// prefetch bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load issued by a warp's load instruction.
    DemandLoad,
    /// A store (write-through, no-allocate at L1 in our Fermi-like model).
    Store,
    /// A prefetch request injected by a prefetch engine. Lower priority
    /// than demand accesses throughout the hierarchy.
    Prefetch,
}

impl AccessKind {
    /// `true` for the speculative prefetch class.
    #[inline]
    pub fn is_prefetch(self) -> bool {
        matches!(self, AccessKind::Prefetch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cta_coord_from_linear_roundtrips() {
        let c = CtaCoord::from_linear(17, 5);
        assert_eq!(c.x, 2);
        assert_eq!(c.y, 3);
        assert_eq!(c.linear, 17);
    }

    #[test]
    fn cta_coord_first_row() {
        let c = CtaCoord::from_linear(4, 5);
        assert_eq!((c.x, c.y), (4, 0));
    }

    #[test]
    fn line_base_masks_low_bits() {
        assert_eq!(line_base(0x1234, 128), 0x1200);
        assert_eq!(line_base(0x1280, 128), 0x1280);
        assert_eq!(line_base(127, 128), 0);
        assert_eq!(line_base(128, 128), 128);
    }

    #[test]
    fn access_kind_prefetch_class() {
        assert!(AccessKind::Prefetch.is_prefetch());
        assert!(!AccessKind::DemandLoad.is_prefetch());
        assert!(!AccessKind::Store.is_prefetch());
    }
}
