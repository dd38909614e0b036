//! Property tests for the unified port layer: the ring and
//! the credit-counted [`Port`] are checked against a `VecDeque` reference
//! model under arbitrary operation sequences, including wrap-around,
//! ordered removal, and full/empty boundary behaviour.

use caps_gpu_sim::port::{Port, Ring};
use proptest::prelude::*;
use std::collections::VecDeque;

proptest! {
    /// FIFO equivalence across wrap-around: an arbitrary interleaving of
    /// pushes and pops on a deliberately tiny ring matches a `VecDeque`
    /// element for element, forcing head/tail to lap the storage many
    /// times.
    #[test]
    fn ring_matches_vecdeque_across_wraps(
        ops in proptest::collection::vec((0u32..1000, prop::bool::ANY), 1..200),
    ) {
        let mut ring: Ring<u32> = Ring::with_capacity(2);
        let mut model: VecDeque<u32> = VecDeque::new();
        for &(v, is_push) in &ops {
            if is_push {
                ring.push_back(v);
                model.push_back(v);
            } else {
                prop_assert_eq!(ring.pop_front(), model.pop_front());
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.front(), model.front());
            prop_assert!(ring.is_empty() == model.is_empty());
        }
        // Residue drains in the same order.
        while let Some(want) = model.pop_front() {
            prop_assert_eq!(ring.pop_front(), Some(want));
        }
        prop_assert_eq!(ring.pop_front(), None);
    }

    /// Ordered removal: `Ring::remove(i)` behaves exactly like
    /// `VecDeque::remove(i)` — later elements shift left, relative order
    /// is preserved (the property DRAM FR-FCFS tie-breaking relies on).
    #[test]
    fn ring_ordered_remove_matches_vecdeque(
        seed in proptest::collection::vec(0u32..1000, 1..40),
        removals in proptest::collection::vec(0usize..40, 1..40),
        churn in 0usize..8,
    ) {
        let mut ring: Ring<u32> = Ring::with_capacity(4);
        let mut model: VecDeque<u32> = VecDeque::new();
        // Pre-rotate so removals cross the physical wrap point.
        for i in 0..churn {
            ring.push_back(i as u32);
            ring.pop_front();
        }
        for &v in &seed {
            ring.push_back(v);
            model.push_back(v);
        }
        for &r in &removals {
            if model.is_empty() {
                break;
            }
            let i = r % model.len();
            prop_assert_eq!(ring.remove(i), model.remove(i).unwrap());
            for k in 0..model.len() {
                prop_assert_eq!(ring.get(k), model.get(k), "order after remove({})", i);
            }
        }
    }

    /// Credit accounting: a `Port` under arbitrary try_push/pop traffic
    /// matches a reference model of a bounded `VecDeque`; credits plus
    /// occupancy always equal capacity, refusals hand the value back
    /// untouched, and the stall counter counts exactly the refusals.
    #[test]
    fn port_credits_match_bounded_vecdeque(
        capacity in 1usize..16,
        ops in proptest::collection::vec((0u32..1000, prop::bool::ANY), 1..200),
    ) {
        let mut port: Port<u32> = Port::new(capacity);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut refusals = 0u64;
        for &(v, is_push) in &ops {
            if is_push {
                if model.len() < capacity {
                    model.push_back(v);
                    prop_assert_eq!(port.try_push(v), Ok(()));
                } else {
                    refusals += 1;
                    prop_assert_eq!(port.try_push(v), Err(v), "full port must refuse");
                }
            } else {
                prop_assert_eq!(port.pop(), model.pop_front());
            }
            prop_assert_eq!(port.len(), model.len());
            prop_assert_eq!(port.credits(), capacity - model.len());
            prop_assert_eq!(port.peek(), model.front());
        }
        prop_assert_eq!(port.snapshot().credit_stalls, refusals);
        prop_assert!(port.snapshot().high_water <= capacity);
        prop_assert_eq!(port.snapshot().grows, 0, "try_push never grows");
    }

    /// Full/empty boundaries: filling to capacity zeroes credits and
    /// refuses further credit-checked pushes; the unconditional growth
    /// valve still accepts (and counts a grow once past the reserved
    /// power of two); drain restores every credit and empties the port.
    #[test]
    fn port_full_empty_boundaries(capacity in 1usize..12, overflow in 1usize..8) {
        let mut port: Port<usize> = Port::new(capacity);
        prop_assert_eq!(port.credits(), capacity);
        prop_assert!(port.is_empty());
        for i in 0..capacity {
            prop_assert_eq!(port.try_push(i), Ok(()));
        }
        prop_assert_eq!(port.credits(), 0);
        prop_assert_eq!(port.try_push(99), Err(99));
        // The growth valve rides past the credit limit without dropping.
        for i in 0..overflow {
            port.push(capacity + i);
        }
        prop_assert_eq!(port.len(), capacity + overflow);
        prop_assert_eq!(port.credits(), 0, "over-full port has no credits");
        let drained: Vec<usize> = port.drain().collect();
        prop_assert_eq!(drained.len(), capacity + overflow);
        // FIFO order survived the overflow.
        for (i, v) in drained.iter().enumerate() {
            prop_assert_eq!(*v, i);
        }
        prop_assert!(port.is_empty());
        prop_assert_eq!(port.credits(), capacity);
        prop_assert_eq!(port.snapshot().high_water, capacity + overflow);
    }
}
