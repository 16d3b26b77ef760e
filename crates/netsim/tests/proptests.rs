//! Property-based tests for the simulation substrate.

use pp_netsim::check::forall;
use pp_netsim::event::EventQueue;
use pp_netsim::link::Link;
use pp_netsim::queue::DropTailQueue;
use pp_netsim::time::{Bandwidth, SimDuration, SimTime};
use pp_netsim::{prop_assert, prop_assert_eq};

/// Cases per property.
const CASES: u32 = 128;

/// The event queue pops every scheduled event exactly once, in
/// non-decreasing time order, with FIFO tie-breaking.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    forall(
        "event_queue_is_a_stable_priority_queue",
        CASES,
        |d| d.vec(1..200, |d| d.range(0u64..1_000)),
        |times| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime(t), i);
            }
            let mut popped = Vec::new();
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, id)) = q.pop() {
                if let Some((lt, lid)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(id > lid, "FIFO tie-break violated");
                    }
                }
                prop_assert_eq!(t, SimTime(times[id]));
                last = Some((t, id));
                popped.push(id);
            }
            popped.sort_unstable();
            prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
            Ok(())
        },
    );
}

/// A link never exceeds its line rate: for any offered pattern, the
/// last bit of N bytes cannot leave before N×8/bandwidth seconds of
/// cumulative transmission.
#[test]
fn link_never_beats_line_rate() {
    forall(
        "link_never_beats_line_rate",
        CASES,
        |d| (d.vec(1..100, |d| d.range(40usize..1500)), d.vec(1..100, |d| d.range(0u64..2_000))),
        |(sizes, gaps)| {
            let bw = Bandwidth::gbps(10.0);
            let mut link = Link::new(bw, SimDuration::ZERO);
            let mut t = SimTime::ZERO;
            let mut total_bytes = 0u64;
            let mut last_arrival = SimTime::ZERO;
            for (i, &size) in sizes.iter().enumerate() {
                t += SimDuration(gaps[i % gaps.len()]);
                last_arrival = link.transmit(t, size);
                total_bytes += size as u64;
            }
            let min_ns = total_bytes * 8 * 1_000_000_000 / bw.as_bps();
            prop_assert!(
                last_arrival.nanos() >= min_ns,
                "{} bytes done at {} < {min_ns}",
                total_bytes,
                last_arrival.nanos()
            );
            prop_assert_eq!(link.stats().bytes, total_bytes);
            Ok(())
        },
    );
}

/// Deliveries on a link preserve offer order (FIFO serialization).
#[test]
fn link_preserves_order() {
    forall(
        "link_preserves_order",
        CASES,
        |d| d.vec(2..60, |d| d.range(40usize..1500)),
        |sizes| {
            let mut link = Link::new(Bandwidth::gbps(40.0), SimDuration::from_nanos(300));
            let mut last = SimTime::ZERO;
            for (i, &size) in sizes.iter().enumerate() {
                let arrival = link.transmit(SimTime(i as u64 * 10), size);
                prop_assert!(arrival >= last);
                last = arrival;
            }
            Ok(())
        },
    );
}

/// Drop-tail queues conserve items: enqueued = dequeued + still-queued,
/// and drops only happen at capacity.
#[test]
fn queue_conservation() {
    forall(
        "queue_conservation",
        CASES,
        |d| (d.vec(1..300, |d| d.bool()), d.range(1usize..32)),
        |(ops, cap)| {
            let mut q = DropTailQueue::new(cap);
            let mut model: std::collections::VecDeque<usize> = Default::default();
            for (i, &push) in ops.iter().enumerate() {
                if push {
                    let ok = q.push(i).is_ok();
                    prop_assert_eq!(ok, model.len() < cap);
                    if ok {
                        model.push_back(i);
                    }
                } else {
                    prop_assert_eq!(q.pop(), model.pop_front());
                }
                prop_assert_eq!(q.len(), model.len());
            }
            let s = q.stats();
            prop_assert_eq!(s.enqueued, s.dequeued + q.len() as u64);
            prop_assert!(s.high_watermark <= cap);
            Ok(())
        },
    );
}
