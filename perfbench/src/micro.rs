//! Micro-timings of the `platform` and `des.queue` calls, on states sized
//! to what a workload's traced run observed: a `Timeline` holding as many
//! bookings as the run's mean live-commitment depth, filled with the
//! run's own job shapes, and an `EventQueue` held at the run's peak live
//! depth.

use std::hint::black_box;
use std::time::Instant;

use lsps_des::{Dur, EventQueue, SimRng, Time};
use lsps_platform::{BookingKind, ProcSet, Timeline};

/// Depths and shapes taken from a traced run.
pub struct Sizes {
    pub m: usize,
    /// Mean live commitments per decision.
    pub live_bookings: usize,
    /// Peak live events in the simulation's queue.
    pub queue_depth: usize,
    /// `(width, length)` of jobs the run scheduled.
    pub shapes: Vec<(usize, Dur)>,
}

pub struct Timings {
    pub earliest_slot_ns: f64,
    pub book_remove_ns: f64,
    pub clone_hot_ns: f64,
    pub queue_op_ns: f64,
}

/// Median nanoseconds per call of `f` over `samples` batches of `batch`.
fn median_ns(samples: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|s| {
            let t0 = Instant::now();
            for i in 0..batch {
                f(s * batch + i);
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

pub fn measure(sizes: &Sizes, seed: u64) -> Timings {
    assert!(!sizes.shapes.is_empty(), "micro-timings need job shapes");
    let m = sizes.m;
    let shapes = &sizes.shapes;
    let mut tl = Timeline::with_procs(m);
    for i in 0..sizes.live_bookings {
        let (q, len) = shapes[i % shapes.len()];
        let (start, procs) = tl.earliest_slot(Time::ZERO, len, q).expect("fits");
        tl.book(start, start + len, procs, BookingKind::Job);
    }
    let queries: Vec<(usize, Dur)> = shapes.iter().copied().cycle().take(64).collect();
    let earliest_slot_ns = median_ns(31, 64, |i| {
        let (q, len) = queries[i % queries.len()];
        black_box(tl.earliest_slot(Time::ZERO, len, q));
    });
    let slots: Vec<(Time, Time, ProcSet)> = queries
        .iter()
        .map(|&(q, len)| {
            let (start, procs) = tl.earliest_slot(Time::ZERO, len, q).expect("fits");
            (start, start + len, procs)
        })
        .collect();
    let book_remove_ns = median_ns(31, 64, |i| {
        let (start, end, procs) = &slots[i % slots.len()];
        let id = tl.book(*start, *end, procs.clone(), BookingKind::Job);
        black_box(tl.remove(id));
    });

    let a = ProcSet::from_indices((0..m).filter(|i| i % 3 != 0));
    let b = ProcSet::from_indices((0..m).filter(|i| i % 2 == 0));
    let mut scratch = ProcSet::new();
    let clone_hot_ns = median_ns(31, 4096, |_| {
        scratch.clone_from(&a);
        scratch.subtract(&b);
        black_box(scratch.len());
    });

    let mut rng = SimRng::seed_from(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut clock = 0u64;
    for i in 0..sizes.queue_depth.max(1) as u64 {
        q.schedule(Time::from_ticks(rng.int_range(0, 1_000_000_000)), i);
    }
    let offsets: Vec<u64> = (0..1024).map(|_| rng.int_range(1, 1_000_000)).collect();
    let queue_op_ns = median_ns(31, 4096, |i| {
        let (at, _, ev) = q.pop().expect("queue held at depth");
        clock = clock.max(at.ticks());
        q.schedule(Time::from_ticks(clock + offsets[i % offsets.len()]), ev);
    });
    Timings {
        earliest_slot_ns,
        book_remove_ns,
        clone_hot_ns,
        queue_op_ns,
    }
}
