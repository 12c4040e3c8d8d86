//! The worker pool: bucket execution with work-stealing deques.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

use crate::packet::Packet;
use crate::stats::{BucketStats, WorkerLoad};

/// A pool of collector workers executing packet buckets.
///
/// The scheduler holds no threads between buckets: each read-only
/// bucket spins up a scoped crew, drains, and joins, so a `Scheduler`
/// is plain data (cheap to own per collector, trivially `Send`).
/// Buckets small enough for one worker — and every bucket at
/// `workers == 1` — run inline on the caller's thread with no spawns
/// at all, which keeps the default single-worker configuration on
/// exactly the code path a sequential collector would take.
#[derive(Debug, Clone)]
pub struct Scheduler {
    workers: usize,
}

impl Scheduler {
    /// A pool of `workers` collector workers (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Scheduler {
            workers: workers.max(1),
        }
    }

    /// Configured pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Drains one read-only bucket: every packet in `packets` runs
    /// exactly once against `ctx`, then the call returns. With more
    /// than one worker and more than one packet, packets are dealt
    /// round-robin onto per-worker deques; an idle worker pops its own
    /// deque front-first and steals from siblings back-first.
    ///
    /// On return the packets hold their results in their original slice
    /// positions — execution order never reorders them, so a caller
    /// folding `packets` front to back gets the canonical reduction.
    pub fn run_bucket<C, P>(&self, label: &'static str, ctx: &C, packets: &mut [P]) -> BucketStats
    where
        C: Sync,
        P: Packet<C>,
    {
        let n = packets.len();
        let crew = self.workers.min(n).max(1);
        if crew == 1 {
            let start = Instant::now();
            for p in packets.iter_mut() {
                p.run(ctx);
            }
            return BucketStats {
                label,
                packets: n as u64,
                workers: vec![WorkerLoad {
                    executed: n as u64,
                    steals: 0,
                    busy_ns: start.elapsed().as_nanos() as u64,
                }],
            };
        }

        // Packet slots: a worker takes the `&mut P` out to run it; the
        // packet itself never moves, so results stay in `packets`.
        let slots: Vec<Mutex<Option<&mut P>>> =
            packets.iter_mut().map(|p| Mutex::new(Some(p))).collect();
        // Round-robin deal: worker `w` owns packet indexes w, w+crew, …
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..crew)
            .map(|w| Mutex::new((w..n).step_by(crew).collect()))
            .collect();

        let workers = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..crew)
                .map(|w| {
                    let slots = &slots;
                    let queues = &queues;
                    scope.spawn(move || {
                        let start = Instant::now();
                        let mut load = WorkerLoad::default();
                        loop {
                            // Own deque first (front), then steal from
                            // siblings (back) — the classic Chase-Lev
                            // discipline, here with mutexed deques.
                            let mut next = queues[w].lock().expect("gc deque").pop_front();
                            if next.is_none() {
                                for off in 1..crew {
                                    let v = (w + off) % crew;
                                    if let Some(i) = queues[v].lock().expect("gc deque").pop_back()
                                    {
                                        load.steals += 1;
                                        next = Some(i);
                                        break;
                                    }
                                }
                            }
                            let Some(i) = next else { break };
                            if let Some(pkt) = slots[i].lock().expect("gc packet slot").take() {
                                pkt.run(ctx);
                                load.executed += 1;
                            }
                        }
                        load.busy_ns = start.elapsed().as_nanos() as u64;
                        load
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("gc worker panicked"))
                .collect::<Vec<_>>()
        });

        debug_assert_eq!(
            workers.iter().map(|w| w.executed).sum::<u64>(),
            n as u64,
            "bucket drained every packet exactly once"
        );
        BucketStats {
            label,
            packets: n as u64,
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums a slice range; result lands in the packet.
    struct SumChunk<'a> {
        input: &'a [u64],
        total: u64,
    }

    impl Packet<()> for SumChunk<'_> {
        fn run(&mut self, _ctx: &()) {
            self.total = self.input.iter().sum();
        }
    }

    fn chunk_packets(data: &[u64], chunk: usize) -> Vec<SumChunk<'_>> {
        data.chunks(chunk)
            .map(|input| SumChunk { input, total: 0 })
            .collect()
    }

    #[test]
    fn bucket_reduction_is_worker_count_invariant() {
        let data: Vec<u64> = (0..10_000).collect();
        let mut reference: Option<Vec<u64>> = None;
        for workers in [1usize, 2, 4, 8] {
            let sched = Scheduler::new(workers);
            let mut packets = chunk_packets(&data, 97);
            let stats = sched.run_bucket("sum", &(), &mut packets);
            assert_eq!(stats.packets as usize, packets.len());
            let totals: Vec<u64> = packets.iter().map(|p| p.total).collect();
            match &reference {
                None => reference = Some(totals),
                Some(r) => assert_eq!(r, &totals, "workers={workers} changed the reduction"),
            }
        }
    }

    #[test]
    fn single_packet_bucket_runs_inline() {
        let sched = Scheduler::new(8);
        let data = [1u64, 2, 3];
        let mut packets = chunk_packets(&data, 3);
        let stats = sched.run_bucket("sum", &(), &mut packets);
        assert_eq!(stats.workers.len(), 1, "one packet needs no crew");
        assert_eq!(stats.steals(), 0);
        assert_eq!(packets[0].total, 6);
    }

    #[test]
    fn zero_worker_request_clamps_to_one() {
        assert_eq!(Scheduler::new(0).workers(), 1);
    }

    #[test]
    fn empty_bucket_is_a_noop() {
        let sched = Scheduler::new(4);
        let mut packets: Vec<SumChunk<'_>> = Vec::new();
        let stats = sched.run_bucket("sum", &(), &mut packets);
        assert_eq!(stats.packets, 0);
    }
}
