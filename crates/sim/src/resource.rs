//! FIFO server resources.
//!
//! Many scale-out-induced overheads in the paper stem from *serialization
//! points*: a centralized scheduler dispatches tasks one at a time, a
//! master NIC broadcasts a shard to one worker at a time, a single reducer
//! merges results in arrival order. [`FifoServer`] models one such server
//! and [`ServerPool`] a fixed pool (e.g. `m` executor slots), both with
//! deterministic O(log k) bookkeeping rather than per-event simulation,
//! which keeps 200-node sweeps instant.

use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A single FIFO server: requests are serviced in submission order, each
/// occupying the server for its service time.
///
/// # Example
///
/// ```
/// use ipso_sim::{FifoServer, SimTime};
///
/// let mut nic = FifoServer::new();
/// // Two broadcasts submitted at t = 0, each taking 2 s of NIC time.
/// let a = nic.submit(SimTime::ZERO, 2.0);
/// let b = nic.submit(SimTime::ZERO, 2.0);
/// assert_eq!(a.finish.as_secs(), 2.0);
/// assert_eq!(b.start.as_secs(), 2.0); // queued behind the first
/// assert_eq!(b.finish.as_secs(), 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    next_free: SimTime,
}

/// The grant returned by a server: when service started and finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service began (submission time or later if queued).
    pub start: SimTime,
    /// When service completed.
    pub finish: SimTime,
}

impl FifoServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        FifoServer::default()
    }

    /// Submits a request at `now` needing `service_secs` of server time.
    ///
    /// # Panics
    ///
    /// Panics if `service_secs` is negative or non-finite.
    pub fn submit(&mut self, now: SimTime, service_secs: f64) -> Grant {
        assert!(
            service_secs.is_finite() && service_secs >= 0.0,
            "service time must be finite and >= 0"
        );
        let start = self.next_free.max(now);
        let finish = start + service_secs;
        self.next_free = finish;
        if ipso_obs::enabled() {
            ipso_obs::counter_add("sim.fifo_submits", 1);
            ipso_obs::histogram_record("sim.fifo_queue_delay_us", ((start - now) * 1e6) as u64);
        }
        Grant { start, finish }
    }
}

/// A pool of `k` identical FIFO servers; each request goes to the earliest
/// available server (e.g. `m` Spark executors serving task waves).
///
/// # Example
///
/// ```
/// use ipso_sim::{ServerPool, SimTime};
///
/// // 2 executors, 3 equal tasks: the third task waits for a free slot.
/// let mut pool = ServerPool::new(2);
/// let grants: Vec<_> = (0..3).map(|_| pool.submit(SimTime::ZERO, 10.0)).collect();
/// assert_eq!(grants[2].start.as_secs(), 10.0);
/// assert_eq!(pool.makespan().as_secs(), 20.0);
/// ```
#[derive(Debug, Clone)]
pub struct ServerPool {
    // Min-heap of next-free times via Reverse ordering on SimTime.
    free_at: BinaryHeap<std::cmp::Reverse<SimTime>>,
    makespan: SimTime,
    served: u64,
}

impl ServerPool {
    /// Creates a pool with `servers` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a server pool needs at least one server");
        let mut free_at = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            free_at.push(std::cmp::Reverse(SimTime::ZERO));
        }
        ServerPool {
            free_at,
            makespan: SimTime::ZERO,
            served: 0,
        }
    }

    /// Number of servers in the pool.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Submits a request at `now` needing `service_secs`; it is assigned
    /// to the earliest-available server.
    ///
    /// # Panics
    ///
    /// Panics if `service_secs` is negative or non-finite.
    pub fn submit(&mut self, now: SimTime, service_secs: f64) -> Grant {
        assert!(
            service_secs.is_finite() && service_secs >= 0.0,
            "service time must be finite and >= 0"
        );
        let std::cmp::Reverse(free) = self.free_at.pop().expect("pool is never empty");
        let start = free.max(now);
        let finish = start + service_secs;
        self.free_at.push(std::cmp::Reverse(finish));
        self.makespan = self.makespan.max(finish);
        self.served += 1;
        if ipso_obs::enabled() {
            ipso_obs::counter_add("sim.pool_submits", 1);
            ipso_obs::histogram_record("sim.pool_queue_delay_us", ((start - now) * 1e6) as u64);
        }
        Grant { start, finish }
    }

    /// The latest finish time across all requests so far.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_server_serializes() {
        let mut s = FifoServer::new();
        let g1 = s.submit(SimTime::ZERO, 1.0);
        let g2 = s.submit(SimTime::ZERO, 1.0);
        let g3 = s.submit(SimTime::from_secs(5.0), 1.0);
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g2.start.as_secs(), 1.0);
        // Idle gap: server free at 2, request arrives at 5.
        assert_eq!(g3.start.as_secs(), 5.0);
    }

    #[test]
    fn pool_balances_load() {
        let mut pool = ServerPool::new(3);
        // Nine unit tasks on three servers: perfect 3-wave schedule.
        for _ in 0..9 {
            pool.submit(SimTime::ZERO, 1.0);
        }
        assert_eq!(pool.makespan().as_secs(), 3.0);
        assert_eq!(pool.served(), 9);
        assert_eq!(pool.servers(), 3);
    }

    #[test]
    fn pool_with_uneven_tasks() {
        let mut pool = ServerPool::new(2);
        pool.submit(SimTime::ZERO, 10.0);
        pool.submit(SimTime::ZERO, 1.0);
        // The short server picks up the next task.
        let g = pool.submit(SimTime::ZERO, 1.0);
        assert_eq!(g.start.as_secs(), 1.0);
        assert_eq!(pool.makespan().as_secs(), 10.0);
    }

    #[test]
    fn single_server_pool_equals_fifo_server() {
        let mut pool = ServerPool::new(1);
        let mut fifo = FifoServer::new();
        for i in 0..5 {
            let t = SimTime::from_secs(i as f64 * 0.3);
            let a = pool.submit(t, 0.7);
            let b = fifo.submit(t, 0.7);
            assert_eq!(a, b);
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        let _ = ServerPool::new(0);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn negative_service_rejected() {
        let mut s = FifoServer::new();
        s.submit(SimTime::ZERO, -1.0);
    }
}
