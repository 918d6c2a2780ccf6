//! The bounded job queue: backpressure by refusal, drain by contract.
//!
//! A long-lived service must not buffer unboundedly — when producers
//! outrun the worker pool the queue fills, and the only honest answers
//! are "not now" (HTTP 429 upstream) or "not anymore" (draining).
//! [`FairQueue::try_push_many`] never blocks and admits a batch
//! all-or-nothing (a single submission is a batch of one);
//! [`FairQueue::pop`] blocks until an item arrives or the queue is
//! draining *and* the shard is empty, which is exactly the worker-exit
//! condition a graceful shutdown needs: every accepted job still runs,
//! no new job sneaks in.
//!
//! Items carry a shard (from consistent-hashing the job identity), a
//! client id, a [`Priority`], and a deficit-round-robin cost. Inside
//! each shard every client gets a *lane*; workers pinned to a shard
//! pull via DRR across lanes, so a greedy client queues behind its own
//! backlog instead of everyone else's. An optional per-client quota
//! refuses a single client's excess with [`FairPushError::ClientQuota`]
//! — a 429 that names the offender — while the global bound still caps
//! the whole queue.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

/// How urgently a submission wants to run, *within its own client's
/// lane*. Fairness across clients dominates: a high-priority job from
/// a greedy client never jumps another client's queue, it only jumps
/// that client's own lower-priority jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    High,
    Normal,
    Low,
}

impl Priority {
    fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// The wire name, as accepted in the submission body.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Why a fair push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum FairPushError<T> {
    /// The queue is at its global bound.
    Full(T),
    /// The queue is draining and accepts nothing new.
    Draining(T),
    /// This *client* is over its quota; the rest of the queue has
    /// room. `queued` is the client's current depth, for a per-client
    /// Retry-After.
    ClientQuota { item: T, queued: usize },
}

/// One admission into the fair queue: the routed shard, the client it
/// bills to, its lane priority, and its DRR cost (simulated refs —
/// see `JobSpec::cost`).
#[derive(Debug, PartialEq, Eq)]
pub struct Admission<T> {
    pub shard: usize,
    pub client: String,
    pub priority: Priority,
    pub cost: u64,
    pub item: T,
}

/// A DRR cost is clamped to this many quanta so a single enormous job
/// can only force a bounded number of catch-up rounds before it runs
/// (progress guarantee: each full lane rotation adds one quantum).
const MAX_COST_QUANTA: u64 = 20;

struct Entry<T> {
    item: T,
    cost: u64,
}

/// One client's lane inside a shard: three priority FIFOs and a
/// deficit counter.
struct Lane<T> {
    client: String,
    deficit: u64,
    by_priority: [VecDeque<Entry<T>>; 3],
}

impl<T> Lane<T> {
    fn new(client: String) -> Self {
        Lane {
            client,
            deficit: 0,
            by_priority: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
        }
    }

    fn head_cost(&self) -> Option<u64> {
        self.by_priority
            .iter()
            .find_map(|q| q.front().map(|e| e.cost))
    }

    fn pop_head(&mut self) -> Option<Entry<T>> {
        self.by_priority.iter_mut().find_map(|q| q.pop_front())
    }

    fn is_empty(&self) -> bool {
        self.by_priority.iter().all(|q| q.is_empty())
    }
}

struct ShardState<T> {
    lanes: Vec<Lane<T>>,
    cursor: usize,
    depth: usize,
}

impl<T> ShardState<T> {
    /// The DRR scan: starting at the cursor, serve the first lane whose
    /// deficit covers its head's cost, then yield the turn (one serve
    /// per visit, so equal-cost clients strictly interleave instead of
    /// bursting a quantum's worth). Lanes that can't afford their head
    /// earn a quantum and yield. Costs are clamped at push time, so
    /// this terminates in at most `MAX_COST_QUANTA` full rotations.
    fn take(&mut self, quantum: u64) -> Option<(Entry<T>, String)> {
        if self.depth == 0 {
            return None;
        }
        loop {
            debug_assert!(!self.lanes.is_empty());
            let idx = self.cursor % self.lanes.len();
            let lane = &mut self.lanes[idx];
            match lane.head_cost() {
                Some(cost) if lane.deficit >= cost => {
                    let client = lane.client.clone();
                    let entry = lane.pop_head().expect("head exists");
                    lane.deficit -= cost;
                    self.depth -= 1;
                    if lane.is_empty() {
                        // An idle client keeps no credit: deficits
                        // only accumulate while waiting in line. The
                        // removal shifts the next lane into `idx`.
                        self.lanes.remove(idx);
                        self.cursor = idx;
                    } else {
                        self.cursor = idx + 1;
                    }
                    if self.lanes.is_empty() {
                        self.cursor = 0;
                    } else {
                        self.cursor %= self.lanes.len();
                    }
                    return Some((entry, client));
                }
                Some(_) => {
                    lane.deficit += quantum;
                    self.cursor = (idx + 1) % self.lanes.len();
                }
                None => {
                    self.lanes.remove(idx);
                    if !self.lanes.is_empty() {
                        self.cursor %= self.lanes.len();
                    } else {
                        self.cursor = 0;
                    }
                }
            }
        }
    }

    fn lane_mut(&mut self, client: &str) -> &mut Lane<T> {
        if let Some(i) = self.lanes.iter().position(|l| l.client == client) {
            return &mut self.lanes[i];
        }
        self.lanes.push(Lane::new(client.to_string()));
        self.lanes.last_mut().expect("just pushed")
    }
}

struct FairState<T> {
    shards: Vec<ShardState<T>>,
    total: usize,
    per_client: HashMap<String, usize>,
    draining: bool,
}

/// A sharded, client-fair, priority-aware bounded queue.
///
/// The global `bound` caps total queued items (all shards together);
/// `client_quota` (0 = unlimited) caps any one client's share of it.
/// Workers pin to a shard and call [`pop`](FairQueue::pop) with it;
/// each shard has its own condvar so a push only wakes workers that
/// can actually serve it.
pub struct FairQueue<T> {
    state: Mutex<FairState<T>>,
    available: Vec<Condvar>,
    bound: usize,
    client_quota: usize,
    quantum: u64,
}

impl<T> FairQueue<T> {
    /// Creates a queue with `shards` worker shards (clamped ≥ 1),
    /// holding at most `bound` items total (clamped ≥ 1). `quantum`
    /// is the DRR refill per lane per rotation, in the same unit as
    /// admission costs (simulated refs).
    pub fn new(shards: usize, bound: usize, client_quota: usize, quantum: u64) -> Self {
        let shards = shards.max(1);
        FairQueue {
            state: Mutex::new(FairState {
                shards: (0..shards)
                    .map(|_| ShardState {
                        lanes: Vec::new(),
                        cursor: 0,
                        depth: 0,
                    })
                    .collect(),
                total: 0,
                per_client: HashMap::new(),
                draining: false,
            }),
            available: (0..shards).map(|_| Condvar::new()).collect(),
            bound: bound.max(1),
            client_quota,
            quantum: quantum.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, FairState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The configured global capacity.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// The number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.available.len()
    }

    /// The per-client quota (0 = unlimited).
    pub fn client_quota(&self) -> usize {
        self.client_quota
    }

    /// Items currently queued across all shards.
    pub fn depth(&self) -> usize {
        self.lock().total
    }

    /// Items currently queued for one client.
    pub fn client_depth(&self, client: &str) -> usize {
        self.lock().per_client.get(client).copied().unwrap_or(0)
    }

    /// Whether the queue has stopped accepting new items.
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    fn clamp_cost(&self, cost: u64) -> u64 {
        cost.clamp(1, self.quantum.saturating_mul(MAX_COST_QUANTA))
    }

    /// Enqueues a batch without blocking and atomically: either every
    /// admission lands (in order, possibly across different shards)
    /// and the total depth after the push comes back, or none does and
    /// the whole batch comes back with the refusal reason — the
    /// scenario matrix's all-or-nothing contract, preserved across
    /// sharding. Quotas are checked against the batch's own tallies
    /// too: a 10-cell scenario from a client with 4 quota slots left is
    /// refused whole. A single submission is a batch of one.
    pub fn try_push_many(
        &self,
        admissions: Vec<Admission<T>>,
    ) -> Result<usize, FairPushError<Vec<Admission<T>>>> {
        let mut state = self.lock();
        if state.draining {
            return Err(FairPushError::Draining(admissions));
        }
        if state.total + admissions.len() > self.bound {
            return Err(FairPushError::Full(admissions));
        }
        if self.client_quota > 0 {
            let mut tally: HashMap<&str, usize> = HashMap::new();
            for adm in &admissions {
                *tally.entry(adm.client.as_str()).or_insert(0) += 1;
            }
            for (client, extra) in tally {
                let queued = state.per_client.get(client).copied().unwrap_or(0);
                if queued + extra > self.client_quota {
                    return Err(FairPushError::ClientQuota {
                        item: admissions,
                        queued,
                    });
                }
            }
        }
        let mut notified: Vec<usize> = vec![0; self.shard_count()];
        for adm in admissions {
            let shard_idx = adm.shard % self.shard_count();
            let cost = self.clamp_cost(adm.cost);
            *state.per_client.entry(adm.client.clone()).or_insert(0) += 1;
            state.total += 1;
            let shard = &mut state.shards[shard_idx];
            shard.depth += 1;
            shard.lane_mut(&adm.client).by_priority[adm.priority.lane()].push_back(Entry {
                item: adm.item,
                cost,
            });
            notified[shard_idx] += 1;
        }
        let depth = state.total;
        drop(state);
        for (shard_idx, n) in notified.into_iter().enumerate() {
            for _ in 0..n {
                self.available[shard_idx].notify_one();
            }
        }
        Ok(depth)
    }

    /// Dequeues from one shard, blocking until an item is available
    /// there. Returns `None` once the queue is draining and the shard
    /// is empty — the pinned worker's exit condition.
    pub fn pop(&self, shard: usize) -> Option<T> {
        let shard_idx = shard % self.shard_count();
        let mut state = self.lock();
        loop {
            if let Some((entry, client)) = state.shards[shard_idx].take(self.quantum) {
                state.total -= 1;
                match state.per_client.get_mut(&client) {
                    Some(n) if *n > 1 => *n -= 1,
                    _ => {
                        state.per_client.remove(&client);
                    }
                }
                return Some(entry.item);
            }
            if state.draining {
                return None;
            }
            state = self.available[shard_idx]
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops accepting new items and wakes every blocked
    /// [`pop`](FairQueue::pop) so pinned workers can finish their
    /// shard's backlog and exit.
    pub fn drain(&self) {
        self.lock().draining = true;
        for cv in &self.available {
            cv.notify_all();
        }
    }
}

/// Derives an honest `Retry-After` from what the server actually
/// knows: how much work is queued ahead and how fast workers have
/// been draining it. A constant "1" tells a shedding client to hammer
/// a queue that may need a minute to clear; this tells it when a slot
/// is *plausibly* free.
///
/// Bounds (pinned by test): never below 1 s (HTTP-sane minimum, and
/// an empty queue that still refused you is a transient), never above
/// 60 s (past that the estimate is noise and clients should just
/// re-probe), and 60 s when the drain rate is unknown or zero (no
/// workers / none finished yet — the pessimistic honest answer).
pub fn retry_after_secs(queue_depth: usize, drain_per_sec: f64) -> u64 {
    if queue_depth == 0 {
        return 1;
    }
    // NaN and non-positive rates both mean "drain rate unknown".
    if drain_per_sec.is_nan() || drain_per_sec <= 0.0 {
        return 60;
    }
    let secs = (queue_depth as f64 / drain_per_sec).ceil() as u64;
    secs.clamp(1, 60)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn adm(client: &str, item: u32) -> Admission<u32> {
        Admission {
            shard: 0,
            client: client.into(),
            priority: Priority::Normal,
            cost: 1,
            item,
        }
    }

    /// The one push method, with a batch of one.
    fn push(
        q: &FairQueue<u32>,
        adm: Admission<u32>,
    ) -> Result<usize, FairPushError<Vec<Admission<u32>>>> {
        q.try_push_many(vec![adm])
    }

    #[test]
    fn zero_bound_is_clamped() {
        // Zero shards, a zero bound and a zero quantum each clamp to 1:
        // the queue still accepts one item, and its lane earns the
        // credit to pop it.
        let q = FairQueue::new(0, 0, 0, 0);
        assert_eq!(q.bound(), 1);
        assert_eq!(q.shard_count(), 1);
        assert_eq!(push(&q, adm("a", 1)), Ok(1));
        assert!(matches!(push(&q, adm("a", 2)), Err(FairPushError::Full(_))));
        assert_eq!(q.pop(0), Some(1));
    }

    #[test]
    fn fair_single_client_is_fifo() {
        let q = FairQueue::new(1, 8, 0, 100);
        for i in 0..4 {
            push(&q, adm("a", i)).unwrap();
        }
        assert_eq!(q.depth(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(0), Some(i));
        }
        assert_eq!(q.depth(), 0);
        assert_eq!(q.client_depth("a"), 0);
    }

    #[test]
    fn priority_orders_within_a_client_lane() {
        let q = FairQueue::new(1, 8, 0, 100);
        push(
            &q,
            Admission {
                priority: Priority::Low,
                ..adm("a", 1)
            },
        )
        .unwrap();
        push(
            &q,
            Admission {
                priority: Priority::Normal,
                ..adm("a", 2)
            },
        )
        .unwrap();
        push(
            &q,
            Admission {
                priority: Priority::High,
                ..adm("a", 3)
            },
        )
        .unwrap();
        assert_eq!(q.pop(0), Some(3));
        assert_eq!(q.pop(0), Some(2));
        assert_eq!(q.pop(0), Some(1));
    }

    #[test]
    fn drr_interleaves_a_greedy_backlog_with_a_polite_client() {
        let q = FairQueue::new(1, 32, 0, 100);
        // Greedy floods 10 items before polite submits 2; equal costs.
        for i in 0..10 {
            push(&q, adm("greedy", i)).unwrap();
        }
        push(&q, adm("polite", 100)).unwrap();
        push(&q, adm("polite", 101)).unwrap();
        let order: Vec<u32> = (0..12).map(|_| q.pop(0).unwrap()).collect();
        // Round-robin at equal cost: polite's items surface within the
        // first few pops instead of queuing behind greedy's backlog.
        let p0 = order.iter().position(|&x| x == 100).unwrap();
        let p1 = order.iter().position(|&x| x == 101).unwrap();
        assert!(p0 < 3, "polite's first item came out at {p0}: {order:?}");
        assert!(p1 < 5, "polite's second item came out at {p1}: {order:?}");
    }

    #[test]
    fn drr_bills_big_jobs_proportionally() {
        let q = FairQueue::new(1, 32, 0, 100);
        // Greedy's items each cost 3 quanta; polite's cost a fraction
        // of one. Greedy gets one serving per ~3 rotations while
        // polite drains every rotation.
        for i in 0..3 {
            push(
                &q,
                Admission {
                    cost: 300,
                    ..adm("greedy", i)
                },
            )
            .unwrap();
        }
        for i in 0..3 {
            push(
                &q,
                Admission {
                    cost: 10,
                    ..adm("polite", 100 + i)
                },
            )
            .unwrap();
        }
        let order: Vec<u32> = (0..6).map(|_| q.pop(0).unwrap()).collect();
        let last_polite = order.iter().rposition(|&x| x >= 100).unwrap();
        let first_greedy = order.iter().position(|&x| x < 100).unwrap();
        assert!(
            last_polite < 4 && first_greedy >= 1,
            "cheap jobs should clear before the expensive backlog: {order:?}"
        );
    }

    #[test]
    fn client_quota_refuses_only_the_offender() {
        let q = FairQueue::new(1, 8, 2, 100);
        push(&q, adm("greedy", 1)).unwrap();
        push(&q, adm("greedy", 2)).unwrap();
        match push(&q, adm("greedy", 3)) {
            Err(FairPushError::ClientQuota { queued, .. }) => assert_eq!(queued, 2),
            other => panic!("expected ClientQuota, got {other:?}"),
        }
        // The queue itself has room: another client sails through.
        push(&q, adm("polite", 4)).unwrap();
        assert_eq!(q.depth(), 3);
        assert_eq!(q.client_depth("greedy"), 2);
        assert_eq!(q.client_depth("polite"), 1);
        // Draining the offender frees its quota.
        q.pop(0);
        push(&q, adm("greedy", 5)).unwrap();
    }

    #[test]
    fn fair_global_bound_and_drain() {
        let q = FairQueue::new(2, 2, 0, 100);
        push(&q, adm("a", 1)).unwrap();
        push(
            &q,
            Admission {
                shard: 1,
                ..adm("b", 2)
            },
        )
        .unwrap();
        assert!(matches!(push(&q, adm("c", 3)), Err(FairPushError::Full(_))));
        q.drain();
        assert!(matches!(
            push(&q, adm("c", 3)),
            Err(FairPushError::Draining(_))
        ));
        // Backlogs still drain per shard, then pinned pops release.
        assert_eq!(q.pop(0), Some(1));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), Some(2));
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn fair_batch_push_is_all_or_nothing_across_shards() {
        let q = FairQueue::new(2, 3, 0, 100);
        push(&q, adm("a", 1)).unwrap();
        let batch = vec![
            Admission {
                shard: 0,
                ..adm("b", 2)
            },
            Admission {
                shard: 1,
                ..adm("b", 3)
            },
            Admission {
                shard: 1,
                ..adm("b", 4)
            },
        ];
        // Three more would overflow the global bound of 3.
        assert!(matches!(
            q.try_push_many(batch),
            Err(FairPushError::Full(v)) if v.len() == 3
        ));
        assert_eq!(q.depth(), 1);
        let batch = vec![
            Admission {
                shard: 0,
                ..adm("b", 2)
            },
            Admission {
                shard: 1,
                ..adm("b", 3)
            },
        ];
        assert_eq!(q.try_push_many(batch), Ok(3));
        assert_eq!(q.pop(1), Some(3));
    }

    #[test]
    fn fair_batch_quota_counts_the_whole_batch() {
        let q = FairQueue::new(1, 16, 3, 100);
        push(&q, adm("a", 1)).unwrap();
        push(&q, adm("a", 2)).unwrap();
        // Two more would put "a" at 4 > quota 3: refused whole.
        let batch = vec![adm("a", 3), adm("a", 4)];
        assert!(matches!(
            q.try_push_many(batch),
            Err(FairPushError::ClientQuota { queued: 2, .. })
        ));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn blocked_fair_pop_wakes_on_push_and_on_drain() {
        let q: Arc<FairQueue<u32>> = Arc::new(FairQueue::new(2, 8, 0, 100));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop(1))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        push(
            &q,
            Admission {
                shard: 1,
                ..adm("a", 7)
            },
        )
        .unwrap();
        assert_eq!(waiter.join().unwrap(), Some(7));

        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop(0))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.drain();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn oversized_costs_are_clamped_so_pops_terminate() {
        let q = FairQueue::new(1, 4, 0, 10);
        // Cost astronomically above quantum * MAX_COST_QUANTA: without
        // the clamp the DRR scan would spin for u64::MAX/10 rotations.
        push(
            &q,
            Admission {
                cost: u64::MAX,
                ..adm("a", 1)
            },
        )
        .unwrap();
        assert_eq!(q.pop(0), Some(1));
    }

    #[test]
    fn retry_after_tracks_depth_over_drain_rate_within_bounds() {
        // Empty queue: refusal was transient, retry immediately-ish.
        assert_eq!(retry_after_secs(0, 5.0), 1);
        // No drain signal (zero/NaN rate): pessimistic cap.
        assert_eq!(retry_after_secs(10, 0.0), 60);
        assert_eq!(retry_after_secs(10, -1.0), 60);
        assert_eq!(retry_after_secs(10, f64::NAN), 60);
        // The honest middle: ceil(depth / rate).
        assert_eq!(retry_after_secs(10, 2.0), 5);
        assert_eq!(retry_after_secs(3, 2.0), 2);
        // Clamped to [1, 60] at the extremes.
        assert_eq!(retry_after_secs(1, 1000.0), 1);
        assert_eq!(retry_after_secs(100_000, 0.5), 60);
    }
}
