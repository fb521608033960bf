//! Lock-free single-producer/single-consumer submission rings.
//!
//! The zero-copy ingest path between a session router and a shard: the
//! router claims a slot, decodes a `SubmitRounds` wire body *directly*
//! into the slot's persistent packed-word arena, and publishes; the
//! shard consumes slots in FIFO order and feeds the words straight to
//! [`realtime::SlidingWindowDecoder::decode_shot_packed_into`]. Slots
//! are recycled, so the steady-state hot loop moves a round from wire to
//! decoder with **zero heap allocations and zero locks** — the mpsc
//! channel hop (one `Vec<u32>` materialization + one allocation per
//! submission) this replaces is kept only for cold control traffic
//! (register, stats).
//!
//! Memory ordering is the classic SPSC protocol: the producer writes the
//! slot then `Release`-stores the tail; the consumer `Acquire`-loads the
//! tail before reading slots, and `Release`-stores the head after it is
//! done with them. Exactly one producer and one consumer exist per ring
//! (the halves are `Send` but not `Clone`). The producer is owned by its
//! session router; the consumer lives inside its shard's lock, which
//! the shard thread and any router sweeping the shard inline share — so
//! "single consumer" means one lock holder at a time, not one thread.
//! The Release/Acquire pair of the lock hand-off orders one holder's
//! head store and slot reads before the next holder's.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;

/// One in-flight submission: the wire header plus the shot's syndrome as
/// packed words (bit `d % 64` of word `d / 64` is detector `d`). The
/// `words` buffer persists across recycles — it is the arena.
#[derive(Debug, Default)]
pub struct SubmitSlot {
    /// Tenant id.
    pub qubit: u32,
    /// Per-tenant shot sequence number.
    pub shot: u64,
    /// Raw [`telemetry::now`] publish timestamp when the router's span
    /// sampler picked this submission (0 = unsampled). The shard turns
    /// it into an ingest-stage span at pickup.
    pub enq: u64,
    /// Packed syndrome words of the whole shot.
    pub words: Vec<u64>,
}

struct Inner {
    slots: Box<[UnsafeCell<SubmitSlot>]>,
    /// Next slot the consumer reads (monotonically increasing).
    head: AtomicUsize,
    /// One past the last published slot (monotonically increasing).
    tail: AtomicUsize,
    closed: AtomicBool,
}

// SAFETY: the SPSC protocol partitions slot access — the producer only
// touches indices in `[tail, head + capacity)`, the consumer only
// `[head, tail)`, and the Release/Acquire pair on `tail` (resp. `head`)
// orders the slot writes before the other side reads (resp. recycles)
// them. Each half is used by at most one thread at a time: every slot
// accessor takes `&mut self` and neither half is `Clone`. In the server
// the producer is owned by one router, and the consumer is reached only
// through its shard's mutex, whose lock/unlock orders successive
// holders' accesses.
unsafe impl Sync for Inner {}

/// Creates a ring of `capacity` slots (rounded up to a power of two).
pub fn ring(capacity: usize) -> (Producer, Consumer) {
    let cap = capacity.next_power_of_two().max(2);
    let slots: Box<[UnsafeCell<SubmitSlot>]> = (0..cap)
        .map(|_| UnsafeCell::new(SubmitSlot::default()))
        .collect();
    let inner = Arc::new(Inner {
        slots,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
        },
        Consumer { inner },
    )
}

/// The write half: exactly one per ring, owned by a session router.
/// Dropping it closes the ring (the consumer drains what was published).
pub struct Producer {
    inner: Arc<Inner>,
}

// SAFETY: moving the producer to another thread is fine; only one
// thread at a time can call through its exclusive methods.
unsafe impl Send for Producer {}

impl Producer {
    /// Claims the next free slot for writing, or `None` when the ring is
    /// full (backpressure: the caller sheds). The claim is not visible
    /// to the consumer until [`Producer::publish`].
    pub fn try_claim(&mut self) -> Option<&mut SubmitSlot> {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Acquire);
        if tail - head == self.inner.slots.len() {
            return None;
        }
        let idx = tail & (self.inner.slots.len() - 1);
        // SAFETY: `tail` is unpublished, so the consumer does not read
        // this slot; `&mut self` keeps the producer single-threaded.
        Some(unsafe { &mut *self.inner.slots[idx].get() })
    }

    /// Publishes the slot claimed by the last [`Producer::try_claim`].
    pub fn publish(&mut self) {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        self.inner.tail.store(tail + 1, Ordering::Release);
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        self.inner.closed.store(true, Ordering::Release);
    }
}

/// The read half: exactly one per ring, kept in its shard's lock — the
/// shard thread or a router sweeping inline reads it, whichever holds
/// the lock.
pub struct Consumer {
    inner: Arc<Inner>,
}

// SAFETY: moving the consumer to another thread is fine; its slot
// accessors take `&mut self`, so one thread at a time calls them — in
// the server, whichever thread holds the shard lock it lives behind.
unsafe impl Send for Consumer {}

impl Consumer {
    /// Published slots waiting to be consumed.
    pub fn len(&self) -> usize {
        self.inner.tail.load(Ordering::Acquire) - self.inner.head.load(Ordering::Relaxed)
    }

    /// Whether no published slot is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The producer is gone and everything published has been consumed.
    pub fn is_done(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire) && self.is_empty()
    }

    /// The `i`-th waiting slot (0 = oldest); `i` must be `< len()`.
    /// Mutable so the consumer can steal/clear the slot's buffers.
    pub fn slot(&mut self, i: usize) -> &mut SubmitSlot {
        debug_assert!(i < self.len());
        let head = self.inner.head.load(Ordering::Relaxed);
        let idx = (head + i) & (self.inner.slots.len() - 1);
        // SAFETY: `head + i < tail` (caller contract via `len`), so the
        // slot is published and not accessible to the producer; `&mut
        // self` (held under the shard lock) keeps the consumer to one
        // thread at a time.
        unsafe { &mut *self.inner.slots[idx].get() }
    }

    /// Recycles the oldest `n` consumed slots back to the producer.
    pub fn advance(&mut self, n: usize) {
        debug_assert!(n <= self.len());
        let head = self.inner.head.load(Ordering::Relaxed);
        self.inner.head.store(head + n, Ordering::Release);
    }
}

/// Wakes a parked shard thread when work is published to its rings.
///
/// The shard sets `parked` before checking its rings one last time and
/// parking; a producer that publishes swaps `parked` off and unparks.
/// The shard parks with a timeout, so a lost race costs bounded latency,
/// never a hang. A router that finds the flag raised may also leave it
/// up and sweep the shard itself: the shard thread then sleeps on until
/// its timeout.
#[derive(Debug)]
pub struct ShardWaker {
    parked: AtomicBool,
    thread: Mutex<Option<Thread>>,
    /// Unparks actually delivered (the successful `parked` swap), for
    /// the shard's telemetry wakes counter.
    wakes: AtomicU64,
}

impl ShardWaker {
    /// A waker with no registered shard thread yet.
    pub fn new() -> Self {
        ShardWaker {
            parked: AtomicBool::new(false),
            thread: Mutex::new(None),
            wakes: AtomicU64::new(0),
        }
    }

    /// Registers the calling thread as the one to unpark.
    pub fn register(&self) {
        *self.thread.lock().expect("waker poisoned") = Some(std::thread::current());
    }

    /// Marks the shard as about to park. The shard must re-check its
    /// rings *after* this, then call [`ShardWaker::park_timeout`].
    pub fn prepare_park(&self) {
        self.parked.store(true, Ordering::SeqCst);
    }

    /// Lowers the flag of a [`ShardWaker::prepare_park`] whose re-check
    /// found work, so the running shard does not look parked.
    pub(crate) fn cancel_park(&self) {
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Whether the shard has raised its flag and no wake has taken it
    /// down since: it is parked, or about to park after finding its
    /// rings empty.
    pub(crate) fn is_parked(&self) -> bool {
        self.parked.load(Ordering::SeqCst)
    }

    /// Parks the calling thread until woken or `timeout` elapses.
    /// Returns `true` when the flag was still raised on return — no
    /// [`ShardWaker::wake`] ended the park; the timeout (or a spurious
    /// unpark) did.
    pub fn park_timeout(&self, timeout: std::time::Duration) -> bool {
        if self.parked.load(Ordering::SeqCst) {
            std::thread::park_timeout(timeout);
        }
        self.parked.swap(false, Ordering::SeqCst)
    }

    /// Wakes the shard if it is parked (or about to park).
    pub fn wake(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            if let Some(t) = self.thread.lock().expect("waker poisoned").as_ref() {
                t.unpark();
            }
        }
    }

    /// Unparks delivered so far (wakes that found the shard parked or
    /// about to park — redundant `wake` calls on a running shard do not
    /// count).
    pub fn wake_count(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }
}

impl Default for ShardWaker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_round_trips_in_fifo_order() {
        let (mut p, mut c) = ring(4);
        assert!(c.is_empty());
        for shot in 0..3u64 {
            let slot = p.try_claim().expect("room");
            slot.qubit = 7;
            slot.shot = shot;
            slot.words.clear();
            slot.words.push(shot + 100);
            p.publish();
        }
        assert_eq!(c.len(), 3);
        for i in 0..3 {
            assert_eq!(c.slot(i).shot, i as u64);
            assert_eq!(c.slot(i).words, vec![i as u64 + 100]);
        }
        c.advance(3);
        assert!(c.is_empty());
    }

    #[test]
    fn full_ring_rejects_claims_until_advanced() {
        let (mut p, mut c) = ring(2);
        for _ in 0..2 {
            p.try_claim().expect("room");
            p.publish();
        }
        assert!(p.try_claim().is_none(), "full ring sheds");
        c.advance(1);
        assert!(p.try_claim().is_some(), "recycled slot is claimable");
    }

    #[test]
    fn slot_buffers_are_recycled_not_reallocated() {
        let (mut p, mut c) = ring(2);
        for _ in 0..2 {
            let slot = p.try_claim().unwrap();
            slot.words.clear();
            slot.words.extend_from_slice(&[1, 2, 3, 4]);
            p.publish();
        }
        c.advance(2);
        // The next claim wraps back to slot 0.
        let slot = p.try_claim().unwrap();
        assert!(
            slot.words.capacity() >= 4,
            "the arena buffer survives the recycle"
        );
    }

    #[test]
    fn dropping_the_producer_closes_after_a_drain() {
        let (mut p, mut c) = ring(2);
        p.try_claim().unwrap().shot = 9;
        p.publish();
        drop(p);
        assert!(!c.is_done(), "published work must drain first");
        assert_eq!(c.slot(0).shot, 9);
        c.advance(1);
        assert!(c.is_done());
    }

    #[test]
    fn ring_moves_submissions_across_threads() {
        let (mut p, mut c) = ring(8);
        const N: u64 = 10_000;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut next = 0u64;
                while next < N {
                    if let Some(slot) = p.try_claim() {
                        slot.shot = next;
                        slot.words.clear();
                        slot.words.push(next.wrapping_mul(31));
                        p.publish();
                        next += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            });
            let mut expect = 0u64;
            while expect < N {
                let n = c.len();
                for i in 0..n {
                    let slot = c.slot(i);
                    assert_eq!(slot.shot, expect);
                    assert_eq!(slot.words, vec![expect.wrapping_mul(31)]);
                    expect += 1;
                }
                c.advance(n);
            }
            assert!(c.is_empty());
        });
    }

    #[test]
    fn waker_wakes_a_parked_thread() {
        let waker = Arc::new(ShardWaker::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (w, f) = (Arc::clone(&waker), Arc::clone(&flag));
        let h = std::thread::spawn(move || {
            w.register();
            while !f.load(Ordering::Acquire) {
                w.prepare_park();
                if f.load(Ordering::Acquire) {
                    break;
                }
                w.park_timeout(std::time::Duration::from_millis(50));
            }
        });
        flag.store(true, Ordering::Release);
        waker.wake();
        h.join().unwrap();
    }

    #[test]
    fn wake_count_ignores_redundant_wakes() {
        let waker = ShardWaker::new();
        waker.register();
        // The shard is running: wakes are no-ops and do not count.
        waker.wake();
        waker.wake();
        assert_eq!(waker.wake_count(), 0);
        // Parked (or about to park): the wake is delivered and counted.
        waker.prepare_park();
        waker.wake();
        assert_eq!(waker.wake_count(), 1);
        waker.wake();
        assert_eq!(waker.wake_count(), 1, "the second wake found it awake");
    }

    #[test]
    fn park_timeout_reports_whether_a_wake_ended_it() {
        let waker = ShardWaker::new();
        waker.register();
        waker.prepare_park();
        assert!(waker.is_parked());
        assert!(
            waker.park_timeout(std::time::Duration::from_micros(50)),
            "nobody woke it: the timeout did"
        );
        assert!(!waker.is_parked());
        waker.prepare_park();
        waker.wake();
        assert!(!waker.is_parked(), "the wake took the flag down");
        assert!(!waker.park_timeout(std::time::Duration::from_secs(5)));
        // A re-check that found work lowers the flag without a wake.
        waker.prepare_park();
        waker.cancel_park();
        assert!(!waker.is_parked());
        waker.wake();
        assert_eq!(waker.wake_count(), 1);
    }
}
