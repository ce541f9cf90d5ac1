//! A bounded multi-producer single-consumer queue with reject-on-full
//! semantics — the backpressure heart of the server.
//!
//! Connection handlers `try_push` requests and the batcher pops them;
//! when the queue is at capacity the push *fails immediately* (the
//! handler answers 429) instead of blocking, so a traffic burst turns
//! into fast rejections rather than unbounded memory growth and
//! ever-later responses. Built on `Mutex<VecDeque>` + `Condvar` only:
//! no lock-free cleverness, every edge (full, empty, timeout, close)
//! unit-testable without loom.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use graphner_obs::Stopwatch;

/// A failed [`BoundedQueue::try_push`], handing the item back so the
/// caller can answer the client instead of dropping the request on the
/// floor.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — backpressure; answer 429.
    Full(T),
    /// The queue is closed (server shutting down); answer 503.
    Closed(T),
}

/// Outcome of a [`BoundedQueue::pop_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum PopResult<T> {
    /// An item arrived (or was already waiting).
    Popped(T),
    /// The timeout elapsed with the queue still empty.
    TimedOut,
    /// The queue is closed *and drained* — the consumer can exit.
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The bounded MPSC queue. `try_push` never blocks; `pop_timeout`
/// blocks up to a caller-chosen timeout (zero takes only what is
/// already queued). Close wakes every waiter.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Lock the state, recovering from poisoning: the queue holds plain
    /// bookkeeping data that stays valid even if a holder panicked.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Enqueue without blocking. Returns the queue depth *after* the
    /// push (for the `serve.queue_depth` gauge) or hands the item back
    /// when full/closed.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut state = self.lock();
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Dequeue, waiting up to `timeout` for an item. A closed queue
    /// still drains: `Closed` is only returned once no items remain,
    /// so accepted requests are never abandoned at shutdown.
    pub fn pop_timeout(&self, timeout: Duration) -> PopResult<T> {
        let clock = Stopwatch::start();
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return PopResult::Popped(item);
            }
            if state.closed {
                return PopResult::Closed;
            }
            let elapsed = Duration::from_secs_f64(clock.elapsed_seconds());
            if elapsed >= timeout {
                return PopResult::TimedOut;
            }
            state = match self.not_empty.wait_timeout(state, timeout - elapsed) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Close the queue: future pushes fail with `Closed`, and poppers
    /// are woken so they can drain the remainder and exit.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_preserves_fifo_order() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.depth(), 4);
        for i in 0..4 {
            assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Popped(i));
        }
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_rejects_and_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        match q.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        // popping frees a slot
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Popped(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn empty_pop_times_out() {
        let q: BoundedQueue<u32> = BoundedQueue::new(1);
        let clock = Stopwatch::start();
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), PopResult::TimedOut);
        assert!(clock.elapsed_seconds() >= 0.009);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn close_rejects_pushes_but_drains_pending_items() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        match q.try_push(3) {
            Err(PushError::Closed(item)) => assert_eq!(item, 3),
            other => panic!("expected Closed, got {other:?}"),
        }
        // accepted items still come out, then Closed
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Popped(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Popped(2));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), PopResult::Closed);
    }

    #[test]
    fn close_wakes_a_blocked_popper() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), PopResult::Closed);
    }

    #[test]
    fn push_wakes_a_blocked_popper() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(7).unwrap();
        assert_eq!(popper.join().unwrap(), PopResult::Popped(7));
    }
}
