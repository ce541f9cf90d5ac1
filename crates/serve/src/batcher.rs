//! The batcher: one thread that drains the request queue, coalesces
//! concurrent requests into a single `try_tag_batch` call, and routes
//! each slice of the result back to the waiting connection handler.
//!
//! # Ordering argument (why batching is invisible to clients)
//!
//! Every tagger in the workspace satisfies the [`Tagger`] contract
//! that `try_tag_batch` equals independent per-sentence
//! prediction, in input order. The batcher concatenates the sentences
//! of requests `r1..rn` in queue (FIFO) order, tags the concatenation
//! once, and splits the result back by each request's sentence count —
//! so request `ri` receives exactly the tags positions
//! `len(r1)+…+len(r(i-1)) .. +len(ri)` of the batch, which by the
//! contract equal tagging `ri` alone. Batch composition therefore
//! changes *throughput only*: any batch size, queue timing, or thread
//! count yields byte-identical responses (asserted end-to-end by the
//! determinism suite).

use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use graphner_core::ServeConfig;
use graphner_obs::{attr, histogram, span, SpanName, Stopwatch};
use graphner_text::{BioTag, Sentence, TagError, Tagger};

use crate::queue::{BoundedQueue, PopResult};

/// A per-request deadline measured against the workspace's sanctioned
/// clock ([`Stopwatch`]), started when the request is parsed. `Copy`,
/// so the handler and the queued request share one origin instant.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    clock: Stopwatch,
    budget_seconds: f64,
}

impl Deadline {
    /// A deadline expiring `budget` from now.
    pub fn new(budget: Duration) -> Deadline {
        Deadline { clock: Stopwatch::start(), budget_seconds: budget.as_secs_f64() }
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.clock.elapsed_seconds() >= self.budget_seconds
    }

    /// Time left, clamped at zero.
    pub fn remaining(&self) -> Duration {
        let left = self.budget_seconds - self.clock.elapsed_seconds();
        if left <= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(left)
        }
    }
}

/// What the batcher eventually writes into a request's response slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TagResponse {
    /// Tags, one `Vec<BioTag>` per request sentence, in request order.
    Tags(Vec<Vec<BioTag>>),
    /// The request was rejected by the fallible tagging path.
    Error(TagError),
    /// The request's deadline passed before it could be tagged.
    Expired,
}

/// A write-once rendezvous between the batcher and one waiting
/// connection handler — the hand-rolled equivalent of a oneshot
/// channel.
#[derive(Debug, Default)]
pub struct ResponseSlot {
    value: Mutex<Option<TagResponse>>,
    ready: Condvar,
}

impl ResponseSlot {
    /// An empty slot.
    pub fn new() -> Arc<ResponseSlot> {
        Arc::new(ResponseSlot::default())
    }

    /// Deliver the response and wake the waiter. First write wins; a
    /// second delivery (e.g. batcher answering a request whose handler
    /// already timed out locally) is dropped.
    pub fn fill(&self, response: TagResponse) {
        let mut value = match self.value.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if value.is_none() {
            *value = Some(response);
        }
        drop(value);
        self.ready.notify_all();
    }

    /// Block until the response arrives or `deadline` expires; expiry
    /// without a delivery yields [`TagResponse::Expired`].
    pub fn wait(&self, deadline: &Deadline) -> TagResponse {
        let mut value = match self.value.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        loop {
            if let Some(response) = value.take() {
                return response;
            }
            if deadline.expired() {
                return TagResponse::Expired;
            }
            value = match self.ready.wait_timeout(value, deadline.remaining()) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }
}

/// One queued tagging request.
#[derive(Debug)]
pub struct TagRequest {
    /// The parsed, already shape-validated sentences.
    pub sentences: Vec<Sentence>,
    /// When the client stops waiting.
    pub deadline: Deadline,
    /// Where the answer goes.
    pub slot: Arc<ResponseSlot>,
}

/// How long the batcher sleeps per empty poll while idle. Purely a
/// shutdown-latency knob: a closed queue wakes the batcher immediately,
/// this poll only bounds how long a *pre-close* blocked pop waits.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Run the batcher loop until the queue is closed and drained.
///
/// Flush policy: block for the first request, then take without
/// waiting every request already queued until the batch holds
/// `max_batch` sentences or more, and flush. Coalescing comes from the
/// requests that queue up while the previous batch is being tagged, so
/// an idle server answers a lone request without any timer. A request
/// that carries the batch past `max_batch` still joins its flush (it
/// was already dequeued; holding it back would reorder).
pub fn run_batcher<T: Tagger>(queue: &BoundedQueue<TagRequest>, tagger: &T, cfg: &ServeConfig) {
    loop {
        let first = match queue.pop_timeout(IDLE_POLL) {
            PopResult::Popped(request) => request,
            PopResult::TimedOut => continue,
            PopResult::Closed => return,
        };
        let mut total = first.sentences.len();
        let mut batch = vec![first];
        while total < cfg.max_batch {
            match queue.pop_timeout(Duration::ZERO) {
                PopResult::Popped(request) => {
                    total += request.sentences.len();
                    batch.push(request);
                }
                PopResult::TimedOut | PopResult::Closed => break,
            }
        }
        flush(tagger, batch);
    }
}

/// Tag one coalesced batch and deliver each request's slice.
fn flush<T: Tagger>(tagger: &T, batch: Vec<TagRequest>) {
    let _s = span(SpanName::ServeBatch);
    let mut all: Vec<Sentence> = Vec::with_capacity(batch.iter().map(|r| r.sentences.len()).sum());
    // each live request's slot and its range of `all`
    let mut live: Vec<(Arc<ResponseSlot>, Range<usize>)> = Vec::with_capacity(batch.len());
    for request in batch {
        if request.deadline.expired() {
            // answered, not dropped: the handler (or a late waiter)
            // sees an explicit Expired instead of silence
            request.slot.fill(TagResponse::Expired);
        } else {
            let start = all.len();
            all.extend(request.sentences);
            live.push((request.slot, start..all.len()));
        }
    }
    if live.is_empty() {
        return;
    }
    attr("batch.requests", live.len());
    attr("batch.sentences", all.len());
    histogram("serve.batch_size").record(all.len() as f64);

    match tagger.try_tag_batch(&all) {
        Ok(tags) => {
            let mut rest = tags.into_iter();
            for (slot, range) in live {
                slot.fill(TagResponse::Tags(rest.by_ref().take(range.len()).collect()));
            }
        }
        Err(_) => {
            // One request poisoned the batch (handlers shape-validate
            // before enqueueing, so this is a model-side error such as
            // a non-finite posterior). Re-tag per request so only the
            // offender errors; the contract makes the others' tags
            // identical to their share of the failed batch.
            for (slot, range) in live {
                match tagger.try_tag_batch(&all[range]) {
                    Ok(tags) => slot.fill(TagResponse::Tags(tags)),
                    Err(e) => slot.fill(TagResponse::Error(e)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphner_text::{validate_sentences, NUM_TAGS};

    /// Everything-O tagger that records the sentence count of every
    /// `try_tag_batch` call, and fails a batch holding an empty
    /// sentence.
    #[derive(Default)]
    struct RecordingTagger {
        calls: Mutex<Vec<usize>>,
    }

    impl RecordingTagger {
        fn calls(&self) -> Vec<usize> {
            self.calls.lock().unwrap().clone()
        }
    }

    impl Tagger for RecordingTagger {
        fn predict(&self, sentence: &Sentence) -> Vec<BioTag> {
            vec![BioTag::O; sentence.len()]
        }

        fn posteriors(&self, sentence: &Sentence) -> Vec<[f64; NUM_TAGS]> {
            vec![[0.0, 0.0, 1.0]; sentence.len()]
        }

        fn try_tag_batch(&self, sentences: &[Sentence]) -> Result<Vec<Vec<BioTag>>, TagError> {
            self.calls.lock().unwrap().push(sentences.len());
            validate_sentences(sentences)?;
            Ok(sentences.iter().map(|s| self.predict(s)).collect())
        }
    }

    /// A request of one sentence per entry of `lengths`, each that many
    /// tokens long.
    fn request(lengths: &[usize], budget: Duration) -> (TagRequest, Arc<ResponseSlot>) {
        let slot = ResponseSlot::new();
        let sentences =
            lengths.iter().map(|&n| Sentence::unlabelled("s", vec!["w".to_string(); n])).collect();
        (TagRequest { sentences, deadline: Deadline::new(budget), slot: Arc::clone(&slot) }, slot)
    }

    /// All-O tags for sentences of the given lengths.
    fn all_o(lengths: &[usize]) -> TagResponse {
        TagResponse::Tags(lengths.iter().map(|&n| vec![BioTag::O; n]).collect())
    }

    /// Queue one request per entry of `requests`, close the queue, and
    /// run the batcher over it at `max_batch`; returns the tagger's
    /// recorded calls and each request's response.
    fn run_closed(requests: &[&[usize]], max_batch: usize) -> (Vec<usize>, Vec<TagResponse>) {
        let tagger = RecordingTagger::default();
        let queue = BoundedQueue::new(requests.len());
        let slots: Vec<Arc<ResponseSlot>> = requests
            .iter()
            .map(|lengths| {
                let (r, slot) = request(lengths, Duration::from_secs(5));
                queue.try_push(r).unwrap();
                slot
            })
            .collect();
        queue.close();
        let cfg = ServeConfig { max_batch, ..ServeConfig::default() };
        run_batcher(&queue, &tagger, &cfg); // returns because closed
        let d = Deadline::new(Duration::from_secs(1));
        (tagger.calls(), slots.iter().map(|slot| slot.wait(&d)).collect())
    }

    #[test]
    fn flush_splits_the_batch_back_per_request() {
        let tagger = RecordingTagger::default();
        let (r1, s1) = request(&[2], Duration::from_secs(5));
        let (r2, s2) = request(&[1], Duration::from_secs(5));
        flush(&tagger, vec![r1, r2]);
        let d = Deadline::new(Duration::from_secs(1));
        assert_eq!(s1.wait(&d), all_o(&[2]));
        assert_eq!(s2.wait(&d), all_o(&[1]));
        assert_eq!(tagger.calls(), vec![2]);
    }

    #[test]
    fn expired_requests_are_answered_not_tagged() {
        let tagger = RecordingTagger::default();
        let (r1, s1) = request(&[1], Duration::ZERO);
        let (r2, s2) = request(&[1], Duration::from_secs(5));
        flush(&tagger, vec![r1, r2]);
        let d = Deadline::new(Duration::from_secs(1));
        assert_eq!(s1.wait(&d), TagResponse::Expired);
        assert_eq!(s2.wait(&d), all_o(&[1]));
        // only the live request's sentence was tagged
        assert_eq!(tagger.calls(), vec![1]);
    }

    #[test]
    fn a_failed_batch_is_re_tagged_per_request() {
        let tagger = RecordingTagger::default();
        let (r1, s1) = request(&[2], Duration::from_secs(5));
        let (r2, s2) = request(&[1, 0], Duration::from_secs(5));
        let (r3, s3) = request(&[3], Duration::from_secs(5));
        flush(&tagger, vec![r1, r2, r3]);
        let d = Deadline::new(Duration::from_secs(1));
        assert_eq!(s1.wait(&d), all_o(&[2]));
        // the error indexes the offender's own request
        assert_eq!(s2.wait(&d), TagResponse::Error(TagError::EmptySentence { index: 1 }));
        assert_eq!(s3.wait(&d), all_o(&[3]));
        assert_eq!(tagger.calls(), vec![4, 1, 2, 1]);
    }

    #[test]
    fn slot_wait_expires_without_a_delivery() {
        let slot = ResponseSlot::new();
        let d = Deadline::new(Duration::from_millis(10));
        assert_eq!(slot.wait(&d), TagResponse::Expired);
        // a late fill after expiry is dropped, not re-delivered
        slot.fill(TagResponse::Tags(vec![]));
        let d2 = Deadline::new(Duration::from_millis(5));
        assert_eq!(slot.wait(&d2), TagResponse::Tags(vec![]));
    }

    #[test]
    fn slot_first_write_wins() {
        let slot = ResponseSlot::new();
        slot.fill(TagResponse::Expired);
        slot.fill(TagResponse::Tags(vec![]));
        let d = Deadline::new(Duration::from_secs(1));
        assert_eq!(slot.wait(&d), TagResponse::Expired);
    }

    #[test]
    fn batcher_drains_then_exits_on_close() {
        let (calls, responses) = run_closed(&[&[1]], ServeConfig::default().max_batch);
        assert_eq!(calls, vec![1]);
        assert_eq!(responses, vec![all_o(&[1])]);
    }

    #[test]
    fn requests_already_queued_are_tagged_in_one_call() {
        let (calls, responses) = run_closed(&[&[1], &[2], &[1, 3]], 64);
        assert_eq!(calls, vec![4]);
        assert_eq!(responses, vec![all_o(&[1]), all_o(&[2]), all_o(&[1, 3])]);
    }

    #[test]
    fn max_batch_caps_each_flush() {
        let (calls, responses) = run_closed(&[&[1], &[1], &[1]], 2);
        assert_eq!(calls, vec![2, 1]);
        assert_eq!(responses, vec![all_o(&[1]); 3]);
    }

    #[test]
    fn the_request_that_crosses_max_batch_joins_the_flush() {
        let (calls, responses) = run_closed(&[&[1], &[1, 1, 1], &[1]], 2);
        assert_eq!(calls, vec![4, 1]);
        assert_eq!(responses, vec![all_o(&[1]), all_o(&[1, 1, 1]), all_o(&[1])]);
    }
}
