//! `graphner-serve`: the online face of GraphNER — a zero-dependency
//! HTTP tagging service over any [`graphner_text::Tagger`].
//!
//! The paper's pipeline is transductive batch inference; this crate is
//! the inductive serving story on top of the frozen
//! [`graphner_core::GraphTagger`]: novel sentences get the
//! graph-interpolated belief wherever their 3-grams appeared in
//! `D_l ∪ D_u` and fall back to the base CRF posterior elsewhere (the
//! fallback rate is exported at `/metrics`).
//!
//! Architecture, front to back:
//!
//! * [`http`] — a minimal HTTP/1.1 codec over `std::net`.
//! * [`queue`] — a bounded MPSC queue: `try_push` rejects when full
//!   (429 + `Retry-After`) instead of buffering unboundedly.
//! * [`batcher`] — one thread coalescing concurrent requests into
//!   single `try_tag_batch` calls: each flush takes every request
//!   already queued, up to the max batch size, without waiting for
//!   more, and expired requests are answered with 503. Batching is
//!   *provably invisible*: responses are byte-identical to unbatched
//!   tagging at any batch size or thread count (see the module docs
//!   for the ordering argument, and the determinism suite for the
//!   end-to-end proof).
//! * [`server`] — the accept loop, the endpoints, and the serve
//!   metrics (`serve.*` counters, latency quantiles, queue depth).
//!
//! The binaries: `graphner-serve` trains/loads a model and serves it;
//! `loadgen` replays seeded synthetic traffic open-loop at a target
//! RPS and writes a `BENCH_serve.json` latency trajectory.

pub mod batcher;
pub mod http;
pub mod queue;
pub mod server;

pub use batcher::{run_batcher, Deadline, ResponseSlot, TagRequest, TagResponse};
pub use http::{read_request, write_response, HttpError, Request, MAX_BODY_BYTES};
pub use queue::{BoundedQueue, PopResult, PushError};
pub use server::{parse_tag_body, render_tags, start, ServeMetrics, ServerHandle};
