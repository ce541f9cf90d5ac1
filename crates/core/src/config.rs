//! GraphNER hyper-parameters (Table IV of the paper).

use graphner_graph::{PropagationParams, ShardSize, SweepSchedule};

/// Vertex-representation choice for graph construction (Table III).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphFeatureSet {
    /// All features extracted by the base tagger at the centre token.
    All,
    /// Only lemmas of the words in a window of length 5.
    Lexical,
    /// Features whose mutual information with the tag assigned by the
    /// base CRF exceeds the threshold.
    MiThreshold(f64),
}

impl GraphFeatureSet {
    /// Display name matching Table III.
    pub fn name(&self) -> String {
        match self {
            GraphFeatureSet::All => "All-features".to_string(),
            GraphFeatureSet::Lexical => "Lexical-features".to_string(),
            GraphFeatureSet::MiThreshold(t) => format!("MI > {t}"),
        }
    }

    /// Hashable identity of the variant, used to key per-feature-set
    /// caches (`f64` is not `Hash`; the threshold is folded in as bits).
    pub fn cache_key(&self) -> (u8, u64) {
        match self {
            GraphFeatureSet::All => (0, 0),
            GraphFeatureSet::Lexical => (1, 0),
            GraphFeatureSet::MiThreshold(t) => (2, t.to_bits()),
        }
    }
}

/// Upper bound on [`ServeConfig::queue_capacity`] and
/// [`ServeConfig::max_batch`]: beyond a million queued requests or
/// sentences per flush the knob is a typo, not a tuning choice.
pub const MAX_SERVE_QUEUE: u64 = 1 << 20;
/// Upper bound on [`ServeConfig::linger_us`] — one minute. A batcher
/// that lingers longer than any sane deadline is misconfigured.
pub const MAX_LINGER_US: u64 = 60_000_000;
/// Upper bound on [`ServeConfig::deadline_ms`] — one hour.
pub const MAX_DEADLINE_MS: u64 = 3_600_000;

/// Serving knobs for `graphner-serve`: how deep the request queue runs
/// before backpressure, how the batcher coalesces, and when a request
/// expires. Like [`SweepSchedule`] this is a pure execution section —
/// it describes how the server runs, not what the model learned, so it
/// is deliberately *not* persisted with a trained model.
///
/// Checked by [`GraphNerConfig::validate`]: every knob must be
/// non-zero ([`ConfigError::ZeroServeKnob`]) and within its cap
/// ([`ConfigError::ServeKnobOverflow`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Bounded request-queue depth; a full queue answers 429 with
    /// `Retry-After` instead of buffering without limit.
    pub queue_capacity: usize,
    /// Maximum sentences the batcher coalesces into one `try_tag_batch`
    /// call before flushing.
    pub max_batch: usize,
    /// Maximum microseconds the batcher lingers waiting for more
    /// requests after the first one arrives; flushing on whichever of
    /// linger/`max_batch` trips first bounds the latency cost of
    /// coalescing.
    pub linger_us: u64,
    /// Per-request deadline in milliseconds; a request that cannot be
    /// answered in time gets 503 rather than occupying the queue
    /// forever.
    pub deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        // Tuned for the smoke-scale model: a 256-deep queue absorbs
        // bursts at 500+ RPS, 64-sentence flushes keep the worker pool
        // busy without head-of-line blocking, 500 µs linger adds well
        // under the 2 s deadline.
        ServeConfig { queue_capacity: 256, max_batch: 64, linger_us: 500, deadline_ms: 2_000 }
    }
}

/// Full GraphNER configuration: the interpolation weight α, the
/// propagation hyper-parameters (μ, ν, #iterations), the graph degree
/// K, and the vertex representation.
///
/// Start from [`GraphNerConfig::default`] / [`GraphNerConfig::table_iv`]
/// (the paper's settings), override fields with struct-update syntax
/// (`GraphNerConfig { k: 5, ..GraphNerConfig::default() }`), and call
/// [`GraphNerConfig::validate`] on anything that came from outside the
/// program. It returns a typed [`ConfigError`] on nonsense (K = 0, a
/// non-simplex α, zero propagation iterations, …) at the API boundary
/// instead of a guard panic deep inside the pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphNerConfig {
    /// Interpolation weight on the CRF posterior in
    /// `α·P_s(S,i) + (1−α)·X(w₋₁,w,w₊₁)`. "Smaller α values were
    /// consistently preferred in our cross validations."
    pub alpha: f64,
    /// Graph-propagation parameters (μ, ν, #iterations).
    pub propagation: PropagationParams,
    /// Graph out-degree K (nearest neighbours kept per vertex).
    pub k: usize,
    /// Vertex representation for graph construction.
    pub feature_set: GraphFeatureSet,
    /// Tempering exponent on the decode's transition factors
    /// `(P(y'|y)/P(y'))^τ`. The node beliefs entering the final Viterbi
    /// are posterior-like but carry floors from the propagation's
    /// uniform term, so the full sequence prior (τ = 1) over-amplifies
    /// rare-tag continuations (`B → I`); τ = 0.5 keeps the structural
    /// constraints (`O → I` stays impossible) while damping the
    /// amplification — mirroring the mild behaviour of the unnormalized
    /// MALLET transition potentials the original implementation
    /// extracts.
    pub trans_power: f64,
    /// Add-k smoothing constant on the gold tag-bigram counts behind
    /// the decode's transition factors.
    pub trans_add_k: f64,
    /// Upper bound on each transition factor `(P(y'|y)/P(y'))^τ`. On
    /// corpora where a tag is almost absent the raw ratio grows
    /// unboundedly; the cap plays the role L2 regularization plays for
    /// a trained CRF's transition potentials.
    pub trans_ratio_cap: f64,
    /// How the sharded propagation engine schedules its sweeps: the
    /// shard size and whether converged shards may be skipped
    /// (active-set). A pure execution knob — the default (auto-sized
    /// shards, no skipping) is byte-identical to the unsharded update,
    /// and the schedule is deliberately *not* persisted with a trained
    /// model: it describes how to run, not what was learned.
    pub schedule: SweepSchedule,
    /// Serving knobs (queue depth, batching, deadlines) for
    /// `graphner-serve`. Another pure execution section: not persisted,
    /// never affects what the model predicts — only how fast and under
    /// what backpressure policy.
    pub serve: ServeConfig,
}

impl Default for GraphNerConfig {
    fn default() -> GraphNerConfig {
        // Table IV: (α, μ, ν, #iterations) = (0.02, 1e-6, 1e-6, 2–3),
        // K = 10, All-features.
        GraphNerConfig {
            alpha: 0.02,
            propagation: PropagationParams { mu: 1e-6, nu: 1e-6, iterations: 3, self_anchor: 0.5 },
            k: 10,
            feature_set: GraphFeatureSet::All,
            trans_power: 0.5,
            trans_add_k: 0.1,
            trans_ratio_cap: 3.0,
            schedule: SweepSchedule::default(),
            serve: ServeConfig::default(),
        }
    }
}

/// A rejected [`GraphNerConfig::validate`]: which knob was invalid
/// and why. Every variant is a configuration that *parses* but cannot
/// mean anything — `validate` refuses it up front rather than letting
/// it surface as a guard panic or a silently degenerate result.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `k = 0`: a graph with no neighbours has no edges to propagate
    /// over.
    ZeroK,
    /// α outside `[0, 1]`: the interpolation
    /// `α·P_s + (1−α)·X` is a convex combination, so its weights
    /// `(α, 1−α)` must lie on the simplex.
    AlphaNotSimplex(f64),
    /// Zero propagation iterations: the graph would never be consulted.
    ZeroIterations,
    /// μ or ν is negative, NaN or infinite.
    BadPropagationWeight {
        /// `"mu"` or `"nu"`.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `self_anchor` outside `[0, 1]` (it weights a convex combination
    /// of a vertex's own belief and its neighbourhood).
    SelfAnchorNotSimplex(f64),
    /// A decode-transition constant (`trans_power`, `trans_add_k`,
    /// `trans_ratio_cap`) is negative, NaN or infinite — or the cap is
    /// zero, which would erase every transition factor.
    BadTransitionConstant {
        /// Which constant.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `shard_size = Fixed(0)`: a zero-vertex shard cannot tile the
    /// vertex range.
    ZeroShardSize,
    /// A [`ServeConfig`] knob is zero: a zero-capacity queue rejects
    /// everything, a zero-sentence batch never flushes, a zero linger
    /// degenerates, and a zero deadline expires every request on
    /// arrival.
    ZeroServeKnob {
        /// Which serving knob.
        name: &'static str,
    },
    /// A [`ServeConfig`] knob exceeds its sanity cap.
    ServeKnobOverflow {
        /// Which serving knob.
        name: &'static str,
        /// The rejected value.
        value: u64,
        /// The cap it exceeded.
        max: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroK => write!(f, "k must be >= 1 (a 0-NN graph has no edges)"),
            ConfigError::AlphaNotSimplex(a) => {
                write!(f, "alpha must lie in [0, 1] for a convex interpolation, got {a}")
            }
            ConfigError::ZeroIterations => {
                write!(f, "propagation must run at least one iteration")
            }
            ConfigError::BadPropagationWeight { name, value } => {
                write!(f, "{name} must be finite and non-negative, got {value}")
            }
            ConfigError::SelfAnchorNotSimplex(v) => {
                write!(f, "self_anchor must lie in [0, 1], got {v}")
            }
            ConfigError::BadTransitionConstant { name, value } => {
                write!(f, "{name} must be finite, non-negative and usable, got {value}")
            }
            ConfigError::ZeroShardSize => {
                write!(f, "shard_size must be >= 1 vertex (or ShardSize::Auto)")
            }
            ConfigError::ZeroServeKnob { name } => {
                write!(f, "serve.{name} must be >= 1")
            }
            ConfigError::ServeKnobOverflow { name, value, max } => {
                write!(f, "serve.{name} = {value} exceeds the sanity cap {max}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl GraphNerConfig {
    /// Check every knob and return a typed [`ConfigError`] for the
    /// first nonsensical one, instead of letting an invalid
    /// configuration flow into the pipeline.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let cfg = self;
        if cfg.k == 0 {
            return Err(ConfigError::ZeroK);
        }
        if !cfg.alpha.is_finite() || !(0.0..=1.0).contains(&cfg.alpha) {
            return Err(ConfigError::AlphaNotSimplex(cfg.alpha));
        }
        if cfg.propagation.iterations == 0 {
            return Err(ConfigError::ZeroIterations);
        }
        for (name, value) in [("mu", cfg.propagation.mu), ("nu", cfg.propagation.nu)] {
            if !value.is_finite() || value < 0.0 {
                return Err(ConfigError::BadPropagationWeight { name, value });
            }
        }
        let anchor = cfg.propagation.self_anchor;
        if !anchor.is_finite() || !(0.0..=1.0).contains(&anchor) {
            return Err(ConfigError::SelfAnchorNotSimplex(anchor));
        }
        for (name, value) in [("trans_power", cfg.trans_power), ("trans_add_k", cfg.trans_add_k)] {
            if !value.is_finite() || value < 0.0 {
                return Err(ConfigError::BadTransitionConstant { name, value });
            }
        }
        if !cfg.trans_ratio_cap.is_finite() || cfg.trans_ratio_cap <= 0.0 {
            return Err(ConfigError::BadTransitionConstant {
                name: "trans_ratio_cap",
                value: cfg.trans_ratio_cap,
            });
        }
        if cfg.schedule.shard_size == ShardSize::Fixed(0) {
            return Err(ConfigError::ZeroShardSize);
        }
        let serve = &cfg.serve;
        for (name, value, max) in [
            ("queue_capacity", serve.queue_capacity as u64, MAX_SERVE_QUEUE),
            ("max_batch", serve.max_batch as u64, MAX_SERVE_QUEUE),
            ("linger_us", serve.linger_us, MAX_LINGER_US),
            ("deadline_ms", serve.deadline_ms, MAX_DEADLINE_MS),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroServeKnob { name });
            }
            if value > max {
                return Err(ConfigError::ServeKnobOverflow { name, value, max });
            }
        }
        Ok(())
    }

    /// The cross-validated configuration the paper reports for a given
    /// corpus/base-model pair (Table IV).
    pub fn table_iv(corpus: &str, chemdner: bool) -> GraphNerConfig {
        let iterations = match (corpus, chemdner) {
            ("BC2GM", true) => 3,
            _ => 2,
        };
        GraphNerConfig {
            alpha: 0.02,
            propagation: PropagationParams { mu: 1e-6, nu: 1e-6, iterations, self_anchor: 0.5 },
            k: 10,
            feature_set: GraphFeatureSet::All,
            trans_power: 0.5,
            ..GraphNerConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iv() {
        let c = GraphNerConfig::default();
        assert_eq!(c.alpha, 0.02);
        assert_eq!(c.propagation.mu, 1e-6);
        assert_eq!(c.propagation.nu, 1e-6);
        assert_eq!(c.k, 10);
        // decode transition constants (previously hardcoded)
        assert_eq!(c.trans_add_k, 0.1);
        assert_eq!(c.trans_ratio_cap, 3.0);
    }

    #[test]
    fn cache_keys_distinguish_variants() {
        assert_ne!(GraphFeatureSet::All.cache_key(), GraphFeatureSet::Lexical.cache_key());
        assert_ne!(
            GraphFeatureSet::MiThreshold(0.005).cache_key(),
            GraphFeatureSet::MiThreshold(0.01).cache_key()
        );
        assert_eq!(
            GraphFeatureSet::MiThreshold(0.01).cache_key(),
            GraphFeatureSet::MiThreshold(0.01).cache_key()
        );
    }

    #[test]
    fn table_iv_lookup() {
        assert_eq!(GraphNerConfig::table_iv("BC2GM", true).propagation.iterations, 3);
        assert_eq!(GraphNerConfig::table_iv("BC2GM", false).propagation.iterations, 2);
        assert_eq!(GraphNerConfig::table_iv("AML", true).propagation.iterations, 2);
    }

    /// Validate the Table IV defaults with one knob overridden.
    fn validate_with(set: impl FnOnce(&mut GraphNerConfig)) -> Result<(), ConfigError> {
        let mut cfg = GraphNerConfig::default();
        set(&mut cfg);
        cfg.validate()
    }

    #[test]
    fn validate_accepts_defaults_and_valid_overrides() {
        assert_eq!(GraphNerConfig::default().validate(), Ok(()));
        assert_eq!(GraphNerConfig::table_iv("BC2GM", true).validate(), Ok(()));
        let cfg = GraphNerConfig {
            alpha: 0.1,
            k: 5,
            propagation: PropagationParams {
                iterations: 4,
                ..GraphNerConfig::default().propagation
            },
            feature_set: GraphFeatureSet::Lexical,
            ..GraphNerConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_invalid_configs() {
        assert_eq!(validate_with(|c| c.k = 0), Err(ConfigError::ZeroK));
        assert_eq!(validate_with(|c| c.alpha = 1.5), Err(ConfigError::AlphaNotSimplex(1.5)));
        assert_eq!(validate_with(|c| c.alpha = -0.01), Err(ConfigError::AlphaNotSimplex(-0.01)));
        assert_eq!(
            validate_with(|c| c.propagation.iterations = 0),
            Err(ConfigError::ZeroIterations)
        );
        assert_eq!(
            validate_with(|c| c.propagation.mu = -1e-6),
            Err(ConfigError::BadPropagationWeight { name: "mu", value: -1e-6 })
        );
        assert_eq!(
            validate_with(|c| c.propagation.self_anchor = 2.0),
            Err(ConfigError::SelfAnchorNotSimplex(2.0))
        );
        assert_eq!(
            validate_with(|c| c.trans_ratio_cap = 0.0),
            Err(ConfigError::BadTransitionConstant { name: "trans_ratio_cap", value: 0.0 })
        );
        let nan = validate_with(|c| c.propagation.nu = f64::NAN);
        assert!(matches!(nan, Err(ConfigError::BadPropagationWeight { name: "nu", .. })));
        assert_eq!(
            validate_with(|c| c.schedule.shard_size = ShardSize::Fixed(0)),
            Err(ConfigError::ZeroShardSize)
        );
    }

    #[test]
    fn schedule_defaults_to_unsharded_semantics_and_accepts_overrides() {
        let c = GraphNerConfig::default();
        assert_eq!(c.schedule, SweepSchedule::default());
        assert!(!c.schedule.active_set);
        let tuned = GraphNerConfig {
            schedule: SweepSchedule { shard_size: ShardSize::Fixed(4096), active_set: true },
            ..GraphNerConfig::default()
        };
        assert_eq!(tuned.validate(), Ok(()));
    }

    #[test]
    fn serve_section_defaults_and_overrides() {
        let c = GraphNerConfig::default();
        assert_eq!(c.serve, ServeConfig::default());
        assert_eq!(c.serve.queue_capacity, 256);
        assert_eq!(c.serve.max_batch, 64);
        let tuned = GraphNerConfig {
            serve: ServeConfig {
                queue_capacity: 32,
                max_batch: 8,
                linger_us: 250,
                deadline_ms: 500,
            },
            ..GraphNerConfig::default()
        };
        assert_eq!(tuned.validate(), Ok(()));
        let minimal = ServeConfig { queue_capacity: 1, max_batch: 1, linger_us: 1, deadline_ms: 1 };
        assert_eq!(validate_with(|c| c.serve = minimal), Ok(()));
    }

    #[test]
    fn validate_rejects_zero_and_overflowing_serve_knobs() {
        assert_eq!(
            validate_with(|c| c.serve.queue_capacity = 0),
            Err(ConfigError::ZeroServeKnob { name: "queue_capacity" })
        );
        assert_eq!(
            validate_with(|c| c.serve.max_batch = 0),
            Err(ConfigError::ZeroServeKnob { name: "max_batch" })
        );
        assert_eq!(
            validate_with(|c| c.serve.linger_us = 0),
            Err(ConfigError::ZeroServeKnob { name: "linger_us" })
        );
        assert_eq!(
            validate_with(|c| c.serve.deadline_ms = 0),
            Err(ConfigError::ZeroServeKnob { name: "deadline_ms" })
        );
        assert_eq!(
            validate_with(|c| c.serve.linger_us = MAX_LINGER_US + 1),
            Err(ConfigError::ServeKnobOverflow {
                name: "linger_us",
                value: MAX_LINGER_US + 1,
                max: MAX_LINGER_US,
            })
        );
        assert_eq!(
            validate_with(|c| c.serve.deadline_ms = MAX_DEADLINE_MS + 1),
            Err(ConfigError::ServeKnobOverflow {
                name: "deadline_ms",
                value: MAX_DEADLINE_MS + 1,
                max: MAX_DEADLINE_MS,
            })
        );
        assert_eq!(
            validate_with(|c| c.serve.queue_capacity = (MAX_SERVE_QUEUE + 1) as usize),
            Err(ConfigError::ServeKnobOverflow {
                name: "queue_capacity",
                value: MAX_SERVE_QUEUE + 1,
                max: MAX_SERVE_QUEUE,
            })
        );
        // caps themselves are accepted
        assert_eq!(validate_with(|c| c.serve.linger_us = MAX_LINGER_US), Ok(()));
        // error messages name the knob
        let msg = ConfigError::ZeroServeKnob { name: "max_batch" }.to_string();
        assert!(msg.contains("max_batch"));
        let msg =
            ConfigError::ServeKnobOverflow { name: "linger_us", value: 999, max: 10 }.to_string();
        assert!(msg.contains("linger_us") && msg.contains("999"));
    }

    #[test]
    fn config_error_messages_name_the_knob() {
        assert!(ConfigError::ZeroK.to_string().contains('k'));
        assert!(ConfigError::AlphaNotSimplex(2.0).to_string().contains("alpha"));
        assert!(ConfigError::BadTransitionConstant { name: "trans_power", value: -1.0 }
            .to_string()
            .contains("trans_power"));
    }

    #[test]
    fn feature_set_names() {
        assert_eq!(GraphFeatureSet::All.name(), "All-features");
        assert_eq!(GraphFeatureSet::Lexical.name(), "Lexical-features");
        assert_eq!(GraphFeatureSet::MiThreshold(0.01).name(), "MI > 0.01");
    }
}
