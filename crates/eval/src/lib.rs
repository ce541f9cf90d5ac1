//! Evaluation substrate reproducing the paper's measurement tooling.
//!
//! * [`bc2`] — the BioCreative II gene-mention scorer: exact span match
//!   against primary mentions and their alternatives, with
//!   `FN = primary − TP` and `FP = detections − TP`;
//! * [`sigf`](mod@sigf) — Padó's approximate-randomization significance test
//!   (Yeh 2000), used for every null hypothesis in Table V;
//! * [`stats`] — chi-square two-sample proportion tests with continuity
//!   correction, used in the §III-E qualitative analysis;
//! * [`upset`](mod@upset) — exclusive set-intersection regions (the UpSet plots of
//!   Figures 4 and 5);
//! * [`errors`] — false-positive extraction and gene-related/spurious
//!   categorization against a generator oracle.

#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        reason = "tests pin deterministic float outputs exactly; the lint guards library code"
    )
)]

pub mod bc2;
pub mod errors;
pub mod sigf;
pub mod stats;
pub mod upset;

pub use bc2::{evaluate, evaluate_tagger, Counts, Evaluation};
pub use errors::{false_positives, Category, CategoryCounts, ErrorCall};
pub use sigf::{sigf, Metric, SigfResult};
pub use stats::{chi2_sf_1df, erfc, prop_test, ProportionTest};
pub use upset::{render as render_upset, upset, Region};
