//! Env-filtered progress logging.
//!
//! The level is read once from `GRAPHNER_LOG`:
//!
//! | value | effect |
//! |---|---|
//! | `off` / `0` / `none` | no log output at all |
//! | `summary` (default, also any unknown value) | per-stage summaries |
//! | `debug` / `trace` | per-iteration detail on top of summaries |
//!
//! All output goes to **stderr**, so stdout (bench tables, piped
//! output) is identical whatever the level. Use through the macros:
//!
//! ```
//! graphner_obs::obs_summary!("propagation: {} iterations", 3);
//! graphner_obs::obs_debug!("iter {:3}: residual {:.3e}", 1, 0.5);
//! ```
//!
//! The macros skip formatting entirely when filtered out, so logging
//! in hot loops costs one atomic load at `off`/`summary`.

use std::sync::atomic::{AtomicU8, Ordering};

/// Log verbosity, ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// No output.
    Off = 0,
    /// Stage-level summaries.
    Summary = 1,
    /// Per-iteration detail.
    Debug = 2,
}

/// Cached level; `u8::MAX` means "not read from the env yet".
static LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);

fn parse(value: &str) -> Level {
    match value.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "none" => Level::Off,
        "debug" | "trace" | "2" => Level::Debug,
        _ => Level::Summary,
    }
}

/// The active level (reads `GRAPHNER_LOG` on first call).
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Summary,
        2 => Level::Debug,
        _ => {
            let level = std::env::var("GRAPHNER_LOG").map(|v| parse(&v)).unwrap_or(Level::Summary);
            LEVEL.store(level as u8, Ordering::Relaxed);
            level
        }
    }
}

/// Override the level programmatically (tools and tests).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Is `at` visible under the active level?
pub fn enabled(at: Level) -> bool {
    at <= level() && at != Level::Off
}

/// Write one log line to stderr. Callers go through the macros, which
/// check [`enabled`] first.
#[expect(
    clippy::print_stderr,
    reason = "the logger is the workspace's one stderr writer; every other crate logs through its macros"
)]
pub fn emit(args: std::fmt::Arguments<'_>) {
    eprintln!("{args}");
}

/// Log at [`Level::Summary`].
#[macro_export]
macro_rules! obs_summary {
    ($($arg:tt)*) => {
        if $crate::logger::enabled($crate::logger::Level::Summary) {
            $crate::logger::emit(format_args!($($arg)*));
        }
    };
}

/// Log at [`Level::Debug`].
#[macro_export]
macro_rules! obs_debug {
    ($($arg:tt)*) => {
        if $crate::logger::enabled($crate::logger::Level::Debug) {
            $crate::logger::emit(format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_maps_all_documented_values() {
        assert_eq!(parse("off"), Level::Off);
        assert_eq!(parse("0"), Level::Off);
        assert_eq!(parse("NONE"), Level::Off);
        assert_eq!(parse("summary"), Level::Summary);
        assert_eq!(parse("anything-else"), Level::Summary);
        assert_eq!(parse("debug"), Level::Debug);
        assert_eq!(parse("Trace"), Level::Debug);
    }

    #[test]
    fn enabled_respects_ordering_and_off() {
        set_level(Level::Off);
        assert!(!enabled(Level::Summary));
        assert!(!enabled(Level::Debug));
        set_level(Level::Summary);
        assert!(enabled(Level::Summary));
        assert!(!enabled(Level::Debug));
        set_level(Level::Debug);
        assert!(enabled(Level::Summary));
        assert!(enabled(Level::Debug));
        // leave a deterministic state for other tests in this process
        set_level(Level::Off);
    }
}
