//! Leveled diagnostic logging (`JUGGLER_LOG=warn|info|debug`).
//!
//! The workspace's human-facing *results* go to stdout and are often
//! golden-tested byte-for-byte; progress and diagnostic chatter must
//! never mix into them. The [`log_warn!`](crate::log_warn!),
//! [`log_info!`](crate::log_info!) and [`log_debug!`](crate::log_debug!)
//! macros write to **stderr**, and only when `JUGGLER_LOG`
//! enables their level — off by default, so stdout *and* stderr are
//! byte-stable unless a human opts in. Disabled calls cost one relaxed
//! atomic load; format arguments are not evaluated.
//!
//! Levels nest: `warn` < `info` < `debug`, each enabling everything
//! before it. Unknown values of `JUGGLER_LOG` mean "off", matching how
//! `JUGGLER_THREADS` treats garbage as its default.

use std::sync::atomic::{AtomicU8, Ordering};

/// Diagnostic severity, ordered from quietest to chattiest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is emitted (the default).
    Off = 0,
    /// Unexpected-but-handled conditions (retries, clamped parameters).
    Warn = 1,
    /// Coarse progress (a pipeline stage finished).
    Info = 2,
    /// Fine-grained detail (per-fit, per-run).
    Debug = 3,
}

/// Cached level; `u8::MAX` marks "not parsed yet".
static LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);

fn parse_env() -> Level {
    match std::env::var("JUGGLER_LOG").as_deref() {
        Ok("warn") => Level::Warn,
        Ok("info") => Level::Info,
        Ok("debug") => Level::Debug,
        _ => Level::Off,
    }
}

/// The active log level: `JUGGLER_LOG` parsed once, or whatever
/// [`set_level`] installed.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Warn,
        2 => Level::Info,
        3 => Level::Debug,
        _ => {
            let l = parse_env();
            LEVEL.store(l as u8, Ordering::Relaxed);
            l
        }
    }
}

/// Overrides the level programmatically (tests, embedding tools). Wins
/// over `JUGGLER_LOG` from then on.
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// Whether messages at `l` are currently emitted.
#[must_use]
pub fn enabled(l: Level) -> bool {
    l != Level::Off && level() >= l
}

/// Emits a `warn`-level diagnostic to stderr when `JUGGLER_LOG` is
/// `warn`, `info`, or `debug`. Arguments follow [`std::format!`].
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            eprintln!("[warn] {}", format_args!($($arg)*));
        }
    };
}

/// Emits an `info`-level diagnostic to stderr when `JUGGLER_LOG` is
/// `info` or `debug`. Arguments follow [`std::format!`].
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            eprintln!("[info] {}", format_args!($($arg)*));
        }
    };
}

/// Emits a `debug`-level diagnostic to stderr when `JUGGLER_LOG` is
/// `debug`. Arguments follow [`std::format!`].
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            eprintln!("[debug] {}", format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_nest_and_off_silences_everything() {
        set_level(Level::Off);
        assert!(!enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        assert!(!enabled(Level::Off), "Off is never 'emitted'");

        set_level(Level::Warn);
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));

        set_level(Level::Debug);
        assert!(enabled(Level::Warn));
        assert!(enabled(Level::Info));
        assert!(enabled(Level::Debug));

        set_level(Level::Off);
    }

    #[test]
    fn macros_skip_argument_evaluation_when_off() {
        set_level(Level::Off);
        let evaluated = std::cell::Cell::new(false);
        let probe = || {
            evaluated.set(true);
            "x"
        };
        log_debug!("{}", probe());
        assert!(!evaluated.get(), "disabled log must not evaluate arguments");
    }
}
