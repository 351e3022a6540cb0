//! Host-time sources behind a trait, so traces stay deterministic in tests.
//!
//! Simulated time always comes from the caller (the deterministic
//! [`desim::SimTime`] clock). *Host* time — how long the real machine spent
//! inside a span — is read through [`HostClock`], which has three
//! implementations:
//!
//! * [`NullClock`] (the default everywhere determinism matters): every
//!   reading is `0`, so recorded traces compare bit-equal across runs.
//! * [`ManualClock`]: advances by a fixed step per reading; tests use it to
//!   exercise the host-interval plumbing without real time.
//! * [`MonotonicClock`]: nanoseconds since construction from
//!   [`std::time::Instant`]; benches install it to see real durations.

/// A monotonic nanosecond counter. `&mut self` so implementations may keep
/// state (e.g. [`ManualClock`]) without interior mutability.
pub trait HostClock: Send {
    /// Current reading in nanoseconds. Must be monotonic non-decreasing.
    fn now_ns(&mut self) -> u64;
}

/// Always reads `0`. The deterministic default: with it installed a
/// [`crate::Trace`] records no host-dependent bits at all.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NullClock;

impl HostClock for NullClock {
    fn now_ns(&mut self) -> u64 {
        0
    }
}

/// Advances by a fixed `step` on every reading — deterministic but
/// non-trivial, for testing host-interval arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct ManualClock {
    now: u64,
    step: u64,
}

impl ManualClock {
    /// Starts at `0`, advancing by `step` nanoseconds per reading.
    pub fn with_step(step: u64) -> Self {
        ManualClock { now: 0, step }
    }
}

impl HostClock for ManualClock {
    fn now_ns(&mut self) -> u64 {
        let t = self.now;
        self.now += self.step;
        t
    }
}

/// Real host time: nanoseconds elapsed since the clock was created.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MonotonicClock {
    origin: std::time::Instant,
}

impl MonotonicClock {
    /// Starts counting now.
    pub(crate) fn new() -> Self {
        MonotonicClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl HostClock for MonotonicClock {
    fn now_ns(&mut self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_clock_reads_zero() {
        let mut c = NullClock;
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    fn manual_clock_steps() {
        let mut c = ManualClock::with_step(7);
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 7);
        assert_eq!(c.now_ns(), 14);
    }

    #[test]
    fn monotonic_clock_is_non_decreasing() {
        let mut c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
