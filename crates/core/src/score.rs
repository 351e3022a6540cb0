//! Endpoint fitness scoring (paper §4.2, Listing 1 bottom half).
//!
//! "In its simplest form, the result of `evalRx` is the difference between
//! maximum capacity and usage. However, there is also the selectable
//! weight `W` (implicitly 2), which can be used to change the relative
//! importance of maximum resource capacity versus contention."

use estimator::HostState;

/// Score returned when a resource dimension is irrelevant to the variable
/// or the single-local-endpoint condition holds.
pub const MAX_SCORE: f64 = f64::INFINITY;

/// The selectable capacity-vs-contention weight (paper default: 2).
pub(crate) const DEFAULT_WEIGHT: f64 = 2.0;

/// Generic fitness: `W·capacity − usage`. Larger is better; `W > 1`
/// prefers big pipes even when moderately used, `W = 1` is pure residual
/// capacity.
pub(crate) fn eval(capacity: f64, usage: f64, w: f64) -> f64 {
    w * capacity - usage
}

/// Network receive fitness of a host.
pub fn eval_rx(state: &HostState, w: f64) -> f64 {
    eval(state.nic_down_capacity, state.nic_down_used, w)
}

/// Network transmit fitness of a host.
pub fn eval_tx(state: &HostState, w: f64) -> f64 {
    eval(state.nic_up_capacity, state.nic_up_used, w)
}

/// Disk read fitness of a host.
pub fn eval_disk_read(state: &HostState, w: f64) -> f64 {
    eval(state.disk_read_capacity, state.disk_read_used, w)
}

/// Disk write fitness of a host.
pub fn eval_disk_write(state: &HostState, w: f64) -> f64 {
    eval(state.disk_write_capacity, state.disk_write_used, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_beats_busy_at_equal_capacity() {
        let idle = HostState::gbps_idle();
        let busy = HostState::gbps_idle().with_up_load(0.8).with_down_load(0.8);
        assert!(eval_tx(&idle, DEFAULT_WEIGHT) > eval_tx(&busy, DEFAULT_WEIGHT));
        assert!(eval_rx(&idle, DEFAULT_WEIGHT) > eval_rx(&busy, DEFAULT_WEIGHT));
    }

    #[test]
    fn weight_trades_capacity_for_contention() {
        // Big-but-half-used pipe vs small-but-idle pipe.
        let big_busy = HostState::idle(10.0, 1.0).with_up_load(0.5); // cap 10, used 5
        let small_idle = HostState::idle(3.0, 1.0); // cap 3, used 0
        // W = 2: 2·10−5 = 15 > 2·3−0 = 6 → big pipe wins.
        assert!(eval_tx(&big_busy, 2.0) > eval_tx(&small_idle, 2.0));
        // W = 0.6: 0.6·10−5 = 1 < 0.6·3 = 1.8 → idle pipe wins.
        assert!(eval_tx(&big_busy, 0.6) < eval_tx(&small_idle, 0.6));
    }

    #[test]
    fn disk_dimensions_are_independent() {
        let mut s = HostState::gbps_idle();
        s.disk_read_used = s.disk_read_capacity;
        assert!(eval_disk_read(&s, 2.0) < eval_disk_write(&s, 2.0));
    }
}
