//! Aggregate simulation statistics.

use std::collections::BTreeMap;

/// Counters accumulated over a simulation run.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Data packets handed to the first port (including retransmissions).
    pub data_sent: u64,
    /// Packets dropped at full ports.
    pub drops: u64,
    /// Drops per port index (diagnosing where incast bites). A `BTreeMap`
    /// so iteration order is the port order — stats dumps and golden tests
    /// must not depend on hasher state.
    pub drops_per_port: BTreeMap<usize, u64>,
    /// RTO events across all flows.
    pub timeouts: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_iterate_in_port_order() {
        let mut s = Stats::default();
        for port in [9, 2, 5, 1] {
            s.drops_per_port.insert(port, port as u64);
        }
        let ports: Vec<usize> = s.drops_per_port.keys().copied().collect();
        assert_eq!(ports, vec![1, 2, 5, 9]);
    }
}
