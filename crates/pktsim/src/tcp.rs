//! TCP Reno sender/receiver state machines.
//!
//! The model is deliberately classical: slow start doubling, AIMD
//! congestion avoidance, triple-duplicate-ACK fast retransmit, and
//! timeout recovery with exponential backoff. Sequence numbers count
//! whole MSS-sized packets; the receiver acks cumulatively.

/// Per-flow TCP sender + receiver state.
#[derive(Clone, Debug)]
pub struct TcpState {
    /// Total data packets this flow must deliver.
    pub(crate) total_pkts: u64,
    /// Next never-sent sequence number.
    pub(crate) next_seq: u64,
    /// Lowest unacknowledged sequence number (sender view).
    pub(crate) snd_una: u64,
    /// Congestion window, in packets (fractional growth in CA).
    pub(crate) cwnd: f64,
    /// Slow-start threshold, packets.
    pub(crate) ssthresh: f64,
    /// Consecutive duplicate ACK counter.
    pub(crate) dup_acks: u32,
    /// Receiver: out-of-order packets buffered beyond `rcv_next`.
    pub(crate) rcv_ooo: std::collections::BTreeSet<u64>,
    /// Receiver: next in-order sequence expected (cumulative ack value).
    pub(crate) rcv_next: u64,
    /// Current RTO backoff multiplier (1, 2, 4, …).
    pub rto_backoff: u32,
    /// Stats: retransmitted packets.
    pub retransmits: u64,
    /// Stats: RTO events.
    pub timeouts: u64,
    /// Whether fast recovery is in progress.
    pub(crate) in_recovery: bool,
    /// Recovery ends when `snd_una` passes this point.
    pub(crate) recovery_point: u64,
}

impl TcpState {
    /// Creates a flow that must move `bytes` in `mss`-byte packets.
    pub fn new(bytes: u64, mss: u32, init_cwnd: f64, init_ssthresh: f64) -> Self {
        let total_pkts = bytes.div_ceil(mss as u64).max(1);
        TcpState {
            total_pkts,
            next_seq: 0,
            snd_una: 0,
            cwnd: init_cwnd,
            ssthresh: init_ssthresh,
            dup_acks: 0,
            rcv_ooo: std::collections::BTreeSet::new(),
            rcv_next: 0,
            rto_backoff: 1,
            retransmits: 0,
            timeouts: 0,
            in_recovery: false,
            recovery_point: 0,
        }
    }

    /// Whether all data is delivered and acknowledged.
    pub(crate) fn complete(&self) -> bool {
        self.snd_una >= self.total_pkts
    }

    /// Sequence numbers the sender may transmit now (new data only);
    /// empty when the window is shut.
    ///
    /// Window: `snd_una + cwnd` bounds the highest in-flight sequence.
    pub fn sendable(&self) -> std::ops::Range<u64> {
        let wnd = self.cwnd.floor().max(1.0) as u64;
        let window_end = (self.snd_una + wnd).min(self.total_pkts);
        self.next_seq..window_end.max(self.next_seq)
    }

    /// Receiver side: a data packet arrived; returns the cumulative ACK to
    /// send back.
    pub fn on_data(&mut self, seq: u64) -> u64 {
        if seq == self.rcv_next {
            self.rcv_next += 1;
            while self.rcv_ooo.remove(&self.rcv_next) {
                self.rcv_next += 1;
            }
        } else if seq > self.rcv_next {
            self.rcv_ooo.insert(seq);
        }
        self.rcv_next
    }

    /// Sender side: a cumulative ACK arrived. Returns what to do next.
    pub fn on_ack(&mut self, ack: u64) -> AckAction {
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            self.dup_acks = 0;
            self.rto_backoff = 1;
            if self.in_recovery && ack >= self.recovery_point {
                self.in_recovery = false;
                self.cwnd = self.ssthresh;
            } else if self.in_recovery {
                // NewReno partial ACK: another hole in the same loss window;
                // retransmit it immediately instead of waiting for the RTO.
                if self.next_seq < ack {
                    self.next_seq = ack;
                }
                self.retransmits += 1;
                return if self.complete() {
                    AckAction::Complete
                } else {
                    AckAction::FastRetransmit(self.snd_una)
                };
            }
            if !self.in_recovery {
                if self.cwnd < self.ssthresh {
                    // Slow start: +1 per newly acked packet.
                    self.cwnd += newly as f64;
                } else {
                    // Congestion avoidance: +1/cwnd per acked packet.
                    self.cwnd += newly as f64 / self.cwnd;
                }
            }
            if self.next_seq < ack {
                self.next_seq = ack;
            }
            if self.complete() {
                AckAction::Complete
            } else {
                AckAction::SendNew
            }
        } else {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery {
                self.in_recovery = true;
                self.recovery_point = self.next_seq;
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                self.retransmits += 1;
                AckAction::FastRetransmit(self.snd_una)
            } else {
                AckAction::None
            }
        }
    }

    /// Sender side: the retransmission timer fired.
    ///
    /// Returns the sequence to retransmit.
    pub fn on_timeout(&mut self) -> u64 {
        self.timeouts += 1;
        self.retransmits += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dup_acks = 0;
        self.in_recovery = false;
        self.rto_backoff = (self.rto_backoff * 2).min(64);
        // Go-back-N: everything past snd_una is presumed lost.
        self.next_seq = self.snd_una;
        self.snd_una
    }

    /// Records that new data up to (exclusive) `highest_plus_one` was sent.
    pub fn note_sent(&mut self, highest_plus_one: u64) {
        if highest_plus_one > self.next_seq {
            self.next_seq = highest_plus_one;
        }
    }
}

/// What the sender should do after processing an ACK.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AckAction {
    /// Nothing special.
    None,
    /// Window opened: try to send new data.
    SendNew,
    /// Retransmit this sequence immediately (fast retransmit).
    FastRetransmit(u64),
    /// All data acknowledged; the flow is done.
    Complete,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(pkts: u64) -> TcpState {
        TcpState::new(pkts * 1500, 1500, 2.0, 64.0)
    }

    #[test]
    fn byte_to_packet_rounding() {
        assert_eq!(TcpState::new(1, 1500, 2.0, 64.0).total_pkts, 1);
        assert_eq!(TcpState::new(1500, 1500, 2.0, 64.0).total_pkts, 1);
        assert_eq!(TcpState::new(1501, 1500, 2.0, 64.0).total_pkts, 2);
        assert_eq!(TcpState::new(0, 1500, 2.0, 64.0).total_pkts, 1);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut f = flow(1000);
        assert_eq!(f.cwnd, 2.0);
        // Ack 2 packets -> cwnd 4; ack 4 -> cwnd 8.
        f.note_sent(2);
        f.on_ack(2);
        assert_eq!(f.cwnd, 4.0);
        f.note_sent(6);
        f.on_ack(6);
        assert_eq!(f.cwnd, 8.0);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut f = flow(10_000);
        f.cwnd = 64.0;
        f.ssthresh = 10.0; // already past ssthresh
        f.note_sent(64);
        f.on_ack(64);
        assert!((f.cwnd - 65.0).abs() < 1e-9);
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut f = flow(100);
        f.note_sent(10);
        f.on_ack(5); // advance
        assert_eq!(f.on_ack(5), AckAction::None);
        assert_eq!(f.on_ack(5), AckAction::None);
        let action = f.on_ack(5);
        assert_eq!(action, AckAction::FastRetransmit(5));
        assert!(f.in_recovery);
        assert_eq!(f.retransmits, 1);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut f = flow(100);
        f.cwnd = 32.0;
        f.note_sent(32);
        let seq = f.on_timeout();
        assert_eq!(seq, 0);
        assert_eq!(f.cwnd, 1.0);
        assert_eq!(f.ssthresh, 16.0);
        assert_eq!(f.rto_backoff, 2);
        // Backoff doubles again.
        f.on_timeout();
        assert_eq!(f.rto_backoff, 4);
    }

    #[test]
    fn ack_resets_backoff() {
        let mut f = flow(100);
        f.note_sent(2);
        f.on_timeout();
        f.note_sent(1);
        f.on_ack(1);
        assert_eq!(f.rto_backoff, 1);
    }

    #[test]
    fn receiver_acks_cumulative_with_reordering() {
        let mut f = flow(10);
        assert_eq!(f.on_data(0), 1);
        assert_eq!(f.on_data(2), 1, "hole at 1");
        assert_eq!(f.on_data(3), 1);
        assert_eq!(f.on_data(1), 4, "hole filled, jump ahead");
        // Duplicate data does not regress.
        assert_eq!(f.on_data(2), 4);
    }

    #[test]
    fn completion_detected() {
        let mut f = flow(3);
        f.note_sent(3);
        assert_eq!(f.on_ack(3), AckAction::Complete);
        assert!(f.complete());
    }

    #[test]
    fn sendable_respects_window() {
        let f = flow(100);
        assert_eq!(f.sendable().collect::<Vec<_>>(), vec![0, 1]); // init cwnd 2
        let mut f2 = flow(1);
        f2.cwnd = 10.0;
        assert_eq!(f2.sendable().collect::<Vec<_>>(), vec![0], "never beyond total");
        // A shut window is an empty range, not a backwards one.
        let mut f3 = flow(100);
        f3.note_sent(5);
        assert_eq!(f3.sendable(), 5..5);
    }
}
