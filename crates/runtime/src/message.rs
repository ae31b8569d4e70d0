//! Protocol message accounting.

use serde::{Deserialize, Serialize};

/// Message/transmission accounting for one protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MessageStats {
    /// Total point-to-point messages (or physical transmissions, depending
    /// on the configured [`MessageCounting`](crate::MessageCounting)).
    pub total: u64,
    /// Messages in a single iteration round (constant per scheme).
    pub per_round: u64,
    /// Rounds executed.
    pub rounds: u64,
}

impl MessageStats {
    /// Accumulates one round of `per_round` messages.
    pub fn record_round(&mut self, per_round: u64) {
        self.per_round = per_round;
        self.rounds += 1;
        self.total += per_round;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate() {
        let mut s = MessageStats::default();
        s.record_round(6);
        s.record_round(6);
        assert_eq!(s.total, 12);
        assert_eq!(s.rounds, 2);
        assert_eq!(s.per_round, 6);
    }
}
