//! Channel occupancy scheduling.
//!
//! Memory devices service one request per channel at a time. Instead of
//! ticking queues, [`ChannelScheduler`] assigns each submitted request a
//! start time on the least-loaded channel and returns its completion cycle,
//! which is exact for FCFS service.
//!
//! The channels are identical, so only the multiset of their free cycles
//! matters; it is kept in a min-heap and a request costs O(log channels).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use bbb_sim::Cycle;

/// Assigns requests to the earliest-available of `n` identical channels.
///
/// # Examples
///
/// ```
/// use bbb_mem::ChannelScheduler;
/// let mut s = ChannelScheduler::new(2);
/// assert_eq!(s.schedule(0, 100), (0, 100));   // channel 0
/// assert_eq!(s.schedule(0, 100), (0, 100));   // channel 1
/// assert_eq!(s.schedule(0, 100), (100, 200)); // queues behind channel 0
/// ```
#[derive(Debug, Clone)]
pub struct ChannelScheduler {
    free_at: BinaryHeap<Reverse<Cycle>>,
}

impl ChannelScheduler {
    /// Creates a scheduler over `channels` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    #[must_use]
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "need at least one channel");
        Self {
            free_at: BinaryHeap::from(vec![Reverse(0); channels]),
        }
    }

    /// Schedules a request arriving at `now` that occupies a channel for
    /// `latency` cycles. Returns `(start, completion)`.
    pub fn schedule(&mut self, now: Cycle, latency: Cycle) -> (Cycle, Cycle) {
        let mut earliest = self.free_at.peek_mut().expect("at least one channel");
        let start = now.max(earliest.0);
        let completion = start + latency;
        *earliest = Reverse(completion);
        (start, completion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_channels_overlap() {
        let mut s = ChannelScheduler::new(4);
        for _ in 0..4 {
            assert_eq!(s.schedule(10, 50), (10, 60));
        }
        // Fifth request waits for a free channel.
        assert_eq!(s.schedule(10, 50), (60, 110));
    }

    #[test]
    fn idle_channel_starts_immediately() {
        let mut s = ChannelScheduler::new(1);
        s.schedule(0, 100);
        // After the channel frees, a later request starts at arrival.
        assert_eq!(s.schedule(500, 10), (500, 510));
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        let _ = ChannelScheduler::new(0);
    }
}
