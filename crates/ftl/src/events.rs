//! FDP event log.
//!
//! FDP devices report placement-related happenings through a host-readable
//! event log (paper §3.3). The paper uses the *Media Relocated* event to
//! count garbage-collection operations for its operational-energy analysis
//! (Figure 10b). We model the log as a bounded ring buffer with an
//! overflow counter, like real log pages that can drop events when the
//! host reads too slowly.

use std::collections::VecDeque;

use crate::RuhId;

/// An FDP event as logged by the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdpEvent {
    /// Garbage collection relocated data out of a reclaim unit.
    MediaRelocated {
        /// The victim reclaim unit.
        ru: u32,
        /// The RUH that owned the victim (`None` for GC-intermixed RUs
        /// under initially isolated handles).
        owner: Option<RuhId>,
        /// Valid pages relocated out of the victim.
        relocated_pages: u64,
    },
    /// A write filled the RU referenced by a RUH and the device moved the
    /// handle to a fresh RU ("If a write operation overfills an RU ... the
    /// device chooses a new RU and updates the mapping", §3.2.2).
    RuSwitched {
        /// The handle whose RU changed.
        ruh: RuhId,
        /// Previous RU (`None` on first use).
        old_ru: Option<u32>,
        /// Newly referenced RU.
        new_ru: u32,
    },
    /// A reclaim unit was erased and returned to the free pool.
    RuErased {
        /// The erased reclaim unit.
        ru: u32,
    },
    /// A reclaim unit was permanently retired: one of its erase blocks
    /// exceeded its rated P/E cycles. Usable capacity shrank by one RU.
    RuRetired {
        /// The retired reclaim unit.
        ru: u32,
        /// P/E cycles the RU's most-worn block had consumed.
        pe_cycles: u32,
    },
}

/// Bounded ring buffer of [`FdpEvent`]s with drop accounting.
#[derive(Debug)]
pub struct EventLog {
    events: VecDeque<FdpEvent>,
    capacity: usize,
    dropped: u64,
}

impl EventLog {
    /// Creates a log holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if full.
    pub fn push(&mut self, event: FdpEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Drains all buffered events (the host "reading the log page").
    pub fn drain(&mut self) -> Vec<FdpEvent> {
        self.events.drain(..).collect()
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events lost to ring-buffer overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates over buffered events oldest-first without draining.
    pub fn iter(&self) -> impl Iterator<Item = &FdpEvent> {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain() {
        let mut log = EventLog::new(8);
        log.push(FdpEvent::RuErased { ru: 1 });
        log.push(FdpEvent::RuErased { ru: 2 });
        assert_eq!(log.len(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert!(log.is_empty());
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut log = EventLog::new(2);
        log.push(FdpEvent::RuErased { ru: 1 });
        log.push(FdpEvent::RuErased { ru: 2 });
        log.push(FdpEvent::RuErased { ru: 3 });
        assert_eq!(log.dropped(), 1);
        let events = log.drain();
        assert_eq!(events, vec![FdpEvent::RuErased { ru: 2 }, FdpEvent::RuErased { ru: 3 }]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut log = EventLog::new(0);
        log.push(FdpEvent::RuErased { ru: 1 });
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn iter_does_not_drain() {
        let mut log = EventLog::new(4);
        log.push(FdpEvent::RuSwitched { ruh: 0, old_ru: None, new_ru: 5 });
        assert_eq!(log.iter().count(), 1);
        assert_eq!(log.len(), 1);
    }
}
