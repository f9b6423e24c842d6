//! Bounded structured event journal.
//!
//! One ring of timestamped [`RuntimeEvent`]s unifies the runtime's
//! failure, recovery, reshard, and pause records behind a single
//! type — the transport layers emit here instead of growing bespoke
//! per-run vectors, and the old result fields (`DistributedRun::
//! failures`, `DistributedRun::events`, …) are materialized as views
//! over the journal.
//!
//! Sequence numbers and timestamps are assigned under the same lock
//! that appends to the ring, so the journal's physical order, its
//! `seq` order, and its `at_us` order all agree — a property the
//! causal-order test below locks under concurrent emitters. The ring
//! is bounded: when full the *oldest* event is evicted and counted in
//! [`EventJournal::dropped`], so a pathological failure storm can
//! never balloon a run's memory while the newest evidence (the part
//! you debug from) is always retained.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Default journal capacity; plenty for any real window (a full chaos
/// differential emits a few dozen events) while bounding a storm.
pub const JOURNAL_CAP: usize = 1024;

/// What happened, in the runtime's unified taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A worker domain (shard or session) was declared failed —
    /// detection record, emitted when the verdict lands.
    Failure {
        /// Shard index (distributed/reshard runs) or session index
        /// (multi-session runs).
        domain: usize,
        /// Sub-window boundary the domain had last completed.
        boundary: u64,
        /// True when the verdict was a stall (two silent heartbeat
        /// intervals), false for a hard failure (dead socket).
        stall: bool,
        /// Microseconds from last contact to the failure verdict.
        detect_us: u64,
    },
    /// A recovery attempt for a failed domain finished — terminal
    /// record carrying the full repair cost breakdown. Maps 1:1 onto
    /// the legacy `FailureEvent` view.
    Recovery {
        /// Shard or session index, as in [`EventKind::Failure`].
        domain: usize,
        /// Sub-window boundary restored from.
        boundary: u64,
        /// True when the originating verdict was a stall.
        stall: bool,
        /// Restart attempts consumed (including this one).
        restarts: u32,
        /// Microseconds from last contact to the failure verdict.
        detect_us: u64,
        /// Microseconds spent respawning + handshaking + restoring.
        restore_us: u64,
        /// Microseconds spent replaying the in-flight ring.
        replay_us: u64,
        /// Frames replayed from the bounded ring.
        replayed_frames: usize,
        /// False when the policy budget was exhausted and the run
        /// aborted instead of recovering.
        recovered: bool,
    },
    /// A live reshard (shard split or merge) was applied mid-window.
    Reshard {
        /// Sub-window boundary the swap executed at.
        boundary: u64,
        /// Routing epoch after the swap.
        epoch: u64,
        /// True for a split, false for a merge.
        split: bool,
        /// Slot acted on (split target, or left slot of a merge).
        slot: usize,
        /// Split pivot value (0 for merges).
        pivot: u64,
        /// Frames exchanged to execute the swap.
        swap_frames: usize,
        /// Checkpoint bytes moved during the swap.
        checkpoint_bytes: usize,
    },
    /// Ingest was paused (barrier) while a swap or repair ran.
    Pause {
        /// Sub-window boundary the pause happened at.
        boundary: u64,
        /// Microseconds ingest was held.
        pause_us: u64,
        /// Sub-windows affected by the hold.
        paused_subwindows: usize,
    },
}

/// One journal entry: a sequence number and monotonic timestamp
/// (microseconds on the [`crate::now_us`] clock) around an
/// [`EventKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeEvent {
    /// Journal-assigned sequence number; dense per journal, assigned
    /// in emission order.
    pub seq: u64,
    /// Emission time in microseconds on the shared monotonic clock.
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<RuntimeEvent>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded, thread-safe journal of [`RuntimeEvent`]s.
#[derive(Debug)]
pub struct EventJournal {
    ring: Mutex<Ring>,
    cap: usize,
}

impl Default for EventJournal {
    fn default() -> Self {
        Self::new()
    }
}

impl EventJournal {
    /// A journal with the default capacity ([`JOURNAL_CAP`]).
    pub fn new() -> Self {
        Self::with_capacity(JOURNAL_CAP)
    }

    /// A journal bounded to `cap` events (≥ 1).
    pub fn with_capacity(cap: usize) -> Self {
        EventJournal {
            ring: Mutex::new(Ring::default()),
            cap: cap.max(1),
        }
    }

    /// Record an event now; returns its sequence number. Timestamp and
    /// sequence are assigned under the ring lock, so seq order, time
    /// order, and ring order always agree. If the ring is full the
    /// oldest event is evicted (see [`EventJournal::dropped`]).
    pub fn emit(&self, kind: EventKind) -> u64 {
        let mut ring = self.ring.lock().expect("event journal poisoned");
        let seq = ring.next_seq;
        ring.next_seq += 1;
        let at_us = crate::now_us();
        if ring.events.len() == self.cap {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(RuntimeEvent { seq, at_us, kind });
        seq
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<RuntimeEvent> {
        let ring = self.ring.lock().expect("event journal poisoned");
        ring.events.iter().cloned().collect()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("event journal poisoned").dropped
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.ring
            .lock()
            .expect("event journal poisoned")
            .events
            .len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn pause(boundary: u64) -> EventKind {
        EventKind::Pause {
            boundary,
            pause_us: 0,
            paused_subwindows: 0,
        }
    }

    #[test]
    fn emits_in_order_with_dense_seqs() {
        let j = EventJournal::new();
        for b in 0..5 {
            j.emit(pause(b));
        }
        let events = j.events();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert!(matches!(e.kind, EventKind::Pause { boundary, .. } if boundary == i as u64));
        }
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn bounded_ring_evicts_oldest_and_counts_drops() {
        let j = EventJournal::with_capacity(4);
        for b in 0..10 {
            j.emit(pause(b));
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 6);
        let seqs: Vec<u64> = j.events().iter().map(|e| e.seq).collect();
        // Newest evidence retained: the last four emissions.
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    /// The satellite contract: under concurrent emitters, journal
    /// order == seq order == timestamp order (one clock, one lock).
    #[test]
    fn journal_order_matches_causal_order_under_concurrent_emitters() {
        let per_thread = 200usize;
        let threads = 4usize;
        let j = Arc::new(EventJournal::with_capacity(threads * per_thread * 2));
        thread::scope(|scope| {
            for t in 0..threads {
                let j = Arc::clone(&j);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        // Each thread observes its own emissions get
                        // strictly increasing seqs (causal order per
                        // emitter is preserved globally).
                        let a = j.emit(pause(t as u64));
                        let b = j.emit(pause(i as u64));
                        assert!(b > a);
                    }
                });
            }
        });
        let events = j.events();
        assert_eq!(events.len(), threads * per_thread * 2);
        for pair in events.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1, "seq order broken");
            assert!(pair[1].at_us >= pair[0].at_us, "timestamp order broken");
        }
        assert_eq!(events[0].seq, 0);
    }
}
