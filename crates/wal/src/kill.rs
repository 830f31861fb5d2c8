//! Crash-kill fault injection: die exactly where a process crash would.
//!
//! A [`KillSwitch`] is shared between the test harness and a [`Wal`]
//! instance. Armed with a [`KillPoint`] and a countdown, it fires once
//! at the matching site; from then on the WAL instance is **dead** —
//! every operation returns [`WalError::Killed`] — mimicking a process
//! that never came back. Recovery is exercised by reopening the
//! directory with a fresh instance.
//!
//! [`Wal`]: crate::Wal
//! [`WalError::Killed`]: crate::WalError::Killed

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Where a crash-kill fault fires inside the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KillPoint {
    /// Mid-way through writing a batch: the tail record is torn and
    /// must be truncated on recovery.
    MidAppend,
    /// After the batch is written *and* fsynced, but before the caller
    /// observes success: the data is durable, the acknowledgement is
    /// lost (the at-least-once window).
    PostAppendPreAck,
    /// Mid-way through writing a snapshot: an orphan `.tmp` file is
    /// left behind; the committed snapshot (if any) is untouched.
    MidSnapshot,
    /// Mid-way through compaction: only some covered segments were
    /// deleted. Recovery must tolerate the survivors.
    MidCompaction,
    /// Mid-way through a replay of the recovered tail: the client has
    /// applied some records and dies before the rest. Replay only reads,
    /// so the directory stays as the open left it, and the next open
    /// replays everything.
    MidReplay,
}

impl KillPoint {
    /// Every kill point of the write path, in pipeline order — the CI
    /// crash-kill matrix iterates this. [`KillPoint::MidReplay`] fires
    /// while a log is opened, not while it is written, and has a cell
    /// of its own.
    pub const ALL: [KillPoint; 4] = [
        KillPoint::MidAppend,
        KillPoint::PostAppendPreAck,
        KillPoint::MidSnapshot,
        KillPoint::MidCompaction,
    ];

    /// The snake_case name used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            KillPoint::MidAppend => "mid_append",
            KillPoint::PostAppendPreAck => "post_append_pre_ack",
            KillPoint::MidSnapshot => "mid_snapshot",
            KillPoint::MidCompaction => "mid_compaction",
            KillPoint::MidReplay => "mid_replay",
        }
    }
}

impl fmt::Display for KillPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[derive(Debug, Default)]
struct SwitchState {
    /// The armed kill point and how many matching sites to let pass
    /// before firing.
    armed: Option<(KillPoint, u64)>,
    /// Set once a kill fired; the instance never recovers.
    dead: Option<KillPoint>,
}

/// A shared crash trigger, cheaply clonable; see the module docs.
///
/// The default switch is unarmed and never fires.
#[derive(Debug, Clone, Default)]
pub struct KillSwitch {
    state: Arc<Mutex<SwitchState>>,
}

impl KillSwitch {
    /// A fresh, unarmed switch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the switch: the kill fires at the `(skip + 1)`-th time the
    /// WAL reaches `point`.
    pub fn arm(&self, point: KillPoint, skip: u64) {
        self.lock().armed = Some((point, skip));
    }

    /// Disarms the switch without clearing an already-fired kill.
    pub fn disarm(&self) {
        self.lock().armed = None;
    }

    /// The kill point that fired, if the instance is dead.
    pub fn dead(&self) -> Option<KillPoint> {
        self.lock().dead
    }

    /// Checks whether `point` fires now (and decrements the countdown).
    /// Firing marks the switch dead.
    pub(crate) fn should_fire(&self, point: KillPoint) -> bool {
        let mut state = self.lock();
        match state.armed {
            Some((armed, 0)) if armed == point => {
                state.armed = None;
                state.dead = Some(point);
                true
            }
            Some((armed, ref mut skip)) if armed == point => {
                *skip -= 1;
                false
            }
            _ => false,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SwitchState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_never_fires() {
        let switch = KillSwitch::new();
        for point in KillPoint::ALL {
            assert!(!switch.should_fire(point));
        }
        assert_eq!(switch.dead(), None);
    }

    #[test]
    fn fires_once_after_skip_then_stays_dead() {
        let switch = KillSwitch::new();
        switch.arm(KillPoint::MidAppend, 2);
        assert!(!switch.should_fire(KillPoint::MidAppend));
        assert!(!switch.should_fire(KillPoint::MidSnapshot));
        assert!(!switch.should_fire(KillPoint::MidAppend));
        assert!(switch.should_fire(KillPoint::MidAppend));
        assert_eq!(switch.dead(), Some(KillPoint::MidAppend));
        // Disarmed after firing: no double kill.
        assert!(!switch.should_fire(KillPoint::MidAppend));
    }

    #[test]
    fn clones_share_state() {
        let switch = KillSwitch::new();
        let clone = switch.clone();
        switch.arm(KillPoint::MidSnapshot, 0);
        assert!(clone.should_fire(KillPoint::MidSnapshot));
        assert_eq!(switch.dead(), Some(KillPoint::MidSnapshot));
    }
}
