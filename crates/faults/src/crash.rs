//! The crash-kill fault: a seeded process death at a WAL boundary.
//!
//! The other faults in this crate corrupt the *network*; this one kills
//! the *process* — the middleware host dying mid-batch, the failure the
//! paper's server-side restarts produced. A [`CrashSpec`] is drawn into
//! a deterministic [`CrashPlan`] (same seed → same kill, independent of
//! unrelated randomness, like [`crate::FaultPlan`]), and
//! [`CrashPlan::arm`] cocks an [`mps_wal::KillSwitch`] so the victim's
//! log dies exactly at the chosen [`mps_wal::KillPoint`]:
//! a half-written batch, a durable-but-unacknowledged batch, an
//! orphaned snapshot temp file, or a half-finished compaction.
//!
//! The CI recovery matrix drives every write-path kill point
//! ([`mps_wal::KillPoint::ALL`], the points a plan draws from) through
//! both durable stores and asserts recovery-on-reopen loses nothing it
//! should not.

use mps_simcore::SimRng;
use mps_wal::{KillPoint, KillSwitch};

/// Which durable component the crash targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTarget {
    /// The document store's log.
    Docstore,
    /// The broker's log.
    Broker,
}

impl CrashTarget {
    /// Stable label, used for RNG splitting and reporting.
    pub fn as_str(self) -> &'static str {
        match self {
            CrashTarget::Docstore => "docstore",
            CrashTarget::Broker => "broker",
        }
    }
}

/// The declarative crash fault: kill `target` at one of the WAL's kill
/// points, after a seeded number of safe passes through that point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Which component dies.
    pub target: CrashTarget,
    /// Inclusive lower bound on the safe passes before the kill fires.
    pub min_skip: u64,
    /// Inclusive upper bound on the safe passes before the kill fires.
    pub max_skip: u64,
}

impl CrashSpec {
    /// A crash landing somewhere in the first `within` passes.
    pub fn within(target: CrashTarget, within: u64) -> Self {
        Self {
            target,
            min_skip: 0,
            max_skip: within.saturating_sub(1),
        }
    }
}

/// A seeded, reproducible crash decision: the kill point and how many
/// operations survive before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    spec: CrashSpec,
    point: KillPoint,
    skip: u64,
}

impl CrashPlan {
    /// Draws the kill point and skip count from `seed`. The stream is
    /// split per target, so a docstore crash and a broker crash under
    /// the same seed are independent decisions.
    pub fn new(seed: u64, spec: CrashSpec) -> Self {
        let mut rng = SimRng::new(seed).split("faults.crash", spec.target as u64);
        let point = KillPoint::ALL[rng.index(KillPoint::ALL.len())];
        let span = spec.max_skip.saturating_sub(spec.min_skip) as usize + 1;
        let skip = spec.min_skip + rng.index(span) as u64;
        Self { spec, point, skip }
    }

    /// A plan that fires a *specific* kill point after `skip` safe
    /// passes — the recovery matrix enumerates all four this way.
    pub fn at(target: CrashTarget, point: KillPoint, skip: u64) -> Self {
        Self {
            spec: CrashSpec {
                target,
                min_skip: skip,
                max_skip: skip,
            },
            point,
            skip,
        }
    }

    /// The component this plan kills.
    pub fn target(&self) -> CrashTarget {
        self.spec.target
    }

    /// The chosen kill point.
    pub fn point(&self) -> KillPoint {
        self.point
    }

    /// Safe passes through the kill point before it fires.
    pub fn skip(&self) -> u64 {
        self.skip
    }

    /// Arms `kill` with this plan's decision. The switch can be handed
    /// to the victim's `WalConfig` before or after arming.
    pub fn arm(&self, kill: &KillSwitch) {
        kill.arm(self.point, self.skip);
    }

    /// Creates and arms a fresh switch in one step.
    pub fn armed_switch(&self) -> KillSwitch {
        let kill = KillSwitch::new();
        self.arm(&kill);
        kill
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let spec = CrashSpec::within(CrashTarget::Docstore, 16);
        let a = CrashPlan::new(7, spec);
        let b = CrashPlan::new(7, spec);
        assert_eq!(a, b);
        assert!(a.skip() < 16);
    }

    #[test]
    fn targets_draw_independent_streams() {
        let doc = CrashPlan::new(7, CrashSpec::within(CrashTarget::Docstore, 1_000));
        let broker = CrashPlan::new(7, CrashSpec::within(CrashTarget::Broker, 1_000));
        assert!(doc.skip() != broker.skip() || doc.point() != broker.point());
    }

    #[test]
    fn explicit_plan_kills_a_wal_at_the_requested_point() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mps-faults-crash-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let plan = CrashPlan::at(CrashTarget::Broker, KillPoint::MidAppend, 1);
        let kill = plan.armed_switch();
        let config = mps_wal::WalConfig::default()
            .telemetry(false)
            .kill(kill.clone());
        let (mut wal, _) = mps_wal::Wal::open(&dir, config).unwrap();
        // One safe pass, then the kill fires and the instance is dead.
        wal.append(b"survives").unwrap();
        assert!(matches!(
            wal.append(b"torn").unwrap_err(),
            mps_wal::WalError::Killed(KillPoint::MidAppend)
        ));
        assert_eq!(kill.dead(), Some(KillPoint::MidAppend));
        assert!(wal.append(b"after").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
