//! In-crate property tests over middleware invariants: seeded loops over
//! [`SimRng`], so they run wherever the unit tests do.

use crate::{AccountManager, ObservationRecord, PrivacyPolicy, Role};
use mps_simcore::check::{any_u64, check, text};
use mps_types::{
    Activity, AppId, AppVersion, DeviceModel, GeoPoint, LocationFix, LocationProvider, Observation,
    SensingMode, SimDuration, SimTime, SoundLevel,
};
use std::collections::BTreeSet;

/// A stored document reads back as the observation it was written from,
/// with its ids pseudonymised and its arrival time set, before and after
/// a trip through JSON text.
#[test]
fn stored_documents_read_back_as_their_observation() {
    check(|r| {
        let policy = PrivacyPolicy::new(any_u64(r));
        let captured_at = SimTime::from_millis(any_u64(r) as i64 >> 20);
        let arrived_at = captured_at + SimDuration::from_millis(r.index(1 << 40) as i64);
        let mut builder = Observation::builder()
            .device(any_u64(r).into())
            .user(any_u64(r).into())
            .model(*r.pick(&DeviceModel::ALL))
            .captured_at(captured_at)
            .spl(SoundLevel::new(r.uniform_in(20.0, 120.0)))
            .activity(*r.pick(&Activity::ALL))
            .mode(*r.pick(&SensingMode::ALL))
            .app_version(*r.pick(&AppVersion::ALL));
        if r.chance(0.5) {
            builder = builder.location(LocationFix::new(
                GeoPoint::new(r.uniform_in(-90.0, 90.0), r.uniform_in(-180.0, 180.0)),
                r.uniform_in(1.0, 5_000.0),
                *r.pick(&LocationProvider::ALL),
            ));
        }
        let obs = builder.build();
        let doc = ObservationRecord::to_document(&obs, arrived_at, &policy, None);
        let expected = Observation {
            device: policy.pseudonymize(obs.device.raw()).raw().into(),
            user: policy.pseudonymize(obs.user.raw()).raw().into(),
            arrived_at: Some(arrived_at),
            ..obs
        };
        assert_eq!(
            ObservationRecord::from_document(&doc),
            Some(expected.clone())
        );
        let text: serde_json::Value = serde_json::from_str(&doc.to_string()).unwrap();
        assert_eq!(ObservationRecord::from_document(&text), Some(expected));
    });
}

#[test]
fn pseudonyms_are_injective_on_samples() {
    check(|r| {
        let key = any_u64(r);
        let count = 2 + r.index(38);
        let mut ids = BTreeSet::new();
        while ids.len() < count {
            ids.insert(any_u64(r));
        }
        let policy = PrivacyPolicy::new(key);
        let pseudonyms: BTreeSet<u64> = ids
            .iter()
            .map(|id| policy.pseudonymize(*id).raw())
            .collect();
        assert_eq!(pseudonyms.len(), ids.len(), "collision under key {key}");
    });
}

#[test]
fn pseudonyms_depend_on_key() {
    check(|r| {
        let (id, k1, k2) = (any_u64(r), any_u64(r), any_u64(r));
        if k1 == k2 {
            return;
        }
        let a = PrivacyPolicy::new(k1).pseudonymize(id);
        let b = PrivacyPolicy::new(k2).pseudonymize(id);
        // Not a strict guarantee for every pair, but collisions are
        // 2^-64; treat one as a failure worth investigating.
        assert_ne!(a, b);
    });
}

#[test]
fn redaction_removes_exactly_the_private_paths() {
    check(|r| {
        let keep = text(r, b"abcdefghijklm", 1, 6);
        let private = text(r, b"nopqrstuvwxyz", 1, 6);
        let policy = PrivacyPolicy::default().with_private_path(private.clone());
        let mut doc = serde_json::json!({
            keep.clone(): 1,
            private.clone(): 2,
        });
        policy.redact(&mut doc);
        assert!(doc.get(&keep).is_some());
        assert!(doc.get(&private).is_none());
    });
}

#[test]
fn tokens_are_unique_across_users() {
    check(|r| {
        let n = 1 + r.index(39) as u64;
        let m = AccountManager::new();
        let app = AppId::soundcity();
        m.register_app(&app);
        let mut tokens = BTreeSet::new();
        for user in 0..n {
            let t = m
                .register_user(&app, user.into(), Role::Contributor)
                .unwrap();
            assert!(tokens.insert(t.as_str().to_owned()), "duplicate token");
        }
        assert_eq!(m.user_count(&app), n as usize);
    });
}

#[test]
fn authentication_partitions_tokens() {
    check(|r| {
        let n = 1 + r.index(19) as u64;
        let revoke_mask = any_u64(r) as u32;
        let m = AccountManager::new();
        let app = AppId::soundcity();
        m.register_app(&app);
        let tokens: Vec<_> = (0..n)
            .map(|u| m.register_user(&app, u.into(), Role::Contributor).unwrap())
            .collect();
        for (i, t) in tokens.iter().enumerate() {
            if revoke_mask & (1 << (i % 32)) != 0 {
                m.revoke(t).unwrap();
            }
        }
        for (i, t) in tokens.iter().enumerate() {
            let revoked = revoke_mask & (1 << (i % 32)) != 0;
            assert_eq!(m.authenticate(t).is_err(), revoked);
        }
    });
}
