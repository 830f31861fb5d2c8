//! In-crate property tests over middleware invariants: seeded loops over
//! [`SimRng`], so they run wherever the unit tests do.

use crate::{AccountManager, PrivacyPolicy, Role};
use mps_simcore::check::{any_u64, check, text};
use mps_types::AppId;
use std::collections::BTreeSet;

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
