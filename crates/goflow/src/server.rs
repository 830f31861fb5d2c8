//! The GoFlow server facade.

use crate::accounts::{AccountManager, Role, Token};
use crate::analytics::UsageAnalytics;
use crate::channels::{gf_dlq, gf_queue, ChannelManager, ClientSession};
use crate::data::{ObservationQuery, Packaging};
use crate::ingest::{DrainPass, IngestOutcome, Ingestor};
use crate::jobs::{JobId, JobRegistry, JobStatus};
use crate::privacy::PrivacyPolicy;
use crate::record::{ObservationRecord, USER};
use crate::telemetry::telemetry;
use crate::GoFlowError;
use mps_broker::{Broker, BrokerTransport};
use mps_docstore::{CollectionHandle, DocstoreTransport, Filter, FindOptions, Store};
use mps_types::{AppId, SimDuration, SimTime, UserId};
use serde_json::Value;
use std::sync::Arc;

/// The GoFlow crowd-sensing server (Figure 2 of the paper): one object
/// wiring accounts, privacy, channel management, ingest, data management,
/// background jobs and usage analytics over a shared broker and store.
///
/// The broker and store are held as [`BrokerTransport`] and
/// [`DocstoreTransport`] objects, so the same server runs over in-process
/// components ([`GoFlowServer::new`]) or over remote ones behind sockets
/// ([`GoFlowServer::over`]) without code changes.
///
/// See the [crate documentation](crate) for an end-to-end example.
pub struct GoFlowServer {
    broker: Arc<dyn BrokerTransport>,
    store: Arc<dyn DocstoreTransport>,
    accounts: AccountManager,
    channels: ChannelManager,
    privacy: PrivacyPolicy,
    jobs: JobRegistry,
    analytics: UsageAnalytics,
    ingestor: Ingestor,
}

impl std::fmt::Debug for GoFlowServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoFlowServer")
            .field("accounts", &self.accounts)
            .field("privacy", &self.privacy)
            .field("jobs", &self.jobs)
            .field("analytics", &self.analytics)
            .finish_non_exhaustive()
    }
}

fn collection_name(app: &AppId) -> String {
    format!("obs-{app}")
}

fn quarantine_name(app: &AppId) -> String {
    format!("quarantine-{app}")
}

impl GoFlowServer {
    /// Creates a server over an in-process broker and store, with the
    /// default privacy policy (pseudonymisation on, no private paths).
    pub fn new(broker: Arc<Broker>, store: Store) -> Self {
        Self::with_policy(broker, store, PrivacyPolicy::default())
    }

    /// Creates a server over an in-process broker and store with an
    /// explicit privacy policy.
    pub fn with_policy(broker: Arc<Broker>, store: Store, policy: PrivacyPolicy) -> Self {
        Self::over_with_policy(broker, Arc::new(store), policy)
    }

    /// Creates a server over *any* transports — e.g. an
    /// `mps_net::RemoteBroker` and `mps_net::RemoteStore` when the broker
    /// and docstore run as separate processes — with the default privacy
    /// policy.
    pub fn over(broker: Arc<dyn BrokerTransport>, store: Arc<dyn DocstoreTransport>) -> Self {
        Self::over_with_policy(broker, store, PrivacyPolicy::default())
    }

    /// Creates a server over any transports with an explicit privacy
    /// policy.
    pub fn over_with_policy(
        broker: Arc<dyn BrokerTransport>,
        store: Arc<dyn DocstoreTransport>,
        policy: PrivacyPolicy,
    ) -> Self {
        Self {
            channels: ChannelManager::new(Arc::clone(&broker)),
            ingestor: Ingestor::new(Arc::clone(&broker), policy.clone()),
            broker,
            store,
            accounts: AccountManager::new(),
            privacy: policy,
            jobs: JobRegistry::new(),
            analytics: UsageAnalytics::new(),
        }
    }

    /// The shared broker transport.
    pub fn broker(&self) -> &Arc<dyn BrokerTransport> {
        &self.broker
    }

    /// The backing store transport.
    pub fn store(&self) -> &Arc<dyn DocstoreTransport> {
        &self.store
    }

    /// The active privacy policy.
    pub fn privacy(&self) -> &PrivacyPolicy {
        &self.privacy
    }

    /// Usage analytics counters.
    pub fn analytics(&self) -> &UsageAnalytics {
        &self.analytics
    }

    // ----- application lifecycle -------------------------------------------

    /// Registers an application: account namespace, messaging topology
    /// (Figure 3) and storage collection with the standard indexes.
    ///
    /// # Errors
    ///
    /// Propagates broker errors from the topology declarations.
    pub fn register_app(&self, app: &AppId) -> Result<(), GoFlowError> {
        self.accounts.register_app(app);
        self.channels.setup_app(app)?;
        let collection = self.store.collection(&collection_name(app));
        for member in ObservationRecord::indexed() {
            collection.create_index(member)?;
        }
        Ok(())
    }

    /// The observation collection of an app.
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::UnknownApp`] for an unregistered app.
    pub fn collection(&self, app: &AppId) -> Result<CollectionHandle, GoFlowError> {
        if !self.accounts.has_app(app) {
            return Err(GoFlowError::UnknownApp(app.to_string()));
        }
        Ok(self.store.collection(&collection_name(app)))
    }

    /// The quarantine collection of an app: malformed payloads and late
    /// observations parked by ingest, each with a `reason` field.
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::UnknownApp`] for an unregistered app.
    pub fn quarantine(&self, app: &AppId) -> Result<CollectionHandle, GoFlowError> {
        if !self.accounts.has_app(app) {
            return Err(GoFlowError::UnknownApp(app.to_string()));
        }
        Ok(self.store.collection(&quarantine_name(app)))
    }

    /// The GF dead-letter queue name of an app (messages whose ingest
    /// kept failing are parked there by the broker).
    pub fn dead_letter_queue(&self, app: &AppId) -> String {
        self.channels.dead_letter_queue(app)
    }

    // ----- accounts ---------------------------------------------------------

    /// Registers a user for an app, returning their authentication token.
    ///
    /// # Errors
    ///
    /// See [`AccountManager::register_user`].
    pub fn register_user(
        &self,
        app: &AppId,
        user: UserId,
        role: Role,
    ) -> Result<Token, GoFlowError> {
        self.accounts.register_user(app, user, role)
    }

    /// Revokes a token.
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::InvalidToken`] for an unknown token.
    pub fn revoke(&self, token: &Token) -> Result<(), GoFlowError> {
        self.accounts.revoke(token)
    }

    /// Number of active accounts for an app.
    pub fn user_count(&self, app: &AppId) -> usize {
        self.accounts.user_count(app)
    }

    /// CNIL right to erasure: revokes the user's credentials and deletes
    /// every observation they contributed to the app, stored or parked in
    /// quarantine as late (located via their stable pseudonym). Returns
    /// how many documents were deleted.
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::UnknownApp`] for an unregistered app.
    pub fn erase_user(&self, app: &AppId, user: UserId) -> Result<usize, GoFlowError> {
        let collection = self.collection(app)?;
        let quarantine = self.quarantine(app)?;
        self.accounts.revoke_user(app, user);
        let pseudonym = self.privacy.pseudonymize(user.raw()).raw();
        let stored = collection.delete_many(&Filter::eq(USER.name, pseudonym))?;
        let parked = format!("observation.{}", USER.name);
        Ok(stored + quarantine.delete_many(&Filter::eq(parked, pseudonym))?)
    }

    // ----- sessions -----------------------------------------------------------

    /// Authenticates a token and opens a client session: the per-client
    /// exchange/queue of Figure 3 are created and returned.
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::InvalidToken`] or broker errors.
    pub fn login(&self, token: &Token) -> Result<ClientSession, GoFlowError> {
        let (app, user, _) = self.accounts.authenticate(token)?;
        self.channels.open_client(&app, user)
    }

    /// Closes a client session, removing its broker endpoints.
    ///
    /// # Errors
    ///
    /// Propagates broker errors.
    pub fn logout(&self, session: &ClientSession) -> Result<(), GoFlowError> {
        self.channels.close_client(session)
    }

    /// Subscribes the session to `datatype` messages at `location`.
    ///
    /// # Errors
    ///
    /// Propagates broker errors.
    pub fn subscribe(
        &self,
        session: &ClientSession,
        datatype: &str,
        location: &str,
    ) -> Result<(), GoFlowError> {
        self.channels.subscribe(session, datatype, location)
    }

    // ----- ingest -------------------------------------------------------------

    /// Drains up to `max_messages` pending messages from the app's GF
    /// queue into storage, stamping `now` as the arrival time. Malformed
    /// payloads and late observations land in the app's
    /// [quarantine](GoFlowServer::quarantine) collection; messages hit by
    /// storage failures are redelivered and eventually dead-lettered.
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::UnknownApp`] for an unregistered app.
    pub fn ingest_pending(
        &self,
        app: &AppId,
        now: SimTime,
        max_messages: usize,
    ) -> Result<IngestOutcome, GoFlowError> {
        telemetry().server_ingest_passes.inc();
        self.drain(app, &gf_queue(app), false, now, max_messages)
    }

    /// Replays up to `max_messages` from the app's GF dead-letter queue
    /// into storage: the same pass as
    /// [`ingest_pending`](GoFlowServer::ingest_pending), except that an
    /// observation whose trace the collection already holds is skipped
    /// and counted in [`IngestOutcome::already_stored`]. That is how the
    /// backlog a crashed store left behind is stored once: the whole
    /// records of its torn last batch survive recovery although ingest
    /// saw the batch fail (`docs/DURABILITY.md`).
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::UnknownApp`] for an unregistered app.
    pub fn replay_dead_letters(
        &self,
        app: &AppId,
        now: SimTime,
        max_messages: usize,
    ) -> Result<IngestOutcome, GoFlowError> {
        self.drain(app, &gf_dlq(app), true, now, max_messages)
    }

    fn drain(
        &self,
        app: &AppId,
        queue: &str,
        replay: bool,
        now: SimTime,
        max_messages: usize,
    ) -> Result<IngestOutcome, GoFlowError> {
        let pass = DrainPass {
            app,
            queue,
            collection: &self.collection(app)?,
            quarantine: &self.quarantine(app)?,
            analytics: &self.analytics,
            now,
            replay,
        };
        Ok(self.ingestor.drain(&pass, max_messages))
    }

    /// Enables (or, with `None`, disables) late-data quarantine:
    /// observations older than `threshold` on arrival are parked in the
    /// quarantine collection instead of stored. Disabled by default.
    pub fn set_late_quarantine(&self, threshold: Option<SimDuration>) {
        self.ingestor.set_late_quarantine(threshold);
    }

    // ----- data management ------------------------------------------------------

    /// Runs a typed query over an app's observations.
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::UnknownApp`] or storage errors.
    pub fn query(&self, app: &AppId, query: &ObservationQuery) -> Result<Vec<Value>, GoFlowError> {
        let collection = self.collection(app)?;
        telemetry().server_queries.inc();
        let mut options = FindOptions::new();
        if let Some(limit) = query.limit_value() {
            options = options.limit(limit);
        }
        Ok(collection.find_with_options(&query.to_filter(), &options)?)
    }

    /// Runs a query and encodes the result for download.
    ///
    /// # Errors
    ///
    /// See [`GoFlowServer::query`].
    pub fn export(
        &self,
        app: &AppId,
        query: &ObservationQuery,
        packaging: Packaging,
    ) -> Result<String, GoFlowError> {
        Ok(packaging.encode(&self.query(app, query)?))
    }

    /// Runs a query on behalf of *another* application ("open data"):
    /// private paths of the owning app's policy are stripped from each
    /// document.
    ///
    /// # Errors
    ///
    /// See [`GoFlowServer::query`].
    pub fn query_shared(
        &self,
        owner: &AppId,
        query: &ObservationQuery,
    ) -> Result<Vec<Value>, GoFlowError> {
        let mut docs = self.query(owner, query)?;
        for doc in &mut docs {
            self.privacy.redact(doc);
        }
        Ok(docs)
    }

    // ----- background jobs ---------------------------------------------------------

    /// Submits a background job (requires a Manager token for the app).
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::PermissionDenied`] for insufficient role or
    /// [`GoFlowError::InvalidToken`].
    pub fn submit_job(
        &self,
        token: &Token,
        name: impl Into<String>,
        script: impl Fn(&CollectionHandle) -> Result<Value, String> + Send + Sync + 'static,
    ) -> Result<JobId, GoFlowError> {
        self.accounts
            .require_role(token, Role::Manager, "submit job")?;
        Ok(self.jobs.submit(name, script))
    }

    /// Runs pending jobs against an app's collection; returns how many ran.
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::UnknownApp`] for an unregistered app.
    pub fn run_jobs(&self, app: &AppId) -> Result<usize, GoFlowError> {
        let collection = self.collection(app)?;
        Ok(self.jobs.run_pending(&collection))
    }

    /// Status of a job.
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::JobNotFound`] for an unknown id.
    pub fn job_status(&self, id: JobId) -> Result<JobStatus, GoFlowError> {
        self.jobs.status(id)
    }

    // ----- analytics ------------------------------------------------------------------

    /// Total observations stored for an app.
    pub fn observation_total(&self, app: &AppId) -> u64 {
        self.analytics.total(app)
    }

    /// Total localized observations stored for an app.
    pub fn observation_total_localized(&self, app: &AppId) -> u64 {
        self.analytics.total_localized(app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_types::{DeviceModel, Observation, SoundLevel};
    use serde_json::json;

    fn server() -> (Arc<Broker>, GoFlowServer, AppId) {
        let broker = Arc::new(Broker::new());
        let server = GoFlowServer::new(Arc::clone(&broker), Store::new());
        let app = AppId::soundcity();
        server.register_app(&app).unwrap();
        (broker, server, app)
    }

    fn obs(user: u64, spl: f64, at: SimTime) -> Observation {
        Observation::builder()
            .device(user.into())
            .user(user.into())
            .model(DeviceModel::LgeNexus5)
            .captured_at(at)
            .spl(SoundLevel::new(spl))
            .build()
    }

    #[test]
    fn end_to_end_publish_ingest_query() {
        let (broker, server, app) = server();
        let token = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let session = server.login(&token).unwrap();

        let o = obs(1, 61.0, SimTime::from_hms(0, 10, 0, 0));
        let payload = serde_json::to_vec(&o).unwrap();
        let key = session.observation_key("noise", "FR75013");
        broker.publish(session.exchange(), &key, &payload).unwrap();

        let now = SimTime::from_hms(0, 10, 0, 20);
        let outcome = server.ingest_pending(&app, now, 100).unwrap();
        assert_eq!(outcome.stored, 1);
        assert_eq!(outcome.malformed, 0);

        let docs = server.query(&app, &ObservationQuery::new()).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0]["spl"], json!(61.0));
        assert_eq!(docs[0]["delay_ms"], json!(20_000));
        assert_eq!(server.observation_total(&app), 1);
    }

    #[test]
    fn malformed_payloads_are_quarantined_not_stored() {
        let (broker, server, app) = server();
        let token = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let session = server.login(&token).unwrap();
        broker
            .publish(
                session.exchange(),
                &session.observation_key("noise", "FR75013"),
                &b"garbage"[..],
            )
            .unwrap();
        let outcome = server.ingest_pending(&app, SimTime::EPOCH, 10).unwrap();
        assert_eq!(outcome.stored, 0);
        assert_eq!(outcome.malformed, 1);
        assert_eq!(outcome.quarantined, 1);
        assert_eq!(server.observation_total(&app), 0);
        // The payload survives in the quarantine collection.
        let parked = server.quarantine(&app).unwrap().all();
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0]["reason"], json!("malformed"));
        assert_eq!(parked[0]["payload"], json!("garbage"));
        assert!(parked[0]["error"].as_str().is_some());
        // The broker copy is gone — quarantine owns it now.
        assert_eq!(broker.queue_depth("gf-SC-queue").unwrap(), 0);
    }

    #[test]
    fn late_observations_are_quarantined_when_enabled() {
        let (broker, server, app) = server();
        let token = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let session = server.login(&token).unwrap();
        let key = session.observation_key("noise", "FR75013");
        // One fresh observation, one captured two days before arrival.
        let fresh = obs(1, 55.0, SimTime::from_hms(2, 9, 59, 0));
        let stale = obs(1, 60.0, SimTime::from_hms(0, 10, 0, 0));
        for o in [&fresh, &stale] {
            broker
                .publish(session.exchange(), &key, &serde_json::to_vec(o).unwrap())
                .unwrap();
        }
        server.set_late_quarantine(Some(SimDuration::from_hours(24)));
        let now = SimTime::from_hms(2, 10, 0, 0);
        let outcome = server.ingest_pending(&app, now, 10).unwrap();
        assert_eq!(outcome.stored, 1);
        assert_eq!(outcome.quarantined, 1);
        assert_eq!(server.observation_total(&app), 1);
        let parked = server.quarantine(&app).unwrap().all();
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0]["reason"], json!("late"));
        assert_eq!(parked[0]["delay_ms"], json!(48 * 3_600_000));
        assert_eq!(parked[0]["observation"]["spl"], json!(60.0));

        // Disabled again: stale data is stored normally.
        server.set_late_quarantine(None);
        broker
            .publish(
                session.exchange(),
                &key,
                &serde_json::to_vec(&stale).unwrap(),
            )
            .unwrap();
        let outcome = server.ingest_pending(&app, now, 10).unwrap();
        assert_eq!(outcome.stored, 1);
        assert_eq!(outcome.quarantined, 0);
    }

    /// An observation captured after it arrived would be stored with a
    /// negative delay: it is quarantined instead, whatever the late-data
    /// setting.
    #[test]
    fn observations_from_the_future_are_quarantined() {
        let (broker, server, app) = server();
        let token = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let session = server.login(&token).unwrap();
        let now = SimTime::from_hms(2, 10, 0, 0);
        let future = obs(1, 60.0, now + SimDuration::from_hours(1));
        broker
            .publish(
                session.exchange(),
                &session.observation_key("noise", "FR75013"),
                &serde_json::to_vec(&future).unwrap(),
            )
            .unwrap();
        let outcome = server.ingest_pending(&app, now, 10).unwrap();
        assert_eq!((outcome.stored, outcome.quarantined), (0, 1));
        assert_eq!(server.collection(&app).unwrap().len(), 0);
        assert_eq!(server.observation_total(&app), 0);
        let parked = server.quarantine(&app).unwrap().all();
        assert_eq!(parked.len(), 1);
        assert_eq!(parked[0]["reason"], json!("future"));
        assert_eq!(parked[0]["delay_ms"], json!(-3_600_000));
        assert_eq!(parked[0]["observation"]["spl"], json!(60.0));
    }

    #[test]
    fn storage_failures_requeue_then_dead_letter() {
        let (broker, server, app) = server();
        let token = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let session = server.login(&token).unwrap();
        let o = obs(1, 58.0, SimTime::EPOCH);
        broker
            .publish(
                session.exchange(),
                &session.observation_key("noise", "FR75013"),
                &serde_json::to_vec(&o).unwrap(),
            )
            .unwrap();

        // Persistent storage failure: every ingest pass nacks the message
        // back, and the broker's dead-letter policy caps the cycling.
        server
            .ingestor
            .force_storage_failures
            .store(usize::MAX, std::sync::atomic::Ordering::SeqCst);
        for attempt in 1..=5 {
            let outcome = server.ingest_pending(&app, SimTime::EPOCH, 10).unwrap();
            assert_eq!(outcome.requeued, 1, "attempt {attempt} should nack");
            assert_eq!(outcome.stored, 0);
        }
        // Attempts exhausted: parked in the DLQ, not cycling, not dropped.
        assert_eq!(broker.queue_depth("gf-SC-queue").unwrap(), 0);
        assert_eq!(
            broker.queue_depth(&server.dead_letter_queue(&app)).unwrap(),
            1
        );
        let outcome = server.ingest_pending(&app, SimTime::EPOCH, 10).unwrap();
        assert_eq!(outcome, IngestOutcome::default());

        // The dead-lettered payload is intact for operator replay.
        server
            .ingestor
            .force_storage_failures
            .store(0, std::sync::atomic::Ordering::SeqCst);
        let dlq = server.dead_letter_queue(&app);
        let deliveries = broker.consume(&dlq, 10).unwrap();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(
            deliveries[0].payload().as_ref(),
            serde_json::to_vec(&o).unwrap().as_slice()
        );
    }

    #[test]
    fn replay_skips_what_the_collection_already_holds() {
        use mps_broker::Message;
        use mps_telemetry::trace::{encode_contexts, TraceContext, TraceId, TRACE_HEADER};
        let (broker, server, app) = server();
        let token = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let session = server.login(&token).unwrap();
        // Three traced observations. The first is stored on its own; the
        // message carrying all three then fails until it dead-letters —
        // what a torn batch leaves behind: a stored prefix of a message
        // ingest only ever saw fail.
        let batch: Vec<_> = (0..3)
            .map(|i| obs(1, 50.0 + f64::from(i), SimTime::from_hms(0, 9, i, 0)))
            .collect();
        let contexts: Vec<_> = batch
            .iter()
            .map(|o| TraceContext::new(TraceId::for_observation(1, o.captured_at.as_millis())))
            .collect();
        let key = session.observation_key("noise", "FR75013");
        let publish = |n: usize| {
            let message = Message::new(
                key.parse().unwrap(),
                serde_json::to_vec(&batch[..n]).unwrap(),
            )
            .with_header(TRACE_HEADER, encode_contexts(&contexts[..n]));
            broker.publish_message(session.exchange(), message).unwrap();
        };
        let now = SimTime::from_hms(0, 10, 0, 0);
        publish(1);
        assert_eq!(server.ingest_pending(&app, now, 10).unwrap().stored, 1);
        publish(3);
        let failures = &server.ingestor.force_storage_failures;
        failures.store(usize::MAX, std::sync::atomic::Ordering::SeqCst);
        for _ in 0..5 {
            assert_eq!(server.ingest_pending(&app, now, 10).unwrap().requeued, 1);
        }
        let dlq = server.dead_letter_queue(&app);
        assert_eq!(broker.queue_depth(&dlq).unwrap(), 1);

        // While storage is failing, what the store reads back is not
        // trusted: the replay skips nothing and the message stays put.
        let outcome = server.replay_dead_letters(&app, now, 10).unwrap();
        assert_eq!((outcome.already_stored, outcome.requeued), (0, 1));
        assert_eq!(broker.queue_depth(&dlq).unwrap(), 1);

        // Healed: an ordinary write succeeds, and the replay stores the
        // two missing observations and skips the one already there.
        failures.store(0, std::sync::atomic::Ordering::SeqCst);
        broker
            .publish(
                session.exchange(),
                &key,
                &serde_json::to_vec(&obs(2, 70.0, SimTime::from_hms(0, 9, 30, 0))).unwrap(),
            )
            .unwrap();
        assert_eq!(server.ingest_pending(&app, now, 10).unwrap().stored, 1);
        let outcome = server.replay_dead_letters(&app, now, 10).unwrap();
        assert_eq!((outcome.stored, outcome.already_stored), (2, 1));
        assert_eq!(broker.queue_depth(&dlq).unwrap(), 0);
        let docs = server.query(&app, &ObservationQuery::new()).unwrap();
        let mut traces: Vec<_> = docs.iter().filter_map(|d| d["trace"].as_str()).collect();
        traces.sort_unstable();
        let mut expected: Vec<_> = contexts.iter().map(|c| c.trace.to_string()).collect();
        expected.sort_unstable();
        assert_eq!(traces, expected, "each traced observation stored once");
    }

    #[test]
    fn batched_payload_stores_each_observation() {
        let (broker, server, app) = server();
        let token = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let session = server.login(&token).unwrap();
        let batch: Vec<Observation> = (0..10)
            .map(|i| obs(1, 50.0 + i as f64, SimTime::from_hms(0, 9, i as u32, 0)))
            .collect();
        broker
            .publish(
                session.exchange(),
                &session.observation_key("noise", "FR75013"),
                &serde_json::to_vec(&batch).unwrap(),
            )
            .unwrap();
        let outcome = server
            .ingest_pending(&app, SimTime::from_hms(0, 11, 0, 0), 10)
            .unwrap();
        assert_eq!(outcome.stored, 10);
    }

    /// The batched storage path is an optimisation, not a behaviour
    /// change: same outcome, byte-identical documents in the same order,
    /// same quarantine, same analytics as the per-message path.
    #[test]
    fn batched_ingest_matches_per_message_ingest() {
        let make = || {
            let (broker, server, app) = server();
            let token = server
                .register_user(&app, 1.into(), Role::Contributor)
                .unwrap();
            let session = server.login(&token).unwrap();
            let key = session.observation_key("noise", "FR75013");
            // Mixed traffic: singles, a buffered batch payload, a
            // malformed payload, and a late and a future observation.
            for i in 0..3 {
                let o = obs(1, 50.0 + i as f64, SimTime::from_hms(2, 9, i as u32, 0));
                broker
                    .publish(session.exchange(), &key, &serde_json::to_vec(&o).unwrap())
                    .unwrap();
            }
            let batch: Vec<Observation> = (0..5)
                .map(|i| obs(1, 60.0 + i as f64, SimTime::from_hms(2, 8, i as u32, 0)))
                .collect();
            broker
                .publish(
                    session.exchange(),
                    &key,
                    &serde_json::to_vec(&batch).unwrap(),
                )
                .unwrap();
            broker
                .publish(session.exchange(), &key, &b"garbage"[..])
                .unwrap();
            let stale = obs(1, 70.0, SimTime::from_hms(0, 0, 0, 0));
            let future = obs(1, 75.0, SimTime::from_hms(2, 11, 0, 0));
            broker
                .publish(
                    session.exchange(),
                    &key,
                    &serde_json::to_vec(&vec![stale, future]).unwrap(),
                )
                .unwrap();
            server.set_late_quarantine(Some(SimDuration::from_hours(24)));
            (broker, server, app)
        };
        let (_, batched, app) = make();
        let (_, per_message, _) = make();
        per_message
            .ingestor
            .force_batch_fallback
            .store(true, std::sync::atomic::Ordering::Relaxed);

        let now = SimTime::from_hms(2, 10, 0, 0);
        let a = batched.ingest_pending(&app, now, 100).unwrap();
        let b = per_message.ingest_pending(&app, now, 100).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.stored, 8);
        assert_eq!(a.malformed, 1);
        assert_eq!(a.quarantined, 3);
        assert_eq!(
            batched.collection(&app).unwrap().all(),
            per_message.collection(&app).unwrap().all()
        );
        assert_eq!(
            batched.quarantine(&app).unwrap().all(),
            per_message.quarantine(&app).unwrap().all()
        );
        assert_eq!(
            batched.observation_total(&app),
            per_message.observation_total(&app)
        );
        assert_eq!(
            batched.observation_total_localized(&app),
            per_message.observation_total_localized(&app)
        );
    }

    /// A failed batch insert degrades to the per-message path, which
    /// attributes the loss to individual messages — transient failures
    /// requeue exactly the affected message, and nothing is lost.
    #[test]
    fn batch_fallback_preserves_loss_attribution() {
        let (broker, server, app) = server();
        let token = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let session = server.login(&token).unwrap();
        let key = session.observation_key("noise", "FR75013");
        for i in 0..2 {
            let o = obs(1, 50.0 + i as f64, SimTime::EPOCH);
            broker
                .publish(session.exchange(), &key, &serde_json::to_vec(&o).unwrap())
                .unwrap();
        }
        // One transient storage failure: the batched attempt steps aside
        // and the per-message path pins the failure on the first message.
        server
            .ingestor
            .force_storage_failures
            .store(1, std::sync::atomic::Ordering::SeqCst);
        let outcome = server.ingest_pending(&app, SimTime::EPOCH, 10).unwrap();
        assert_eq!(outcome.stored, 1);
        assert_eq!(outcome.requeued, 1);
        // The nacked message is redelivered and stored by the (healthy
        // again) batched path — nothing lost, nothing duplicated.
        let outcome = server.ingest_pending(&app, SimTime::EPOCH, 10).unwrap();
        assert_eq!(outcome.stored, 1);
        assert_eq!(outcome.requeued, 0);
        assert_eq!(server.collection(&app).unwrap().len(), 2);
        assert_eq!(broker.queue_depth("gf-SC-queue").unwrap(), 0);
    }

    #[test]
    fn query_filters_apply() {
        let (broker, server, app) = server();
        let token = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let session = server.login(&token).unwrap();
        for i in 0..5 {
            let o = obs(1, 40.0 + 10.0 * i as f64, SimTime::from_hms(i, 12, 0, 0));
            broker
                .publish(
                    session.exchange(),
                    &session.observation_key("noise", "FR75013"),
                    &serde_json::to_vec(&o).unwrap(),
                )
                .unwrap();
        }
        server
            .ingest_pending(&app, SimTime::from_hms(5, 0, 0, 0), 100)
            .unwrap();
        let q = ObservationQuery::new()
            .captured_between(SimTime::from_hms(1, 0, 0, 0), SimTime::from_hms(3, 0, 0, 0));
        assert_eq!(server.query(&app, &q).unwrap().len(), 2);
        let q = ObservationQuery::new().limit(3);
        assert_eq!(server.query(&app, &q).unwrap().len(), 3);
    }

    #[test]
    fn export_packages_json() {
        let (broker, server, app) = server();
        let token = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let session = server.login(&token).unwrap();
        let o = obs(1, 55.0, SimTime::EPOCH);
        broker
            .publish(
                session.exchange(),
                &session.observation_key("noise", "FR75013"),
                &serde_json::to_vec(&o).unwrap(),
            )
            .unwrap();
        server.ingest_pending(&app, SimTime::EPOCH, 10).unwrap();
        let lines = server
            .export(&app, &ObservationQuery::new(), Packaging::JsonLines)
            .unwrap();
        assert_eq!(lines.lines().count(), 1);
        let array = server
            .export(&app, &ObservationQuery::new(), Packaging::JsonArray)
            .unwrap();
        assert!(array.starts_with('['));
    }

    #[test]
    fn query_shared_redacts_private_paths() {
        let broker = Arc::new(Broker::new());
        let policy = PrivacyPolicy::default()
            .with_private_path("lat")
            .with_private_path("lon");
        let server = GoFlowServer::with_policy(Arc::clone(&broker), Store::new(), policy);
        let app = AppId::soundcity();
        server.register_app(&app).unwrap();
        server
            .collection(&app)
            .unwrap()
            .insert_one(json!({"spl": 60.0, "lat": 48.85, "lon": 2.35}))
            .unwrap();
        let own = server.query(&app, &ObservationQuery::new()).unwrap();
        assert!(own[0].get("lat").is_some());
        let shared = server.query_shared(&app, &ObservationQuery::new()).unwrap();
        assert!(shared[0].get("lat").is_none());
        assert!(shared[0].get("spl").is_some());
    }

    #[test]
    fn jobs_require_manager_role() {
        let (_, server, app) = server();
        let contrib = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let manager = server.register_user(&app, 2.into(), Role::Manager).unwrap();
        assert!(matches!(
            server.submit_job(&contrib, "x", |_| Ok(Value::Null)),
            Err(GoFlowError::PermissionDenied { .. })
        ));
        let id = server
            .submit_job(&manager, "count", |c| Ok(json!(c.len())))
            .unwrap();
        assert_eq!(server.run_jobs(&app).unwrap(), 1);
        assert_eq!(server.job_status(id).unwrap(), JobStatus::Done(json!(0)));
    }

    #[test]
    fn unknown_app_is_rejected_everywhere() {
        let (_, server, _) = server();
        let ghost = AppId::new("GHOST");
        assert!(server.collection(&ghost).is_err());
        assert!(server.ingest_pending(&ghost, SimTime::EPOCH, 1).is_err());
        assert!(server.query(&ghost, &ObservationQuery::new()).is_err());
        assert!(server.run_jobs(&ghost).is_err());
    }

    #[test]
    fn erase_user_removes_data_and_credentials() {
        let (broker, server, app) = server();
        let t1 = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let t2 = server
            .register_user(&app, 2.into(), Role::Contributor)
            .unwrap();
        for (token, user) in [(&t1, 1u64), (&t2, 2u64)] {
            let session = server.login(token).unwrap();
            for i in 0..3 {
                let o = obs(user, 50.0 + i as f64, SimTime::from_hms(i, 10, 0, 0));
                broker
                    .publish(
                        session.exchange(),
                        &session.observation_key("noise", "FR75001"),
                        &serde_json::to_vec(&o).unwrap(),
                    )
                    .unwrap();
            }
        }
        server
            .ingest_pending(&app, SimTime::from_hms(3, 0, 0, 0), 100)
            .unwrap();
        assert_eq!(
            server.query(&app, &ObservationQuery::new()).unwrap().len(),
            6
        );

        // Erase user 1: their 3 documents go, user 2's stay.
        let deleted = server.erase_user(&app, 1.into()).unwrap();
        assert_eq!(deleted, 3);
        assert_eq!(
            server.query(&app, &ObservationQuery::new()).unwrap().len(),
            3
        );
        // Credentials are gone too.
        assert!(matches!(server.login(&t1), Err(GoFlowError::InvalidToken)));
        assert!(server.login(&t2).is_ok());
        // Idempotent: nothing left to erase.
        assert_eq!(server.erase_user(&app, 1.into()).unwrap(), 0);
        // Unknown app is rejected.
        assert!(server.erase_user(&AppId::new("GHOST"), 1.into()).is_err());
    }

    #[test]
    fn erase_user_removes_their_parked_late_observations() {
        let (broker, server, app) = server();
        for user in [1u64, 2] {
            let token = server
                .register_user(&app, user.into(), Role::Contributor)
                .unwrap();
            let session = server.login(&token).unwrap();
            let stale = obs(user, 60.0, SimTime::EPOCH);
            broker
                .publish(
                    session.exchange(),
                    &session.observation_key("noise", "FR75001"),
                    &serde_json::to_vec(&stale).unwrap(),
                )
                .unwrap();
        }
        server.set_late_quarantine(Some(SimDuration::from_hours(24)));
        let outcome = server
            .ingest_pending(&app, SimTime::from_hms(2, 0, 0, 0), 10)
            .unwrap();
        assert_eq!(outcome.quarantined, 2);

        assert_eq!(server.erase_user(&app, 1.into()).unwrap(), 1);
        let parked = server.quarantine(&app).unwrap().all();
        assert_eq!(parked.len(), 1);
        let kept = server.privacy().pseudonymize(2).raw();
        assert_eq!(parked[0]["observation"]["user"], json!(kept));
    }

    #[test]
    fn login_requires_valid_token() {
        let (_, server, app) = server();
        let token = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        server.revoke(&token).unwrap();
        assert!(matches!(
            server.login(&token),
            Err(GoFlowError::InvalidToken)
        ));
        assert_eq!(server.user_count(&app), 0);
    }

    #[test]
    fn logout_removes_session_endpoints() {
        let (broker, server, app) = server();
        let token = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let session = server.login(&token).unwrap();
        server.logout(&session).unwrap();
        assert!(broker.queue_depth(session.queue()).is_err());
    }

    #[test]
    fn collections_are_indexed() {
        let (_, server, app) = server();
        let c = server.collection(&app).unwrap();
        assert!(c.has_index("model"));
        assert!(c.has_index("provider"));
        assert!(c.has_index("captured_ms"));
    }

    #[test]
    fn subscriptions_route_between_clients() {
        let (broker, server, app) = server();
        let t1 = server
            .register_user(&app, 1.into(), Role::Contributor)
            .unwrap();
        let t2 = server
            .register_user(&app, 2.into(), Role::Contributor)
            .unwrap();
        let publisher = server.login(&t1).unwrap();
        let subscriber = server.login(&t2).unwrap();
        server
            .subscribe(&subscriber, "Feedback", "FR75013")
            .unwrap();
        broker
            .publish(
                publisher.exchange(),
                &publisher.observation_key("Feedback", "FR75013"),
                &b"hello"[..],
            )
            .unwrap();
        let deliveries = broker.consume(subscriber.queue(), 10).unwrap();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].payload().as_ref(), b"hello");
    }
}
