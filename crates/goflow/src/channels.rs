//! Channel management: the messaging topology of Figure 3.
//!
//! GoFlow creates RabbitMQ exchanges, queues and bindings *on behalf of*
//! mobile clients and returns their identifiers for connection:
//!
//! * per application: an application exchange (e.g. `SC`), plus the GoFlow
//!   collection exchange/queue (`GF`) receiving every crowd-sensed message
//!   for storage;
//! * per logged-in client: a client exchange forwarding the client's
//!   messages into the application exchange — with the client id (a shared
//!   secret) as a binding filter so only authentic messages flow — and a
//!   client queue for incoming crowd-sensed messages;
//! * per subscription: a location/datatype exchange (e.g. `FR75013`,
//!   `Feedback`) bound from the application exchange, feeding subscribed
//!   client queues.

use crate::GoFlowError;
use mps_broker::BrokerTransport;
use mps_types::{AppId, ClientId, UserId};
use parking_lot::Mutex;
use std::sync::Arc;

/// The broker endpoints returned to a client at login.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSession {
    app: AppId,
    user: UserId,
    client_id: ClientId,
    exchange: String,
    queue: String,
}

impl ClientSession {
    /// The client id (shared secret with the server).
    pub fn client_id(&self) -> &ClientId {
        &self.client_id
    }

    /// The application this session belongs to.
    pub fn app(&self) -> &AppId {
        &self.app
    }

    /// The user this session was opened for.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// Name of the client's exchange (publish observations here).
    pub fn exchange(&self) -> &str {
        &self.exchange
    }

    /// Name of the client's queue (consume notifications here).
    pub fn queue(&self) -> &str {
        &self.queue
    }

    /// The routing key for publishing an observation of `datatype` at
    /// `location` — prefixed with the client id so the client-exchange
    /// binding (the security filter) lets it through.
    pub fn observation_key(&self, datatype: &str, location: &str) -> String {
        format!("{}.obs.{datatype}.{location}", self.client_id)
    }
}

/// Creates and tears down the Figure 3 messaging topology.
///
/// Generic over [`BrokerTransport`], so the topology can be declared on
/// an in-process [`mps_broker::Broker`] or on a remote broker across a
/// socket, interchangeably.
pub struct ChannelManager {
    broker: Arc<dyn BrokerTransport>,
    next_client: Mutex<u64>,
}

impl std::fmt::Debug for ChannelManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelManager").finish_non_exhaustive()
    }
}

fn app_exchange(app: &AppId) -> String {
    format!("app-{app}")
}

fn gf_exchange(app: &AppId) -> String {
    format!("gf-{app}")
}

/// Name of the GoFlow collection queue for an application (the `GF` queue
/// of Figure 3, drained by the ingest component).
pub(crate) fn gf_queue(app: &AppId) -> String {
    format!("gf-{app}-queue")
}

/// Name of the dead-letter queue paired with the GF queue: messages whose
/// ingest keeps failing (e.g. repeated storage errors) are parked here for
/// operator inspection instead of cycling forever or being dropped.
pub(crate) fn gf_dlq(app: &AppId) -> String {
    format!("gf-{app}-dlq")
}

/// Delivery attempts a GF message gets before it is dead-lettered.
pub(crate) const GF_MAX_DELIVERY_ATTEMPTS: u32 = 5;

fn sub_exchange(app: &AppId, datatype: &str, location: &str) -> String {
    format!("sub-{app}-{datatype}-{location}")
}

impl ChannelManager {
    /// Creates a manager over a shared broker (in-process or remote).
    pub fn new(broker: Arc<dyn BrokerTransport>) -> Self {
        Self {
            broker,
            next_client: Mutex::new(0),
        }
    }

    /// Declares the per-application topology: application exchange, GF
    /// exchange and GF queue, with the app exchange forwarding everything
    /// into GF for storage. Also declares the GF dead-letter queue and
    /// points the GF queue's dead-letter policy at it, so messages that
    /// exhaust `GF_MAX_DELIVERY_ATTEMPTS` ingest attempts are parked
    /// there instead of dropped. Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates broker errors (e.g. a name collision with a different
    /// exchange type).
    pub fn setup_app(&self, app: &AppId) -> Result<(), GoFlowError> {
        let app_ex = app_exchange(app);
        let gf_ex = gf_exchange(app);
        let gf_q = gf_queue(app);
        let gf_dlq = gf_dlq(app);
        self.broker.declare_exchange(&app_ex)?;
        self.broker.declare_exchange(&gf_ex)?;
        self.broker.declare_queue(&gf_q)?;
        self.broker.declare_queue(&gf_dlq)?;
        self.broker
            .configure_dead_letter(&gf_q, GF_MAX_DELIVERY_ATTEMPTS, &gf_dlq)?;
        self.broker.bind_exchange(&app_ex, &gf_ex, "#")?;
        self.broker.bind_queue(&gf_ex, &gf_q, "#")?;
        Ok(())
    }

    /// The GF queue name for an application (used by ingest).
    pub fn collection_queue(&self, app: &AppId) -> String {
        gf_queue(app)
    }

    /// The GF dead-letter queue name for an application (inspect it for
    /// messages whose ingest kept failing).
    pub fn dead_letter_queue(&self, app: &AppId) -> String {
        gf_dlq(app)
    }

    /// Opens a client session: declares the client exchange and queue and
    /// installs the client-id-filtered binding into the application
    /// exchange.
    ///
    /// # Errors
    ///
    /// Propagates broker errors from the declarations.
    pub fn open_client(&self, app: &AppId, user: UserId) -> Result<ClientSession, GoFlowError> {
        let serial = {
            let mut next = self.next_client.lock();
            let s = *next;
            *next += 1;
            s
        };
        // The client id doubles as the binding filter word; keep it to
        // routing-key-safe characters.
        let client_id = ClientId::new(format!("c{serial:08x}"));
        let exchange = format!("client-{client_id}-ex");
        let queue = format!("client-{client_id}-q");
        self.broker.declare_exchange(&exchange)?;
        self.broker.declare_queue(&queue)?;
        // Security: only keys prefixed with the shared-secret client id
        // cross from the client exchange into the application exchange.
        self.broker
            .bind_exchange(&exchange, &app_exchange(app), &format!("{client_id}.#"))?;
        Ok(ClientSession {
            app: app.clone(),
            user,
            client_id,
            exchange,
            queue,
        })
    }

    /// Registers the client to receive `datatype` messages at `location`
    /// (e.g. `Feedback` at `FR75013`): ensures the location/datatype
    /// exchange exists, binds it from the application exchange, and binds
    /// the client's queue to it.
    ///
    /// # Errors
    ///
    /// Propagates broker errors from the declarations.
    pub fn subscribe(
        &self,
        session: &ClientSession,
        datatype: &str,
        location: &str,
    ) -> Result<(), GoFlowError> {
        let sub_ex = sub_exchange(&session.app, datatype, location);
        self.broker.declare_exchange(&sub_ex)?;
        // Any client's message (first word = client id) of the right
        // datatype and location reaches the subscription exchange.
        self.broker.bind_exchange(
            &app_exchange(&session.app),
            &sub_ex,
            &format!("*.obs.{datatype}.{location}"),
        )?;
        self.broker.bind_queue(&sub_ex, &session.queue, "#")?;
        Ok(())
    }

    /// Closes a client session, deleting its exchange and queue (and any
    /// messages still buffered in the queue).
    ///
    /// # Errors
    ///
    /// Propagates broker errors if the endpoints were already removed.
    pub fn close_client(&self, session: &ClientSession) -> Result<(), GoFlowError> {
        self.broker.delete_exchange(&session.exchange)?;
        self.broker.delete_queue(&session.queue)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_broker::Broker;

    fn setup() -> (Arc<Broker>, ChannelManager, AppId) {
        let broker = Arc::new(Broker::new());
        let manager = ChannelManager::new(broker.clone());
        let app = AppId::soundcity();
        manager.setup_app(&app).unwrap();
        (broker, manager, app)
    }

    #[test]
    fn setup_app_creates_topology() {
        let (broker, manager, app) = setup();
        let exchanges: Vec<String> = broker.exchanges().into_iter().map(|e| e.name).collect();
        assert_eq!(exchanges, ["app-SC", "gf-SC"]);
        let queues = broker.queues();
        let names: Vec<&str> = queues.iter().map(|q| q.name.as_str()).collect();
        assert_eq!(names, ["gf-SC-dlq", "gf-SC-queue"]);
        assert_eq!(manager.collection_queue(&app), "gf-SC-queue");
        assert_eq!(manager.dead_letter_queue(&app), "gf-SC-dlq");
        let policy = queues[1].dead_letter.clone().unwrap();
        assert_eq!(policy.max_delivery_attempts, GF_MAX_DELIVERY_ATTEMPTS);
        assert_eq!(policy.target, "gf-SC-dlq");
        // Idempotent.
        manager.setup_app(&app).unwrap();
    }

    #[test]
    fn client_publish_reaches_gf_queue() {
        let (broker, manager, app) = setup();
        let session = manager.open_client(&app, 1.into()).unwrap();
        let key = session.observation_key("noise", "FR75013");
        let routed = broker
            .publish(session.exchange(), &key, &b"obs"[..])
            .unwrap();
        assert_eq!(routed, 1);
        assert_eq!(broker.queue_depth("gf-SC-queue").unwrap(), 1);
    }

    /// The broker's route cache at GoFlow's crowd sizes: `n` clients log
    /// in, and each publishes its one observation key (a `GoFlowClient`
    /// has one routing key) into its own client exchange, round-robin,
    /// three rounds. Every client is one `(exchange, key)` entry. Read
    /// from `broker.metrics()` (and printed): 25 clients miss once each
    /// and then hit; 2 091 clients — more keys than the cache's 1 024 —
    /// flush it before any key comes round again, and never hit.
    #[test]
    fn route_cache_counted_at_goflow_crowd() {
        const ROUNDS: u64 = 3;
        for (n, hits, misses) in [(25u64, 50, 25), (2_091, 0, 6_273)] {
            let (broker, manager, app) = setup();
            let sessions: Vec<ClientSession> = (0..n)
                .map(|user| manager.open_client(&app, user.into()).unwrap())
                .collect();
            let keys: Vec<String> = sessions
                .iter()
                .map(|s| s.observation_key("noise", "FR75013"))
                .collect();
            for _ in 0..ROUNDS {
                for (session, key) in sessions.iter().zip(&keys) {
                    broker.publish(session.exchange(), key, &b"o"[..]).unwrap();
                }
            }
            let m = broker.metrics();
            eprintln!(
                "route cache, {n} clients x {ROUNDS} rounds: {} hits, {} misses",
                m.route_cache_hits, m.route_cache_misses
            );
            assert_eq!((m.route_cache_hits, m.route_cache_misses), (hits, misses));
            let depth = broker.queue_depth("gf-SC-queue").unwrap() as u64;
            assert_eq!(depth, ROUNDS * n);
        }
    }

    #[test]
    fn wrong_client_id_is_filtered() {
        let (broker, manager, app) = setup();
        let s1 = manager.open_client(&app, 1.into()).unwrap();
        let s2 = manager.open_client(&app, 2.into()).unwrap();
        // A message with s2's id published on s1's exchange must not pass
        // s1's binding filter.
        let forged = s2.observation_key("noise", "FR75013");
        let routed = broker
            .publish(s1.exchange(), &forged, &b"forged"[..])
            .unwrap();
        assert_eq!(routed, 0);
        assert_eq!(broker.queue_depth("gf-SC-queue").unwrap(), 0);
    }

    #[test]
    fn subscription_delivers_matching_messages() {
        let (broker, manager, app) = setup();
        let publisher = manager.open_client(&app, 1.into()).unwrap();
        let subscriber = manager.open_client(&app, 2.into()).unwrap();
        manager
            .subscribe(&subscriber, "Feedback", "FR75013")
            .unwrap();

        // Matching message: reaches GF and the subscriber queue.
        let key = publisher.observation_key("Feedback", "FR75013");
        let routed = broker
            .publish(publisher.exchange(), &key, &b"fb"[..])
            .unwrap();
        assert_eq!(routed, 2);
        assert_eq!(broker.queue_depth(subscriber.queue()).unwrap(), 1);

        // Wrong location: GF only.
        let key = publisher.observation_key("Feedback", "FR92120");
        let routed = broker
            .publish(publisher.exchange(), &key, &b"fb"[..])
            .unwrap();
        assert_eq!(routed, 1);
        assert_eq!(broker.queue_depth(subscriber.queue()).unwrap(), 1);

        // Wrong datatype: GF only.
        let key = publisher.observation_key("Journey", "FR75013");
        let routed = broker
            .publish(publisher.exchange(), &key, &b"j"[..])
            .unwrap();
        assert_eq!(routed, 1);
    }

    #[test]
    fn multiple_subscribers_fan_out() {
        let (broker, manager, app) = setup();
        let publisher = manager.open_client(&app, 1.into()).unwrap();
        let s2 = manager.open_client(&app, 2.into()).unwrap();
        let s3 = manager.open_client(&app, 3.into()).unwrap();
        manager.subscribe(&s2, "Feedback", "FR75013").unwrap();
        manager.subscribe(&s3, "Feedback", "FR75013").unwrap();
        let key = publisher.observation_key("Feedback", "FR75013");
        let routed = broker
            .publish(publisher.exchange(), &key, &b"fb"[..])
            .unwrap();
        assert_eq!(routed, 3, "GF + two subscribers");
    }

    #[test]
    fn paper_scenario_home_and_current_locations() {
        // mob1 subscribes to Feedback at its current location (FR75013)
        // and Journey notifications at its home location (FR92120).
        let (broker, manager, app) = setup();
        let mob1 = manager.open_client(&app, 1.into()).unwrap();
        let mob2 = manager.open_client(&app, 2.into()).unwrap();
        manager.subscribe(&mob1, "Feedback", "FR75013").unwrap();
        manager.subscribe(&mob1, "Journey", "FR92120").unwrap();

        broker
            .publish(
                mob2.exchange(),
                &mob2.observation_key("Feedback", "FR75013"),
                &b"noisy bar"[..],
            )
            .unwrap();
        broker
            .publish(
                mob2.exchange(),
                &mob2.observation_key("Journey", "FR92120"),
                &b"new map"[..],
            )
            .unwrap();
        broker
            .publish(
                mob2.exchange(),
                &mob2.observation_key("Journey", "FR75013"),
                &b"other map"[..],
            )
            .unwrap();
        assert_eq!(broker.queue_depth(mob1.queue()).unwrap(), 2);
    }

    #[test]
    fn close_client_removes_endpoints() {
        let (broker, manager, app) = setup();
        let session = manager.open_client(&app, 1.into()).unwrap();
        manager.close_client(&session).unwrap();
        let exchanges = broker.exchanges();
        assert!(exchanges.iter().all(|e| e.name != session.exchange()));
        assert!(broker.queue_depth(session.queue()).is_err());
        assert!(manager.close_client(&session).is_err());
    }

    #[test]
    fn client_ids_are_unique() {
        let (_, manager, app) = setup();
        let a = manager.open_client(&app, 1.into()).unwrap();
        let b = manager.open_client(&app, 1.into()).unwrap();
        assert_ne!(a.client_id(), b.client_id());
        assert_eq!(a.user(), UserId::new(1));
        assert_eq!(a.app(), &app);
    }
}
