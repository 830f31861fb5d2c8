//! REST-like typed API surface.
//!
//! The paper's GoFlow exposes a REST API "for clients and administrators
//! to: authenticate and register subscribers and publishers, retrieve
//! crowd-sensed data based on various filtering parameters, manage user
//! accounts for an app, and submit and manage background jobs" (Figure 2).
//!
//! This module models that surface as typed request/response values (the
//! in-process analogue of HTTP endpoints), dispatched by
//! [`handle`]. Transport-independent by design: a real deployment would
//! put an HTTP layer in front of exactly this dispatch.

use crate::accounts::{Role, Token};
use crate::data::{ObservationQuery, Packaging};
use crate::jobs::{JobId, JobStatus};
use crate::server::GoFlowServer;
use crate::GoFlowError;
use mps_types::{AppId, SimTime, UserId};

/// A request to the GoFlow API.
#[derive(Debug, Clone)]
pub enum ApiRequest {
    /// Register an application (administrative).
    RegisterApp {
        /// Application to register.
        app: AppId,
    },
    /// Register a user account and obtain a token.
    RegisterUser {
        /// Target application.
        app: AppId,
        /// User identifier.
        user: UserId,
        /// Granted role.
        role: Role,
    },
    /// Authenticate and open a messaging session.
    Login {
        /// The user's token.
        token: Token,
    },
    /// Revoke a token.
    Revoke {
        /// Token to revoke.
        token: Token,
    },
    /// Retrieve crowd-sensed data with filters and packaging.
    Export {
        /// Owning application.
        app: AppId,
        /// Typed filter parameters.
        query: ObservationQuery,
        /// Output encoding.
        packaging: Packaging,
    },
    /// Drain pending contributions into storage (operations endpoint).
    Ingest {
        /// Owning application.
        app: AppId,
        /// Server arrival timestamp to stamp.
        now: SimTime,
        /// Upper bound on drained messages.
        max_messages: usize,
    },
    /// Query the status of a background job.
    JobStatus {
        /// Job identifier.
        id: JobId,
    },
    /// Contribution statistics for an app.
    Stats {
        /// Application to report on.
        app: AppId,
    },
}

/// A response from the GoFlow API.
#[derive(Debug, Clone)]
pub enum ApiResponse {
    /// The operation completed with no payload.
    Ok,
    /// A token was issued.
    Token(Token),
    /// A session was opened; carries the broker endpoints.
    Session {
        /// Client identifier (shared secret).
        client_id: String,
        /// Exchange to publish to.
        exchange: String,
        /// Queue to consume notifications from.
        queue: String,
    },
    /// Packaged query results.
    Package(String),
    /// Ingest outcome: stored and malformed counts.
    Ingested {
        /// Observations stored.
        stored: usize,
        /// Messages dropped as malformed.
        malformed: usize,
    },
    /// A job status.
    Job(JobStatus),
    /// Contribution statistics.
    Stats {
        /// Total stored observations.
        total: u64,
        /// Localized stored observations.
        localized: u64,
        /// Active user accounts.
        users: usize,
    },
}

/// Dispatches a request against a server.
///
/// # Errors
///
/// Propagates the underlying [`GoFlowError`] of the invoked operation.
pub fn handle(server: &GoFlowServer, request: ApiRequest) -> Result<ApiResponse, GoFlowError> {
    match request {
        ApiRequest::RegisterApp { app } => {
            server.register_app(&app)?;
            Ok(ApiResponse::Ok)
        }
        ApiRequest::RegisterUser { app, user, role } => {
            let token = server.register_user(&app, user, role)?;
            Ok(ApiResponse::Token(token))
        }
        ApiRequest::Login { token } => {
            let session = server.login(&token)?;
            Ok(ApiResponse::Session {
                client_id: session.client_id().to_string(),
                exchange: session.exchange().to_owned(),
                queue: session.queue().to_owned(),
            })
        }
        ApiRequest::Revoke { token } => {
            server.revoke(&token)?;
            Ok(ApiResponse::Ok)
        }
        ApiRequest::Export {
            app,
            query,
            packaging,
        } => Ok(ApiResponse::Package(
            server.export(&app, &query, packaging)?,
        )),
        ApiRequest::Ingest {
            app,
            now,
            max_messages,
        } => {
            let outcome = server.ingest_pending(&app, now, max_messages)?;
            Ok(ApiResponse::Ingested {
                stored: outcome.stored,
                malformed: outcome.malformed,
            })
        }
        ApiRequest::JobStatus { id } => Ok(ApiResponse::Job(server.job_status(id)?)),
        ApiRequest::Stats { app } => Ok(ApiResponse::Stats {
            total: server.observation_total(&app),
            localized: server.observation_total_localized(&app),
            users: server.user_count(&app),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_broker::Broker;
    use mps_docstore::Store;
    use std::sync::Arc;

    fn server() -> GoFlowServer {
        GoFlowServer::new(Arc::new(Broker::new()), Store::new())
    }

    #[test]
    fn register_login_flow_via_api() {
        let server = server();
        let app = AppId::soundcity();
        assert!(matches!(
            handle(&server, ApiRequest::RegisterApp { app: app.clone() }).unwrap(),
            ApiResponse::Ok
        ));
        let token = match handle(
            &server,
            ApiRequest::RegisterUser {
                app: app.clone(),
                user: 1.into(),
                role: Role::Contributor,
            },
        )
        .unwrap()
        {
            ApiResponse::Token(t) => t,
            other => panic!("expected token, got {other:?}"),
        };
        let response = handle(&server, ApiRequest::Login { token }).unwrap();
        match response {
            ApiResponse::Session {
                exchange,
                queue,
                client_id,
            } => {
                assert!(exchange.contains(&client_id));
                assert_eq!(server.broker().queue_depth(&queue), Ok(0));
            }
            other => panic!("expected session, got {other:?}"),
        }
    }

    #[test]
    fn stats_and_export_endpoints() {
        let server = server();
        let app = AppId::soundcity();
        handle(&server, ApiRequest::RegisterApp { app: app.clone() }).unwrap();
        match handle(&server, ApiRequest::Stats { app: app.clone() }).unwrap() {
            ApiResponse::Stats {
                total,
                localized,
                users,
            } => {
                assert_eq!((total, localized, users), (0, 0, 0));
            }
            other => panic!("expected stats, got {other:?}"),
        }
        match handle(
            &server,
            ApiRequest::Export {
                app,
                query: ObservationQuery::new(),
                packaging: Packaging::JsonArray,
            },
        )
        .unwrap()
        {
            ApiResponse::Package(s) => assert_eq!(s, "[]"),
            other => panic!("expected package, got {other:?}"),
        }
    }

    #[test]
    fn errors_propagate() {
        let server = server();
        let ghost = AppId::new("GHOST");
        assert!(handle(&server, ApiRequest::Stats { app: ghost.clone() }).is_ok()); // stats on unknown app reports zeros
        assert!(handle(
            &server,
            ApiRequest::Ingest {
                app: ghost,
                now: SimTime::EPOCH,
                max_messages: 1
            }
        )
        .is_err());
        assert!(handle(&server, ApiRequest::JobStatus { id: JobId(9) }).is_err());
        assert!(handle(
            &server,
            ApiRequest::Revoke {
                token: Token::from_raw("nope")
            }
        )
        .is_err());
    }
}
