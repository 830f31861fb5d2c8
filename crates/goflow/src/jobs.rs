//! Background jobs (Figure 2: "Background jobs").
//!
//! Application managers submit named scripts that "perform various
//! operations on the crowd-sensed data stored on behalf of the
//! application". Here a script is a closure over the app's collection; the
//! registry tracks submission and completion status.

use crate::telemetry::telemetry;
use crate::GoFlowError;
use mps_docstore::CollectionHandle;
use mps_telemetry::SpanTimer;
use parking_lot::Mutex;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Submitted, not yet run.
    Pending,
    /// Ran to completion; carries the script's JSON result.
    Done(Value),
    /// The script reported an error message.
    Failed(String),
}

/// A job script: runs over the application's observation collection
/// (via a [`CollectionHandle`], so the collection may live in-process or
/// behind a socket) and returns a JSON result or an error message.
pub type JobScript = Arc<dyn Fn(&CollectionHandle) -> Result<Value, String> + Send + Sync>;

struct Job {
    name: String,
    script: JobScript,
    status: JobStatus,
}

impl fmt::Debug for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("status", &self.status)
            .finish()
    }
}

/// Registry of submitted background jobs.
#[derive(Debug, Default)]
pub struct JobRegistry {
    jobs: Mutex<BTreeMap<u64, Job>>,
    next_id: Mutex<u64>,
}

impl JobRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits a named script; it stays [`JobStatus::Pending`] until
    /// [`JobRegistry::run_pending`] executes it.
    pub fn submit(
        &self,
        name: impl Into<String>,
        script: impl Fn(&CollectionHandle) -> Result<Value, String> + Send + Sync + 'static,
    ) -> JobId {
        let id = {
            let mut next = self.next_id.lock();
            let id = *next;
            *next += 1;
            id
        };
        self.jobs.lock().insert(
            id,
            Job {
                name: name.into(),
                script: Arc::new(script),
                status: JobStatus::Pending,
            },
        );
        JobId(id)
    }

    /// Status of a job.
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::JobNotFound`] for an unknown id.
    pub fn status(&self, id: JobId) -> Result<JobStatus, GoFlowError> {
        self.jobs
            .lock()
            .get(&id.0)
            .map(|j| j.status.clone())
            .ok_or(GoFlowError::JobNotFound(id.0))
    }

    /// Name of a job.
    ///
    /// # Errors
    ///
    /// Returns [`GoFlowError::JobNotFound`] for an unknown id.
    pub fn name(&self, id: JobId) -> Result<String, GoFlowError> {
        self.jobs
            .lock()
            .get(&id.0)
            .map(|j| j.name.clone())
            .ok_or(GoFlowError::JobNotFound(id.0))
    }

    /// Runs every pending job against `collection`; returns how many ran.
    pub fn run_pending(&self, collection: &CollectionHandle) -> usize {
        // Collect pending scripts first so user scripts run outside the
        // registry lock (they may be slow).
        let pending: Vec<(u64, JobScript)> = {
            let jobs = self.jobs.lock();
            jobs.iter()
                .filter(|(_, j)| j.status == JobStatus::Pending)
                .map(|(id, j)| (*id, Arc::clone(&j.script)))
                .collect()
        };
        let n = pending.len();
        let metrics = telemetry();
        for (id, script) in pending {
            let timer = SpanTimer::start(&metrics.jobs_run_seconds);
            let status = match script(collection) {
                Ok(value) => {
                    metrics.jobs_completed.inc();
                    JobStatus::Done(value)
                }
                Err(msg) => {
                    metrics.jobs_failed.inc();
                    JobStatus::Failed(msg)
                }
            };
            timer.stop();
            if let Some(job) = self.jobs.lock().get_mut(&id) {
                job.status = status;
            }
        }
        n
    }

    /// Number of jobs in each state: `(pending, done, failed)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let jobs = self.jobs.lock();
        let mut counts = (0, 0, 0);
        for job in jobs.values() {
            match job.status {
                JobStatus::Pending => counts.0 += 1,
                JobStatus::Done(_) => counts.1 += 1,
                JobStatus::Failed(_) => counts.2 += 1,
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_docstore::Collection;
    use serde_json::json;

    fn handle() -> CollectionHandle {
        CollectionHandle::from(Collection::new())
    }

    #[test]
    fn submit_run_status() {
        let registry = JobRegistry::new();
        let collection = handle();
        collection.insert_one(json!({"spl": 50.0})).unwrap();
        collection.insert_one(json!({"spl": 70.0})).unwrap();

        let id = registry.submit("count", |c: &CollectionHandle| Ok(json!({"n": c.len()})));
        assert_eq!(registry.status(id).unwrap(), JobStatus::Pending);
        assert_eq!(registry.name(id).unwrap(), "count");

        assert_eq!(registry.run_pending(&collection), 1);
        assert_eq!(
            registry.status(id).unwrap(),
            JobStatus::Done(json!({"n": 2}))
        );
        // Done jobs do not re-run.
        assert_eq!(registry.run_pending(&collection), 0);
    }

    #[test]
    fn failed_jobs_capture_message() {
        let registry = JobRegistry::new();
        let id = registry.submit("boom", |_: &CollectionHandle| Err("exploded".into()));
        registry.run_pending(&handle());
        assert_eq!(
            registry.status(id).unwrap(),
            JobStatus::Failed("exploded".into())
        );
    }

    #[test]
    fn unknown_job_errors() {
        let registry = JobRegistry::new();
        assert!(matches!(
            registry.status(JobId(99)),
            Err(GoFlowError::JobNotFound(99))
        ));
        assert!(registry.name(JobId(99)).is_err());
    }

    #[test]
    fn counts_track_states() {
        let registry = JobRegistry::new();
        registry.submit("a", |_: &CollectionHandle| Ok(json!(1)));
        registry.submit("b", |_: &CollectionHandle| Err("no".into()));
        registry.submit("c", |_: &CollectionHandle| Ok(json!(2)));
        assert_eq!(registry.counts(), (3, 0, 0));
        registry.run_pending(&handle());
        assert_eq!(registry.counts(), (0, 2, 1));
    }

    #[test]
    fn job_ids_are_sequential() {
        let registry = JobRegistry::new();
        let a = registry.submit("a", |_: &CollectionHandle| Ok(Value::Null));
        let b = registry.submit("b", |_: &CollectionHandle| Ok(Value::Null));
        assert!(a < b);
        assert_eq!(a.to_string(), "job-0");
    }

    #[test]
    fn scripts_can_mutate_collection() {
        let registry = JobRegistry::new();
        let collection = handle();
        collection.insert_one(json!({"stale": true})).unwrap();
        registry.submit("cleanup", |c: &CollectionHandle| {
            let n = c
                .delete_many(&mps_docstore::Filter::eq("stale", true))
                .map_err(|e| e.to_string())?;
            Ok(json!({"deleted": n}))
        });
        registry.run_pending(&collection);
        assert!(collection.is_empty());
    }
}
