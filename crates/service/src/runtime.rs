//! The threaded service wrapper: bounded ingestion, one solve loop,
//! lock-free query reads.
//!
//! [`ServiceRuntime::spawn`] moves a [`SchedulerCore`] onto a worker
//! thread behind a *bounded* request queue: a full queue fails fast with
//! [`ServiceError::Overloaded`] instead of buffering without limit, so a
//! stalled solve loop surfaces as backpressure rather than unbounded
//! memory growth. The worker drains the queue into the core's
//! micro-batcher and cuts batches by the batch policy; query traffic
//! reads the live decision through the core's [`SnapshotCell`] without
//! ever touching a lock the worker holds.
//!
//! Wall-clock enters exactly once: requests are stamped with seconds
//! since service start. Decisions remain a deterministic function of the
//! stamped stream (the ingestion log replays bit-for-bit); only *which*
//! stream the wall clock produced is machine-dependent.

use crate::batch::{RequestKind, ServiceRequest};
use crate::core::{BatchReport, SchedulerCore, ServiceSnapshot};
use crate::snapshot::SnapshotCell;
use mec_types::Error;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bound of the ingestion queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Why [`ServiceRuntime::submit`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded ingestion queue is full: explicit backpressure, and
    /// nothing was enqueued. The caller should retry later, shed the
    /// request, or run a larger capacity (see
    /// [`ServiceRuntime::spawn_with_capacity`]).
    Overloaded,
    /// The worker has stopped (a solver error or a panic) and accepts no
    /// more work.
    Stopped,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded => write!(f, "scheduler request queue is full"),
            ServiceError::Stopped => write!(f, "scheduler service is stopped"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A running scheduler service.
///
/// Submissions and snapshot reads are safe from any thread holding the
/// handle (clone [`reader`](Self::reader) handles for query threads);
/// [`shutdown`](Self::shutdown) drains, flushes and returns the core
/// with its metrics and logs.
pub struct ServiceRuntime {
    sender: mpsc::SyncSender<ServiceRequest>,
    cell: Arc<SnapshotCell<ServiceSnapshot>>,
    rejections: Arc<AtomicU64>,
    started: Instant,
    worker: JoinHandle<Result<SchedulerCore, Error>>,
}

/// A cheap cloneable read-only handle: lock-free snapshot loads only.
#[derive(Clone)]
pub struct SnapshotReader {
    cell: Arc<SnapshotCell<ServiceSnapshot>>,
}

impl SnapshotReader {
    /// The latest published decision. Never blocks.
    pub fn snapshot(&self) -> Arc<ServiceSnapshot> {
        self.cell.load()
    }
}

impl ServiceRuntime {
    /// Spawns the solve loop with the default queue bound.
    pub fn spawn(core: SchedulerCore) -> Self {
        Self::spawn_with_capacity(core, DEFAULT_QUEUE_CAPACITY)
    }

    /// Spawns the solve loop behind a queue of `capacity` requests.
    /// Streams every [`BatchReport`] to `reports` if provided (an
    /// unbounded channel, so a slow consumer never stalls the solve
    /// loop — it can only grow the channel).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn spawn_with_capacity(core: SchedulerCore, capacity: usize) -> Self {
        Self::spawn_inner(core, capacity, None)
    }

    /// As [`spawn_with_capacity`](Self::spawn_with_capacity), streaming
    /// batch reports into `reports`.
    pub fn spawn_streaming(
        core: SchedulerCore,
        capacity: usize,
        reports: mpsc::Sender<BatchReport>,
    ) -> Self {
        Self::spawn_inner(core, capacity, Some(reports))
    }

    fn spawn_inner(
        mut core: SchedulerCore,
        capacity: usize,
        reports: Option<mpsc::Sender<BatchReport>>,
    ) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let (sender, receiver) = mpsc::sync_channel::<ServiceRequest>(capacity);
        let cell = core.snapshot_cell();
        let rejections = Arc::new(AtomicU64::new(0));
        let started = Instant::now();
        // Poll interval: half the batch age, so age-triggered cuts land
        // within tolerance even when no request wakes the loop.
        let tick = Duration::from_secs_f64(
            (core.config().batch.max_age.as_secs() / 2.0).clamp(0.0005, 0.25),
        );
        let worker = std::thread::spawn(move || -> Result<SchedulerCore, Error> {
            loop {
                match receiver.recv_timeout(tick) {
                    Ok(request) => {
                        core.submit(request);
                        // Opportunistically drain whatever else arrived:
                        // everything pending lands in the batcher so the
                        // backlog signal sees the real queue depth.
                        while let Ok(more) = receiver.try_recv() {
                            core.submit(more);
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        let now = started.elapsed().as_secs_f64();
                        for report in core.flush(now)? {
                            if let Some(tx) = &reports {
                                let _ = tx.send(report);
                            }
                        }
                        return Ok(core);
                    }
                }
                let now = started.elapsed().as_secs_f64();
                while core.ready(now) {
                    if let Some(report) = core.close_batch(now)? {
                        if let Some(tx) = &reports {
                            let _ = tx.send(report);
                        }
                    }
                }
            }
        });
        Self {
            sender,
            cell,
            rejections,
            started,
            worker,
        }
    }

    /// Seconds since the service started (the runtime's time domain).
    pub fn now_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Submits a request stamped with the current service time.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the bounded queue is full
    /// (counted and merged into the core's metrics at shutdown), or
    /// [`ServiceError::Stopped`] when the worker is gone.
    pub fn submit(&self, kind: RequestKind) -> Result<(), ServiceError> {
        let request = ServiceRequest {
            kind,
            submitted_s: self.now_s(),
        };
        self.sender.try_send(request).map_err(|e| match e {
            mpsc::TrySendError::Full(_) => {
                self.rejections.fetch_add(1, Ordering::Relaxed);
                ServiceError::Overloaded
            }
            mpsc::TrySendError::Disconnected(_) => ServiceError::Stopped,
        })
    }

    /// The latest published decision. Never blocks, never touches the
    /// solve loop.
    pub fn snapshot(&self) -> Arc<ServiceSnapshot> {
        self.cell.load()
    }

    /// A cloneable read-only handle for query threads.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            cell: Arc::clone(&self.cell),
        }
    }

    /// Overload rejections counted so far.
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }

    /// Stops ingestion, drains every pending request and returns the
    /// core (with queue-rejection counts merged into its metrics).
    ///
    /// # Errors
    ///
    /// Propagates a solver error from the worker; a panicked worker
    /// surfaces as [`Error::UnsupportedScenario`].
    pub fn shutdown(self) -> Result<SchedulerCore, Error> {
        drop(self.sender);
        let mut core = self
            .worker
            .join()
            .map_err(|_| Error::UnsupportedScenario("service worker panicked".into()))??;
        core.metrics_mut().overload_rejections += self.rejections.load(Ordering::Relaxed);
        Ok(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServiceConfig;

    fn quick_core(seed: u64) -> SchedulerCore {
        SchedulerCore::new(ServiceConfig::quick(seed)).unwrap()
    }

    #[test]
    fn requests_flow_through_to_snapshots() {
        let runtime = ServiceRuntime::spawn(quick_core(1));
        for id in 0..5 {
            runtime.submit(RequestKind::Arrival { user: id }).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while runtime.snapshot().users.len() < 5 {
            assert!(Instant::now() < deadline, "service never decided");
            std::thread::sleep(Duration::from_millis(2));
        }
        let core = runtime.shutdown().unwrap();
        assert_eq!(core.snapshot().users.len(), 5);
        assert_eq!(core.metrics().arrivals, 5);
        assert_eq!(core.metrics().overload_rejections, 0);
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let runtime = ServiceRuntime::spawn_with_capacity(quick_core(2), 64);
        // Three client threads share the one handle.
        std::thread::scope(|scope| {
            for client in 0..3 {
                let runtime = &runtime;
                scope.spawn(move || {
                    for id in client * 4..client * 4 + 4 {
                        runtime.submit(RequestKind::Arrival { user: id }).unwrap();
                    }
                });
            }
        });
        let core = runtime.shutdown().unwrap();
        assert_eq!(core.snapshot().users.len(), 12, "flush served everything");
    }

    #[test]
    fn readers_run_while_the_service_solves() {
        let runtime = ServiceRuntime::spawn(quick_core(3));
        let reader = runtime.reader();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let observer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = reader.snapshot();
                    assert!(snap.version >= last);
                    last = snap.version;
                    reads += 1;
                }
                reads
            })
        };
        for id in 0..8 {
            runtime.submit(RequestKind::Arrival { user: id }).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let core = runtime.shutdown().unwrap();
        stop.store(true, Ordering::Relaxed);
        let reads = observer.join().unwrap();
        assert!(reads > 0, "reader must make progress during solves");
        assert!(core.metrics().batches > 0);
    }

    #[test]
    fn capacity_many_submissions_never_shed() {
        // The queue starts empty and holds `capacity` requests, so
        // `capacity` submissions fit whether or not the worker has started
        // draining.
        let capacity = 8;
        let runtime = ServiceRuntime::spawn_with_capacity(quick_core(5), capacity);
        for id in 0..capacity as u64 {
            runtime
                .submit(RequestKind::Arrival { user: id })
                .expect("capacity-many submissions never shed");
        }
        assert_eq!(runtime.rejections(), 0);
        let core = runtime.shutdown().unwrap();
        assert_eq!(core.snapshot().users.len(), capacity);
        assert_eq!(core.metrics().overload_rejections, 0);
    }

    #[test]
    fn a_burst_into_a_busy_worker_is_shed_and_counted() {
        // One request per batch, each a Full warm re-solve at full budget
        // over a populated core: while the worker solves, at most one
        // request can wait, so a burst must see explicit backpressure.
        let mut config = ServiceConfig::quick(6).with_threads(Some(1));
        config.batch.max_size = 1;
        let mut core = SchedulerCore::new(config).unwrap();
        for id in 0..30 {
            core.submit(ServiceRequest::arrival(id, 0.0));
        }
        core.flush(0.0).unwrap();
        let runtime = ServiceRuntime::spawn_with_capacity(core, 1);
        let (mut accepted, mut overloaded) = (Vec::new(), 0u64);
        for id in 100..164 {
            match runtime.submit(RequestKind::Arrival { user: id }) {
                Ok(()) => accepted.push(id),
                Err(ServiceError::Overloaded) => overloaded += 1,
                Err(ServiceError::Stopped) => panic!("the worker stopped"),
            }
        }
        assert!(overloaded > 0, "a burst of 64 into capacity 1 must shed");
        assert!(!accepted.is_empty(), "the first request is always taken");
        assert_eq!(runtime.rejections(), overloaded);
        let core = runtime.shutdown().unwrap();
        assert_eq!(core.metrics().overload_rejections, overloaded);
        let users = &core.snapshot().users;
        assert_eq!(users.len(), 30 + accepted.len());
        assert!(accepted.iter().all(|id| users.contains(id)));
    }

    #[test]
    fn streamed_reports_match_core_metrics() {
        let (tx, rx) = mpsc::channel();
        let runtime = ServiceRuntime::spawn_streaming(quick_core(4), 64, tx);
        for id in 0..6 {
            runtime.submit(RequestKind::Arrival { user: id }).unwrap();
        }
        let core = runtime.shutdown().unwrap();
        let streamed: Vec<BatchReport> = rx.try_iter().collect();
        assert_eq!(streamed.len() as u64, core.metrics().batches);
        assert_eq!(
            streamed.iter().map(|r| r.requests).sum::<usize>() as u64,
            core.metrics().requests
        );
    }
}
