//! # mec-controller
//!
//! An embeddable, C-RAN-style scheduling service.
//!
//! The paper's architecture (§I) assumes "all BSs connect to a unified
//! Baseband Unit (BBU)" whose "centralized access to system state enhances
//! coordination and resource management" — i.e. one logical controller
//! runs the scheduler for the whole network. [`SchedulerService`] is that
//! component: a worker thread that accepts scheduling requests over a
//! channel, solves them with a configurable scheme, and returns tagged
//! responses. Clients are cheap cloneable handles; shutdown is graceful
//! and drains in-flight work.
//!
//! ## Example
//!
//! ```
//! use mec_controller::{SchedulerService, SchemeChoice};
//! use mec_workloads::{ExperimentParams, ScenarioGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = SchedulerService::spawn();
//! let scenario = ScenarioGenerator::new(ExperimentParams::paper_default().with_users(6))
//!     .generate(1)?;
//! let response = service.schedule(scenario, SchemeChoice::Greedy, 1)?;
//! assert!(response.solution.utility.is_finite());
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mec_baselines::{GreedySolver, HJtoraSolver, LocalSearchSolver};
use mec_system::{Scenario, Solution, Solver};
use mec_types::Error;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use tsajs::{TsajsSolver, TtsaConfig};

/// Default bound of the request queue (see
/// [`SchedulerService::spawn_with_capacity`]).
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Which scheme the controller should run for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeChoice {
    /// TSAJS with the paper's defaults (seeded per request).
    Tsajs,
    /// TSAJS with a truncated schedule for latency-bound control loops.
    TsajsQuick,
    /// The hJTORA-style heuristic.
    HJtora,
    /// Greedy admission.
    Greedy,
    /// First-improvement local search.
    LocalSearch,
}

impl SchemeChoice {
    fn build(self, seed: u64) -> Box<dyn Solver> {
        match self {
            SchemeChoice::Tsajs => Box::new(TsajsSolver::new(
                TtsaConfig::paper_default().with_seed(seed),
            )),
            SchemeChoice::TsajsQuick => Box::new(TsajsSolver::new(
                TtsaConfig::paper_default()
                    .with_min_temperature(1e-3)
                    .with_seed(seed),
            )),
            SchemeChoice::HJtora => Box::new(HJtoraSolver::new()),
            SchemeChoice::Greedy => Box::new(GreedySolver::new()),
            SchemeChoice::LocalSearch => Box::new(LocalSearchSolver::with_seed(seed)),
        }
    }
}

/// A scheduling request (internal form).
struct Request {
    id: u64,
    scenario: Scenario,
    scheme: SchemeChoice,
    seed: u64,
    reply: mpsc::Sender<SchedulerResponse>,
}

/// Worker mailbox messages. The request is boxed so the shutdown marker
/// does not pay for the scenario-sized variant.
enum Message {
    Schedule(Box<Request>),
    Shutdown,
}

/// A tagged scheduling result.
#[derive(Debug)]
pub struct SchedulerResponse {
    /// The request id this answers.
    pub id: u64,
    /// The solver's result.
    pub solution: Solution,
    /// The scheme that produced it.
    pub scheme: SchemeChoice,
}

/// Errors surfaced by the service API.
#[derive(Debug)]
pub enum ServiceError {
    /// The worker has shut down (or panicked) and accepts no more work.
    Stopped,
    /// The bounded request queue is full — explicit backpressure. The
    /// caller should retry later, shed the request, or run a larger
    /// capacity (see [`SchedulerService::spawn_with_capacity`]).
    Overloaded,
    /// The solver rejected the scenario (or the service stopped before
    /// answering).
    Solver(Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Stopped => write!(f, "scheduler service is stopped"),
            ServiceError::Overloaded => write!(f, "scheduler request queue is full"),
            ServiceError::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The C-RAN controller: one worker thread draining a *bounded* request
/// queue.
///
/// Handles are cheap to clone and safe to use from many threads; requests
/// are served in FIFO order. The queue holds at most `capacity` pending
/// messages — when it is full, [`submit`](Self::submit) fails fast with
/// [`ServiceError::Overloaded`] instead of buffering without limit, so a
/// stalled worker surfaces as backpressure rather than unbounded memory
/// growth. Call [`shutdown`](Self::shutdown) (or drop the last handle) to
/// stop the worker; requests enqueued before the shutdown marker are
/// still served.
#[derive(Clone)]
pub struct SchedulerService {
    sender: mpsc::SyncSender<Message>,
    worker: Arc<Mutex<Option<JoinHandle<()>>>>,
    next_id: Arc<Mutex<u64>>,
}

impl SchedulerService {
    /// Starts the worker thread with the default queue bound
    /// ([`DEFAULT_QUEUE_CAPACITY`]).
    pub fn spawn() -> Self {
        Self::spawn_with_capacity(DEFAULT_QUEUE_CAPACITY)
    }

    /// Starts the worker thread with an explicit request-queue bound.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a rendezvous queue would make every
    /// non-blocking submit fail).
    pub fn spawn_with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        let (sender, receiver) = mpsc::sync_channel::<Message>(capacity);
        let worker = std::thread::spawn(move || {
            while let Ok(message) = receiver.recv() {
                let request = match message {
                    Message::Schedule(request) => *request,
                    Message::Shutdown => break,
                };
                let mut solver = request.scheme.build(request.seed);
                if let Ok(solution) = solver.solve(&request.scenario) {
                    // A dropped client is fine; just discard the reply.
                    let _ = request.reply.send(SchedulerResponse {
                        id: request.id,
                        solution,
                        scheme: request.scheme,
                    });
                }
                // On solver error the reply sender drops, which the waiting
                // client observes as a disconnected channel.
            }
        });
        Self {
            sender,
            worker: Arc::new(Mutex::new(Some(worker))),
            next_id: Arc::new(Mutex::new(0)),
        }
    }

    fn allocate_id(&self) -> u64 {
        let mut guard = self.next_id.lock().expect("id counter never poisoned");
        *guard += 1;
        *guard
    }

    /// Submits a request and returns a receiver for its response —
    /// non-blocking; several requests can be in flight.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Overloaded`] if the bounded queue is full
    /// (backpressure — nothing was enqueued), or
    /// [`ServiceError::Stopped`] if the worker is gone.
    pub fn submit(
        &self,
        scenario: Scenario,
        scheme: SchemeChoice,
        seed: u64,
    ) -> Result<(u64, mpsc::Receiver<SchedulerResponse>), ServiceError> {
        let (reply, receiver) = mpsc::channel();
        let id = self.allocate_id();
        self.sender
            .try_send(Message::Schedule(Box::new(Request {
                id,
                scenario,
                scheme,
                seed,
                reply,
            })))
            .map_err(|e| match e {
                mpsc::TrySendError::Full(_) => ServiceError::Overloaded,
                mpsc::TrySendError::Disconnected(_) => ServiceError::Stopped,
            })?;
        Ok((id, receiver))
    }

    /// Submits a request and blocks for its response.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Stopped`] if the worker is gone,
    /// [`ServiceError::Overloaded`] if the queue is full, or
    /// [`ServiceError::Solver`] if the solver rejected the scenario (or
    /// the service shut down before answering).
    pub fn schedule(
        &self,
        scenario: Scenario,
        scheme: SchemeChoice,
        seed: u64,
    ) -> Result<SchedulerResponse, ServiceError> {
        let (_, receiver) = self.submit(scenario, scheme, seed)?;
        receiver.recv().map_err(|_| {
            ServiceError::Solver(Error::UnsupportedScenario(
                "the request was not answered".into(),
            ))
        })
    }

    /// Stops the worker after it drains everything enqueued so far, and
    /// joins it. Idempotent; all clones of the handle become `Stopped`
    /// for new submissions once the worker exits.
    pub fn shutdown(&self) {
        let _ = self.sender.send(Message::Shutdown);
        if let Some(handle) = self
            .worker
            .lock()
            .expect("worker mutex never poisoned")
            .take()
        {
            let _ = handle.join();
        }
    }
}

impl Drop for SchedulerService {
    fn drop(&mut self) {
        // The last handle stops and joins the worker.
        if Arc::strong_count(&self.worker) == 1 {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_workloads::{ExperimentParams, ScenarioGenerator};

    fn scenario(seed: u64) -> Scenario {
        ScenarioGenerator::new(
            ExperimentParams::paper_default()
                .with_users(6)
                .with_servers(3),
        )
        .generate(seed)
        .unwrap()
    }

    #[test]
    fn schedules_one_request() {
        let service = SchedulerService::spawn();
        let response = service
            .schedule(scenario(1), SchemeChoice::Greedy, 1)
            .unwrap();
        assert_eq!(response.scheme, SchemeChoice::Greedy);
        assert!(response.solution.utility.is_finite());
    }

    #[test]
    fn pipelines_many_requests_in_order() {
        let service = SchedulerService::spawn();
        let mut receivers = Vec::new();
        for seed in 0..6 {
            let (id, rx) = service
                .submit(scenario(seed), SchemeChoice::Greedy, seed)
                .unwrap();
            receivers.push((id, rx));
        }
        for (id, rx) in receivers {
            let response = rx.recv().unwrap();
            assert_eq!(response.id, id);
        }
    }

    #[test]
    fn many_client_threads_share_one_service() {
        let service = SchedulerService::spawn();
        std::thread::scope(|scope| {
            for seed in 0..4u64 {
                let handle = service.clone();
                scope.spawn(move || {
                    let response = handle
                        .schedule(scenario(seed), SchemeChoice::TsajsQuick, seed)
                        .unwrap();
                    assert!(response.solution.utility >= 0.0);
                });
            }
        });
    }

    #[test]
    fn responses_match_direct_solver_runs() {
        let service = SchedulerService::spawn();
        let sc = scenario(7);
        let via_service = service
            .schedule(sc.clone(), SchemeChoice::Greedy, 7)
            .unwrap();
        let direct = GreedySolver::new().solve(&sc).unwrap();
        assert_eq!(via_service.solution.utility, direct.utility);
        assert_eq!(via_service.solution.assignment, direct.assignment);
    }

    #[test]
    fn shutdown_serves_prior_requests_then_rejects_new_ones() {
        let service = SchedulerService::spawn();
        let (_, rx) = service
            .submit(scenario(3), SchemeChoice::Greedy, 3)
            .unwrap();
        service.shutdown();
        // The request enqueued before the shutdown marker is answered.
        let response = rx.recv().unwrap();
        assert!(response.solution.utility.is_finite());
        // New submissions fail.
        assert!(matches!(
            service.submit(scenario(4), SchemeChoice::Greedy, 4),
            Err(ServiceError::Stopped)
        ));
        // Idempotent.
        service.shutdown();
    }

    #[test]
    fn dropping_all_handles_stops_the_worker() {
        let service = SchedulerService::spawn();
        let clone = service.clone();
        drop(service);
        // The clone still works.
        let response = clone
            .schedule(scenario(5), SchemeChoice::Greedy, 5)
            .unwrap();
        assert!(response.solution.utility.is_finite());
        drop(clone); // joins the worker without hanging the test
    }

    #[test]
    fn saturating_the_bounded_queue_rejects_with_overloaded() {
        // Capacity 1: while the worker grinds a slow anneal, at most one
        // request can wait; a burst must observe explicit backpressure.
        let service = SchedulerService::spawn_with_capacity(1);
        let slow = ScenarioGenerator::new(
            ExperimentParams::paper_default()
                .with_users(60)
                .with_servers(7),
        )
        .generate(11)
        .unwrap();
        let mut accepted = Vec::new();
        let mut overloaded = 0;
        for seed in 0..10u64 {
            match service.submit(slow.clone(), SchemeChoice::TsajsQuick, seed) {
                Ok((id, rx)) => accepted.push((id, rx)),
                Err(ServiceError::Overloaded) => overloaded += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(overloaded > 0, "a burst of 10 into capacity 1 must shed");
        assert!(!accepted.is_empty(), "the first request is always taken");
        // Accepted requests are still answered; nothing enqueued was lost.
        for (id, rx) in accepted {
            let response = rx.recv().unwrap();
            assert_eq!(response.id, id);
            assert!(response.solution.utility.is_finite());
        }
        service.shutdown();
        // After shutdown the failure mode flips to Stopped, not Overloaded.
        assert!(matches!(
            service.submit(scenario(0), SchemeChoice::Greedy, 0),
            Err(ServiceError::Stopped)
        ));
    }

    #[test]
    fn filling_the_bounded_queue_is_deterministic_and_fifo() {
        // Deterministic half of the backpressure contract: submitting
        // exactly `capacity` requests can never shed — the queue has the
        // room whether or not the worker has started draining — and the
        // accepted requests are served strictly in submission order.
        // (The racy half — a burst larger than the queue observes
        // `Overloaded` while the worker grinds — is pinned by
        // `saturating_the_bounded_queue_rejects_with_overloaded`; the
        // degrade-instead-of-reject ladder built on top of this error is
        // pinned in mec-service's `tests/service.rs`.)
        let capacity = 4;
        let service = SchedulerService::spawn_with_capacity(capacity);
        for round in 0..2u64 {
            let mut pending = Vec::new();
            for i in 0..capacity as u64 {
                let seed = round * capacity as u64 + i;
                let (id, rx) = service
                    .submit(scenario(seed), SchemeChoice::Greedy, seed)
                    .expect("capacity-many submissions never shed");
                pending.push((id, rx));
            }
            // Ids are allocated in submission order…
            for pair in pending.windows(2) {
                assert!(pair[0].0 < pair[1].0);
            }
            // …and every accepted request is answered with its own id
            // (FIFO: draining in submission order never deadlocks).
            for (id, rx) in pending {
                let response = rx.recv().unwrap();
                assert_eq!(response.id, id);
                assert!(response.solution.utility.is_finite());
            }
        }
        service.shutdown();
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let service = SchedulerService::spawn();
        let (a, _rx_a) = service
            .submit(scenario(0), SchemeChoice::Greedy, 0)
            .unwrap();
        let (b, _rx_b) = service
            .submit(scenario(1), SchemeChoice::Greedy, 1)
            .unwrap();
        assert!(b > a);
    }
}
