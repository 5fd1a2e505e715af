//! Embedding the C-RAN scheduler service: several operator consoles
//! (threads) share one `ServiceRuntime` and submit arrivals and
//! departures concurrently, while a dashboard thread polls the published
//! decision through a `SnapshotReader` without taking a lock. Shutdown
//! drains the queue and prints the service metrics.
//!
//! ```text
//! cargo run --release --example service_runtime
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use tsajs_mec::service::{RequestKind, SchedulerCore, ServiceConfig, ServiceError, ServiceRuntime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = ServiceConfig::quick(7).with_threads(Some(1));
    let runtime = ServiceRuntime::spawn(SchedulerCore::new(config)?);
    let reader = runtime.reader();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // The dashboard: lock-free reads while the solve loop publishes.
        let dashboard = scope.spawn(|| {
            let (mut reads, mut last_version) = (0u64, 0u64);
            while !done.load(Ordering::Relaxed) {
                let snapshot = reader.snapshot();
                if snapshot.version != last_version {
                    last_version = snapshot.version;
                    println!(
                        "snapshot v{:<3} {:>2} users, {:>2} offloaded, J = {:.3} ({})",
                        snapshot.version,
                        snapshot.users.len(),
                        snapshot.assignment.num_offloaded(),
                        snapshot.utility,
                        snapshot.tier.as_str(),
                    );
                }
                reads += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            reads
        });

        // Three consoles admit users from their own id ranges and send
        // every third one away again.
        let consoles: Vec<_> = (0..3u64)
            .map(|console| {
                let runtime = &runtime;
                scope.spawn(move || {
                    let mut shed = 0;
                    for k in 0..8 {
                        let user = console * 100 + k;
                        let mut requests = vec![RequestKind::Arrival { user }];
                        if k % 3 == 2 {
                            requests.push(RequestKind::Departure { user: user - 1 });
                        }
                        for request in requests {
                            match runtime.submit(request) {
                                Ok(()) => {}
                                Err(ServiceError::Overloaded) => shed += 1,
                                Err(ServiceError::Stopped) => return shed,
                            }
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    shed
                })
            })
            .collect();
        for (console, handle) in consoles.into_iter().enumerate() {
            let shed = handle.join().expect("console thread");
            println!("console {console} done ({shed} requests shed by backpressure)");
        }
        // Give the solve loop one batch age to publish before stopping.
        std::thread::sleep(Duration::from_millis(100));
        done.store(true, Ordering::Relaxed);
        let reads = dashboard.join().expect("dashboard thread");
        println!("dashboard made {reads} lock-free reads");
    });

    let core = runtime.shutdown()?;
    let metrics = core.metrics();
    println!(
        "service drained: {} users, {} batches, {} requests, p99 decision latency {:.2} ms, \
         {} overload rejections",
        core.snapshot().users.len(),
        metrics.batches,
        metrics.requests,
        metrics.decision_latency.quantile_s(0.99) * 1e3,
        metrics.overload_rejections,
    );
    Ok(())
}
