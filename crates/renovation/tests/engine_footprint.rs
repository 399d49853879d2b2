//! Per-job footprint of a perpetual fleet: a warm job creates no OS
//! thread, and its trace slice is exactly its own.
//!
//! Every job's `Create_Worker_Pool` block declares the paper's `now` and
//! `t` counters as `variable` processes. They must end with the block; a
//! fleet that kept them would strand two threads per job and grow without
//! bound. The check counts the threads of this whole test process, so the
//! file holds a single test: a sibling test running concurrently would add
//! threads of its own.
//!
//! A fleet keeps one thread per process it ever ran *at once*, parked when
//! idle. How many of a small job's workers overlap depends on scheduling,
//! so a fleet warmed only by small jobs may still meet a new peak late and
//! add a thread. A larger problem whose workers run together therefore
//! goes first, warming the pool past anything a small job can overlap;
//! from then on any new thread is a leak.

use std::sync::Arc;

use protocol::PaperFaithful;
use renovation::{AppConfig, Engine, EngineOpts, RunMode};
use solver::sequential::SequentialApp;

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

const JOBS: usize = 200;
const WARM_FROM: usize = 20;
/// The warm-up problem (root, level): 15 grids whose subsolves outlast
/// their dispatch (`PaperFaithful` has no in-flight window), so 8 to 15
/// workers overlap where a small job has 5 grids in all.
const WARM_UP: (u32, u32) = (2, 7);

#[test]
fn warm_jobs_create_no_threads_and_keep_their_trace_slice() {
    let mut engine = Engine::threads(
        RunMode::Parallel,
        Arc::new(PaperFaithful),
        EngineOpts::default(),
    )
    .unwrap();
    let warm_up = SequentialApp::new(WARM_UP.0, WARM_UP.1, 1e-3);
    let report = engine
        .submit(AppConfig::new(warm_up))
        .expect("engine admission")
        .wait()
        .unwrap();
    assert_eq!(report.result.combined, warm_up.run().unwrap().combined);

    let app = SequentialApp::new(1, 2, 1e-3);
    let oracle = app.run().unwrap();
    let mut threads_warm = 0;
    let mut last_master = None;
    for job in 1..=JOBS {
        let report = engine
            .submit(AppConfig::new(app))
            .expect("engine admission")
            .wait()
            .unwrap();
        assert_eq!(report.result.combined, oracle.combined, "job {job}");

        // The job's slice opens with its own master's Welcome and closes
        // with its Bye: nothing of the previous job and nothing cut off.
        let first = report.records.first().expect("job has trace records");
        let last = report.records.last().unwrap();
        assert_eq!(first.manifold_name.as_str(), "Master(port in)", "job {job}");
        assert_eq!(first.message, "Welcome", "job {job}");
        assert_eq!(last.manifold_name.as_str(), "Master(port in)", "job {job}");
        assert_eq!(last.message, "Bye", "job {job}");
        let master = first.proc_uid;
        assert!(
            report
                .records
                .iter()
                .filter(|r| r.manifold_name.as_str() == "Master(port in)")
                .all(|r| r.proc_uid == master),
            "job {job} carries another job's master records"
        );
        assert_ne!(Some(master), last_master, "job {job} reused a master");
        last_master = Some(master);

        if job == WARM_FROM {
            threads_warm = os_threads();
        }
    }
    let threads_end = os_threads();
    assert_eq!(
        threads_end,
        threads_warm,
        "jobs {WARM_FROM}..{JOBS} created {} OS threads",
        threads_end as isize - threads_warm as isize
    );
    assert_eq!(engine.shutdown().jobs_served, JOBS + 1);
}
