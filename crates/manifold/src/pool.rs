//! Parked worker threads: the runtime half of perpetual task instances.
//!
//! The bundler keeps `{perpetual}` task instances alive between jobs; this
//! pool keeps their OS threads alive too. A thread whose process body has
//! returned parks on a private channel instead of exiting, and the next
//! [`activate`](crate::env::Environment::activate) hands it the new body
//! rather than paying `thread::spawn` again — on a warm fleet a job
//! creates zero threads. The thread parks before its process's
//! termination notice goes out, so an activation that follows the notice
//! always finds it; together with block-local `variable`s ending with
//! their block (`builtin::Variable`), this holds in practice:
//! `renovation/tests/engine_footprint.rs` serves 200 warm jobs and sees
//! the process's thread count unchanged from job 20 to job 200.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A process body and its last step (the termination notice). The thread
/// parks between the two, so a process observed terminated has already
/// handed its thread back: an activation that follows the notice reuses
/// the thread instead of racing its parking and spawning another.
struct Task {
    body: Job,
    finish: Job,
}

enum Msg {
    Run(Task),
    Exit,
}

#[derive(Default)]
pub(crate) struct ThreadPool {
    shared: Arc<Shared>,
}

#[derive(Default)]
struct Shared {
    idle: Mutex<Vec<Sender<Msg>>>,
    draining: AtomicBool,
    spawned: AtomicU64,
}

impl ThreadPool {
    /// Run `body` and then `finish` on a parked thread when one is
    /// available, else on a fresh thread that parks itself when `body`
    /// returns. Returns the new thread's handle, or `None` when a parked
    /// thread was reused (its handle is already tracked by the caller).
    pub(crate) fn run(&self, body: Job, finish: Job) -> Option<JoinHandle<()>> {
        let mut task = Task { body, finish };
        loop {
            let parked = self.shared.idle.lock().pop();
            match parked {
                Some(tx) => match tx.send(Msg::Run(task)) {
                    Ok(()) => return None,
                    // The thread is gone; take the task back and try the
                    // next parked one.
                    Err(e) => {
                        task = match e.0 {
                            Msg::Run(t) => t,
                            Msg::Exit => unreachable!("pool only sends Run here"),
                        }
                    }
                },
                None => return Some(self.spawn(task)),
            }
        }
    }

    fn spawn(&self, first: Task) -> JoinHandle<()> {
        let shared = self.shared.clone();
        let n = self.shared.spawned.fetch_add(1, Ordering::Relaxed);
        std::thread::Builder::new()
            .name(format!("mf-pool-{n}"))
            .spawn(move || {
                let mut task = first;
                loop {
                    (task.body)();
                    let (tx, rx) = channel();
                    let parked = {
                        // The flag is checked under the idle lock and set
                        // under the same lock in `drain`, so a thread can
                        // never park after the drain swept the list.
                        let mut idle = shared.idle.lock();
                        let draining = shared.draining.load(Ordering::Acquire);
                        if !draining {
                            idle.push(tx);
                        }
                        !draining
                    };
                    // Parked (or leaving) before the notice goes out; a
                    // task sent meanwhile waits in the channel.
                    (task.finish)();
                    if !parked {
                        return;
                    }
                    match rx.recv() {
                        Ok(Msg::Run(next)) => task = next,
                        Ok(Msg::Exit) | Err(_) => return,
                    }
                }
            })
            .expect("thread spawn")
    }

    /// Tell every parked thread to exit and stop future parking; busy
    /// threads exit when their current job returns. Must run before the
    /// environment joins its thread handles — a parked thread would block
    /// that join forever.
    pub(crate) fn drain(&self) {
        let parked = {
            let mut idle = self.shared.idle.lock();
            self.shared.draining.store(true, Ordering::Release);
            std::mem::take(&mut *idle)
        };
        for tx in parked {
            let _ = tx.send(Msg::Exit);
        }
    }

    /// Number of threads currently parked and reusable.
    pub(crate) fn parked(&self) -> usize {
        self.shared.idle.lock().len()
    }
}
