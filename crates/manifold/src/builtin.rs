//! Predefined processes from the MANIFOLD built-in library.
//!
//! The paper's coordinator uses two of them:
//!
//! * `variable` — a process holding a single value; the paper's `now` and
//!   `t` counters are instances of it ("MANIFOLD obviously only knows
//!   processes; there are no data structures in MANIFOLD, not even the
//!   simplest kind, a variable").
//! * `void` — a process that never terminates; `terminated(void)` (the
//!   `IDLE` macro) therefore hangs a state until an event preempts it.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::coord::Coord;
use crate::error::MfResult;
use crate::process::{ProcessCtx, ProcessRef};
use crate::unit::Unit;

/// A handle to a `variable` process instance: every unit written to the
/// process's `input` port becomes its current value, which the owner may
/// read back at any time (and which the process echoes to its `output` port
/// for downstream consumers).
///
/// The paper declares `now` and `t` local to `Create_Worker_Pool`'s block,
/// so the process lives exactly as long as the block: clones share one
/// instance, and dropping the last clone kills the process and returns
/// once it has terminated, its thread parked for reuse. A perpetual fleet
/// therefore retains nothing per pool — no thread and, after
/// [`Environment::reap`](crate::env::Environment::reap), no process core.
#[derive(Clone)]
pub struct Variable(Arc<VarInner>);

struct VarInner {
    process: ProcessRef,
    cell: Arc<Mutex<Unit>>,
}

impl Drop for VarInner {
    fn drop(&mut self) {
        // The body is a kill-responsive read loop, so the wait is one
        // wake-up. Waiting lets the next block's `variable`s reuse the
        // thread (it parks before the termination notice) instead of
        // racing its parking and spawning another. The bound only guards
        // against a runtime that no longer runs the body at all.
        let core = self.process.core();
        core.kill();
        let _ = core.wait_terminated(Duration::from_secs(5));
    }
}

impl Variable {
    /// Create and activate a `variable` process initialized to `initial`
    /// (the paper's `variable(0)`).
    pub fn spawn(coord: &Coord, name: &str, initial: Unit) -> MfResult<Variable> {
        let cell = Arc::new(Mutex::new(initial));
        let cell2 = cell.clone();
        let process = coord.create_atomic(format!("variable({name})"), move |ctx: ProcessCtx| {
            loop {
                let u = ctx.read("input")?;
                *cell2.lock() = u.clone();
                // Echo for any connected consumer; never block on it.
                let _ = ctx.core().port("output").try_write(u);
            }
        });
        coord.activate(&process)?;
        Ok(Variable(Arc::new(VarInner { process, cell })))
    }

    /// The underlying process (to connect streams to/from it). The
    /// reference outlives the handle, but the process does not: once the
    /// last [`Variable`] clone is dropped it is killed.
    pub fn process(&self) -> &ProcessRef {
        &self.0.process
    }

    /// Current value.
    pub fn get(&self) -> Unit {
        self.0.cell.lock().clone()
    }

    /// Convenience: current value as integer (0 if not an Int).
    pub fn get_int(&self) -> i64 {
        self.get().as_int().unwrap_or(0)
    }

    /// Set the value directly (coordinator-side assignment `now = now + 1`).
    pub fn set(&self, u: Unit) {
        *self.0.cell.lock() = u;
    }

    /// Increment an integer variable by `d` and return the new value.
    pub fn add(&self, d: i64) -> i64 {
        let mut cell = self.0.cell.lock();
        let v = cell.as_int().unwrap_or(0) + d;
        *cell = Unit::int(v);
        v
    }
}

/// Create and activate the predefined `void` process: it blocks forever (on
/// an event that never comes) and only goes away when killed. Waiting for
/// its termination is the `IDLE` idiom.
pub fn void(coord: &Coord) -> MfResult<ProcessRef> {
    let p = coord.create_atomic("void", |ctx: ProcessCtx| {
        // Wait on an empty pattern list: matches nothing, returns only on
        // kill.
        ctx.wait_event(&[])?;
        Ok(())
    });
    coord.activate(&p)?;
    Ok(p)
}

/// Create and activate a printer process: every unit read from `input` is
/// emitted as a §6-format trace message (prefixed with `label`).
pub fn printer(coord: &Coord, label: &str) -> MfResult<ProcessRef> {
    let label = label.to_string();
    let p = coord.create_atomic("printer", move |ctx: ProcessCtx| loop {
        let u = ctx.read("input")?;
        crate::mes!(ctx, "{label}: {u:?}");
    });
    coord.activate(&p)?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Environment;
    use crate::process::LifeState;
    use crate::stream::StreamType;

    #[test]
    fn variable_counts_like_now_and_t() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let now = Variable::spawn(coord, "now", Unit::int(0))?;
            let t = Variable::spawn(coord, "t", Unit::int(0))?;
            assert_eq!(now.add(1), 1);
            assert_eq!(now.add(1), 2);
            assert_eq!(t.add(1), 1);
            assert!(t.get_int() < now.get_int());
            Ok(())
        })
        .unwrap();
        env.shutdown();
    }

    #[test]
    fn variable_accepts_units_from_streams() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let v = Variable::spawn(coord, "v", Unit::int(0))?;
            let mut st = coord.state();
            st.send(Unit::real(3.5), v.process(), "input")?;
            drop(st);
            // Delivery is asynchronous.
            for _ in 0..100 {
                if v.get().as_real() == Some(3.5) {
                    return Ok(());
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            panic!("variable never updated");
        })
        .unwrap();
        env.shutdown();
    }

    #[test]
    fn last_variable_clone_dropped_kills_the_process() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let v = Variable::spawn(coord, "v", Unit::int(0))?;
            let p = v.process().clone();
            let clone = v.clone();
            drop(v);
            // A live clone keeps the shared instance running.
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(p.life_state(), LifeState::Active);
            assert_eq!(clone.add(1), 1);
            // The last drop returns once the process has terminated.
            drop(clone);
            assert_eq!(p.life_state(), LifeState::Terminated);
            assert!(p.core().failure().is_none(), "a kill is not a failure");
            Ok(())
        })
        .unwrap();
        env.shutdown();
    }

    #[test]
    fn block_local_variables_end_with_their_block_under_both_executors() {
        let src = "manner Main() {\n    auto process n is variable(0).\n    begin: n = n + 1.\n}\n";
        let mc = crate::lang::Mc::from_source(src).unwrap();
        for kind in crate::lang::CoordExec::ALL {
            let env = Environment::new();
            let parked_before = env.parked_threads();
            env.run_manner(&mc, kind, "vars.m", "Main", |_| Ok(Vec::new()))
                .unwrap();
            // The block is gone, and so is `variable(n)`: the root
            // coordinator terminated with `run_manner`, so a reap leaves
            // the registry empty, and the variable's thread is parked.
            env.reap();
            assert_eq!(
                env.live_processes(),
                0,
                "{kind:?}: variable(n) outlived its block"
            );
            assert!(
                env.parked_threads() > parked_before,
                "{kind:?}: no thread parked"
            );
            env.shutdown();
        }
    }

    #[test]
    fn void_never_terminates_until_shutdown() {
        let env = Environment::new();
        let v = env.run_coordinator("Main", |coord| void(coord)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(v.life_state(), LifeState::Active);
        env.shutdown();
        assert_eq!(v.life_state(), LifeState::Terminated);
    }

    #[test]
    fn printer_traces_units() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let p = printer(coord, "seen")?;
            let mut st = coord.state();
            st.send(Unit::int(9), &p, "input")?;
            drop(st);
            for _ in 0..100 {
                if !env.trace().is_empty() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(())
        })
        .unwrap();
        let recs = env.trace().snapshot();
        assert!(recs.iter().any(|r| r.message.contains("seen")));
        env.shutdown();
    }

    #[test]
    fn variable_echoes_downstream() {
        let env = Environment::new();
        env.run_coordinator("Main", |coord| {
            let v = Variable::spawn(coord, "v", Unit::int(0))?;
            let mut st = coord.state();
            // Connect echo BEFORE feeding so try_write finds the stream.
            st.connect_to_self(v.process(), "output", "input", StreamType::BK)?;
            st.send(Unit::int(5), v.process(), "input")?;
            let echoed = coord.read_timeout("input", Duration::from_secs(5))?;
            assert_eq!(echoed.as_int(), Some(5));
            drop(st);
            Ok(())
        })
        .unwrap();
        env.shutdown();
    }
}
