//! `solve-batch`: one client thread drives an in-process threads fleet
//! through the paper problem, job after job, interleaved with the legacy
//! sequential program on the same problem.
//!
//! The `solver` kernels do almost all the work; serving, the journal and
//! the transport are bypassed. The operation is one warm engine job, from
//! submit to verified result.

use std::sync::Arc;
use std::time::Instant;

use protocol::PaperFaithful;
use renovation::{AppConfig, Engine, EngineOpts, JobReport, RunMode};
use solver::rosenbrock::Ros2Workspace;
use solver::sequential::prolongation_phase;
use solver::{subsolve_with, SequentialApp, WorkCounter};

use crate::oracle::Oracle;
use crate::stats::median;
use crate::{timed, Ctx, Outcome, Rng};

/// The paper problem: root 2, level 8, tolerance 1e-3.
pub fn paper_app() -> SequentialApp {
    SequentialApp::new(2, 8, 1e-3)
}

/// Engine constructions (each with its first cold job) per run; `setup_s`
/// is their median.
const SETUPS: usize = 5;

/// Warm jobs after which the process's peak RSS is read for `rss_mb`: a
/// fixed count, so that the figure does not grow with the number of jobs
/// that fit in the window. A run serves at least this many.
const RSS_AT_JOBS: usize = 10;

fn new_engine() -> Result<Engine, String> {
    Engine::threads(
        RunMode::Parallel,
        Arc::new(PaperFaithful),
        EngineOpts::default(),
    )
    .map_err(|e| format!("engine construction failed: {e}"))
}

/// Submit one job and wait for it; the wall time covers submit to result.
fn solve(engine: &mut Engine, app: SequentialApp) -> Result<(JobReport, f64), String> {
    let t = Instant::now();
    let handle = engine
        .submit(AppConfig::new(app))
        .map_err(|e| format!("submit refused: {e}"))?;
    let report = handle.wait().map_err(|e| format!("job failed: {e}"))?;
    Ok((report, t.elapsed().as_secs_f64()))
}

/// One traced job's layer times, measured by replaying the job's grids
/// through the solver's public entry points.
struct JobLayers {
    submit_s: f64,
    subsolve_s: f64,
    slowest_grid_s: f64,
    prolong_s: f64,
    subsolve_flops: u64,
}

fn replay_layers(
    app: &SequentialApp,
    oracle: &Oracle,
    submit_s: f64,
) -> Result<(JobLayers, bool), String> {
    let mut ws = Ros2Workspace::new();
    let mut per_grid = Vec::new();
    let (mut total, mut slowest, mut flops) = (0.0f64, 0.0f64, 0u64);
    for idx in app.grids() {
        let req = app.request_for(idx);
        let (res, dt) = timed(|| subsolve_with(&req, &mut ws));
        let res = res.map_err(|e| format!("subsolve({}, {}) failed: {e:?}", idx.l, idx.m))?;
        total += dt;
        slowest = slowest.max(dt);
        flops += res.work.flops;
        per_grid.push(res);
    }
    let mut work = WorkCounter::new();
    let (combined, prolong_s) =
        timed(|| prolongation_phase(app.root, app.level, &per_grid, &mut work));
    let ok = serve::field_checksum(&combined) == oracle.checksum;
    Ok((
        JobLayers {
            submit_s,
            subsolve_s: total,
            slowest_grid_s: slowest,
            prolong_s,
            subsolve_flops: flops,
        },
        ok,
    ))
}

pub fn run(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let app = paper_app();
    let (oracle, _) = Oracle::solve(&app);
    let mut out = Outcome::default();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut engine: Option<Engine> = None;
    for _ in 0..SETUPS {
        if let Some(old) = engine.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let mut e = new_engine()?;
        let (report, _) = solve(&mut e, app)?;
        out.e2e
            .record(oracle.matches(&report.result.combined, report.result.l2_error));
        setups.push(t.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one setup");

    let mut rng = Rng::new(ctx.seed);
    let mut par = Vec::new();
    let mut seq = Vec::new();
    let mut layers: Vec<JobLayers> = Vec::new();
    let mut counts: Option<WorkCounter> = None;
    let mut workers_created = Vec::new();
    let mut rss_mb = None;
    let start = Instant::now();
    while par.len() < RSS_AT_JOBS || start.elapsed() < ctx.window {
        // Interleave so that machine drift hits both sides alike; the seed
        // picks which side of each pair runs first.
        let engine_first = rng.next_u64() & 1 == 0;
        for engine_turn in [engine_first, !engine_first] {
            if engine_turn {
                let (report, wall) = solve(&mut engine, app)?;
                let ok = oracle.matches(&report.result.combined, report.result.l2_error);
                out.e2e.record(ok);
                par.push(wall);
                if par.len() == RSS_AT_JOBS {
                    rss_mb = Some(crate::rss::peak_rss_mb(None).map_err(|e| e.to_string())?);
                }
                if traced {
                    // Exact work counts must repeat from job to job.
                    let w = report.result.work;
                    let same = counts.get_or_insert(w);
                    out.layers.record(
                        (
                            same.steps,
                            same.lin_iters,
                            same.refactorizations,
                            same.flops,
                        ) == (w.steps, w.lin_iters, w.refactorizations, w.flops),
                    );
                    workers_created.push(
                        report
                            .outcome
                            .pools()
                            .iter()
                            .map(|p| p.workers_created)
                            .sum::<usize>() as f64,
                    );
                    let (l, ok) = replay_layers(&app, &oracle, wall)?;
                    out.layers.record(ok);
                    layers.push(l);
                }
            } else {
                let (result, wall) = timed(|| app.run());
                let result = result.map_err(|e| format!("sequential run failed: {e:?}"))?;
                out.e2e
                    .record(oracle.matches(&result.combined, result.l2_error));
                seq.push(wall);
            }
        }
    }
    engine.shutdown();

    let par_p50 = median(&par).expect("timed jobs");
    let seq_p50 = median(&seq).expect("timed sequential runs");
    out.e2e.set("setup_s", median(&setups).expect("setups"));
    out.e2e.set("op_p50_ms", par_p50 * 1e3);
    out.e2e
        .set("ops_per_s", par.len() as f64 / par.iter().sum::<f64>());
    out.e2e
        .set("rss_mb", rss_mb.expect("the loop runs RSS_AT_JOBS jobs"));
    println!(
        "solve-batch{}: solve_s {par_p50:.4} s (n={}), seq_solve_s {seq_p50:.4} s (n={}), \
         setup_s {:.4} s (n={SETUPS})",
        if traced { " traced" } else { "" },
        par.len(),
        seq.len(),
        median(&setups).expect("setups"),
    );

    if traced {
        let med = |f: &dyn Fn(&JobLayers) -> f64| {
            median(&layers.iter().map(f).collect::<Vec<_>>()).expect("traced jobs")
        };
        let nproc = ctx.parallelism as f64;
        let subsolve_s = med(&|l| l.subsolve_s);
        let submit_s = med(&|l| l.submit_s);
        let residual =
            med(&|l| l.submit_s - l.slowest_grid_s.max(l.subsolve_s / nproc) - l.prolong_s);
        let w = counts.expect("traced jobs");
        let r = &mut out.layers;
        r.set("solver.subsolve_s", subsolve_s);
        r.set("solver.slowest_grid_s", med(&|l| l.slowest_grid_s));
        r.set("solver.prolong_s", med(&|l| l.prolong_s));
        r.set("solver.steps", w.steps as f64);
        r.set("solver.lin_iters", w.lin_iters as f64);
        r.set("solver.refactorizations", w.refactorizations as f64);
        r.set("solver.flops", w.flops as f64);
        r.set(
            "solver.gflops_per_s",
            med(&|l| l.subsolve_flops as f64 / l.subsolve_s / 1e9),
        );
        r.set("solver.seq_solve_s", seq_p50);
        r.set("renovation.submit_s", submit_s);
        r.set("renovation.coord_residual_s", residual);
        r.set("renovation.speedup", seq_p50 / submit_s);
        r.set(
            "manifold.workers_created",
            median(&workers_created).expect("traced jobs"),
        );
        r.set("trace.unexplained_pct", residual / submit_s * 100.0);
        println!(
            "solve-batch layers: submit {submit_s:.4} s = subsolve {subsolve_s:.4} s / {nproc} \
             cores (slowest grid {:.4} s) + prolong {:.5} s + coordination residual \
             {residual:.4} s (estimate); speedup {:.3}",
            med(&|l| l.slowest_grid_s),
            med(&|l| l.prolong_s),
            seq_p50 / submit_s
        );
    }
    Ok(out)
}
