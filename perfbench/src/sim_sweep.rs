//! `sim-sweep`: the discrete-event simulator alone, through `cluster`'s
//! public entry points — no real solve and no sockets.
//!
//! One operation is a pass over all three event loops:
//!
//! 1. the paper's 32-host strong-scaling curve on [`DistributedSim`];
//! 2. a multi-job [`SimFleet`] sequence under seeded multi-user noise;
//! 3. the flat and sharded [`ShardedSim`] sweep from 32 to 10,000 hosts.
//!
//! Loops 1 and 3, rendered as the `scaling` binary renders them, must equal
//! the committed `BENCH_scaling.json` byte for byte; loop 2 must repeat bit
//! for bit on every pass, and its first job must equal the one-shot
//! simulation of the same job and noise.

use std::fmt::Write as _;
use std::time::Instant;

use chaos::FaultPlan;
use cluster::hosts::{paper_cluster, synthetic_cluster, ClusterSpec};
use cluster::{DistributedSim, Perturbation, ShardSimOpts, ShardedSim, SimFleet, Workload};
use protocol::shard::ShardPlan;
use protocol::{DispatchPolicy, PaperFaithful};
use renovation::cost::CostModel;

use crate::stats::median;
use crate::{timed, Ctx, Outcome, Rng};

/// The committed baseline loops 1 and 3 must reproduce.
pub const BASELINE: &str = "BENCH_scaling.json";

const LEVEL: u32 = 13;
const TOL: f64 = 1e-3;
const PAPER_MACHINES: [usize; 6] = [2, 4, 8, 16, 24, 32];
const SWEEP_HOSTS: [usize; 6] = [32, 100, 320, 1000, 3200, 10000];
/// Seed of the synthetic heterogeneous fleets (the baseline's).
const SWEEP_SEED: u64 = 411;
/// Levels of the fleet sequence; the seed picks their order.
const FLEET_LEVELS: [u32; 8] = [6, 7, 8, 9, 10, 11, 12, 13];
/// Set-ups in a group, timed together: `setup_s` is the median over the
/// run's groups of a group's mean set-up time. One set-up takes a few
/// milliseconds, too short to time alone above timer jitter; a group takes
/// tens.
const SETUPS_PER_GROUP: usize = 8;

struct SweepCase {
    hosts: usize,
    shards: usize,
    wl: Workload,
    sim: ShardedSim,
}

/// Everything built before the timed phase.
struct Inputs {
    paper_wl: Workload,
    full: DistributedSim,
    paper: Vec<DistributedSim>,
    fleet_wls: Vec<Workload>,
    noise_seed: u64,
    sweep: Vec<SweepCase>,
}

fn build_inputs(seed: u64) -> Inputs {
    let model = CostModel::paper_calibrated();
    let full_spec = paper_cluster(model.ref_flops_per_sec);
    let paper = PAPER_MACHINES
        .iter()
        .map(|&n| {
            let mut hosts = full_spec.hosts.clone();
            hosts.truncate(n);
            DistributedSim::new(ClusterSpec::new(hosts, model.ref_flops_per_sec))
        })
        .collect();
    let mut rng = Rng::new(seed);
    let mut levels = FLEET_LEVELS;
    rng.shuffle(&mut levels);
    let fleet_wls = levels
        .iter()
        .map(|&l| model.workload(2, l, TOL, true))
        .collect();
    let base = model.workload(2, 8, TOL, true);
    let sweep = SWEEP_HOSTS
        .iter()
        .map(|&hosts| {
            let copies = (2 * hosts).div_ceil(base.job_count()).max(1);
            SweepCase {
                hosts,
                shards: (hosts / 64).clamp(2, 64),
                wl: base.replicate(copies),
                sim: ShardedSim::new(synthetic_cluster(
                    hosts,
                    SWEEP_SEED,
                    model.ref_flops_per_sec,
                )),
            }
        })
        .collect();
    Inputs {
        paper_wl: model.workload(2, LEVEL, TOL, true),
        full: DistributedSim::new(full_spec),
        paper,
        fleet_wls,
        noise_seed: rng.next_u64(),
        sweep,
    }
}

/// What one pass produced: the sweep rendered as the `scaling` binary
/// writes `BENCH_scaling.json`, the exact fleet latencies, and the
/// per-loop wall times.
struct Pass {
    json: String,
    fleet_bits: Vec<u64>,
    dispatches: u64,
    steals: u64,
    distributed_s: f64,
    fleet_s: f64,
    sharded_s: f64,
}

fn run_pass(inp: &Inputs) -> Result<Pass, String> {
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"level\": {LEVEL},");
    let _ = writeln!(json, "  \"tol\": {TOL:e},");
    let _ = writeln!(json, "  \"seed\": {SWEEP_SEED},");

    let t = Instant::now();
    let st = inp
        .full
        .sequential_time(&inp.paper_wl, &mut Perturbation::none());
    let _ = writeln!(json, "  \"sequential_time_s\": {st:.3},");
    let _ = writeln!(json, "  \"paper_curve\": [");
    let mut dispatches = 0u64;
    for (i, (&n, sim)) in PAPER_MACHINES.iter().zip(&inp.paper).enumerate() {
        let r = sim.run(&inp.paper_wl, &mut Perturbation::none());
        let su = st / r.elapsed;
        let w = n as f64;
        let serial = if n > 1 {
            (w / su - 1.0) / (w - 1.0)
        } else {
            1.0
        };
        let comma = if i + 1 < PAPER_MACHINES.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    {{\"machines\": {n}, \"ct_s\": {:.3}, \"speedup\": {su:.3}, \
             \"peak_machines\": {}, \"serial_fraction\": {serial:.4}}}{comma}",
            r.elapsed, r.peak_machines
        );
        dispatches += (inp.paper_wl.job_count() + r.redispatches) as u64;
    }
    let _ = writeln!(json, "  ],");
    let distributed_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut fleet = SimFleet::new(inp.full.clone(), &FaultPlan::default(), 0);
    let mut noise = Perturbation::overnight(inp.noise_seed);
    let mut fleet_bits = Vec::with_capacity(inp.fleet_wls.len());
    for wl in &inp.fleet_wls {
        let r = fleet.submit(wl, &mut noise, &PaperFaithful)?;
        fleet_bits.push(r.elapsed.to_bits());
        dispatches += (wl.job_count() + r.redispatches) as u64;
    }
    let fleet_s = t.elapsed().as_secs_f64();

    // The flat and sharded sweep; the sharded run repeats, as the
    // `scaling` binary repeats it, to witness determinism.
    let t = Instant::now();
    let mut steals = 0u64;
    let mut rows = String::new();
    let mut flat_tp: Vec<f64> = Vec::with_capacity(inp.sweep.len());
    for (i, c) in inp.sweep.iter().enumerate() {
        let opts = ShardSimOpts::new(c.shards).quiet();
        let flat = c
            .sim
            .run(&c.wl, &PaperFaithful, &ShardSimOpts::new(1).quiet());
        let sharded = c.sim.run(&c.wl, &PaperFaithful, &opts);
        let again = c.sim.run(&c.wl, &PaperFaithful, &opts);
        let comma = if i + 1 < inp.sweep.len() { "," } else { "" };
        let _ = writeln!(
            rows,
            "    {{\"hosts\": {}, \"jobs\": {}, \"shards\": {}, \
             \"flat_elapsed_s\": {:.3}, \"flat_jobs_per_s\": {:.4}, \
             \"sharded_elapsed_s\": {:.3}, \"sharded_jobs_per_s\": {:.4}, \
             \"throughput_ratio\": {:.3}, \"steals\": {}, \
             \"finish_spread_s\": {:.3}, \"deterministic\": {}}}{comma}",
            c.hosts,
            c.wl.job_count(),
            sharded.shards,
            flat.elapsed,
            flat.throughput,
            sharded.elapsed,
            sharded.throughput,
            sharded.throughput / flat.throughput,
            sharded.steals,
            sharded.finish_spread(),
            sharded.elapsed.to_bits() == again.elapsed.to_bits(),
        );
        flat_tp.push(flat.throughput);
        for r in [&flat, &sharded, &again] {
            dispatches += (r.jobs + r.redispatches) as u64;
            steals += r.steals as u64;
        }
    }
    let sharded_s = t.elapsed().as_secs_f64();
    let sat = flat_tp
        .windows(2)
        .position(|w| w[1] < w[0] * 1.10)
        .map(|i| inp.sweep[i].hosts);
    let _ = writeln!(
        json,
        "  \"flat_saturation_hosts\": {},",
        sat.map_or_else(|| "null".to_string(), |h| h.to_string())
    );
    let _ = writeln!(json, "  \"shard_sweep\": [");
    json.push_str(&rows);
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    Ok(Pass {
        json,
        fleet_bits,
        dispatches,
        steals,
        distributed_s,
        fleet_s,
        sharded_s,
    })
}

/// The first line where `got` and `want` differ, for the error message.
fn first_difference(got: &str, want: &str) -> String {
    let mut g = got.lines();
    for (n, w) in want.lines().enumerate() {
        match g.next() {
            Some(l) if l == w => {}
            Some(l) => return format!("line {}: got {l:?}, baseline {w:?}", n + 1),
            None => return format!("line {}: missing, baseline {w:?}", n + 1),
        }
    }
    match g.next() {
        Some(l) => format!("extra line {l:?}"),
        None => "line endings differ".to_string(),
    }
}

pub fn run(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let want = std::fs::read_to_string(BASELINE).map_err(|e| format!("read {BASELINE}: {e}"))?;
    let mut out = Outcome::default();

    // A first, discarded set-up takes the process's cold page faults.
    let mut inp = build_inputs(ctx.seed);
    let mut setups = Vec::new();

    // The fleet's first job must equal the one-shot simulation of the same
    // job under the same noise stream.
    let one_shot = inp
        .full
        .run_with_faults(
            &inp.fleet_wls[0],
            &mut Perturbation::overnight(inp.noise_seed),
            &PaperFaithful,
            &FaultPlan::default(),
            0,
        )?
        .elapsed
        .to_bits();

    // Dispatch-order cost vectors the shard planner partitions, for the
    // traced replay of `ShardPlan::partition`.
    let plan_inputs: Vec<(Vec<f64>, usize)> = inp
        .sweep
        .iter()
        .flat_map(|c| {
            let costs: Vec<f64> = c.wl.pools.iter().flatten().map(|j| j.flops).collect();
            let ordered: Vec<f64> = PaperFaithful
                .order(&costs)
                .iter()
                .map(|&j| costs[j])
                .collect();
            [(ordered.clone(), 1), (ordered, c.shards)]
        })
        .collect();

    let mut passes: Vec<f64> = Vec::new();
    let mut layer_samples: Vec<[f64; 5]> = Vec::new();
    let mut reference_bits: Option<Vec<u64>> = None;
    let (mut dispatches, mut steals) = (0u64, 0u64);
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < ctx.window {
        // A group of set-ups before every pass, so that the set-up samples
        // span the whole run and machine drift hits them as it hits the
        // passes.
        let (_, dt) = timed(|| {
            for _ in 0..SETUPS_PER_GROUP {
                inp = build_inputs(ctx.seed);
            }
        });
        setups.push(dt / SETUPS_PER_GROUP as f64);
        let (pass, wall) = timed(|| run_pass(&inp));
        let pass = pass?;
        passes.push(wall);
        let same = pass.json == want;
        if !same {
            eprintln!(
                "sim-sweep: {BASELINE} mismatch: {}",
                first_difference(&pass.json, &want)
            );
        }
        out.e2e.record(same);
        let reference = reference_bits.get_or_insert_with(|| pass.fleet_bits.clone());
        out.e2e
            .record(pass.fleet_bits == *reference && pass.fleet_bits[0] == one_shot);
        if dispatches == 0 {
            (dispatches, steals) = (pass.dispatches, pass.steals);
        }
        // Every pass does the same simulated work.
        out.e2e
            .record((pass.dispatches, pass.steals) == (dispatches, steals));
        if traced {
            let (_, plan_s) = timed(|| {
                for (costs, shards) in &plan_inputs {
                    std::hint::black_box(ShardPlan::partition(costs, *shards));
                }
            });
            let explained = pass.distributed_s + pass.fleet_s + pass.sharded_s;
            let unexplained_pct = (wall - explained) / wall * 100.0;
            layer_samples.push([
                pass.distributed_s,
                pass.fleet_s,
                pass.sharded_s,
                plan_s,
                unexplained_pct,
            ]);
        }
    }

    let pass_p50 = median(&passes).expect("timed passes");
    let total_dispatches = dispatches as f64 * passes.len() as f64;
    out.e2e.set("setup_s", median(&setups).expect("setups"));
    out.e2e.set("op_p50_ms", pass_p50 * 1e3);
    out.e2e
        .set("ops_per_s", total_dispatches / passes.iter().sum::<f64>());
    out.e2e.set(
        "rss_mb",
        crate::rss::peak_rss_mb(None).map_err(|e| e.to_string())?,
    );
    println!(
        "sim-sweep{}: pass {:.4} s (n={}), sim_dispatches_per_s {:.1} ({dispatches} dispatches, \
         {steals} steals per pass), setup_s {:.6} s (median of {} groups of {SETUPS_PER_GROUP})",
        if traced { " traced" } else { "" },
        pass_p50,
        passes.len(),
        total_dispatches / passes.iter().sum::<f64>(),
        median(&setups).expect("setups"),
        setups.len(),
    );

    if traced {
        let col = |k: usize| {
            median(&layer_samples.iter().map(|s| s[k]).collect::<Vec<_>>()).expect("passes")
        };
        let (d, f, s, plan) = (col(0), col(1), col(2), col(3));
        let r = &mut out.layers;
        r.set("cluster.distributed_s", d);
        r.set("cluster.fleet_s", f);
        r.set("cluster.sharded_s", s);
        r.set("cluster.dispatches", dispatches as f64);
        r.set("cluster.steals", steals as f64);
        r.set("protocol.shard_plan_s", plan);
        r.set("trace.unexplained_pct", col(4));
        println!(
            "sim-sweep layers: distributed {d:.4} s + fleet {f:.4} s + sharded {s:.4} s \
             (shard planning {plan:.5} s of it, replayed)"
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(
            first_difference("a\nb\n", "a\nc\n"),
            "line 2: got \"b\", baseline \"c\""
        );
        assert!(first_difference("a\n", "a\nb\n").starts_with("line 2: missing"));
        assert!(first_difference("a\nb\n", "a\n").starts_with("extra line"));
    }
}
