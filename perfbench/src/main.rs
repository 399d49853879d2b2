//! The repository benchmark: three workloads, each verified bit for bit,
//! each printing its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload solve-batch|serve-procs|sim-sweep
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the workload
//! untraced, then again with the from-outside layer trace, and prints the
//! per-layer metrics, the tracing overhead and the share of the operation
//! the layer times leave unexplained. `perfbench/run.py` builds this binary
//! and the daemon it drives, then runs it; `METHODS.md` explains every
//! workload and metric.

mod oracle;
mod report;
mod rss;
mod serve_procs;
mod sim_sweep;
mod solve_batch;
mod stats;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use report::Report;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SolveBatch,
    ServeProcs,
    SimSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SolveBatch,
        Workload::ServeProcs,
        Workload::SimSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveBatch => "solve-batch",
            Workload::ServeProcs => "serve-procs",
            Workload::SimSweep => "sim-sweep",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The load generator's own size: client threads and open connections.
    pub fn generator(self) -> Generator {
        match self {
            Workload::SolveBatch => Generator {
                threads: 1,
                connections: 0,
            },
            Workload::ServeProcs => Generator {
                threads: serve_procs::TENANTS.len(),
                connections: serve_procs::TENANTS.len(),
            },
            Workload::SimSweep => Generator {
                threads: 1,
                connections: 0,
            },
        }
    }
}

/// Threads and connections one workload's generator uses.
#[derive(Clone, Copy, Debug)]
pub struct Generator {
    pub threads: usize,
    pub connections: usize,
}

impl Generator {
    /// A generator larger than the machine's parallelism would measure its
    /// own contention, not the program's.
    fn check(self, parallelism: usize) -> Result<(), String> {
        if self.threads > parallelism || self.connections > parallelism {
            return Err(format!(
                "generator needs {} threads and {} connections, but available_parallelism() is {parallelism}",
                self.threads, self.connections
            ));
        }
        Ok(())
    }
}

/// Everything a workload needs to run once.
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    /// Directory of this executable (the daemon and worker binaries sit
    /// beside it).
    pub exe_dir: PathBuf,
    /// Scratch directory inside the checkout, removed at exit.
    pub tmp: PathBuf,
    pub parallelism: usize,
}

/// One run of a workload: its end-to-end values, and in a traced run its
/// per-layer values.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Report,
    pub layers: Report,
}

/// Seeded SplitMix64: the same seed gives the same inputs on every run.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Wall time of `f`, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload solve-batch|serve-procs|sim-sweep --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run_once(w: Workload, ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    match w {
        Workload::SolveBatch => solve_batch::run(ctx, traced),
        Workload::ServeProcs => serve_procs::run(ctx, traced),
        Workload::SimSweep => sim_sweep::run(ctx, traced),
    }
}

/// Run the workload and render the result line.
fn bench(args: &Args, ctx: &Ctx) -> Result<(String, bool), String> {
    let untraced = run_once(args.workload, ctx, false)?;
    if !args.trace {
        let line = untraced.e2e.render(args.workload, false)?;
        return Ok((line, untraced.e2e.correct()));
    }
    let traced = run_once(args.workload, ctx, true)?;
    let mut layers = traced.layers;
    let op = |r: &Report| r.get("op_p50_ms").expect("every run measures op_p50_ms");
    let overhead = (op(&traced.e2e) - op(&untraced.e2e)) / op(&untraced.e2e) * 100.0;
    println!(
        "trace overhead: op_p50_ms {:.4} traced vs {:.4} untraced ({overhead:+.2}%)",
        op(&traced.e2e),
        op(&untraced.e2e)
    );
    layers.set("trace.overhead_pct", overhead);
    layers.absorb_counts(&untraced.e2e);
    layers.absorb_counts(&traced.e2e);
    let line = layers.render(args.workload, true)?;
    Ok((line, layers.correct()))
}

/// Removes the scratch directory however the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Err(e) = args.workload.generator().check(parallelism) {
        eprintln!("perfbench: {}: {e}", args.workload.name());
        std::process::exit(2);
    }
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let tmp =
        Path::new(".bench_tmp").join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create the scratch directory");
    let tmp = TmpDir(std::fs::canonicalize(&tmp).expect("scratch directory path"));
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        exe_dir: exe.parent().expect("executable directory").to_path_buf(),
        tmp: tmp.0.clone(),
        parallelism,
    };
    println!(
        "perfbench {} seed {} seconds {} trace {} (available_parallelism {parallelism})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match bench(&args, &ctx) {
        Ok((line, correct)) => {
            println!("{line}");
            drop(tmp);
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            drop(tmp);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&args("--workload sim-sweep --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::SimSweep);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload sim-sweep --trace 2")).is_err());
        assert!(parse_args(&args("--workload sim-sweep --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }

    #[test]
    fn generators_larger_than_the_machine_are_refused() {
        let two = Generator {
            threads: 2,
            connections: 2,
        };
        assert!(two.check(2).is_ok());
        assert!(two.check(1).is_err());
        let many_conns = Generator {
            threads: 1,
            connections: 3,
        };
        assert!(many_conns.check(2).is_err());
        for w in Workload::ALL {
            assert!(
                w.generator().check(2).is_ok(),
                "{} exceeds two cores",
                w.name()
            );
        }
    }

    /// The `[profile.release]` settings of a manifest, comments and blank
    /// lines left out.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect()
    }

    /// The crates linked into this benchmark are built with its own release
    /// profile; it must be the repository's, or the figures are not the
    /// program's.
    #[test]
    fn release_profile_matches_the_repository() {
        let read = |p: &str| std::fs::read_to_string(p).unwrap();
        let ours = read(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let repo = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(!release_profile(&repo).is_empty());
        assert_eq!(release_profile(&ours), release_profile(&repo));
        assert_eq!(
            release_profile("[profile.release]\n# c\nlto = true\n\n[profile.bench]\nx = 1\n"),
            ["lto = true"]
        );
    }

    #[test]
    fn the_seed_fixes_the_inputs() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(3)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }
}
