//! `serve-procs`: the real `mf-served` daemon in its own process, on the
//! procs backend (two worker processes) with its write-ahead journal,
//! driven by two tenant connections in a closed loop.
//!
//! Every layer of a served job runs on every job: proto decode, admission,
//! journal write, engine, master dispatch, compiled coordinator, transport
//! round trip, worker codec, small subsolves, prolongation. The operation
//! is one job, from `Submit` sent to `Done` received.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use protocol::PaperFaithful;
use renovation::codec::{request_from_unit, request_to_unit, result_from_unit, result_to_unit};
use renovation::{AppConfig, Engine, EngineOpts, ProcsConfig};
use serve::admission::{Next, QueuedJob};
use serve::{
    Admission, AdmissionConfig, Journal, JournalConfig, OutcomeBody, ServeMsg, TenantClient,
};
use solver::rosenbrock::Ros2Workspace;
use solver::sequential::prolongation_phase;
use solver::{subsolve_with, SequentialApp, SequentialResult, WorkCounter};
use transport::frame::{frame_vec, FrameDecoder};
use transport::msg::Message;
use transport::Addr;

use crate::oracle::Oracle;
use crate::stats::{highest_tail, median, median_of_group_means};
use crate::{timed, Ctx, Outcome, Rng};

/// Tenant connections, with their fair-share weights.
pub const TENANTS: [(&str, u32); 2] = [("heavy", 4), ("light", 1)];
const ROOT: u32 = 1;
const LEVELS: [u32; 3] = [3, 4, 5];
const TOL: f64 = 1e-3;
/// Level of the set-up's first job: fixed, so that `setup_s` does not
/// depend on which level the seed draws first.
const SETUP_LEVEL: u32 = 4;
/// Fixed in-flight window per tenant.
const INFLIGHT: usize = 4;
/// Daemon start-ups per run, timed in groups: `setup_s` is the median over
/// the groups of a group's mean. Single start-ups fall into two modes some
/// 5 ms apart, between which a plain median flips from run to run.
const SETUPS: usize = 15;
const SETUPS_PER_GROUP: usize = 3;
/// Jobs of the traced run's unloaded phase (one tenant, window 1).
const UNLOADED_JOBS: usize = 300;
/// Repetitions of each per-level layer replay.
const REPLAYS: usize = 15;
/// Served jobs the journal replay writes (bounds its disk use).
const JOURNAL_REPLAY_JOBS: usize = 1000;
/// Verified `Done` replies of the timed phase at which the daemon's peak
/// RSS is read for `rss_mb`: a fixed count, so that the figure measures
/// the footprint of serving that many jobs, not how many jobs fit in the
/// window.
const RSS_AT_JOBS: usize = 1000;
/// A reply slower than this counts as a failed (timed-out) job.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

fn app(level: u32) -> SequentialApp {
    SequentialApp::new(ROOT, level, TOL)
}

fn level_index(level: u32) -> usize {
    LEVELS
        .iter()
        .position(|&l| l == level)
        .expect("a served level")
}

/// The seeded level sequence of one tenant: shuffled blocks holding each
/// level once, so every seed serves the same mix.
struct Levels {
    rng: Rng,
    block: Vec<u32>,
}

impl Levels {
    fn new(seed: u64, tenant: usize) -> Levels {
        Levels {
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(tenant as u64 + 1)),
            block: Vec::new(),
        }
    }

    fn next(&mut self) -> u32 {
        if self.block.is_empty() {
            self.block = LEVELS.to_vec();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("refilled")
    }
}

/// A running `mf-served` child. Dropping it kills and reaps the daemon if
/// it has not exited through a drain, and removes its journal.
struct Daemon {
    child: Child,
    addr: Addr,
    journal: PathBuf,
    stdout: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(exe_dir: &Path, journal: &Path) -> Result<Daemon, String> {
        let exe = exe_dir.join("mf-served");
        let mut child = Command::new(&exe)
            .args(["--backend", "procs", "--journal"])
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = out
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.strip_prefix("mf-served: listening on "))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| Addr::parse(a).ok());
        // The daemon prints its drain summary at exit; keep the pipe empty.
        let stdout = std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        });
        // Built before the address check, so that a failed start still
        // kills and reaps the child.
        let mut d = Daemon {
            child,
            addr: Addr::Tcp(String::new()),
            journal: journal.to_path_buf(),
            stdout: Some(stdout),
        };
        d.addr = addr.ok_or_else(|| format!("mf-served did not announce its address: {line:?}"))?;
        Ok(d)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drain through the tenant sessions and wait for a clean exit.
    fn drain(mut self, clients: Vec<TenantClient>) -> Result<(), String> {
        let mut clients = clients;
        clients[0]
            .send(&ServeMsg::Drain)
            .map_err(|e| format!("send Drain: {e}"))?;
        for c in &mut clients {
            loop {
                match c.recv() {
                    Ok(ServeMsg::Drained { .. }) => break,
                    Ok(_) => {}
                    Err(e) => return Err(format!("waiting for Drained: {e}")),
                }
            }
        }
        drop(clients);
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("mf-served exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("mf-served did not exit after draining".into()),
                Err(e) => return Err(format!("waiting for mf-served: {e}")),
            }
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&self.journal);
    }
}

/// Per-level oracles: the sequential program's witness and result.
struct Oracles(Vec<(Oracle, SequentialResult)>);

impl Oracles {
    fn new() -> Oracles {
        Oracles(LEVELS.iter().map(|&l| Oracle::solve(&app(l))).collect())
    }

    fn check(&self, level: u32, msg: &ServeMsg) -> bool {
        match msg {
            ServeMsg::Done {
                l2_error, combined, ..
            } => self.0[level_index(level)].0.matches(combined, *l2_error),
            _ => false,
        }
    }
}

/// One tenant session and its seeded job stream.
struct Tenant {
    client: TenantClient,
    ordinal: usize,
    levels: Levels,
    next_seq: u64,
}

impl Tenant {
    fn connect(addr: &Addr, ordinal: usize, seed: u64) -> Result<Tenant, String> {
        let (name, weight) = TENANTS[ordinal];
        let client = TenantClient::connect(addr, name, weight)
            .map_err(|e| format!("tenant {name} connect: {e}"))?;
        client
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Tenant {
            client,
            ordinal,
            levels: Levels::new(seed, ordinal),
            next_seq: 1,
        })
    }

    /// Submit the next job of the seeded stream.
    fn submit(&mut self) -> Result<(u64, u32), String> {
        let level = self.levels.next();
        self.submit_level(level).map(|seq| (seq, level))
    }

    fn submit_level(&mut self, level: u32) -> Result<u64, String> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.client
            .submit(seq, ROOT, level, TOL)
            .map_err(|e| format!("submit: {e}"))?;
        Ok(seq)
    }
}

/// What one tenant saw in a closed-loop phase.
#[derive(Default)]
struct TenantLog {
    /// Per verified `Done` inside the window: latency (ms), completion
    /// time (s since the window opened) and level.
    done: Vec<(f64, f64, u32)>,
    /// Every submit: time (s since the window opened), seq, level.
    submits: Vec<(f64, u64, u32)>,
    /// Every verified `Done`, inside the window or after it: time, seq,
    /// level.
    replies: Vec<(f64, u64, u32)>,
    attempted: u64,
    failed: u64,
}

/// Reads the daemon's peak RSS when the tenants' verified `Done` replies
/// reach [`RSS_AT_JOBS`].
struct RssProbe {
    pid: u32,
    served: AtomicUsize,
    reading: OnceLock<Result<f64, String>>,
}

impl RssProbe {
    fn new(pid: u32) -> RssProbe {
        RssProbe {
            pid,
            served: AtomicUsize::new(0),
            reading: OnceLock::new(),
        }
    }

    fn on_done(&self) {
        if self.served.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AT_JOBS {
            let hwm = crate::rss::peak_rss_mb(Some(self.pid)).map_err(|e| e.to_string());
            let _ = self.reading.set(hwm);
        }
    }

    fn pending(&self) -> bool {
        self.reading.get().is_none()
    }
}

/// Closed loop with a fixed in-flight window: every reply funds the next
/// submit until `window` has passed (and, with a probe, until it has read
/// the daemon's RSS), then the open jobs are collected.
fn drive(
    t: &mut Tenant,
    oracles: &Oracles,
    start: Instant,
    window: Duration,
    inflight: usize,
    max_jobs: Option<usize>,
    probe: Option<&RssProbe>,
) -> Result<TenantLog, String> {
    let mut log = TenantLog::default();
    let mut open: HashMap<u64, (Instant, u32)> = HashMap::new();
    let submit = |t: &mut Tenant, open: &mut HashMap<u64, (Instant, u32)>, log: &mut TenantLog| {
        let sent = Instant::now();
        let (seq, level) = t.submit()?;
        open.insert(seq, (sent, level));
        log.submits.push(((sent - start).as_secs_f64(), seq, level));
        log.attempted += 1;
        Ok::<(), String>(())
    };
    let more = |log: &TenantLog| {
        (start.elapsed() < window || probe.is_some_and(RssProbe::pending))
            && max_jobs.is_none_or(|m| log.submits.len() < m)
    };
    for _ in 0..inflight {
        submit(t, &mut open, &mut log)?;
    }
    while !open.is_empty() {
        let msg = match t.client.recv() {
            Ok(m) => m,
            Err(e) => {
                eprintln!(
                    "serve-procs: tenant {}: {e}; {} jobs lost",
                    t.ordinal,
                    open.len()
                );
                log.failed += open.len() as u64;
                break;
            }
        };
        let now = Instant::now();
        let seq = match &msg {
            ServeMsg::Done { seq, .. }
            | ServeMsg::Fail { seq, .. }
            | ServeMsg::Reject { seq, .. } => *seq,
            _ => continue,
        };
        let Some((sent, level)) = open.remove(&seq) else {
            eprintln!("serve-procs: reply for unknown seq {seq}");
            log.failed += 1;
            continue;
        };
        if oracles.check(level, &msg) {
            let at = (now - start).as_secs_f64();
            if now - start < window {
                log.done.push(((now - sent).as_secs_f64() * 1e3, at, level));
            }
            log.replies.push((at, seq, level));
            if let Some(p) = probe {
                p.on_done();
            }
        } else {
            let why = match &msg {
                ServeMsg::Fail { error, .. } => format!("Fail: {error}"),
                ServeMsg::Reject { reason, .. } => format!("Reject: {reason}"),
                _ => "Done differs from the sequential oracle".to_string(),
            };
            eprintln!("serve-procs: job {seq} (level {level}) failed: {why}");
            log.failed += 1;
        }
        if more(&log) {
            submit(t, &mut open, &mut log)?;
        }
    }
    Ok(log)
}

/// Start a daemon, welcome both tenants (in the seeded order) and serve
/// one verified job; returns the live daemon, its tenants (indexed by
/// ordinal) and the elapsed set-up time.
fn start(
    ctx: &Ctx,
    traced: bool,
    k: usize,
    order: [usize; 2],
    oracles: &Oracles,
    out: &mut Outcome,
) -> Result<(Daemon, Vec<Tenant>, f64), String> {
    let t0 = Instant::now();
    let journal = ctx.tmp.join(format!(
        "journal-{}-{k}",
        if traced { "traced" } else { "plain" }
    ));
    let daemon = Daemon::spawn(&ctx.exe_dir, &journal)?;
    let mut tenants: Vec<Option<Tenant>> = vec![None, None];
    for o in order {
        tenants[o] = Some(Tenant::connect(&daemon.addr, o, ctx.seed)?);
    }
    let mut tenants: Vec<Tenant> = tenants.into_iter().map(|t| t.expect("connected")).collect();
    let first = &mut tenants[order[0]];
    first.submit_level(SETUP_LEVEL)?;
    let reply = first.client.recv().map_err(|e| format!("first job: {e}"))?;
    out.e2e.record(oracles.check(SETUP_LEVEL, &reply));
    Ok((daemon, tenants, t0.elapsed().as_secs_f64()))
}

fn stop(daemon: Daemon, tenants: Vec<Tenant>) -> Result<(), String> {
    daemon.drain(tenants.into_iter().map(|t| t.client).collect())
}

/// Per-level replay of the layers a served job passes through, timed
/// from outside by calling each layer's public functions.
#[derive(Clone, Copy, Default)]
struct LevelLayers {
    subsolve_s: f64,
    slowest_grid_s: f64,
    prolong_s: f64,
    subsolve_flops: f64,
    codec_us: f64,
    codec_bytes: f64,
    frame_us: f64,
    frame_bytes: f64,
    proto_us: f64,
}

fn replay_level(level: u32, result: &SequentialResult) -> Result<LevelLayers, String> {
    let a = app(level);
    let mut samples: Vec<LevelLayers> = Vec::with_capacity(REPLAYS);
    let mut ws = Ros2Workspace::new();
    for _ in 0..REPLAYS {
        let mut l = LevelLayers::default();
        let mut per_grid = Vec::new();
        for (i, idx) in a.grids().into_iter().enumerate() {
            let req = a.request_for(idx);
            let (res, dt) = timed(|| subsolve_with(&req, &mut ws));
            let res = res.map_err(|e| format!("subsolve failed: {e:?}"))?;
            l.subsolve_s += dt;
            l.slowest_grid_s = l.slowest_grid_s.max(dt);
            l.subsolve_flops += res.work.flops as f64;
            per_grid.push(res);

            // Worker codec on this grid's request and result.
            let done = &result.per_grid[i];
            let ((units, back), dt) = timed(|| {
                let (ru, du) = (request_to_unit(&req), result_to_unit(done));
                let back = (request_from_unit(&ru), result_from_unit(&du));
                ((ru, du), back)
            });
            back.0.map_err(|e| format!("request codec: {e}"))?;
            back.1.map_err(|e| format!("result codec: {e}"))?;
            l.codec_us += dt * 1e6;
            for u in [&units.0, &units.1] {
                l.codec_bytes += transport::wire::encode_unit_vec(u)
                    .map_err(|e| e.to_string())?
                    .len() as f64;
            }

            // Transport: the job and done messages, framed and decoded.
            let msgs = [
                Message::Job {
                    seq: i as u64,
                    job: 1,
                    payload: units.0,
                },
                Message::Done {
                    seq: i as u64,
                    job: 1,
                    payload: units.1,
                },
            ];
            let (bytes, dt) = timed(|| {
                let mut bytes = 0usize;
                for m in &msgs {
                    let framed = frame_vec(&m.encode().expect("encodable message"));
                    bytes += framed.len();
                    let mut dec = FrameDecoder::new();
                    dec.push(&framed);
                    let payload = dec.next_frame().expect("valid frame").expect("whole frame");
                    Message::decode(&payload).expect("decodable message");
                }
                bytes
            });
            l.frame_us += dt * 1e6;
            l.frame_bytes += bytes as f64;
        }
        let mut work = WorkCounter::new();
        let (_, dt) = timed(|| prolongation_phase(ROOT, level, &per_grid, &mut work));
        l.prolong_s = dt;

        // Serve protocol: the job's Submit and Done, encoded and decoded.
        let msgs = [
            ServeMsg::Submit {
                seq: 1,
                root: ROOT,
                level,
                tol: TOL,
            },
            ServeMsg::Done {
                seq: 1,
                rseq: 1,
                grids: result.per_grid.len() as u64,
                l2_error: result.l2_error,
                combined: result.combined.clone(),
            },
        ];
        let (ok, dt) = timed(|| {
            msgs.iter().all(|m| {
                let bytes = m.encode().expect("encodable message");
                ServeMsg::decode(&bytes).as_ref() == Ok(m)
            })
        });
        if !ok {
            return Err("ServeMsg round trip changed a message".into());
        }
        l.proto_us = dt * 1e6;
        samples.push(l);
    }
    let med = |f: fn(&LevelLayers) -> f64| {
        median(&samples.iter().map(f).collect::<Vec<_>>()).expect("replays")
    };
    Ok(LevelLayers {
        subsolve_s: med(|l| l.subsolve_s),
        slowest_grid_s: med(|l| l.slowest_grid_s),
        prolong_s: med(|l| l.prolong_s),
        subsolve_flops: med(|l| l.subsolve_flops),
        codec_us: med(|l| l.codec_us),
        codec_bytes: med(|l| l.codec_bytes),
        frame_us: med(|l| l.frame_us),
        frame_bytes: med(|l| l.frame_bytes),
        proto_us: med(|l| l.proto_us),
    })
}

/// Submit/Done events of both tenants in time order: `(t, tenant, seq,
/// level, is_submit)`.
fn events(logs: &[TenantLog]) -> Vec<(f64, usize, u64, u32, bool)> {
    let mut ev: Vec<(f64, usize, u64, u32, bool)> = Vec::new();
    for (ti, log) in logs.iter().enumerate() {
        ev.extend(log.submits.iter().map(|&(t, s, l)| (t, ti, s, l, true)));
        ev.extend(log.replies.iter().map(|&(t, s, l)| (t, ti, s, l, false)));
    }
    ev.sort_by(|a, b| a.0.total_cmp(&b.0));
    ev
}

/// Replay the recorded arrivals through `Admission::offer/next/complete`;
/// seconds per served job.
fn replay_admission(logs: &[TenantLog]) -> Result<f64, String> {
    let adm = Admission::new(AdmissionConfig {
        capacity_level: 8,
        ..AdmissionConfig::default()
    });
    let names: Vec<Arc<str>> = TENANTS.iter().map(|(n, _)| Arc::from(*n)).collect();
    for (n, w) in TENANTS {
        adm.register(n, w);
    }
    let ev = events(logs);
    let mut served = 0usize;
    let t = Instant::now();
    for &(_, ti, seq, level, is_submit) in &ev {
        if is_submit {
            let job = QueuedJob {
                tenant: names[ti].clone(),
                session: ti as u64 + 1,
                seq,
                root: ROOT,
                level,
                tol: TOL,
                attempts: 0,
                enqueued: Instant::now(),
            };
            if let serve::admission::Offer::Rejected { reason, .. } = adm.offer(job) {
                return Err(format!("admission replay rejected a job: {reason}"));
            }
        } else if let Next::Job(job) = adm.next(Duration::ZERO) {
            adm.complete(&job, true);
            served += 1;
        }
    }
    Ok(t.elapsed().as_secs_f64() / served.max(1) as f64)
}

/// Replay admissions and outcomes through the journal (acknowledging as
/// the client does); seconds and appended bytes per job.
fn replay_journal(logs: &[TenantLog], dir: &Path, oracles: &Oracles) -> Result<(f64, f64), String> {
    let (journal, _) = Journal::open(JournalConfig::new(dir)).map_err(|e| e.to_string())?;
    for (n, w) in TENANTS {
        journal.register(n, w, 0, 0)?;
    }
    let dir_bytes = || -> u64 {
        std::fs::read_dir(dir)
            .map(|rd| {
                rd.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    };
    let mut rseqs = [0u64; 2];
    let (mut secs, mut appended, mut jobs) = (0.0f64, 0u64, 0usize);
    for &(_, ti, seq, level, is_submit) in &events(logs) {
        if jobs >= JOURNAL_REPLAY_JOBS {
            break;
        }
        let tenant = TENANTS[ti].0;
        let before = dir_bytes();
        let t = Instant::now();
        if is_submit {
            journal
                .admit(tenant, seq, ROOT, level, TOL)
                .map_err(|e| e.to_string())?;
        } else {
            let r = &oracles.0[level_index(level)].1;
            let body = OutcomeBody::Done {
                grids: r.per_grid.len() as u64,
                l2_error: r.l2_error,
                combined: r.combined.clone(),
            };
            rseqs[ti] = journal
                .record_outcome(tenant, seq, &body)
                .map_err(|e| e.to_string())?;
            if rseqs[ti] % 32 == 0 {
                journal.ack(tenant, rseqs[ti]).map_err(|e| e.to_string())?;
            }
            jobs += 1;
        }
        secs += t.elapsed().as_secs_f64();
        // A compaction shrinks the directory; count only plain appends.
        appended += dir_bytes().saturating_sub(before);
    }
    let jobs = jobs.max(1) as f64;
    Ok((secs / jobs, appended as f64 / jobs))
}

/// Per-level engine submit time and workers created, from an in-process
/// procs fleet serving the same problems.
fn replay_engine(
    ctx: &Ctx,
    oracles: &Oracles,
    out: &mut Outcome,
) -> Result<Vec<(f64, f64)>, String> {
    let mut cfg = ProcsConfig::new(2);
    cfg.worker_exe = Some(ctx.exe_dir.join("subsolve_worker"));
    let opts = EngineOpts {
        capacity_level: 8,
        ..EngineOpts::default()
    };
    let mut engine = Engine::procs(cfg, Arc::new(PaperFaithful), opts)
        .map_err(|e| format!("procs engine: {e}"))?;
    let mut per_level = Vec::new();
    for (li, &level) in LEVELS.iter().enumerate() {
        let (mut walls, mut workers) = (Vec::new(), Vec::new());
        for _ in 0..REPLAYS {
            let t = Instant::now();
            let report = engine
                .submit(AppConfig::new(app(level)))
                .map_err(|e| format!("submit: {e}"))?
                .wait()
                .map_err(|e| format!("job: {e}"))?;
            walls.push(t.elapsed().as_secs_f64());
            let o = &oracles.0[li].0;
            out.layers
                .record(o.matches(&report.result.combined, report.result.l2_error));
            workers.push(
                report
                    .outcome
                    .pools()
                    .iter()
                    .map(|p| p.workers_created)
                    .sum::<usize>() as f64,
            );
        }
        per_level.push((
            median(&walls).expect("jobs"),
            median(&workers).expect("jobs"),
        ));
    }
    engine.shutdown();
    Ok(per_level)
}

pub fn run(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let oracles = Oracles::new();
    let mut out = Outcome::default();
    let mut rng = Rng::new(ctx.seed);
    let order = if rng.next_u64() & 1 == 0 {
        [0, 1]
    } else {
        [1, 0]
    };

    let mut setups = Vec::with_capacity(SETUPS);
    let mut unloaded: Vec<(f64, u32)> = Vec::new();
    let mut engine: Vec<(f64, f64)> = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let (daemon, mut tenants, dt) = start(ctx, traced, k, order, &oracles, &mut out)?;
        setups.push(dt);
        if traced && k == 0 {
            // Unloaded round trips on a fresh daemon: one tenant, window 1.
            let t = &mut tenants[order[0]];
            let log = drive(
                t,
                &oracles,
                Instant::now(),
                Duration::MAX,
                1,
                Some(UNLOADED_JOBS),
                None,
            )?;
            out.layers.attempted += log.attempted;
            out.layers.failed += log.failed;
            unloaded = log.done.iter().map(|&(ms, _, l)| (ms, l)).collect();
            // The engine alone, right after the round trips it is
            // subtracted from, so that both see the same machine load.
            engine = replay_engine(ctx, &oracles, &mut out)?;
        }
        if k + 1 < SETUPS {
            stop(daemon, tenants)?;
        } else {
            live = Some((daemon, tenants));
        }
    }
    let (daemon, mut tenants) = live.expect("a live daemon");
    let pid = daemon.pid();
    let hwm_start = crate::rss::peak_rss_mb(Some(pid)).map_err(|e| e.to_string())?;
    let probe = RssProbe::new(pid);

    // The timed window: both tenants in parallel, fixed in-flight window.
    let window = ctx.window;
    let start_t = Instant::now();
    let (logs, hwm_end) = std::thread::scope(|s| {
        let handles: Vec<_> = tenants
            .iter_mut()
            .map(|t| {
                let (oracles, probe) = (&oracles, &probe);
                s.spawn(move || drive(t, oracles, start_t, window, INFLIGHT, None, Some(probe)))
            })
            .collect();
        // Peak RSS of the daemon as the window closes, before any drain:
        // the daemon-age diagnostic.
        std::thread::sleep(window.saturating_sub(start_t.elapsed()));
        let hwm = crate::rss::peak_rss_mb(Some(pid));
        let logs: Vec<Result<TenantLog, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("tenant thread panicked".into()))
            })
            .collect();
        (logs, hwm)
    });
    let logs: Vec<TenantLog> = logs.into_iter().collect::<Result<_, _>>()?;
    let hwm_end = hwm_end.map_err(|e| e.to_string())?;
    stop(daemon, tenants)?;
    let rss_mb = match probe.reading.into_inner() {
        Some(hwm) => hwm?,
        None => return Err(format!("the tenants served fewer than {RSS_AT_JOBS} jobs")),
    };

    for log in &logs {
        out.e2e.attempted += log.attempted;
        out.e2e.failed += log.failed;
    }
    let done: Vec<(f64, f64, u32)> = logs.iter().flat_map(|l| l.done.iter().copied()).collect();
    let lat: Vec<f64> = done.iter().map(|d| d.0).collect();
    let secs = window.as_secs_f64();
    let p50 = median(&lat).ok_or("no job finished inside the window")?;
    let served_per_s = done.len() as f64 / secs;
    out.e2e.set(
        "setup_s",
        median_of_group_means(&setups, SETUPS_PER_GROUP).expect("setups"),
    );
    out.e2e.set("op_p50_ms", p50);
    out.e2e.set("ops_per_s", served_per_s);
    out.e2e.set("rss_mb", rss_mb);
    // p99 once a thousand jobs leave ten beyond it; a slower machine gets
    // the highest percentile that still has ten.
    let tail_ms = highest_tail(&lat, &[0.99, 0.9, 0.5]);
    println!(
        "serve-procs{}: served_jobs_per_s {served_per_s:.2} (n={}), latency_p50_ms {p50:.3}, \
         {}, daemon rss_mb {rss_mb:.1} at {RSS_AT_JOBS} jobs (after setup {hwm_start:.1}, \
         {hwm_end:.1} as the window closes), \
         setup_s {:.4} s ({SETUPS} start-ups in groups of {SETUPS_PER_GROUP})",
        if traced { " traced" } else { "" },
        done.len(),
        tail_ms.map_or("no tail percentile (too few samples)".into(), |(p, v)| {
            format!("latency_p{:.0}_ms {v:.3}", p * 100.0)
        }),
        median_of_group_means(&setups, SETUPS_PER_GROUP).expect("setups"),
    );

    if traced {
        // Daemon age: throughput late in the window against early in it.
        let quarter = |lo: f64, hi: f64| {
            done.iter()
                .filter(|d| d.1 >= lo * secs && d.1 < hi * secs)
                .count() as f64
        };
        let late_over_early = quarter(0.75, 1.0) / quarter(0.0, 0.25).max(1.0);
        let mix: Vec<f64> = LEVELS
            .iter()
            .map(|&l| done.iter().filter(|d| d.2 == l).count() as f64 / done.len() as f64)
            .collect();
        let per_job =
            |f: &dyn Fn(usize) -> f64| (0..LEVELS.len()).map(|i| mix[i] * f(i)).sum::<f64>();

        let replays: Vec<LevelLayers> = LEVELS
            .iter()
            .zip(&oracles.0)
            .map(|(&l, (_, r))| replay_level(l, r))
            .collect::<Result<_, _>>()?;
        let admission_s = replay_admission(&logs)?;
        let (journal_s, journal_bytes) =
            replay_journal(&logs, &ctx.tmp.join("journal-replay"), &oracles)?;

        let unloaded_ms: Vec<f64> = unloaded.iter().map(|u| u.0).collect();
        let unloaded_p50 = median(&unloaded_ms).ok_or("no unloaded round trips")?;
        let unloaded_by_level: Vec<f64> = LEVELS
            .iter()
            .map(|&l| {
                let v: Vec<f64> = unloaded.iter().filter(|u| u.1 == l).map(|u| u.0).collect();
                median(&v).unwrap_or(unloaded_p50)
            })
            .collect();
        let rtt_ms = per_job(&|i| unloaded_by_level[i]);
        let proto_us = per_job(&|i| replays[i].proto_us);
        let submit_s = per_job(&|i| engine[i].0);
        // What the serving layers outside the engine leave unexplained:
        // reactor, sockets and the dispatcher hand-off.
        let residual_ms =
            rtt_ms - (proto_us * 1e-3 + admission_s * 1e3 + journal_s * 1e3 + submit_s * 1e3);
        let count = |f: fn(&WorkCounter) -> u64| per_job(&|i| f(&oracles.0[i].1.work) as f64);
        let r = &mut out.layers;
        r.set("solver.subsolve_s", per_job(&|i| replays[i].subsolve_s));
        r.set(
            "solver.slowest_grid_s",
            per_job(&|i| replays[i].slowest_grid_s),
        );
        r.set("solver.prolong_s", per_job(&|i| replays[i].prolong_s));
        r.set("solver.steps", count(|w| w.steps));
        r.set("solver.lin_iters", count(|w| w.lin_iters));
        r.set("solver.refactorizations", count(|w| w.refactorizations));
        r.set("solver.flops", count(|w| w.flops));
        r.set(
            "solver.gflops_per_s",
            per_job(&|i| replays[i].subsolve_flops) / per_job(&|i| replays[i].subsolve_s) / 1e9,
        );
        r.set("renovation.submit_s", submit_s);
        r.set("renovation.codec_us", per_job(&|i| replays[i].codec_us));
        r.set(
            "renovation.codec_bytes",
            per_job(&|i| replays[i].codec_bytes),
        );
        r.set("transport.frame_us", per_job(&|i| replays[i].frame_us));
        r.set(
            "transport.bytes_per_job",
            per_job(&|i| replays[i].frame_bytes),
        );
        r.set("serve.proto_us", proto_us);
        r.set("serve.admission_us", admission_s * 1e6);
        r.set("serve.journal_us", journal_s * 1e6);
        r.set("serve.journal_bytes_per_job", journal_bytes);
        r.set("serve.unloaded_rtt_ms", unloaded_p50);
        r.set("serve.queue_wait_ms", p50 - unloaded_p50);
        r.set("serve.residual_ms", residual_ms);
        r.set(
            "serve.latency_tail_ms",
            tail_ms.ok_or("too few samples for any tail percentile")?.1,
        );
        r.set(
            "serve.rss_growth_kb_per_job",
            (hwm_end - hwm_start) * 1024.0 / done.len() as f64,
        );
        r.set("serve.late_over_early_throughput", late_over_early);
        r.set("manifold.workers_created", per_job(&|i| engine[i].1));
        r.set("trace.unexplained_pct", residual_ms / rtt_ms * 100.0);
        println!(
            "serve-procs layers (per job, unloaded): rtt {rtt_ms:.3} ms = proto {proto_us:.1} us \
             + admission {:.1} us + journal {:.1} us + engine submit {:.3} ms + residual \
             {residual_ms:.3} ms; loaded p50 {p50:.3} ms (queue wait {:.3} ms); daemon rss \
             {hwm_start:.1} -> {hwm_end:.1} MB over {} jobs; late/early throughput {late_over_early:.3}",
            admission_s * 1e6,
            journal_s * 1e6,
            submit_s * 1e3,
            p50 - unloaded_p50,
            done.len(),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_serves_the_same_level_mix() {
        for seed in [1u64, 2, 99] {
            let mut lv = Levels::new(seed, 0);
            let drawn: Vec<u32> = (0..30).map(|_| lv.next()).collect();
            for l in LEVELS {
                assert_eq!(drawn.iter().filter(|&&d| d == l).count(), 10);
            }
        }
        let draw = |seed| {
            let mut lv = Levels::new(seed, 1);
            (0..12).map(|_| lv.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(4), draw(4));
        assert_ne!(draw(4), draw(5));
    }
}
