//! The admission benchmark: a journaled `SchedService` behind an
//! in-process `hsched_net::Server`, driven over loopback TCP by closed-loop
//! client connections, one thread each.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload toggle_sync --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of
//! standard output is the end-to-end result; with `--trace 1` it is the
//! per-layer result of a traced run (client spans, the layer ladder, the
//! server's own counters). The line before it is the host calibration.
//! Exits 1 when a correctness gate fails, 2 on bad arguments.
//! See `perfbench/README.md` for the metrics and what each should move.

mod host;
mod ladder;
mod recovery;
mod scenario;
mod speed;
mod stats;
mod wire;

use hsched_admission::{AdmissionPolicy, Verdict};
use hsched_analysis::AnalysisConfig;
use hsched_engine::{EngineRequest, SchedService};
use hsched_net::{Client, Server, ServerConfig, ServerHandle};
use hsched_telemetry::MetricsSnapshot;
use hsched_transaction::TransactionSet;
use scenario::{Kind, Scenario};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::{Conn, Record, Until};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Unmeasured rounds per connection before timing starts.
const WARMUP_ROUNDS: usize = 32;
/// Epochs per connection the layer ladder replays (from the seed state).
const LADDER_TOGGLE_EPOCHS: usize = 1024;
const LADDER_CHURN_EPOCHS: usize = 96;

/// Epochs per connection whose batch and verdict a run keeps: every one
/// when the reference check needs the whole stream, else the layer
/// ladder's prefix.
fn recorded_epochs(kind: Kind) -> usize {
    match kind {
        Kind::IslandChurn => usize::MAX,
        Kind::ToggleSync | Kind::TogglePipelined => LADDER_TOGGLE_EPOCHS,
    }
}

struct Args {
    kind: Kind,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or_else(|| {
        format!("unknown workload {workload} (toggle_sync, toggle_pipelined, island_churn)")
    })?;
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        kind,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    let run_dir = root
        .join(".perfbench_run")
        .join(std::process::id().to_string());
    let outcome = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("create {}: {e}", run_dir.display()))
        .and_then(|()| run(&args, &root, &run_dir));
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(root.join(".perfbench_run"));
    match outcome {
        Ok(report) => {
            println!("{}", report.calibration);
            eprintln!("{}", report.summary);
            println!("{}", report.result_json());
            if !report.correct() {
                eprintln!(
                    "perfbench: correctness gate failed: {}",
                    report.errors.join("; ")
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything a run prints.
struct Report {
    calibration: String,
    summary: String,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn put(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) if v.is_finite() => self.metrics.push((name.to_string(), v, unit)),
            _ => self
                .errors
                .push(format!("metric {name} could not be measured")),
        }
    }

    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One set-up: scenario generation, seed analysis, journal creation,
/// server bind, and the client connections — everything before the first
/// submit can be sent. Its total is process CPU time
/// ([`host::process_cpu_s`], all threads), which [`run`] scales to the
/// reference speed by kernels run on every CPU right after it
/// ([`speed::scale_on_every_cpu`]): the work is CPU-bound (the seed
/// analysis, on all cores, is over 90% of it), and its wall time ranged
/// 0.29–0.48 s over ten runs as the CPU the hypervisor stole went from 2%
/// to 38%. The split into phases is wall time.
struct Setup {
    scenario: Scenario,
    engine: Arc<SchedService>,
    server: ServerHandle,
    conns: Vec<Conn>,
    journal: PathBuf,
    scenario_s: f64,
    seed_analysis_s: f64,
    server_start_s: f64,
    cpu_s: f64,
}

fn set_up(kind: Kind, seed: u64, journal: &Path, cpu_start: f64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let raw = scenario::raw_system(kind);
    let t1 = Instant::now();
    let (set, service) = scenario::schedulable_service(raw)?;
    let t2 = Instant::now();
    let mut scenario = scenario::generate(kind, seed, set)?;
    let t3 = Instant::now();
    let service = service
        .with_journal(journal)
        .map_err(|e| format!("journal: {e}"))?;
    let engine = Arc::new(service);
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            service_addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server: {e}"))?;
    let addr = server.service_addr().to_string();
    let conns = std::mem::take(&mut scenario.sources)
        .into_iter()
        .map(|source| Conn::connect(&addr, source, recorded_epochs(kind)))
        .collect::<Result<Vec<_>, String>>()?;
    let done = Instant::now();
    Ok(Setup {
        scenario,
        engine,
        server,
        conns,
        journal: journal.to_path_buf(),
        scenario_s: (t1 - t0 + (t3 - t2)).as_secs_f64(),
        seed_analysis_s: (t2 - t1).as_secs_f64(),
        server_start_s: (done - t3).as_secs_f64(),
        cpu_s: host::process_cpu_s() - cpu_start,
    })
}

fn tear_down(mut setup: Setup) {
    for conn in &mut setup.conns {
        conn.close();
    }
    let _ = setup.server.join();
    drop(setup.engine);
    let _ = std::fs::remove_file(&setup.journal);
}

fn stats_of(addr: &str) -> Result<MetricsSnapshot, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    let snap = client.stats().map_err(|e| format!("stats: {e}"))?;
    let _ = client.quit();
    Ok(snap)
}

fn run(args: &Args, root: &Path, run_dir: &Path) -> Result<Report, String> {
    let kind = args.kind;

    // Set-up, repeated; the last one is kept for the measured phases. Each
    // earlier one is torn down before the next starts, so the peak RSS
    // holds one service at a time.
    let mut setups = Vec::new();
    let mut setup = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = setup.take() {
            tear_down(previous);
        }
        let journal = run_dir.join(format!("primary-{rep}.journal"));
        // The first set-up counts from process start, where the process's
        // CPU time starts.
        let cpu_start = if rep == 0 { 0.0 } else { host::process_cpu_s() };
        let s = set_up(kind, args.seed, &journal, cpu_start)?;
        let cpu_s = s.cpu_s * speed::scale_on_every_cpu();
        setups.push([cpu_s, s.scenario_s, s.seed_analysis_s, s.server_start_s]);
        setup = Some(s);
    }
    let mut setup = setup.expect("at least one set-up");
    let mut calibration =
        host::Calibration::probe(root, run_dir).map_err(|e| format!("fdatasync probe: {e}"))?;
    let addr = setup.server.service_addr().to_string();
    let origin = Instant::now();

    let warmup = wire::run(
        &mut setup.conns,
        kind,
        Until::Rounds(WARMUP_ROUNDS),
        false,
        origin,
    );
    let mut errors: Vec<String> = Vec::new();
    // A traced run splits its time between an untraced and a traced
    // phase, so it writes as much journal as an untraced run.
    let duration = if args.trace {
        Duration::from_secs(args.seconds).div_f64(2.0)
    } else {
        Duration::from_secs(args.seconds)
    };
    let steal0 = host::host_steal_ticks();
    let timed = wire::run(
        &mut setup.conns,
        kind,
        Until::Deadline(Instant::now() + duration),
        false,
        origin,
    );
    let steal1 = host::host_steal_ticks();
    calibration.host_speed =
        stats::median(&timed.slices.iter().map(|s| s.speed).collect::<Vec<_>>()).unwrap_or(0.0);
    calibration.steal_pct = stats::per_unit(
        100.0 * steal1.0.saturating_sub(steal0.0) as f64,
        steal1.1.saturating_sub(steal0.1),
    )
    .unwrap_or(0.0);
    let traced = if args.trace {
        let before = stats_of(&addr)?;
        let phase = wire::run(
            &mut setup.conns,
            kind,
            Until::Deadline(Instant::now() + duration),
            true,
            origin,
        );
        let after = stats_of(&addr)?;
        Some((phase, before, after))
    } else {
        None
    };
    for conn in &mut setup.conns {
        conn.close();
    }
    let phases: Vec<&wire::Phase> = [&warmup, &timed]
        .into_iter()
        .chain(traced.as_ref().map(|(p, _, _)| p))
        .collect();
    for phase in &phases {
        for conn in &phase.conns {
            if let Some(e) = &conn.first_error {
                errors.push(e.clone());
            }
        }
    }
    let attempted: u64 = phases.iter().map(|p| p.attempted()).sum();
    let mut failed: u64 = phases.iter().map(|p| p.failed()).sum();

    let durable_epoch = setup.engine.durable_epoch();
    let (epoch, primary_digest) = setup.engine.epoch_digest();
    if durable_epoch != epoch {
        errors.push(format!(
            "durable epoch {durable_epoch} behind settled {epoch}"
        ));
    }
    let journal_bytes = std::fs::metadata(&setup.journal)
        .map(|m| m.len())
        .map_err(|e| format!("journal size: {e}"))?;
    let _ = setup.server.join();
    let set = setup.scenario.set.clone();
    let streams: Vec<Vec<Record>> = setup
        .conns
        .iter_mut()
        .map(|c| std::mem::take(&mut c.stream))
        .collect();

    // Verdict gate: island churn verdicts against a journal-less reference.
    if kind == Kind::IslandChurn {
        let (mismatches, admits, rejects) = reference_check(&set, &streams)?;
        failed += mismatches;
        if mismatches > 0 {
            errors.push(format!("{mismatches} verdict(s) differ from the reference"));
        }
        if admits == 0 || rejects == 0 {
            errors.push(format!(
                "island churn must both admit and reject (admitted {admits}, rejected {rejects})"
            ));
        }
    }

    // Recovery: a fresh standby over the replication port, then a cold
    // replay, each digest-checked against the primary. Both start with a
    // seed analysis; its time is taken out of their per-record rates. The
    // whole phase, the replication server's threads too, runs pinned to
    // one CPU, so the speed sampler times the CPU the work runs on.
    let pinned = host::pin_to_one_cpu();
    let recovered = recover(setup.engine, &setup.journal, &set, run_dir, epoch);
    host::restore_affinity(pinned);
    let (catchup, repl_stats, replay) = recovered?;
    if catchup.digest != primary_digest {
        errors.push(format!(
            "standby digest {} differs from the primary's {primary_digest}",
            catchup.digest
        ));
    }
    if replay.digest != primary_digest || replay.records != epoch {
        errors.push(format!(
            "cold replay reached epoch {} digest {}, primary epoch {epoch} digest {primary_digest}",
            replay.records, replay.digest
        ));
    }

    let mut report = Report {
        calibration: calibration.json(),
        summary: String::new(),
        attempted,
        failed,
        errors,
        metrics: Vec::new(),
    };
    let setup_col = |i: usize| stats::median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());
    let durable = timed.durable();
    if let Some((phase, before, after)) = &traced {
        let ladder_streams: Vec<&[Record]> = streams
            .iter()
            .map(|s| {
                let cap = if kind == Kind::IslandChurn {
                    LADDER_CHURN_EPOCHS
                } else {
                    LADDER_TOGGLE_EPOCHS
                };
                &s[..s.len().min(cap)]
            })
            .collect();
        let journaled = ladder::service_rung(
            &set,
            kind,
            &ladder_streams,
            Some(&run_dir.join("ladder.journal")),
        )?;
        let bare = ladder::service_rung(&set, kind, &ladder_streams, None)?;
        let islands = ladder::island_rungs(&set, &ladder_streams, &setup.scenario.islands)?;
        let mismatches = journaled.mismatches + bare.mismatches + islands.mismatches;
        if mismatches > 0 {
            report.errors.push(format!(
                "{mismatches} ladder verdict(s) differ from the wire run"
            ));
        }
        let pinned = host::pin_to_one_cpu();
        let read = recovery::read(&setup.journal);
        host::restore_affinity(pinned);
        let read = read?;
        per_layer(
            &mut report,
            &LayerInputs {
                untraced: &timed,
                traced: phase,
                before,
                after,
                journaled: &journaled,
                bare: &bare,
                islands: &islands,
                replay: &replay,
                catchup: &catchup,
                read: &read,
                repl_stats: &repl_stats,
                calibration: &calibration,
            },
        );
        // Wall-clock throughput and latency of the untraced half. They
        // are the figures a caller sees, but neighbours' CPU steal moves
        // them further between runs than any bound allowed, so they are
        // reported here, unbounded, next to the steal they depend on.
        report.put("wall.durable_eps", timed.durable_eps(), "epochs/s");
        report.put(
            "wall.verdict_p50_ms",
            timed.latency_quantile_us(0.5).map(|v| v / 1e3),
            "ms",
        );
        report.put(
            "wall.verdict_p90_ms",
            timed.latency_quantile_us(0.9).map(|v| v / 1e3),
            "ms",
        );
        report.put("host.steal_pct", Some(calibration.steal_pct), "%");
        report.put("setup.scenario_s", setup_col(1), "s");
        report.put("setup.seed_analysis_s", setup_col(2), "s");
        report.put("setup.server_start_s", setup_col(3), "s");
    } else {
        report.put("setup_s", setup_col(0), "s");
        report.put("cpu_us_per_epoch", timed.cpu_us_per_epoch(), "us");
        report.put("peak_rss_mb", Some(host::peak_rss_mib()), "MiB");
        report.put(
            "journal_bytes_per_epoch",
            stats::per_unit(journal_bytes as f64, epoch),
            "B",
        );
        report.put(
            "replay_eps",
            stats::rate(replay.records, replay.seconds),
            "records/s",
        );
        report.put(
            "catchup_eps",
            stats::rate(catchup.records, catchup.seconds),
            "records/s",
        );
    }
    let admitted: u64 = phases
        .iter()
        .flat_map(|p| &p.conns)
        .map(|c| c.admitted)
        .sum();
    let rejected: u64 = phases
        .iter()
        .flat_map(|p| &p.conns)
        .map(|c| c.rejected)
        .sum();
    let slice_eps: Vec<String> = timed
        .slices
        .iter()
        .map(|s| {
            format!(
                "{:.0}@{:.0}%",
                s.durable as f64 / s.seconds,
                s.steal * 100.0
            )
        })
        .collect();
    let ms = |q: f64| timed.latency_quantile_us(q).map_or(f64::NAN, |v| v / 1e3);
    report.summary = format!(
        "{} seed {}: {durable} durable epochs in {:.2} s ({:.0} eps, slice median {:.0}), \
         verdict p50 {:.3} ms p90 {:.3} ms, failed {}/{} (failed_frac {:.4}), \
         {admitted} admitted, {rejected} rejected, journal {journal_bytes} B over {epoch} epochs, \
         replay {:.2} s ({:.2} s CPU), catch-up {:.2} s ({:.2} s CPU); eps@steal per slice [{}]",
        args.workload,
        args.seed,
        timed.wall_s,
        durable as f64 / timed.wall_s,
        timed.durable_eps().unwrap_or(f64::NAN),
        ms(0.5),
        ms(0.9),
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64,
        replay.wall_s,
        replay.seconds,
        catchup.wall_s,
        catchup.seconds,
        slice_eps.join(" "),
    );
    Ok(report)
}

/// The recovery phase: a fresh standby caught up over the replication
/// port of a new server over `engine`, then a cold replay of `journal`.
/// `engine` is dropped before the replay, so the peak RSS holds the
/// primary and the replayed service one at a time. Returns the catch-up,
/// the replication server's counters, and the replay.
fn recover(
    engine: Arc<SchedService>,
    journal: &Path,
    set: &TransactionSet,
    run_dir: &Path,
    epoch: u64,
) -> Result<(recovery::Timed, MetricsSnapshot, recovery::Timed), String> {
    let seed_s = recovery::seed_analysis_s(set)?;
    let repl = Server::start(
        engine.clone(),
        ServerConfig {
            service_addr: "127.0.0.1:0".to_string(),
            repl_addr: Some("127.0.0.1:0".to_string()),
            journal_path: Some(journal.to_path_buf()),
            heartbeat_interval: Duration::from_millis(50),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("replication server: {e}"))?;
    let repl_addr = repl
        .repl_addr()
        .expect("replication port bound")
        .to_string();
    let catchup = recovery::catch_up(
        set,
        &repl_addr,
        &run_dir.join("mirror.journal"),
        epoch,
        seed_s,
    );
    let repl_stats = stats_of(&repl.service_addr().to_string());
    let _ = repl.join();
    drop(engine);
    let catchup = catchup?;
    let repl_stats = repl_stats?;
    let replay = recovery::replay(set, journal, seed_s)?;
    Ok((catchup, repl_stats, replay))
}

/// Feeds each connection's stream, in order, to its own journal-less
/// reference service and compares every verdict. Returns (mismatches,
/// admitted, rejected).
fn reference_check(
    set: &TransactionSet,
    streams: &[Vec<Record>],
) -> Result<(u64, u64, u64), String> {
    let parts: Vec<Result<(u64, u64, u64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let reference = SchedService::new(
                        set.clone(),
                        AnalysisConfig::default(),
                        AdmissionPolicy::default(),
                    )
                    .map_err(|e| format!("reference: {e}"))?;
                    let mut tally = (0, 0, 0);
                    for record in stream {
                        let response = reference
                            .submit(&EngineRequest::batch(record.batch.clone()))
                            .map_err(|e| format!("reference: {e}"))?;
                        let detail = match &response.outcome.verdict {
                            Verdict::Admitted => None,
                            Verdict::Rejected(reason) => Some(reason.to_string()),
                        };
                        if response.outcome.verdict.admitted() {
                            tally.1 += 1;
                        } else {
                            tally.2 += 1;
                        }
                        if response.outcome.verdict.admitted() != record.admitted
                            || detail != record.detail
                        {
                            tally.0 += 1;
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut total = (0, 0, 0);
    for part in parts {
        let (m, a, r) = part?;
        total = (total.0 + m, total.1 + a, total.2 + r);
    }
    Ok(total)
}

struct LayerInputs<'a> {
    untraced: &'a wire::Phase,
    traced: &'a wire::Phase,
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
    journaled: &'a ladder::ServiceRung,
    bare: &'a ladder::ServiceRung,
    islands: &'a ladder::IslandRungs,
    replay: &'a recovery::Timed,
    catchup: &'a recovery::Timed,
    read: &'a recovery::Timed,
    repl_stats: &'a MetricsSnapshot,
    calibration: &'a host::Calibration,
}

/// The per-layer metrics of a traced run. A value that has nothing to
/// measure on a workload (no `sync` frames on a lockstep workload, no
/// warm-started cone on pure toggles) reads 0.
fn per_layer(report: &mut Report, x: &LayerInputs) {
    let counter = |name: &str| x.after.counter(name).saturating_sub(x.before.counter(name));
    let hist_mean = |name: &str, scale: f64| -> f64 {
        let sum_count =
            |s: &MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.sum(), h.count()));
        let (s0, c0) = sum_count(x.before);
        let (s1, c1) = sum_count(x.after);
        stats::per_unit(s1.saturating_sub(s0) as f64 * scale, c1.saturating_sub(c0)).unwrap_or(0.0)
    };
    let or0 = |v: Option<f64>| Some(v.unwrap_or(0.0));
    let epochs = x.traced.durable();
    let settled = counter("engine.epochs_settled");

    // hsched-net: client spans of the traced phase.
    let submit = x.traced.latencies_us();
    let spans = |name: &str| -> Vec<f64> {
        x.traced
            .conns
            .iter()
            .flat_map(|c| c.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.at.len() as f64 / 1e3)
            .collect()
    };
    let windows = spans("window");
    let window_self: Vec<f64> = x
        .traced
        .conns
        .iter()
        .flat_map(|c| {
            c.spans.iter().filter(|s| s.name == "window").map(|w| {
                let children: Vec<stats::Interval> = c
                    .spans
                    .iter()
                    .filter(|s| s.parent == Some(w.id))
                    .map(|s| s.at)
                    .collect();
                stats::self_time(w.at, &children) as f64 / 1e3
            })
        })
        .collect();
    let net_submit_mean = stats::mean(&submit);
    let engine_submit_mean = stats::mean(&x.journaled.submit_us);
    report.put("net.submit_us.mean", net_submit_mean, "us");
    report.put(
        "net.submit_us.p50",
        or0(stats::percentile(&submit, 0.5)),
        "us",
    );
    report.put(
        "net.submit_us.p90",
        or0(stats::percentile(&submit, 0.9)),
        "us",
    );
    report.put("net.window_us.mean", or0(stats::mean(&windows)), "us");
    report.put(
        "net.window_us.p50",
        or0(stats::percentile(&windows, 0.5)),
        "us",
    );
    report.put(
        "net.window_self_us.mean",
        or0(stats::mean(&window_self)),
        "us",
    );
    report.put("net.sync_us.mean", or0(stats::mean(&spans("sync"))), "us");
    report.put(
        "net.self_us_per_epoch",
        net_submit_mean.zip(engine_submit_mean).map(|(n, e)| n - e),
        "us",
    );
    report.put(
        "net.frames_per_epoch",
        or0(stats::per_unit(
            (counter("net.frames_in") + counter("net.frames_out")) as f64,
            epochs,
        )),
        "count",
    );
    report.put(
        "net.bytes_in_per_epoch",
        or0(stats::per_unit(counter("net.bytes_in") as f64, epochs)),
        "B",
    );
    report.put(
        "net.bytes_out_per_epoch",
        or0(stats::per_unit(counter("net.bytes_out") as f64, epochs)),
        "B",
    );

    // hsched-engine front door: the journaled ladder rung plus the
    // server's phase timers over the traced phase.
    report.put("engine.submit_us.mean", engine_submit_mean, "us");
    report.put(
        "engine.submit_us.p50",
        or0(stats::percentile(&x.journaled.submit_us, 0.5)),
        "us",
    );
    report.put(
        "engine.submit_us.p90",
        or0(stats::percentile(&x.journaled.submit_us, 0.9)),
        "us",
    );
    report.put(
        "engine.submit_async_us.mean",
        stats::mean(&x.journaled.submit_async_us),
        "us",
    );
    for phase in ["reserve", "route", "checkout", "settle", "analyze", "fsync"] {
        report.put(
            &format!("engine.phase.{phase}_us.mean"),
            Some(hist_mean(&format!("engine.phase.{phase}_ns"), 1e-3)),
            "us",
        );
    }
    report.put(
        "engine.reserve.fast_ratio",
        or0(stats::ratio(
            counter("engine.reserve.fast"),
            counter("engine.reserve.fast_fallbacks"),
        )),
        "ratio",
    );
    for name in ["fast_conflicts", "exclusive_drains"] {
        report.put(
            &format!("engine.reserve.{name}_per_kepoch"),
            or0(stats::per_unit(
                counter(&format!("engine.reserve.{name}")) as f64 * 1e3,
                settled,
            )),
            "count",
        );
    }

    // Journal write and group commit.
    report.put(
        "engine.sync_us.mean",
        stats::mean(&x.journaled.sync_us),
        "us",
    );
    report.put(
        "journal.epochs_per_fsync.mean",
        Some(hist_mean("engine.sync.batch_epochs", 1.0)),
        "count",
    );
    let fsyncs = |s: &MetricsSnapshot| {
        s.histogram("engine.phase.fsync_ns")
            .map_or(0, |h| h.count())
    };
    report.put(
        "journal.fsyncs_per_kepoch",
        or0(stats::per_unit(
            fsyncs(x.after).saturating_sub(fsyncs(x.before)) as f64 * 1e3,
            settled,
        )),
        "count",
    );
    report.put(
        "journal.cost_us_per_epoch",
        Some(x.journaled.busy_us - x.bare.busy_us),
        "us",
    );
    report.put(
        "host.fdatasync_p50_us",
        Some(x.calibration.fdatasync_p50_us),
        "us",
    );
    report.put(
        "host.fdatasync_p90_us",
        Some(x.calibration.fdatasync_p90_us),
        "us",
    );

    // Journal read and replication.
    let per_record = |t: &recovery::Timed| stats::per_unit(t.seconds * 1e6, t.records);
    report.put("journal.read_us_per_record", per_record(x.read), "us");
    report.put("engine.replay_us_per_record", per_record(x.replay), "us");
    report.put(
        "follower.catchup_us_per_record",
        per_record(x.catchup),
        "us",
    );
    report.put(
        "net.repl.bytes_per_record",
        stats::per_unit(
            x.repl_stats.counter("net.repl.bytes_streamed") as f64,
            x.catchup.records,
        ),
        "B",
    );

    // hsched-admission.
    report.put(
        "admission.commit_us.mean",
        stats::mean(&x.islands.commit_us),
        "us",
    );
    report.put(
        "admission.commit_us.p90",
        or0(stats::percentile(&x.islands.commit_us, 0.9)),
        "us",
    );
    report.put(
        "admission.warm_ratio",
        or0(stats::per_unit(
            counter("admission.commits_warm") as f64,
            counter("admission.commits_analyzed"),
        )),
        "ratio",
    );
    report.put(
        "admission.cone_tx.mean",
        Some(hist_mean("admission.cone.transactions", 1.0)),
        "count",
    );

    // hsched-analysis and hsched-numeric.
    report.put(
        "analysis.fixpoint_us.mean",
        stats::mean(&x.islands.fixpoint_us),
        "us",
    );
    report.put(
        "analysis.fixpoint_us.p90",
        or0(stats::percentile(&x.islands.fixpoint_us, 0.9)),
        "us",
    );
    report.put(
        "analysis.iterations_cold.mean",
        Some(hist_mean("analysis.fixpoint.iterations_cold", 1.0)),
        "count",
    );
    report.put(
        "analysis.iterations_warm.mean",
        Some(hist_mean("analysis.fixpoint.iterations_warm", 1.0)),
        "count",
    );
    let hits =
        counter("analysis.rta_cache.foreign_hits") + counter("analysis.rta_cache.completion_hits");
    let misses = counter("analysis.rta_cache.foreign_misses")
        + counter("analysis.rta_cache.completion_misses");
    report.put(
        "analysis.rta_cache.hit_ratio",
        or0(stats::ratio(hits, misses)),
        "ratio",
    );

    // Tracing overhead: traced against untraced throughput in this run.
    report.put(
        "trace_overhead_pct",
        x.untraced
            .durable_eps()
            .zip(x.traced.durable_eps())
            .map(|(u, t)| (u - t) / u * 100.0),
        "%",
    );
}
