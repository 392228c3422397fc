//! Scripted perf run for the concurrent admission service: measures
//! journaled epoch *throughput* on the production-scale churn system
//! (3072 transactions, 384 clusters / ~410 interference islands — the
//! `BENCH_router.json` configuration) with 8 client threads submitting
//! disjoint-island toggle batches through `SchedService::submit(&self)`,
//! against the same epoch stream pushed one-at-a-time through a serial
//! front end (one client thread, pipeline depth 1). Writes `BENCH_service.json`. Run via
//! `scripts/bench_service.sh` or directly:
//!
//! ```sh
//! cargo run --release -p hsched-bench --bin service_perf [OUT.json]
//! ```
//!
//! Both engines run with a write-ahead journal attached (the production
//! configuration — durability is part of the service contract, so it is
//! part of the measured path). The serial front end pays `analysis +
//! fsync` sequentially for every epoch; the concurrent service pipelines:
//! while one epoch's record syncs, the next client's analysis is already
//! running, and one group-committed fsync can cover several settled
//! epochs. That pipelining is visible even on a single core; on
//! multi-core hardware the shard analyses of disjoint islands overlap
//! too, widening the gap further. A third leg measures the fully
//! pipelined front door — `submit_async` per epoch plus one `sync` per
//! client at its high-water ticket — which drops even the per-epoch wait
//! for the group commit.
//!
//! Clients churn the *smallest* disjoint islands of the system (sizes
//! 1–3 here): a front-end benchmark wants the per-epoch fixpoint small,
//! the way a WAL benchmark uses small records — heavyweight islands
//! measure analysis math, which `BENCH_router.json` already covers. The
//! binary asserts the concurrent service clearly beats the serial front
//! end, making the committed JSON a perf regression gate.

use hsched_admission::gen::random_scenario;
use hsched_admission::{AdmissionPolicy, AdmissionRequest};
use hsched_analysis::AnalysisConfig;
use hsched_bench::router_churn::{churn_spec, smallest_island_victims};
use hsched_engine::{EngineRequest, SchedService};
use hsched_transaction::Transaction;
use std::path::PathBuf;
use std::time::Instant;

const CLIENTS: usize = 8;
/// Toggle epochs per client per pass (even, so the live set returns to
/// the seed state after every pass).
const EPOCHS_PER_CLIENT: usize = 40;
/// Measurement passes per engine (best pass reported — standard practice
/// to shed scheduler noise; both engines get the same treatment).
const PASSES: usize = 3;

fn toggle(victim: &Transaction, round: usize) -> Vec<AdmissionRequest> {
    if round % 2 == 0 {
        vec![AdmissionRequest::RemoveTransaction {
            name: victim.name.clone(),
        }]
    } else {
        vec![AdmissionRequest::AddTransaction(victim.clone())]
    }
}

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hsched-service-perf-{}-{tag}.journal",
        std::process::id()
    ))
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_service.json".to_string());
    let spec = churn_spec();
    let set = random_scenario(&spec);
    let chosen = smallest_island_victims(&set, CLIENTS);
    assert_eq!(chosen.len(), CLIENTS, "one disjoint island per client");
    let total_epochs = CLIENTS * EPOCHS_PER_CLIENT;

    // Serial front end: one client thread at pipeline depth 1, one epoch
    // at a time, journal attached (fsync inside the epoch path).
    let serial_journal = temp_journal("serial");
    let serial = SchedService::new(
        set.clone(),
        AnalysisConfig::default(),
        AdmissionPolicy::default(),
    )
    .expect("seed analysis succeeds")
    .with_max_inflight(1)
    .with_journal(&serial_journal)
    .expect("journal attaches");
    let run_serial = |serial: &SchedService, rounds: usize| -> f64 {
        let start = Instant::now();
        for round in 0..rounds {
            for victim in &chosen {
                let response = serial
                    .submit(&EngineRequest::batch(toggle(victim, round)))
                    .expect("engine ok");
                assert!(response.outcome.verdict.admitted(), "serial epoch rejected");
            }
        }
        start.elapsed().as_secs_f64()
    };

    // Concurrent service: 8 client threads, each toggling its own island
    // through `&self`, same journal contract.
    let service_journal = temp_journal("service");
    let service = SchedService::new(
        set.clone(),
        AnalysisConfig::default(),
        AdmissionPolicy::default(),
    )
    .expect("seed analysis succeeds")
    .with_journal(&service_journal)
    .expect("journal attaches");
    let run_concurrent = |rounds: usize| -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for victim in &chosen {
                let service = &service;
                scope.spawn(move || {
                    for round in 0..rounds {
                        let response = service
                            .submit(&EngineRequest::batch(toggle(victim, round)))
                            .expect("engine ok");
                        assert!(
                            response.outcome.verdict.admitted(),
                            "service epoch rejected"
                        );
                    }
                });
            }
        });
        start.elapsed().as_secs_f64()
    };

    // Pipelined service: same 8 clients, but each submits its whole run
    // through `submit_async` and calls `sync` once at its high-water
    // ticket — the group-commit configuration a batching client uses.
    let pipelined_journal = temp_journal("pipelined");
    let pipelined = SchedService::new(
        set.clone(),
        AnalysisConfig::default(),
        AdmissionPolicy::default(),
    )
    .expect("seed analysis succeeds")
    .with_journal(&pipelined_journal)
    .expect("journal attaches");
    let run_pipelined = |rounds: usize| -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for victim in &chosen {
                let pipelined = &pipelined;
                scope.spawn(move || {
                    let mut high_water = 0;
                    for round in 0..rounds {
                        let ticket = pipelined
                            .submit_async(&EngineRequest::batch(toggle(victim, round)))
                            .expect("engine ok");
                        assert!(
                            ticket.response.outcome.verdict.admitted(),
                            "pipelined epoch rejected"
                        );
                        high_water = ticket.epoch;
                    }
                    pipelined.sync(high_water).expect("group sync ok");
                });
            }
        });
        start.elapsed().as_secs_f64()
    };

    // Warm-up all engines (page cache, shard caches), then alternate
    // measured passes so filesystem/journal background state is shared
    // fairly; report each engine's best pass. The serial leg's total wall
    // time (warm-up included) is kept: the engine's phase histograms span
    // its whole life, so the coverage check below needs the same span.
    let mut serial_wall_s = run_serial(&serial, 2);
    run_concurrent(2);
    run_pipelined(2);
    let mut serial_eps = 0f64;
    let mut service_eps = 0f64;
    let mut pipelined_eps = 0f64;
    for _ in 0..PASSES {
        let serial_pass_s = run_serial(&serial, EPOCHS_PER_CLIENT);
        serial_wall_s += serial_pass_s;
        serial_eps = serial_eps.max(total_epochs as f64 / serial_pass_s);
        service_eps = service_eps.max(total_epochs as f64 / run_concurrent(EPOCHS_PER_CLIENT));
        pipelined_eps = pipelined_eps.max(total_epochs as f64 / run_pipelined(EPOCHS_PER_CLIENT));
    }
    let expected = (2 + PASSES as u64 * EPOCHS_PER_CLIENT as u64) * CLIENTS as u64;
    assert_eq!(
        service.epoch(),
        expected,
        "every epoch settled exactly once"
    );
    assert_eq!(
        pipelined.epoch(),
        expected,
        "every pipelined epoch settled exactly once"
    );
    assert_eq!(
        pipelined.durable_epoch(),
        expected,
        "the per-client group syncs covered the whole run"
    );
    // Per-phase accounting from the always-on telemetry: the serial leg
    // runs epochs strictly one at a time, so its phase histograms (which
    // span the engine's whole life, warm-up included) must account for
    // nearly all of its measured wall time — the coverage figure is the
    // proof that the phase timers measure the epoch path, not a sample.
    let serial_snap = serial.metrics();
    let pipelined_snap = pipelined.metrics();
    const PHASES: [&str; 6] = ["reserve", "route", "checkout", "analyze", "settle", "fsync"];
    let phase_sum = |snap: &hsched_telemetry::MetricsSnapshot, phase: &str| {
        snap.histogram(&format!("engine.phase.{phase}_ns"))
            .map(|h| h.sum())
            .unwrap_or(0)
    };
    let serial_phase_ns: u64 = PHASES.iter().map(|p| phase_sum(&serial_snap, p)).sum();
    let phase_coverage = serial_phase_ns as f64 / (serial_wall_s * 1e9);

    // Telemetry overhead: the per-epoch record path is ~8 monotonic clock
    // reads, 6 histogram records, and a handful of relaxed counter adds.
    // Measure exactly that sequence and state it as a fraction of the
    // pipelined leg's per-epoch latency — the cost of always-on metrics.
    let overhead_per_epoch_ns = {
        use hsched_telemetry::{elapsed_ns, Counter, Histogram};
        let hist = Histogram::default();
        let counter = Counter::default();
        const PROBE_ITERS: u32 = 200_000;
        let started = Instant::now();
        for _ in 0..PROBE_ITERS {
            for _ in 0..2 {
                let _ = Instant::now();
            }
            for _ in 0..6 {
                let t = Instant::now();
                hist.record(elapsed_ns(t));
            }
            for _ in 0..3 {
                counter.incr();
            }
        }
        started.elapsed().as_nanos() as f64 / f64::from(PROBE_ITERS)
    };
    let epoch_latency_ns = CLIENTS as f64 * 1e9 / pipelined_eps;
    let overhead_pct = overhead_per_epoch_ns / epoch_latency_ns * 100.0;

    drop(service);
    drop(serial);
    drop(pipelined);
    let _ = std::fs::remove_file(&service_journal);
    let _ = std::fs::remove_file(&serial_journal);
    let _ = std::fs::remove_file(&pipelined_journal);

    let speedup = service_eps / serial_eps;
    let async_speedup = pipelined_eps / serial_eps;
    let meta = hsched_bench::run_meta_json();
    let phases_json: String = PHASES
        .iter()
        .map(|phase| {
            let (mean, p95) = pipelined_snap
                .histogram(&format!("engine.phase.{phase}_ns"))
                .map(|h| (h.mean(), h.p95()))
                .unwrap_or((0, 0));
            format!("\"{phase}\": {{\"mean_ns\": {mean}, \"p95_ns\": {p95}}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    let json = format!(
        "{{\n  \"bench\": \"service_concurrent_epoch_throughput\",\n  {meta},\n  \"system\": {{\"transactions\": 3072, \"platforms\": 768, \"clusters\": 384, \"seed\": 0}},\n  \"workload\": \"journaled single-request toggle epochs on the {CLIENTS} smallest disjoint islands\",\n  \"clients\": {CLIENTS},\n  \"epochs_per_client\": {EPOCHS_PER_CLIENT},\n  \"unit\": \"epochs_per_second\",\n  \"serial_router_eps\": {serial_eps:.1},\n  \"sched_service_eps\": {service_eps:.1},\n  \"sched_service_async_eps\": {pipelined_eps:.1},\n  \"speedup_concurrent_vs_serial\": {speedup:.2},\n  \"speedup_async_vs_serial\": {async_speedup:.2},\n  \"serial_phase_coverage\": {phase_coverage:.3},\n  \"telemetry_overhead_pct\": {overhead_pct:.3},\n  \"pipelined_phases\": {{{phases_json}}}\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    print!("{json}");
    println!(
        "wrote {out_path}: serial {serial_eps:.0} eps vs concurrent {service_eps:.0} eps \
         ({speedup:.2}x) vs pipelined {pipelined_eps:.0} eps ({async_speedup:.2}x, \
         {total_epochs} epochs/pass, {CLIENTS} clients); phase coverage \
         {phase_coverage:.3}, telemetry overhead {overhead_pct:.3}%"
    );
    // Regression floor: typical single-core runs measure ~1.5x (the fsync
    // sleep fully overlaps analysis; only its CPU slice remains), and
    // multi-core hosts land well above as disjoint-island analyses overlap
    // too. The floor sits below the run-to-run fsync-cost noise band so CI
    // flags architectural regressions, not scheduler jitter.
    assert!(
        speedup >= 1.35,
        "concurrent service must clearly beat the serial front end (got {speedup:.2}x)"
    );
    // The pipelined front door drops the per-epoch fsync wait entirely, so
    // it must beat the per-epoch-synced service, not just the serial one.
    assert!(
        async_speedup >= speedup,
        "group-committed pipelining must not lose to per-epoch sync \
         (async {async_speedup:.2}x vs sync {speedup:.2}x)"
    );
    // The phase timers are the epoch path, not a sample of it: on the
    // strictly sequential serial leg their sums must account for at least
    // 90% of the measured wall time.
    assert!(
        phase_coverage >= 0.9,
        "phase timers must account for the serial epoch wall time \
         (covered {phase_coverage:.3})"
    );
}
