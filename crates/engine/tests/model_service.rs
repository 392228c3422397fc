//! Model-checked concurrency for the service front door.
//!
//! Compiled only under `RUSTFLAGS="--cfg hsched_model"`, where the
//! engine's sync facade (`crates/engine/src/sync.rs`) swaps `std::sync`
//! for the instrumented shims in `hsched-check`: every test below runs
//! its scenario under exhaustive bounded exploration, with lock-order
//! validation against the documented core → gate order, vector-clock
//! race detection over the `issued` ticket counter, and deadlock
//! detection that turns a missed wakeup into a named report instead of
//! a hung test.
//!
//! Each scenario asserts that exploration visited at least 1,000
//! distinct interleavings (or exhausted the space) with zero reports,
//! and prints the count (`--nocapture` in the CI job logs it).
#![cfg(hsched_model)]

use hsched_admission::{AdmissionPolicy, AdmissionRequest};
use hsched_analysis::AnalysisConfig;
use hsched_check::{explore, thread, Config, Stats};
use hsched_engine::{EngineRequest, SchedService};
use hsched_numeric::rat;
use hsched_platform::{Platform, PlatformId, PlatformSet};
use hsched_transaction::{Task, Transaction, TransactionSet};
use std::path::PathBuf;

fn tx(name: &str, platform: PlatformId) -> Transaction {
    Transaction::new(
        name,
        rat(100, 1),
        rat(100, 1),
        vec![Task::new(
            format!("{name}.t"),
            rat(1, 1),
            rat(1, 1),
            1,
            platform,
        )],
    )
    .expect("valid transaction")
}

/// Two occupied single-transaction islands (p0, p1), plus optionally a
/// vacant platform p2 so an arrival can force a topology change.
fn tiny_set(vacant_platform: bool) -> TransactionSet {
    let mut platforms = PlatformSet::new();
    let p0 = platforms.add(Platform::dedicated("p0"));
    let p1 = platforms.add(Platform::dedicated("p1"));
    if vacant_platform {
        platforms.add(Platform::dedicated("p2"));
    }
    TransactionSet::new(platforms, vec![tx("a", p0), tx("b", p1)]).expect("valid set")
}

/// One transaction with a task on each of p0 and p1: its arrival bridges
/// the two islands, so routing merges their shards.
fn bridge(name: &str) -> Transaction {
    let task = |platform: usize| {
        Task::new(
            format!("{name}.t{platform}"),
            rat(1, 1),
            rat(1, 1),
            1,
            PlatformId(platform),
        )
    };
    Transaction::new(name, rat(100, 1), rat(100, 1), vec![task(0), task(1)])
        .expect("valid transaction")
}

fn retune(platform: usize) -> EngineRequest {
    EngineRequest::batch(vec![AdmissionRequest::Retune {
        platform: PlatformId(platform),
        alpha: rat(1, 2),
        delta: rat(1, 1),
        beta: rat(0, 1),
    }])
}

fn arrival(name: &str, platform: usize) -> EngineRequest {
    EngineRequest::batch(vec![AdmissionRequest::AddTransaction(tx(
        name,
        PlatformId(platform),
    ))])
}

fn service(set: TransactionSet) -> SchedService {
    // One analysis thread per island: `parallel_map` runs inline, so the
    // only OS threads in an execution are the model threads themselves.
    let policy = AdmissionPolicy {
        island_threads: 1,
        ..AdmissionPolicy::default()
    };
    SchedService::new(set, AnalysisConfig::default(), policy).expect("seed analysis")
}

/// Exploration budget: env-tunable (`HSCHED_MODEL_MAX_INTERLEAVINGS`,
/// `HSCHED_MODEL_MAX_SECONDS`, `HSCHED_MODEL_PREEMPTION_BOUND`) so CI
/// can cap wall clock without editing the tests.
fn model_config() -> Config {
    Config::from_env()
}

/// The acceptance gate shared by every scenario: no validator reports,
/// and the space was either exhausted or sampled at depth.
fn assert_clean(name: &str, stats: &Stats) {
    println!(
        "model {name}: {} interleavings explored (exhausted: {})",
        stats.interleavings, stats.exhausted
    );
    assert!(
        stats.reports.is_empty(),
        "model {name}: validator reports (replay with the printed seed):\n{:#?}",
        stats.reports
    );
    assert!(
        stats.interleavings >= 1_000 || stats.exhausted,
        "model {name}: only {} interleavings and not exhausted",
        stats.interleavings
    );
}

/// Pipeline-depth contention: with `max_inflight = 1` the second epoch
/// must park on the capacity condvar and rely on settle's wakeup; a
/// missed wakeup (the PR-6 hazard this suite exists for) deadlocks the
/// interleaving and is reported with the parked thread named.
#[test]
fn contended_fast_attempts_never_miss_a_gate_wakeup() {
    let stats = explore(&model_config(), || {
        let service = service(tiny_set(false)).with_max_inflight(1);
        thread::scope(|s| {
            let h = s.spawn(|| service.submit(&arrival("c", 0)).map(|r| r.epoch));
            let mine = service.submit(&arrival("d", 1)).expect("fast epoch");
            let theirs = h.join().expect("no panic").expect("fast epoch");
            // Tickets are dense and distinct regardless of interleaving.
            assert_ne!(mine.epoch, theirs);
        });
        assert_eq!(service.epoch(), 2);
        assert_eq!(service.live_transactions(), 4);
    });
    assert_clean("gate_wakeup", &stats);
}

/// Busy-checkout conflict: both epochs route to the same island, so one
/// finds the shard checked out, waits on the conflict condvar over the
/// routing lock, and retries after the other settles. Every interleaving
/// must settle both epochs exactly once.
#[test]
fn busy_checkout_conflict_rolls_back_and_retries() {
    let stats = explore(&model_config(), || {
        let service = service(tiny_set(false));
        thread::scope(|s| {
            let h = s.spawn(|| service.submit(&arrival("c", 0)).map(|r| r.epoch));
            service.submit(&arrival("d", 0)).expect("same-island epoch");
            h.join().expect("no panic").expect("same-island epoch");
        });
        assert_eq!(service.epoch(), 2);
        assert_eq!(service.live_transactions(), 4);
    });
    assert_clean("busy_checkout", &stats);
}

/// Drain racing an in-flight epoch: the arrival on the vacant platform
/// changes shard topology, so it must register as a drain, hold new
/// reservations off, and wait for the pipeline to empty before routing —
/// while the other epoch settles under it.
#[test]
fn exclusive_drain_coexists_with_in_flight_fast_epochs() {
    let stats = explore(&model_config(), || {
        let service = service(tiny_set(true));
        thread::scope(|s| {
            // Fresh shard on p2: routed, then drained.
            let h = s.spawn(|| service.submit(&arrival("c", 2)).map(|r| r.epoch));
            service.submit(&arrival("d", 0)).expect("fast epoch");
            h.join().expect("no panic").expect("exclusive epoch");
        });
        assert_eq!(service.epoch(), 2);
        assert_eq!(service.shard_count(), 3);
    });
    assert_clean("exclusive_drain", &stats);
}

/// Group-commit poison propagation: with the first `sync_data` armed to
/// fail, *both* submitters must see the journal error — whichever
/// thread runs the failing syscall, and whichever merely waited on the
/// group commit — in every interleaving. A waiter that returns `Ok`
/// would be claiming durability for an epoch that never reached disk.
#[test]
fn failed_sync_poisons_every_group_commit_waiter() {
    let dir = std::env::temp_dir();
    let path: PathBuf = dir.join(format!(
        "hsched-model-poison-{}.journal",
        std::process::id()
    ));
    let stats = explore(&model_config(), || {
        let _ = std::fs::remove_file(&path);
        let service = service(tiny_set(false))
            .with_journal(&path)
            .expect("journal attach");
        service.fail_next_sync();
        thread::scope(|s| {
            let h = s.spawn(|| {
                let ticket = service.submit_async(&arrival("c", 0)).expect("settle");
                service.sync(ticket.epoch)
            });
            let ticket = service.submit_async(&arrival("d", 1)).expect("settle");
            let mine = service.sync(ticket.epoch);
            let theirs = h.join().expect("no panic");
            assert!(mine.is_err(), "waiter claimed durability: {mine:?}");
            assert!(theirs.is_err(), "waiter claimed durability: {theirs:?}");
        });
        // The sticky poison keeps the durable watermark at zero.
        assert_eq!(service.durable_epoch(), 0);
    });
    let _ = std::fs::remove_file(&path);
    assert_clean("sync_poison", &stats);
}

/// Concurrent retunes on disjoint islands, then a merge. Each retune
/// lands in the master platform copy only; a shard that was checked out
/// while its sibling's retune settled must catch that retune up lazily
/// before the bridging arrival merges the two shards. A shard stamped
/// current without the sibling's retune fails the merge (`cannot merge
/// controllers with different platform sets`) in some interleaving.
#[test]
fn concurrent_retunes_then_merge_keep_shard_platforms_in_sync() {
    let stats = explore(&model_config(), || {
        let service = service(tiny_set(false)).with_max_inflight(2);
        thread::scope(|s| {
            let h = s.spawn(|| service.submit(&retune(0)).map(|r| r.epoch));
            service.submit(&retune(1)).expect("retune p1");
            h.join().expect("no panic").expect("retune p0");
        });
        let merged = service
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::AddTransaction(bridge("e")),
            ]))
            .expect("bridging arrival merges the retuned shards");
        assert!(merged.outcome.verdict.admitted());
        assert_eq!(service.shard_count(), 1);
        let platforms = service.current_set().platforms().clone();
        for p in [0, 1] {
            assert_eq!(platforms[PlatformId(p)].alpha(), rat(1, 2));
        }
    });
    assert_clean("retune_merge", &stats);
}
