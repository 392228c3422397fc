//! Scripted perf run for the sharded admission engine: measures churn
//! epochs on a production-scale live set (3072 transactions, 384
//! interference islands) under the single `AdmissionController` vs the
//! sharded `SchedService`, and writes the result to
//! `BENCH_router.json`. Run via `scripts/bench_router.sh` or directly:
//!
//! ```sh
//! cargo run --release -p hsched-bench --bin router_perf [OUT.json]
//! ```
//!
//! Both engines apply the identical admissible batch sequences (asserted
//! admitted) under default settings. Two regimes are measured:
//!
//! * **single-island epochs** — one toggle per epoch: the analysis work is
//!   one small island for both engines, so the gap is pure architecture:
//!   the monolith's O(live set) per-epoch bookkeeping (island rebuild,
//!   utilization scan, verdict-table scan) vs the router's O(island);
//! * **4-island batches** — four toggles in four clusters per epoch: the
//!   router routes four sub-batches to four shards and commits them
//!   concurrently.
//!
//! The binary asserts sharded > single in both regimes, making the
//! committed JSON a perf regression gate.

use hsched_admission::gen::random_scenario;
use hsched_admission::{AdmissionController, AdmissionPolicy, AdmissionRequest};
use hsched_analysis::AnalysisConfig;
use hsched_bench::router_churn::{churn_spec, toggle_batch, victims};
use hsched_engine::{EngineRequest, SchedService};
use hsched_transaction::Transaction;
use std::time::Instant;

const ROUNDS: usize = 6;

/// Runs `ROUNDS` passes over the victims in `chunk`-sized batches through
/// `commit`, returning mean µs per epoch.
fn run_epochs(
    victims: &[Transaction],
    chunk: usize,
    mut commit: impl FnMut(Vec<AdmissionRequest>) -> bool,
) -> f64 {
    let epochs_per_round = victims.len().div_ceil(chunk);
    // Warm-up round pair (one remove + one re-add pass).
    for round in 0..2 {
        for part in victims.chunks(chunk) {
            assert!(commit(toggle_batch(part, round)), "warm-up epoch rejected");
        }
    }
    let start = Instant::now();
    for round in 0..ROUNDS {
        for part in victims.chunks(chunk) {
            assert!(commit(toggle_batch(part, round)), "measured epoch rejected");
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / (ROUNDS * epochs_per_round) as f64
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_router.json".to_string());
    let spec = churn_spec();
    let set = random_scenario(&spec);
    let victims = victims(&set, &spec);
    assert!(victims.len() >= 16, "one victim per churn cluster");

    let single_us: Vec<f64>;
    let sharded_us: Vec<f64>;
    {
        let mut controller = AdmissionController::new(
            set.clone(),
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
        )
        .expect("seed analysis succeeds");
        single_us = [1usize, 4]
            .iter()
            .map(|&chunk| {
                run_epochs(&victims, chunk, |batch| {
                    controller.commit(&batch).verdict.admitted()
                })
            })
            .collect();
    }
    let shards;
    {
        let engine = SchedService::new(set, AnalysisConfig::default(), AdmissionPolicy::default())
            .expect("seed analysis succeeds");
        shards = engine.shard_count();
        assert!(shards >= 4, "workload must span ≥4 islands, got {shards}");
        sharded_us = [1usize, 4]
            .iter()
            .map(|&chunk| {
                run_epochs(&victims, chunk, |batch| {
                    engine
                        .submit(&EngineRequest::batch(batch))
                        .expect("engine ok")
                        .outcome
                        .verdict
                        .admitted()
                })
            })
            .collect();
    }

    let speedup_1 = single_us[0] / sharded_us[0];
    let speedup_4 = single_us[1] / sharded_us[1];
    let json = format!(
        "{{\n  \"bench\": \"router_production_scale_churn\",\n  \"system\": {{\"transactions\": 3072, \"platforms\": 768, \"islands\": {shards}, \"seed\": 0}},\n  \"unit\": \"us_per_epoch\",\n  \"single_island_epochs\": {{\n    \"single_controller_us\": {:.1},\n    \"sharded_router_us\": {:.1},\n    \"speedup_sharded_vs_single\": {speedup_1:.2}\n  }},\n  \"four_island_batches\": {{\n    \"single_controller_us\": {:.1},\n    \"sharded_router_us\": {:.1},\n    \"speedup_sharded_vs_single\": {speedup_4:.2}\n  }}\n}}\n",
        single_us[0], sharded_us[0], single_us[1], sharded_us[1]
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    print!("{json}");
    println!(
        "wrote {out_path}: single-island {:.0} vs {:.0} µs ({speedup_1:.2}x), \
         4-island batches {:.0} vs {:.0} µs ({speedup_4:.2}x) across {shards} islands",
        single_us[0], sharded_us[0], single_us[1], sharded_us[1]
    );
    assert!(
        speedup_1 > 1.0 && speedup_4 > 1.0,
        "sharded commits must beat the single controller on multi-island churn"
    );
}
