//! The layer ladder of a traced run: each connection's recorded request
//! stream replayed in process through successively lower entry points —
//! the journaled service, the journal-less service, one admission
//! controller per island, and the bare holistic analysis — with the same
//! batches in the same order, so a layer's self time is its rung's mean
//! minus the next rung's.

use crate::scenario::Kind;
use crate::wire::Record;
use hsched_admission::{AdmissionController, AdmissionPolicy};
use hsched_analysis::{analyze_with, AnalysisConfig};
use hsched_engine::{EngineRequest, SchedService};
use hsched_transaction::{Transaction, TransactionSet};
use std::path::Path;
use std::time::Instant;

/// Timings of one service rung, all connections together.
#[derive(Debug, Default)]
pub struct ServiceRung {
    /// Per epoch: `submit_async` call to the `sync` return covering it, µs.
    pub submit_us: Vec<f64>,
    /// Per `submit_async` call, µs.
    pub submit_async_us: Vec<f64>,
    /// Per `sync` call, µs.
    pub sync_us: Vec<f64>,
    /// Thread busy time per epoch, µs (summed over connections).
    pub busy_us: f64,
    /// Epochs replayed.
    pub epochs: u64,
    /// Verdicts that differ from the wire run's.
    pub mismatches: u64,
}

/// Timings of the admission and analysis rungs.
#[derive(Debug, Default)]
pub struct IslandRungs {
    /// `AdmissionController::commit` per epoch, µs.
    pub commit_us: Vec<f64>,
    /// `analyze_with` on the post-batch island set per epoch, µs.
    pub fixpoint_us: Vec<f64>,
    /// Verdicts that differ from the wire run's.
    pub mismatches: u64,
}

/// Replays `streams` (one per connection, from the seed state) through a
/// fresh service on `set` — journaled at `journal` when given — with one
/// thread per connection in `kind`'s discipline.
pub fn service_rung(
    set: &TransactionSet,
    kind: Kind,
    streams: &[&[Record]],
    journal: Option<&Path>,
) -> Result<ServiceRung, String> {
    let mut service = crate::scenario::service(set)?;
    if let Some(path) = journal {
        service = service
            .with_journal(path)
            .map_err(|e| format!("ladder journal: {e}"))?;
    }
    let service = &service;
    let parts: Vec<Result<ServiceRung, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| scope.spawn(move || replay_service(service, kind.window(), stream)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder thread panicked"))
            .collect()
    });
    let mut rung = ServiceRung::default();
    let mut busy = 0.0;
    for part in parts {
        let part = part?;
        rung.submit_us.extend(part.submit_us);
        rung.submit_async_us.extend(part.submit_async_us);
        rung.sync_us.extend(part.sync_us);
        busy += part.busy_us;
        rung.epochs += part.epochs;
        rung.mismatches += part.mismatches;
    }
    rung.busy_us = busy / rung.epochs.max(1) as f64;
    Ok(rung)
}

fn replay_service(
    service: &SchedService,
    window: usize,
    stream: &[Record],
) -> Result<ServiceRung, String> {
    let mut rung = ServiceRung::default();
    let began = Instant::now();
    for chunk in stream.chunks(window) {
        let mut sent = Vec::with_capacity(chunk.len());
        let mut last = 0;
        for record in chunk {
            let start = Instant::now();
            let ticket = service
                .submit_async(&EngineRequest::batch(record.batch.clone()))
                .map_err(|e| format!("ladder submit_async: {e}"))?;
            rung.submit_async_us.push(us(start));
            sent.push(start);
            last = ticket.epoch;
            if ticket.response.outcome.verdict.admitted() != record.admitted {
                rung.mismatches += 1;
            }
        }
        let start = Instant::now();
        service
            .sync(last)
            .map_err(|e| format!("ladder sync: {e}"))?;
        rung.sync_us.push(us(start));
        rung.submit_us.extend(sent.iter().map(|&s| us(s)));
        rung.epochs += chunk.len() as u64;
    }
    rung.busy_us = us(began);
    Ok(rung)
}

/// Replays each connection's stream through one fresh
/// [`AdmissionController`] per owned island (holding only that island's
/// transactions), timing each commit, then times a from-scratch
/// [`analyze_with`] of the island's post-batch set.
pub fn island_rungs(
    set: &TransactionSet,
    streams: &[&[Record]],
    islands: &[Vec<Vec<Transaction>>],
) -> Result<IslandRungs, String> {
    let parts: Vec<Result<IslandRungs, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(islands)
            .map(|(stream, owned)| scope.spawn(move || replay_islands(set, stream, owned)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder thread panicked"))
            .collect()
    });
    let mut out = IslandRungs::default();
    for part in parts {
        let part = part?;
        out.commit_us.extend(part.commit_us);
        out.fixpoint_us.extend(part.fixpoint_us);
        out.mismatches += part.mismatches;
    }
    Ok(out)
}

fn replay_islands(
    set: &TransactionSet,
    stream: &[Record],
    owned: &[Vec<Transaction>],
) -> Result<IslandRungs, String> {
    let config = AnalysisConfig::default();
    let mut controllers = owned
        .iter()
        .map(|island| {
            let members = TransactionSet::new(set.platforms().clone(), island.clone())?;
            AdmissionController::new(members, config.clone(), AdmissionPolicy::default())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut out = IslandRungs::default();
    for record in stream {
        let controller = &mut controllers[record.island];
        let start = Instant::now();
        let outcome = controller.commit(&record.batch);
        out.commit_us.push(us(start));
        if outcome.verdict.admitted() != record.admitted {
            out.mismatches += 1;
        }
        let start = Instant::now();
        analyze_with(controller.current_set(), &config)
            .map_err(|e| format!("ladder analysis: {e}"))?;
        out.fixpoint_us.push(us(start));
    }
    Ok(out)
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}
