//! The recovery phase: the journal the run wrote, read back three ways —
//! streamed to a fresh warm standby over the replication port, replayed
//! cold into a new service, and (traced runs) parsed record by record.
//!
//! The standby and the replay are timed by the process's CPU time (all
//! threads), which CPU stolen by the hypervisor does not inflate, scaled
//! to the reference speed of the one CPU the caller pins the recovery
//! phase to ([`speed::Sampler`]); wall time is kept for the summary.

use crate::speed;
use crate::stats;
use hsched_admission::AdmissionPolicy;
use hsched_analysis::AnalysisConfig;
use hsched_engine::{JournalStream, SchedService};
use hsched_net::{Follower, FollowerConfig, FollowerExit};
use hsched_transaction::TransactionSet;
use std::path::Path;
use std::time::Instant;

/// A timed read of the journal.
#[derive(Debug)]
pub struct Timed {
    /// Journal records processed.
    pub records: u64,
    /// Process CPU time spent on the records at the reference speed,
    /// seconds: for the standby and the replay, less one seed analysis.
    pub seconds: f64,
    /// Wall time of the whole read, seconds.
    pub wall_s: f64,
    /// The resulting service's state digest (empty for a plain read).
    pub digest: String,
}

/// Both clocks at the start of a read.
struct Clock {
    wall: Instant,
    cpu: speed::Sampler,
}

impl Clock {
    fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu: speed::Sampler::start(),
        }
    }

    /// (process CPU seconds at the reference speed, wall seconds) since
    /// the start.
    fn read(self) -> (f64, f64) {
        (self.cpu.finish(), self.wall.elapsed().as_secs_f64())
    }
}

/// Seed analyses timed by [`seed_analysis_s`]; it reports their median.
const SEED_REPS: usize = 3;

/// The process CPU time, at the reference speed, one seed analysis of
/// `set` takes (`SchedService::new`, which both the standby and the replay
/// run before their first record), so that their rates measure the records
/// alone and not how many of them the measured phase wrote.
pub fn seed_analysis_s(set: &TransactionSet) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(SEED_REPS);
    for _ in 0..SEED_REPS {
        let clock = Clock::start();
        drop(crate::scenario::service(set)?);
        samples.push(clock.read().0);
    }
    Ok(stats::median(&samples).unwrap_or(0.0))
}

/// A fresh standby with an empty mirror at `mirror`, caught up over the
/// replication port `repl_addr` to epoch `target`. Returns the process
/// CPU time from standby start to caught up — the standby and the
/// primary's streamer both — less `seed_s`, and the standby's digest.
pub fn catch_up(
    set: &TransactionSet,
    repl_addr: &str,
    mirror: &Path,
    target: u64,
    seed_s: f64,
) -> Result<Timed, String> {
    let clock = Clock::start();
    let mut follower = Follower::new(
        set.clone(),
        AnalysisConfig::default(),
        AdmissionPolicy::default(),
        FollowerConfig {
            primary: repl_addr.to_string(),
            journal: mirror.to_path_buf(),
            catch_up_to: Some(target),
            exit_on_disconnect: true,
            ..FollowerConfig::default()
        },
    );
    let exit = follower.run().map_err(|e| format!("standby: {e}"))?;
    let (cpu_s, wall_s) = clock.read();
    if exit != FollowerExit::CaughtUp || follower.epoch() != target {
        return Err(format!(
            "standby stopped at epoch {} ({exit:?}), target {target}",
            follower.epoch()
        ));
    }
    Ok(Timed {
        records: target,
        seconds: cpu_s - seed_s,
        wall_s,
        digest: follower.state_digest().unwrap_or_default(),
    })
}

/// A cold [`SchedService::replay`] of `journal`, timed less `seed_s`.
pub fn replay(set: &TransactionSet, journal: &Path, seed_s: f64) -> Result<Timed, String> {
    let clock = Clock::start();
    let (service, stats) = SchedService::replay(
        set.clone(),
        AnalysisConfig::default(),
        AdmissionPolicy::default(),
        journal,
    )
    .map_err(|e| format!("replay: {e}"))?;
    let (cpu_s, wall_s) = clock.read();
    Ok(Timed {
        records: stats.tail_records as u64,
        seconds: cpu_s - seed_s,
        wall_s,
        digest: service.state_digest(),
    })
}

/// Parses every record of `journal` without applying it.
pub fn read(journal: &Path) -> Result<Timed, String> {
    let clock = Clock::start();
    let mut stream = JournalStream::open(journal).map_err(|e| format!("read: {e}"))?;
    let mut records = 0;
    for record in &mut stream {
        record.map_err(|e| format!("read: {e}"))?;
        records += 1;
    }
    let (seconds, wall_s) = clock.read();
    Ok(Timed {
        records,
        seconds,
        wall_s,
        digest: String::new(),
    })
}
