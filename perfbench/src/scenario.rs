//! Workload inputs: the systems the service starts from and the
//! per-connection request streams, all derived from the workload seed.
//! Every generator checks its own output and reports a violation as an
//! error rather than running on an input that would not exercise what the
//! workload claims to measure.

use hsched_admission::gen::{random_scenario, PlatformMix, ScenarioSpec};
use hsched_admission::{AdmissionPolicy, AdmissionRequest, UnionFind};
use hsched_analysis::AnalysisConfig;
use hsched_bench::router_churn::{churn_spec, smallest_island_victims};
use hsched_engine::SchedService;
use hsched_numeric::rat;
use hsched_platform::PlatformId;
use hsched_transaction::{Transaction, TransactionSet};
use std::collections::{BTreeMap, HashSet};

/// Client connections per workload, one thread each: one per core of the
/// two-core hosts the benchmark targets.
pub const CONNECTIONS: usize = 2;
/// Islands toggled by the `toggle_*` workloads, split evenly over the
/// connections.
pub const TOGGLE_VICTIMS: usize = 8;
/// `submit async` frames a `toggle_pipelined` connection keeps in flight
/// before closing the window with one `sync` frame.
pub const WINDOW: usize = 32;
/// `island_churn` system shape: clusters × platforms × transactions each.
const CHURN_CLUSTERS: usize = 8;
const CHURN_PLATFORMS: usize = 4;
const CHURN_TX_PER_CLUSTER: usize = 24;
/// Largest `island_churn` batch.
const CHURN_MAX_BATCH: usize = 3;
/// A departure never drains a cluster below this many live transactions.
const CHURN_MIN_LIVE: usize = 8;
/// Arrivals stop while a cluster holds this many transactions more than
/// it started with.
const CHURN_MAX_GROWTH: usize = 6;
/// One arrival in this many comes with a third of its template's
/// deadline, which the analysis usually rejects.
const TIGHT_ARRIVAL_ONE_IN: usize = 5;
/// Retunes draw `α` from this menu (small denominators keep the exact
/// arithmetic far from overflow however often a platform is retuned).
const ALPHA_MENU: [(i128, i128); 6] = [(1, 2), (3, 5), (7, 10), (4, 5), (9, 10), (1, 1)];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Lockstep `submit sync` remove/re-add epochs on small islands.
    ToggleSync,
    /// The same toggles as windows of `submit async` frames closed by one
    /// `sync` frame.
    TogglePipelined,
    /// Lockstep `submit sync` batches of arrivals, departures and retunes
    /// on mixed-platform clusters.
    IslandChurn,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "toggle_sync" => Some(Kind::ToggleSync),
            "toggle_pipelined" => Some(Kind::TogglePipelined),
            "island_churn" => Some(Kind::IslandChurn),
            _ => None,
        }
    }

    /// Epochs a connection sends before it waits for a durable verdict:
    /// 1 for lockstep `submit sync`, [`WINDOW`] when pipelined.
    pub fn window(self) -> usize {
        match self {
            Kind::TogglePipelined => WINDOW,
            Kind::ToggleSync | Kind::IslandChurn => 1,
        }
    }
}

/// A generated workload: the seed system and one request source per
/// connection.
pub struct Scenario {
    /// The system the service starts from (schedulable).
    pub set: TransactionSet,
    /// One source per connection, in connection order.
    pub sources: Vec<Source>,
    /// Per connection, the seed-system transactions of each island its
    /// requests touch (indexed by [`Source::last_island`]), for the
    /// admission rung of the layer ladder.
    pub islands: Vec<Vec<Vec<Transaction>>>,
}

/// The generated (not yet repaired) seed system of a workload. The
/// system is the same for every workload seed — the production-scale
/// router system for the toggles, one fixed mixed-platform cluster system
/// for the churn — so that a run's cost does not swing with the seed; the
/// workload seed drives the request streams.
pub fn raw_system(kind: Kind) -> TransactionSet {
    random_scenario(&system_spec(kind))
}

fn system_spec(kind: Kind) -> ScenarioSpec {
    match kind {
        Kind::ToggleSync | Kind::TogglePipelined => churn_spec(),
        Kind::IslandChurn => ScenarioSpec {
            clusters: CHURN_CLUSTERS,
            platforms_per_cluster: CHURN_PLATFORMS,
            transactions: CHURN_CLUSTERS * CHURN_TX_PER_CLUSTER,
            max_tasks_per_tx: 2,
            load: rat(1, 5),
            mix: PlatformMix::Mixed,
            seed: 0,
            ..ScenarioSpec::default()
        },
    }
}

/// Starts the service on `set`, first dropping (deterministically) any
/// transaction the seed analysis finds missing its deadline, so that the
/// service starts schedulable and every epoch's verdict depends on that
/// epoch's own batch. Removals only lower interference, so this ends; a
/// schedulable draw costs one seed analysis. Returns the repaired set and
/// the service built on it.
pub fn schedulable_service(
    mut set: TransactionSet,
) -> Result<(TransactionSet, SchedService), String> {
    for _ in 0..8 {
        let service = service(&set)?;
        if service.schedulable() {
            return Ok((set, service));
        }
        let report = service.report();
        let missing: HashSet<&str> = report
            .verdicts
            .iter()
            .filter(|v| !v.schedulable)
            .map(|v| v.name.as_str())
            .collect();
        if missing.is_empty() {
            return Err("seed system is unschedulable with no named miss".to_string());
        }
        let keep: Vec<Transaction> = set
            .transactions()
            .iter()
            .filter(|tx| !missing.contains(tx.name.as_str()))
            .cloned()
            .collect();
        set = TransactionSet::new(set.platforms().clone(), keep)?;
    }
    Err("seed system stayed unschedulable".to_string())
}

/// Derives the per-connection request sources of a workload from its
/// seed and the (repaired) seed system, and checks them.
pub fn generate(kind: Kind, seed: u64, set: TransactionSet) -> Result<Scenario, String> {
    let islands = islands_of(&set);
    match kind {
        Kind::ToggleSync | Kind::TogglePipelined => {
            let victims = smallest_island_victims(&set, TOGGLE_VICTIMS);
            if victims.len() != TOGGLE_VICTIMS {
                return Err(format!(
                    "seed {seed}: found {} topology-stable victims, need {TOGGLE_VICTIMS}",
                    victims.len()
                ));
            }
            // The victims are dealt by size, snake order (0 1 1 0 0 1 1
            // 0 over victims sorted by task count), so both connections
            // own islands of about the same cost; the seed orders each
            // connection's round robin. A seeded deal made the epoch mix
            // depend on the seed: a toggle costs 220-500 µs of analysis
            // by island, and in a closed loop the connection owning the
            // cheap islands contributes more of the epochs.
            let mut victims = victims;
            victims.sort_by(|a, b| (a.tasks().len(), &a.name).cmp(&(b.tasks().len(), &b.name)));
            let mut rng = Rng::new(seed, 0);
            let mut sources = Vec::new();
            let mut owned = Vec::new();
            for conn in 0..CONNECTIONS {
                let mut mine: Vec<Transaction> = victims
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| {
                        let turn = i % (2 * CONNECTIONS);
                        turn == conn || turn == 2 * CONNECTIONS - 1 - conn
                    })
                    .map(|(_, v)| v.clone())
                    .collect();
                for i in (1..mine.len()).rev() {
                    mine.swap(i, rng.below(i + 1));
                }
                owned.push(mine.iter().map(|v| island_of(&islands, &set, v)).collect());
                sources.push(Source::Toggle(Toggle {
                    victims: mine,
                    step: 0,
                }));
            }
            Ok(Scenario {
                set,
                sources,
                islands: owned,
            })
        }
        Kind::IslandChurn => {
            let mut sources = Vec::new();
            let mut owned = Vec::new();
            for conn in 0..CONNECTIONS {
                let clusters: Vec<usize> = (conn..CHURN_CLUSTERS).step_by(CONNECTIONS).collect();
                let churn = Churn::new(&set, &clusters, seed, conn);
                owned.push(churn.cluster_islands());
                sources.push(Source::Churn(churn));
            }
            Ok(Scenario {
                set,
                sources,
                islands: owned,
            })
        }
    }
}

/// Platform-sharing islands of a set: island id per platform.
fn islands_of(set: &TransactionSet) -> Vec<usize> {
    let mut uf = UnionFind::new(set.platforms().len());
    for tx in set.transactions() {
        let first = tx.tasks()[0].platform.0;
        for task in tx.tasks() {
            uf.union(first, task.platform.0);
        }
    }
    (0..set.platforms().len()).map(|p| uf.find(p)).collect()
}

fn island_of(roots: &[usize], set: &TransactionSet, victim: &Transaction) -> Vec<Transaction> {
    let root = roots[victim.tasks()[0].platform.0];
    set.transactions()
        .iter()
        .filter(|tx| roots[tx.tasks()[0].platform.0] == root)
        .cloned()
        .collect()
}

/// The next batch of one connection, and where its verdict goes.
pub enum Source {
    /// Remove/re-add toggles of small islands.
    Toggle(Toggle),
    /// Seeded arrivals, departures and retunes on owned clusters.
    Churn(Churn),
}

impl Source {
    /// The next batch to submit.
    pub fn next_batch(&mut self) -> Vec<AdmissionRequest> {
        match self {
            Source::Toggle(t) => t.next_batch(),
            Source::Churn(c) => c.next_batch(),
        }
    }

    /// Feeds back the verdict of the batch last returned.
    pub fn settle(&mut self, admitted: bool) {
        if let Source::Churn(c) = self {
            c.settle(admitted);
        }
    }

    /// Whether every verdict must be an admission.
    pub fn must_admit(&self) -> bool {
        matches!(self, Source::Toggle(_))
    }

    /// Index of the owned island the batch last returned touches.
    pub fn last_island(&self) -> usize {
        match self {
            Source::Toggle(t) => (t.step - 1) % t.victims.len(),
            Source::Churn(c) => c.last_cluster,
        }
    }
}

/// Toggles each owned victim out and back in, round robin. Every batch
/// is admissible: a departure never makes a schedulable island
/// unschedulable, and a re-arrival restores the seed state.
pub struct Toggle {
    victims: Vec<Transaction>,
    step: usize,
}

impl Toggle {
    fn next_batch(&mut self) -> Vec<AdmissionRequest> {
        let n = self.victims.len();
        let victim = &self.victims[self.step % n];
        let remove = (self.step / n).is_multiple_of(2);
        self.step += 1;
        if remove {
            vec![AdmissionRequest::RemoveTransaction {
                name: victim.name.clone(),
            }]
        } else {
            vec![AdmissionRequest::AddTransaction(victim.clone())]
        }
    }
}

/// SplitMix64: a small seeded generator, so the streams depend on nothing
/// but the workload seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Island churn of one connection: batches of one to
/// [`CHURN_MAX_BATCH`] requests confined to one owned cluster. Arrivals
/// clone a seed transaction of the cluster under a fresh name (some with
/// a tightened deadline, so some are correctly rejected), departures retire a live
/// transaction of the cluster, retunes set a platform's linear supply
/// from a menu. About 40% of batches are purely additive.
pub struct Churn {
    conn: usize,
    rng: Rng,
    clusters: Vec<usize>,
    /// Seed transactions per owned cluster (arrival templates).
    templates: BTreeMap<usize, Vec<Transaction>>,
    /// Live transaction names per owned cluster.
    live: BTreeMap<usize, Vec<String>>,
    arrivals: u64,
    last_cluster: usize,
    pending_add: Vec<String>,
    pending_remove: Vec<String>,
}

impl Churn {
    fn new(set: &TransactionSet, clusters: &[usize], seed: u64, conn: usize) -> Churn {
        let mut templates: BTreeMap<usize, Vec<Transaction>> = BTreeMap::new();
        for tx in set.transactions() {
            let cluster = tx.tasks()[0].platform.0 / CHURN_PLATFORMS;
            if clusters.contains(&cluster) {
                templates.entry(cluster).or_default().push(tx.clone());
            }
        }
        let live = templates
            .iter()
            .map(|(c, txs)| (*c, txs.iter().map(|tx| tx.name.clone()).collect()))
            .collect();
        Churn {
            conn,
            rng: Rng::new(seed, 1 + conn as u64),
            clusters: clusters.to_vec(),
            templates,
            live,
            arrivals: 0,
            last_cluster: 0,
            pending_add: Vec::new(),
            pending_remove: Vec::new(),
        }
    }

    /// The seed transactions of each owned cluster, in `clusters` order.
    fn cluster_islands(&self) -> Vec<Vec<Transaction>> {
        self.clusters
            .iter()
            .map(|c| self.templates.get(c).cloned().unwrap_or_default())
            .collect()
    }

    fn next_batch(&mut self) -> Vec<AdmissionRequest> {
        self.pending_add.clear();
        self.pending_remove.clear();
        let slot = self.rng.below(self.clusters.len());
        self.last_cluster = slot;
        let cluster = self.clusters[slot];
        let size = 1 + self.rng.below(CHURN_MAX_BATCH);
        let additive_only = self.rng.below(10) < 4;
        let mut batch = Vec::with_capacity(size);
        // A grown cluster only departs and retunes, so its live set (and
        // with it the epoch cost) stays stationary.
        let grown = self.live[&cluster].len() >= self.templates[&cluster].len() + CHURN_MAX_GROWTH;
        while batch.len() < size {
            let roll = match (grown, additive_only) {
                (true, _) => 5 + self.rng.below(5),
                (false, true) => 0,
                (false, false) => self.rng.below(10),
            };
            match roll {
                0..=4 => {
                    let templates = &self.templates[&cluster];
                    let mut tx = templates[self.rng.below(templates.len())].clone();
                    self.arrivals += 1;
                    tx.name = format!("k{}a{}", self.conn, self.arrivals);
                    if self.rng.below(TIGHT_ARRIVAL_ONE_IN) == 0 {
                        tx.deadline *= rat(1, 3);
                    }
                    self.pending_add.push(tx.name.clone());
                    batch.push(AdmissionRequest::AddTransaction(tx));
                }
                5..=7 => {
                    let live = &self.live[&cluster];
                    let candidates: Vec<&String> = live
                        .iter()
                        .filter(|n| !self.pending_remove.contains(n))
                        .collect();
                    if candidates.len() <= CHURN_MIN_LIVE {
                        continue;
                    }
                    let name = candidates[self.rng.below(candidates.len())].clone();
                    self.pending_remove.push(name.clone());
                    batch.push(AdmissionRequest::RemoveTransaction { name });
                }
                _ => {
                    let platform = cluster * CHURN_PLATFORMS + self.rng.below(CHURN_PLATFORMS);
                    let (n, d) = ALPHA_MENU[self.rng.below(ALPHA_MENU.len())];
                    batch.push(AdmissionRequest::Retune {
                        platform: PlatformId(platform),
                        alpha: rat(n, d),
                        delta: rat(self.rng.below(4) as i128, 1),
                        beta: rat(self.rng.below(2) as i128, 1),
                    });
                }
            }
        }
        batch
    }

    fn settle(&mut self, admitted: bool) {
        if !admitted {
            return;
        }
        let cluster = self.clusters[self.last_cluster];
        let live = self.live.get_mut(&cluster).expect("owned cluster");
        live.retain(|n| !self.pending_remove.contains(n));
        live.append(&mut self.pending_add);
    }
}

/// Builds the in-process service a workload runs on (no journal yet).
pub fn service(set: &TransactionSet) -> Result<SchedService, String> {
    SchedService::new(
        set.clone(),
        AnalysisConfig::default(),
        AdmissionPolicy::default(),
    )
    .map_err(|e| format!("seed analysis: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_engine::EngineRequest;

    /// The seed used while the benchmark was written, and one held out.
    const SEEDS: [u64; 2] = [1, 7];

    #[test]
    fn toggle_inputs_check_out_on_the_recorded_seeds() {
        for seed in SEEDS {
            let (set, _) = schedulable_service(raw_system(Kind::ToggleSync)).expect("seed system");
            let scenario = generate(Kind::ToggleSync, seed, set).expect("8 stable victims");
            assert_eq!(scenario.sources.len(), CONNECTIONS);
            assert!(scenario.islands.iter().all(|owned| owned.len() == 4));
        }
    }

    #[test]
    fn toggle_deal_is_fixed_and_the_seed_orders_it() {
        let deal = |seed| {
            let scenario =
                generate(Kind::ToggleSync, seed, raw_system(Kind::ToggleSync)).expect("generates");
            scenario
                .sources
                .iter()
                .map(|source| match source {
                    Source::Toggle(t) => t.victims.iter().map(|v| v.name.clone()).collect(),
                    Source::Churn(_) => panic!("toggle workload made a churn source"),
                })
                .collect::<Vec<Vec<String>>>()
        };
        let sorted = |mut names: Vec<String>| {
            names.sort();
            names
        };
        let (a, b) = (deal(SEEDS[0]), deal(SEEDS[1]));
        assert_ne!(a, b, "the seed orders the round robins");
        for (x, y) in a.into_iter().zip(b) {
            assert_eq!(
                sorted(x),
                sorted(y),
                "each connection owns the same islands"
            );
        }
    }

    #[test]
    fn churn_inputs_admit_and_reject_on_the_recorded_seeds() {
        for seed in SEEDS {
            let (set, service) =
                schedulable_service(raw_system(Kind::IslandChurn)).expect("seed system");
            let mut scenario = generate(Kind::IslandChurn, seed, set).expect("generates");
            let (mut admitted, mut rejected) = (0, 0);
            for _ in 0..150 {
                for source in &mut scenario.sources {
                    let batch = source.next_batch();
                    let response = service
                        .submit(&EngineRequest::batch(batch))
                        .expect("engine accepts the batch");
                    let ok = response.outcome.verdict.admitted();
                    source.settle(ok);
                    if ok {
                        admitted += 1;
                    } else {
                        rejected += 1;
                    }
                }
            }
            assert!(
                admitted > 0 && rejected > 0,
                "seed {seed}: admitted {admitted}, rejected {rejected}"
            );
        }
    }

    #[test]
    fn streams_repeat_for_a_seed() {
        let batches = |seed| {
            let mut scenario = generate(Kind::IslandChurn, seed, raw_system(Kind::IslandChurn))
                .expect("generates");
            let source = &mut scenario.sources[1];
            (0..20)
                .map(|i| {
                    let b = source.next_batch();
                    source.settle(i % 3 != 0);
                    format!("{b:?}")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(batches(5), batches(5));
        assert_ne!(batches(5), batches(6));
    }

    #[test]
    fn toggles_alternate_and_return_to_the_seed_state() {
        let mut scenario =
            generate(Kind::ToggleSync, 1, raw_system(Kind::ToggleSync)).expect("generates");
        let source = &mut scenario.sources[0];
        let n = TOGGLE_VICTIMS / CONNECTIONS;
        let first: Vec<_> = (0..2 * n).map(|_| source.next_batch()).collect();
        assert!(first[..n]
            .iter()
            .all(|b| matches!(b[0], AdmissionRequest::RemoveTransaction { .. })));
        assert!(first[n..]
            .iter()
            .all(|b| matches!(b[0], AdmissionRequest::AddTransaction(_))));
        assert_eq!(
            format!("{:?}", source.next_batch()),
            format!("{:?}", first[0])
        );
    }

    #[test]
    fn churn_stays_on_owned_clusters() {
        let mut scenario =
            generate(Kind::IslandChurn, 3, raw_system(Kind::IslandChurn)).expect("generates");
        for (conn, source) in scenario.sources.iter_mut().enumerate() {
            for _ in 0..50 {
                for request in source.next_batch() {
                    let platforms: Vec<usize> = match &request {
                        AdmissionRequest::AddTransaction(tx) => {
                            tx.tasks().iter().map(|t| t.platform.0).collect()
                        }
                        AdmissionRequest::Retune { platform, .. } => vec![platform.0],
                        AdmissionRequest::RemoveTransaction { .. } => vec![],
                        other => panic!("unexpected request {other:?}"),
                    };
                    for p in platforms {
                        assert_eq!((p / CHURN_PLATFORMS) % CONNECTIONS, conn);
                    }
                }
                source.settle(true);
            }
        }
    }
}
