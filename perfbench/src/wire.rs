//! The closed-loop load generator: one thread per connection, each
//! submitting its source's batches over the wire and waiting for every
//! verdict to become durable before it sends more. Optionally records
//! client-side spans around each call into `hsched_net::Client`.

use crate::scenario::{Kind, Source};
use crate::stats::{self, Interval};
use hsched_admission::AdmissionRequest;
use hsched_engine::SCHEMA_VERSION;
use hsched_net::{Client, RemoteEpoch, SubmitMode};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One submitted batch and its verdict, in connection order.
#[derive(Debug, Clone)]
pub struct Record {
    /// The batch as submitted.
    pub batch: Vec<AdmissionRequest>,
    /// The verdict the service returned.
    pub admitted: bool,
    /// Rejection detail, for rejected batches.
    pub detail: Option<String>,
    /// Which of the connection's islands the batch touches.
    pub island: usize,
}

/// A client-side span: a call into `hsched_net::Client`, or the window
/// (parent) that groups one durable verdict's calls.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within its connection.
    pub id: u64,
    /// The window span this call belongs to.
    pub parent: Option<u64>,
    /// `window`, `submit`, `send_submit`, `recv_epoch` or `sync`.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub at: Interval,
}

/// One connection: its client, its request source and everything it
/// submitted so far.
pub struct Conn {
    client: Option<Client>,
    /// The batches this connection generates.
    pub source: Source,
    /// The first `keep` batches submitted and their verdicts, warm-up
    /// included.
    pub stream: Vec<Record>,
    keep: usize,
}

impl Conn {
    /// Connects to the service port. The connection records its first
    /// `keep` batches and verdicts, so that what the benchmark keeps does
    /// not grow with throughput where nothing needs the whole stream.
    pub fn connect(addr: &str, source: Source, keep: usize) -> Result<Conn, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn {
            client: Some(client),
            source,
            stream: Vec::new(),
            keep,
        })
    }

    /// Says goodbye to the server.
    pub fn close(&mut self) {
        if let Some(client) = self.client.take() {
            let _ = client.quit();
        }
    }

    fn next_batch(&mut self) -> (Vec<AdmissionRequest>, usize) {
        let batch = self.source.next_batch();
        (batch, self.source.last_island())
    }
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many verdict rounds (epochs or windows) per connection.
    Rounds(usize),
    /// When the deadline has passed (checked before each round).
    Deadline(Instant),
}

/// What one connection did in a phase.
#[derive(Debug, Default)]
pub struct ConnPhase {
    /// Per durable epoch: when its verdict became durable (ns since the
    /// run's origin) and its durable-verdict latency (µs).
    pub latencies: Vec<(u64, f64)>,
    /// Epochs whose verdict was acknowledged durable.
    pub durable: u64,
    /// Epochs admitted, durable or not.
    pub admitted: u64,
    /// Epochs rejected, durable or not.
    pub rejected: u64,
    /// Epochs attempted.
    pub attempted: u64,
    /// Epochs failed: wire or engine error, unexpected rejection, or a
    /// sync that did not cover the epoch.
    pub failed: u64,
    /// Client spans (traced phases only).
    pub spans: Vec<Span>,
    /// First failure seen, for the report.
    pub first_error: Option<String>,
}

/// One whole [`SLICE`] of a phase: durable epochs, process CPU time and
/// host speed.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Wall time of the slice (the sampler's sleep is not exact).
    pub seconds: f64,
    /// Process CPU seconds spent in the slice, less the reference kernels
    /// the sampler ran at its end, scaled to the reference speed by them
    /// ([`crate::speed::scale_on_every_cpu`]).
    pub cpu_s: f64,
    /// That scale: the host's speed relative to the reference.
    pub speed: f64,
    /// Epochs acknowledged durable in the slice.
    pub durable: u64,
    /// Share of host CPU time the hypervisor stole in the slice.
    pub steal: f64,
}

/// Throughput, CPU and latency are taken per slice; a phase's figure is
/// the median over its whole slices, so a burst of CPU stolen by a
/// neighbour on a shared host moves a few slices, not the result. A
/// quarter second gives a 12-second phase 48 slices, enough to find a
/// quiet quarter among them (see [`Phase::cpu_us_per_epoch`]).
pub const SLICE: Duration = Duration::from_millis(250);

/// A whole phase across connections.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time from the common start to the last connection's end.
    pub wall_s: f64,
    /// Start of the phase, ns since the run's origin.
    pub start_ns: u64,
    /// Per connection.
    pub conns: Vec<ConnPhase>,
    /// Whole slices of the phase, in order.
    pub slices: Vec<Slice>,
}

impl Phase {
    /// All durable epochs.
    pub fn durable(&self) -> u64 {
        self.conns.iter().map(|c| c.durable).sum()
    }

    /// All attempted epochs.
    pub fn attempted(&self) -> u64 {
        self.conns.iter().map(|c| c.attempted).sum()
    }

    /// All failed epochs.
    pub fn failed(&self) -> u64 {
        self.conns.iter().map(|c| c.failed).sum()
    }

    /// Durable epochs per second: the median over whole slices.
    pub fn durable_eps(&self) -> Option<f64> {
        let rates: Vec<f64> = self
            .slices
            .iter()
            .filter_map(|s| stats::rate(s.durable, s.seconds))
            .collect();
        stats::median(&rates)
    }

    /// Process CPU per durable epoch, µs at the reference speed: the
    /// median over the quietest quarter of the whole slices, those whose host steal is at or below
    /// the phase's lower quartile of steal. A neighbour busy enough to
    /// steal CPU also slows the CPU it leaves (shared caches and cores,
    /// slower VM exits on every wakeup): slices at 30% steal cost up to
    /// 1.4x the CPU per epoch of quiet ones, and steal comes in episodes
    /// of seconds, so a median over all slices moves with how much of a
    /// run an episode covers.
    pub fn cpu_us_per_epoch(&self) -> Option<f64> {
        let steal: Vec<f64> = self.slices.iter().map(|s| s.steal).collect();
        let costs: Vec<f64> = stats::quietest_quarter(&steal)
            .into_iter()
            .filter_map(|i| stats::per_unit(self.slices[i].cpu_s * 1e6, self.slices[i].durable))
            .collect();
        stats::median(&costs)
    }

    /// Every latency sample, µs.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.conns
            .iter()
            .flat_map(|c| c.latencies.iter().map(|&(_, us)| us))
            .collect()
    }

    /// The `q`-quantile of durable-verdict latency, µs: the median over
    /// whole slices of each slice's quantile, or the quantile of all
    /// samples when a slice has too few samples for it.
    pub fn latency_quantile_us(&self, q: f64) -> Option<f64> {
        let whole = self.slices.len();
        let mut by_slice: Vec<Vec<f64>> = vec![Vec::new(); whole];
        for &(done, us) in self.conns.iter().flat_map(|c| c.latencies.iter()) {
            let k = (done.saturating_sub(self.start_ns) / SLICE.as_nanos() as u64) as usize;
            if k < whole {
                by_slice[k].push(us);
            }
        }
        let per_slice: Option<Vec<f64>> = by_slice
            .iter()
            .map(|samples| stats::percentile(samples, q))
            .collect();
        match per_slice {
            Some(values) if !values.is_empty() => stats::median(&values),
            _ => stats::percentile(&self.latencies_us(), q),
        }
    }
}

/// Runs one phase of `kind`'s discipline on every connection, one thread
/// each, starting together, while a sampler records each whole [`SLICE`].
pub fn run(conns: &mut [Conn], kind: Kind, until: Until, trace: bool, origin: Instant) -> Phase {
    let barrier = Barrier::new(conns.len() + 2);
    let durable = AtomicU64::new(0);
    let running = AtomicBool::new(true);
    let (start, start_ns, results, slices) = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (barrier, durable) = (&barrier, &durable);
                scope.spawn(move || {
                    barrier.wait();
                    drive(conn, kind, until, trace, origin, durable)
                })
            })
            .collect();
        let sampler = scope.spawn(|| {
            barrier.wait();
            sample(&durable, &running)
        });
        barrier.wait();
        let start = Instant::now();
        let start_ns = ns_since(origin);
        let results: Vec<ConnPhase> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        running.store(false, Ordering::SeqCst);
        let slices = sampler.join().expect("sampler thread panicked");
        (start, start_ns, results, slices)
    });
    Phase {
        wall_s: start.elapsed().as_secs_f64(),
        start_ns,
        conns: results,
        slices,
    }
}

/// Samples the durable-epoch counter and process CPU at every slice
/// boundary until `running` drops; the partial last slice is discarded.
/// Before each sample it runs the reference kernel once on every CPU the
/// process may run on, and scales the slice's CPU by them.
fn sample(durable: &AtomicU64, running: &AtomicBool) -> Vec<Slice> {
    let poll = Duration::from_millis(5);
    let mut slices = Vec::new();
    let mut last = (
        Instant::now(),
        crate::host::process_cpu_s(),
        0,
        crate::host::host_steal_ticks(),
    );
    let mut boundary = last.0 + SLICE;
    while running.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now < boundary {
            std::thread::sleep((boundary - now).min(poll));
            continue;
        }
        let kernels_start = crate::host::thread_cpu_s();
        let factor = crate::speed::scale_on_every_cpu();
        let kernels_s = crate::host::thread_cpu_s() - kernels_start;
        let point = (
            Instant::now(),
            crate::host::process_cpu_s(),
            durable.load(Ordering::Relaxed),
            crate::host::host_steal_ticks(),
        );
        slices.push(Slice {
            seconds: (point.0 - last.0).as_secs_f64(),
            cpu_s: (point.1 - last.1 - kernels_s) * factor,
            speed: factor,
            durable: point.2 - last.2,
            steal: stats::per_unit(
                point.3 .0.saturating_sub(last.3 .0) as f64,
                point.3 .1.saturating_sub(last.3 .1),
            )
            .unwrap_or(0.0),
        });
        last = point;
        boundary += SLICE;
    }
    slices
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

struct Tracer {
    on: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        if self.on {
            ns_since(self.origin)
        } else {
            0
        }
    }

    fn record(&mut self, parent: Option<u64>, name: &'static str, start: u64) -> u64 {
        self.next_id += 1;
        if self.on {
            let end = ns_since(self.origin);
            self.spans.push(Span {
                id: self.next_id,
                parent,
                name,
                at: Interval { start, end },
            });
        }
        self.next_id
    }
}

fn drive(
    conn: &mut Conn,
    kind: Kind,
    until: Until,
    trace: bool,
    origin: Instant,
    durable: &AtomicU64,
) -> ConnPhase {
    let mut out = ConnPhase::default();
    let mut tracer = Tracer {
        on: trace,
        origin,
        next_id: 0,
        spans: Vec::new(),
    };
    let mut rounds = 0;
    loop {
        let more = match until {
            Until::Rounds(n) => rounds < n,
            Until::Deadline(deadline) => Instant::now() < deadline,
        };
        if !more || conn.client.is_none() {
            break;
        }
        rounds += 1;
        let before = out.durable;
        match kind.window() {
            1 => lockstep(conn, &mut out, &mut tracer),
            w => window(conn, w, &mut out, &mut tracer),
        }
        durable.fetch_add(out.durable - before, Ordering::Relaxed);
    }
    out.spans = tracer.spans;
    out
}

fn fail(conn: &mut Conn, out: &mut ConnPhase, epochs: u64, error: String) {
    out.failed += epochs;
    out.first_error.get_or_insert(error);
    // The connection's state on the server is unknown after a failed
    // call: its later batches could not be checked, so it stops here.
    conn.close();
}

/// One `submit sync` round trip.
fn lockstep(conn: &mut Conn, out: &mut ConnPhase, tracer: &mut Tracer) {
    let window_start = tracer.now();
    let window_id = tracer.next_id + 2;
    let (batch, island) = conn.next_batch();
    out.attempted += 1;
    let client = conn.client.as_mut().expect("connected");
    let started = Instant::now();
    let call = tracer.now();
    let reply = client.submit(SubmitMode::Sync, SCHEMA_VERSION, &batch);
    let latency = started.elapsed().as_secs_f64() * 1e6;
    tracer.record(Some(window_id), "submit", call);
    tracer.record(None, "window", window_start);
    match reply {
        Ok(epoch) => {
            settle(conn, out, (batch, island), &epoch);
            out.latencies.push((ns_since(tracer.origin), latency));
            out.durable += 1;
        }
        Err(e) => fail(conn, out, 1, format!("submit: {e}")),
    }
}

/// `w` pipelined `submit async` frames, their replies, then one `sync`.
fn window(conn: &mut Conn, w: usize, out: &mut ConnPhase, tracer: &mut Tracer) {
    let window_start = tracer.now();
    // Children are recorded before their parent: reserve the parent's id
    // as the one after the window's 2w + 1 calls.
    let window_id = tracer.next_id + 2 * w as u64 + 2;
    let batches: Vec<(Vec<AdmissionRequest>, usize)> = (0..w).map(|_| conn.next_batch()).collect();
    out.attempted += w as u64;
    let client = conn.client.as_mut().expect("connected");
    let mut sent = Vec::with_capacity(w);
    for (batch, _) in &batches {
        let call = tracer.now();
        sent.push(Instant::now());
        let r = client.send_submit(SubmitMode::Async, SCHEMA_VERSION, batch);
        tracer.record(Some(window_id), "send_submit", call);
        if let Err(e) = r {
            return fail(conn, out, w as u64, format!("send_submit: {e}"));
        }
    }
    let mut epochs = Vec::with_capacity(w);
    for _ in 0..w {
        let call = tracer.now();
        let r = client.recv_epoch();
        tracer.record(Some(window_id), "recv_epoch", call);
        match r {
            Ok(epoch) => epochs.push(epoch),
            Err(e) => return fail(conn, out, w as u64, format!("recv_epoch: {e}")),
        }
    }
    let call = tracer.now();
    let synced = client.sync(None);
    let done = Instant::now();
    tracer.record(Some(window_id), "sync", call);
    tracer.record(None, "window", window_start);
    let covered = match synced {
        Ok(covered) => covered,
        Err(e) => return fail(conn, out, w as u64, format!("sync: {e}")),
    };
    for ((batch, epoch), sent) in batches.into_iter().zip(&epochs).zip(sent) {
        if epoch.epoch > covered {
            out.failed += 1;
            out.first_error
                .get_or_insert_with(|| format!("sync covered {covered}, epoch {}", epoch.epoch));
            continue;
        }
        settle(conn, out, batch, epoch);
        out.latencies.push((
            done.duration_since(tracer.origin).as_nanos() as u64,
            done.duration_since(sent).as_secs_f64() * 1e6,
        ));
        out.durable += 1;
    }
}

fn settle(
    conn: &mut Conn,
    out: &mut ConnPhase,
    (batch, island): (Vec<AdmissionRequest>, usize),
    epoch: &RemoteEpoch,
) {
    conn.source.settle(epoch.admitted);
    if epoch.admitted {
        out.admitted += 1;
    } else {
        out.rejected += 1;
    }
    if conn.source.must_admit() && !epoch.admitted {
        out.failed += 1;
        out.first_error
            .get_or_insert_with(|| format!("epoch {} unexpectedly rejected", epoch.epoch));
    }
    if conn.stream.len() >= conn.keep {
        return;
    }
    conn.stream.push(Record {
        batch,
        admitted: epoch.admitted,
        detail: epoch.reason.as_ref().map(|r| r.detail.clone()),
        island,
    });
}
