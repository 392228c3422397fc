//! Host and device calibration: process CPU and memory from `/proc`, the
//! journal's filesystem, an `fdatasync` latency probe of that filesystem,
//! and a fingerprint of the code under test. Printed with every result,
//! so a device or host change can be told apart from a code change.

use crate::stats;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Process user + system CPU time so far, in seconds (all threads, live
/// and exited): `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, the same count
/// as `utime + stime` in `/proc/self/stat` but in nanoseconds rather than
/// 10 ms ticks.
pub fn process_cpu_s() -> f64 {
    ffi::cpu_clock_s(ffi::CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far, in seconds
/// (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)`).
pub fn thread_cpu_s() -> f64 {
    ffi::cpu_clock_s(ffi::CLOCK_THREAD_CPUTIME_ID)
}

/// A CPU affinity mask (`cpu_set_t`, 1024 CPUs).
#[derive(Debug, Clone, Copy)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The calling thread's mask, `None` when it cannot be read.
    pub fn current() -> Option<CpuSet> {
        ffi::get_affinity()
    }

    /// The mask of `cpu` alone.
    pub fn only(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] = 1 << (cpu % 64);
        set
    }

    /// The CPUs in the mask, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..self.0.len() * 64)
            .filter(|&cpu| self.0[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Makes this the calling thread's mask; threads it spawns from now on
    /// inherit it. Returns whether the kernel accepted it.
    pub fn apply(&self) -> bool {
        ffi::set_affinity(self)
    }
}

/// Pins the calling thread to the first CPU it may run on. Returns the
/// mask to restore, or `None` when the mask could not be read or set.
pub fn pin_to_one_cpu() -> Option<CpuSet> {
    let old = CpuSet::current()?;
    let first = *old.cpus().first()?;
    CpuSet::only(first).apply().then_some(old)
}

/// Gives the calling thread back the mask [`pin_to_one_cpu`] returned.
pub fn restore_affinity(mask: Option<CpuSet>) {
    if let Some(mask) = mask {
        mask.apply();
    }
}

#[allow(unsafe_code)]
mod ffi {
    use super::CpuSet;

    /// `struct timespec` on 64-bit Linux (`time_t` and `long` are 64 bits).
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    pub(super) const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub(super) const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub(super) fn get_affinity() -> Option<CpuSet> {
        let mut mask = CpuSet([0; 16]);
        // SAFETY: pid 0 is the calling thread; the buffer is writable and
        // its size is passed.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), mask.0.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub(super) fn set_affinity(mask: &CpuSet) -> bool {
        // SAFETY: pid 0 is the calling thread; the buffer is readable and
        // its size is passed.
        unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask.0.as_ptr()) == 0 }
    }

    pub(super) fn cpu_clock_s(clock: i32) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` is the C library entry point and `ts` is
        // a valid, writable `struct timespec`.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock}) failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

/// Cumulative host CPU time stolen by the hypervisor and total CPU time,
/// in ticks (the `steal` column and the sum of the first eight columns of
/// the `cpu` line of `/proc/stat`).
pub fn host_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The filesystem type and device holding `dir` (longest matching mount
/// point in `/proc/self/mountinfo`).
pub fn filesystem_of(dir: &Path) -> (String, String) {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype), Some(source)) =
            (fields.get(4), fields.get(sep + 1), fields.get(sep + 2))
        else {
            continue;
        };
        if dir.starts_with(mount) && best.as_ref().is_none_or(|(len, _, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string(), source.to_string()));
        }
    }
    best.map_or(("unknown".into(), "unknown".into()), |(_, t, s)| (t, s))
}

/// `fdatasync` latency of the filesystem holding `dir`: `rounds` appends
/// of one journal-record-sized write, each followed by `sync_data`, the
/// call the journal's group commit makes. Returns the samples in
/// microseconds.
pub fn fdatasync_probe(dir: &Path, rounds: usize) -> std::io::Result<Vec<f64>> {
    let path = dir.join("fdatasync.probe");
    let mut file = std::fs::File::create(&path)?;
    let record = [b'x'; 96];
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        file.write_all(&record)?;
        let start = Instant::now();
        file.sync_data()?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(samples)
}

/// Identifies the code under test: the checked-out git commit if the tree
/// is a repository, else an FNV-1a fingerprint of the sources the
/// benchmark builds (`tree:` + 16 hex digits).
pub fn code_identity(root: &Path) -> String {
    if let Some(commit) = git_head(&root.join(".git")) {
        return commit;
    }
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        let name = file.strip_prefix(root).unwrap_or(&file).to_string_lossy();
        for b in name.as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree:{hash:016x}")
}

/// The commit `HEAD` names: detached, a loose ref, or a packed ref.
fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(name)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (commit, refname) = line.split_once(' ')?;
        (refname == name).then(|| commit.to_string())
    })
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// The calibration block printed with every result.
pub struct Calibration {
    /// Host parallelism.
    pub nproc: usize,
    /// See [`code_identity`].
    pub commit: String,
    /// Filesystem type of the journal directory.
    pub journal_fs: String,
    /// Device (mount source) of the journal directory.
    pub journal_device: String,
    /// `fdatasync` probe median, µs.
    pub fdatasync_p50_us: f64,
    /// `fdatasync` probe p90, µs.
    pub fdatasync_p90_us: f64,
    /// Share of host CPU time stolen by the hypervisor during the
    /// measured phase, %.
    pub steal_pct: f64,
    /// Median speed of the host's CPUs during the measured phase, relative
    /// to the reference kernel's ([`crate::speed`]).
    pub host_speed: f64,
}

/// The journal's flush policy, as configured by the service: one
/// `fdatasync` per group commit, covering every record written before it.
pub const FLUSH_POLICY: &str = "fdatasync per group commit";

impl Calibration {
    /// Probes the host and the filesystem holding `journal_dir`.
    pub fn probe(root: &Path, journal_dir: &Path) -> std::io::Result<Calibration> {
        let samples = fdatasync_probe(journal_dir, 200)?;
        let (journal_fs, journal_device) = filesystem_of(journal_dir);
        Ok(Calibration {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            commit: code_identity(root),
            journal_fs,
            journal_device,
            fdatasync_p50_us: stats::percentile(&samples, 0.5).unwrap_or(0.0),
            fdatasync_p90_us: stats::percentile(&samples, 0.9).unwrap_or(0.0),
            steal_pct: 0.0,
            host_speed: 0.0,
        })
    }

    /// One JSON object.
    pub fn json(&self) -> String {
        let text = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            "{{\"calibration\": {{\"nproc\": {}, \"commit\": \"{}\", \"journal_fs\": \"{}\", \"journal_device\": \"{}\", \"flush_policy\": \"{}\", \"fdatasync_p50_us\": {:.1}, \"fdatasync_p90_us\": {:.1}, \"steal_pct\": {:.2}, \"host_speed\": {:.3}}}}}",
            self.nproc,
            text(&self.commit),
            text(&self.journal_fs),
            text(&self.journal_device),
            FLUSH_POLICY,
            self.fdatasync_p50_us,
            self.fdatasync_p90_us,
            self.steal_pct,
            self.host_speed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::git_head;

    #[test]
    fn head_resolves_packed_loose_and_detached_refs() {
        let git = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        std::fs::create_dir_all(git.join("refs/heads")).expect("temp dir");
        let write = |name: &str, text: &str| std::fs::write(git.join(name), text).expect("write");
        write("HEAD", "ref: refs/heads/main\n");
        write(
            "packed-refs",
            "# pack-refs with: peeled fully-peeled sorted\naaaa refs/heads/other\nbbbb refs/heads/main\n^eeee\n",
        );
        assert_eq!(git_head(&git).as_deref(), Some("bbbb"));
        write("refs/heads/main", "cccc\n");
        assert_eq!(git_head(&git).as_deref(), Some("cccc"));
        write("HEAD", "dddd\n");
        assert_eq!(git_head(&git).as_deref(), Some("dddd"));
        std::fs::remove_dir_all(&git).expect("clean up");
        assert_eq!(git_head(&git), None);
    }
}
