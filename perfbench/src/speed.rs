//! Host speed: a fixed reference kernel, timed by the CPU time of the
//! thread that runs it, gives the speed a CPU of the host runs at right
//! now. Every process-CPU figure of the benchmark is scaled to the speed
//! at which the kernel takes [`REF_KERNEL_S`], interval by interval, each
//! interval by a kernel run on the CPUs the interval's work ran on.
//!
//! On a shared host a CPU second is not a fixed amount of work: the
//! clock a core runs at and the load on its sibling hyperthread change
//! it, in episodes of seconds that the guest cannot see. The same toggle
//! epoch, timed in process CPU in one thread a few seconds apart, took
//! from 225 to 369 µs, while its ratio to the kernel timed in between
//! stayed within ±4%; a cold replay of about 40 000 records took from 220
//! to 340 µs of CPU per record over six runs. A kernel on another CPU
//! does not see a CPU's episode, so the kernel runs on every CPU the work
//! may use. It is plain integer code in this file, independent of the
//! crates under test, so no change to them moves it.

use crate::host::{self, CpuSet};
use std::sync::mpsc;
use std::time::Duration;

/// Iterations of the reference kernel: about a millisecond of CPU.
const KERNEL_ITERATIONS: u64 = 50_000;

/// The kernel's CPU time at the reference speed.
pub const REF_KERNEL_S: f64 = 1e-3;

/// How often a [`Sampler`] runs the kernel.
const PERIOD: Duration = Duration::from_millis(50);

/// Runs the reference kernel once; returns its thread CPU time, seconds.
/// A chain of 128-bit multiplies, adds and divides, the operations the
/// analysis' exact rationals are made of.
pub fn kernel_s() -> f64 {
    let start = host::thread_cpu_s();
    let mut x: i128 = 0x1234_5678_9abc_def1;
    let mut acc: u64 = 0;
    for i in 0..KERNEL_ITERATIONS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i128::from(i | 1));
        let d = i128::from((x >> 64) as i64 | 1);
        acc = acc.wrapping_add((x / d) as u64);
    }
    std::hint::black_box(acc);
    host::thread_cpu_s() - start
}

/// The factor that scales CPU time spent while the kernel took `kernel_s`
/// to the reference speed.
pub fn scale(kernel_s: f64) -> f64 {
    REF_KERNEL_S / kernel_s
}

/// The mean of [`scale`] over every CPU the calling thread may run on,
/// the kernel run once on each (the thread moves from CPU to CPU and then
/// gets its mask back). CPU time spread evenly over those CPUs scales by
/// it. Returns 1 when the mask cannot be read or set.
pub fn scale_on_every_cpu() -> f64 {
    let Some(mask) = CpuSet::current() else {
        return 1.0;
    };
    let scales: Vec<f64> = mask
        .cpus()
        .into_iter()
        .filter(|&cpu| CpuSet::only(cpu).apply())
        .map(|_| scale(kernel_s()))
        .collect();
    mask.apply();
    if scales.is_empty() {
        1.0
    } else {
        scales.iter().sum::<f64>() / scales.len() as f64
    }
}

/// Times the process's CPU at the reference speed while the caller works,
/// from a thread of its own that runs the kernel every [`PERIOD`] and
/// scales the process CPU spent since its previous run (less its own) by
/// the kernel's time. The thread inherits the caller's CPU mask, so when
/// the caller is pinned to one CPU ([`host::pin_to_one_cpu`]), every
/// interval is scaled by that CPU's speed.
pub struct Sampler {
    stop: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<f64>,
}

impl Sampler {
    /// Starts timing.
    pub fn start() -> Sampler {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let mut scaled_s = 0.0;
            let mut last = (host::process_cpu_s(), host::thread_cpu_s());
            loop {
                let stopping = !matches!(
                    stopped.recv_timeout(PERIOD),
                    Err(mpsc::RecvTimeoutError::Timeout)
                );
                let factor = scale(kernel_s());
                let now = (host::process_cpu_s(), host::thread_cpu_s());
                scaled_s += ((now.0 - last.0) - (now.1 - last.1)) * factor;
                last = now;
                if stopping {
                    return scaled_s;
                }
            }
        });
        Sampler { stop, handle }
    }

    /// Stops timing and returns the process CPU seconds since
    /// [`Sampler::start`], less the sampler's own, at the reference speed.
    pub fn finish(self) -> f64 {
        let _ = self.stop.send(());
        self.handle.join().expect("speed sampler panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_relative_to_the_reference_kernel() {
        assert_eq!(scale(REF_KERNEL_S), 1.0);
        // A CPU at half the reference speed takes twice the reference
        // time per kernel: its CPU time counts half.
        assert_eq!(scale(2.0 * REF_KERNEL_S), 0.5);
        assert!(scale_on_every_cpu() > 0.0);
    }

    #[test]
    fn the_sampler_leaves_out_its_own_cpu() {
        let sampler = Sampler::start();
        let start = host::thread_cpu_s();
        let mut x = 0u64;
        while host::thread_cpu_s() - start < 0.2 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spent = host::thread_cpu_s() - start;
        let scaled = sampler.finish();
        // The busy loop's 0.2 s of CPU, scaled by a host speed within a
        // factor of four of the reference.
        assert!(
            scaled > spent / 4.0 && scaled < spent * 4.0,
            "{scaled} vs {spent}"
        );
    }
}
