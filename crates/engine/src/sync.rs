//! The engine's sync facade: the single place the engine names its
//! concurrency primitives.
//!
//! In a normal build this module re-exports `std::sync` unchanged. Under
//! `RUSTFLAGS="--cfg hsched_model"` it swaps in the instrumented shims
//! from `hsched-check`, so the whole front door (the core, which is the
//! one routing lock, the gate and the ticket counter) runs inside the
//! model checker's deterministic scheduler with lock-order and happens-before
//! validation. Engine code must construct primitives through the classed
//! helpers below — they carry the documented lock order (core → gate,
//! plus the unranked scratch cell) into the checker; the std build
//! ignores the class arguments entirely.
//!
//! `scripts/lint_concurrency.sh` enforces that no other engine source
//! file names `std::sync` directly.

pub(crate) use std::sync::atomic::Ordering;
pub(crate) use std::sync::Arc;

/// The engine's single fault-injection tap (the `hsched-faults` shim
/// rides through this facade like every other concurrency-adjacent
/// primitive). In a normal build it defers to the process-wide fault
/// plan; under `--cfg hsched_model` it is a hard no-op, because the model
/// checker's schedules must stay deterministic — model builds keep their
/// own explicit hook ([`crate::SchedService::fail_next_sync`]) instead.
pub(crate) fn fault(site: hsched_faults::Site) -> bool {
    #[cfg(hsched_model)]
    {
        let _ = site;
        false
    }
    #[cfg(not(hsched_model))]
    {
        hsched_faults::hit(site)
    }
}

#[cfg(not(hsched_model))]
mod imp {
    pub(crate) use std::sync::atomic::AtomicU64;
    pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};

    /// The service core: all routing state, the one routing lock (rank 1).
    pub(crate) fn core_lock<T>(value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    /// The settle gate (rank 2, the bottom of the order).
    pub(crate) fn gate_lock<T>(value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    /// A scratch cell outside the lock order (never held across other
    /// acquisitions — e.g. per-job result hand-off in `run_groups`).
    pub(crate) fn scratch_lock<T>(value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    /// A named `AtomicU64` (the name feeds race reports in model mode).
    pub(crate) fn counter_cell(_name: &'static str, value: u64) -> AtomicU64 {
        AtomicU64::new(value)
    }

    /// A named condvar.
    pub(crate) fn condvar(_name: &'static str) -> Condvar {
        Condvar::new()
    }
}

#[cfg(hsched_model)]
mod imp {
    pub(crate) use hsched_check::sync::{AtomicBool, AtomicU64, Condvar, Mutex, MutexGuard};
    use hsched_check::LockClass;

    pub(crate) fn core_lock<T>(value: T) -> Mutex<T> {
        Mutex::with_class(LockClass::ranked("core", 1, 0), value)
    }

    pub(crate) fn gate_lock<T>(value: T) -> Mutex<T> {
        Mutex::with_class(LockClass::ranked("gate", 2, 0), value)
    }

    pub(crate) fn scratch_lock<T>(value: T) -> Mutex<T> {
        Mutex::with_class(LockClass::unranked("scratch"), value)
    }

    pub(crate) fn counter_cell(name: &'static str, value: u64) -> AtomicU64 {
        AtomicU64::named(name, value)
    }

    /// A named `AtomicBool` (model builds only: the fault hook).
    pub(crate) fn flag_cell(name: &'static str, value: bool) -> AtomicBool {
        AtomicBool::named(name, value)
    }

    pub(crate) fn condvar(name: &'static str) -> Condvar {
        Condvar::named(name)
    }
}

pub(crate) use imp::*;
