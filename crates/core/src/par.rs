//! Chunked fork-join over entity ids.
//!
//! The query hot path scores every entity independently, which is
//! embarrassingly parallel. `rayon` cannot be vendored in this offline
//! build environment, so this module provides the one primitive the
//! engine needs — `par_map`, an indexed map over `0..n` executed on
//! `std::thread::scope` with contiguous chunks per worker — with the same
//! determinism guarantee (output order is by index, whatever the thread
//! interleaving).

use std::num::NonZeroUsize;
use std::thread;

/// Inputs smaller than this run serially. Spawning and joining two
/// scoped threads costs 100–290 µs (measured in the traced replay of a
/// 2 000-entity column build); the membership kernel scores an entity in
/// ≈ 30 ns, so halving a column's loop saves that much only from
/// ≈ 16k entities up.
pub const PAR_THRESHOLD: usize = 16_384;

/// Maps `f` over `0..n`, in parallel when `n` is large enough.
///
/// Equivalent to `(0..n).map(f).collect()` including output order. `f`
/// runs once per index; chunks are contiguous so per-thread memory access
/// stays sequential over entity-indexed columns.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // The size test comes first: asking the OS for a worker count reads
    // cgroup files (≈ 12 µs), and the answer is not cached because a
    // pinned thread's affinity is not the process's.
    let workers = if n < PAR_THRESHOLD {
        1
    } else {
        available_workers().min(n)
    };
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out = Vec::with_capacity(n);
    // The spawning request's cancellation token, trace context, and
    // pinned delta generation are thread-ambient; re-install all three
    // in every worker so deadline checkpoints inside `f` keep firing
    // across the fan-out, worker spans/counters aggregate into the
    // coordinator's trace tree, and delta-aware reads inside `f` see
    // the coordinator's pinned epoch rather than a possibly newer
    // published one (snapshot isolation must survive the fan-out).
    let deadline = opine_faults::current_deadline();
    let trace = opine_trace::current_trace();
    let pin = crate::ingest::current_pin();
    thread::scope(|scope| {
        let f = &f;
        let deadline = &deadline;
        let trace = &trace;
        let pin = &pin;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    opine_faults::with_deadline(deadline.clone(), || {
                        opine_trace::with_trace(trace.clone(), || {
                            crate::ingest::with_pin(pin.clone(), || {
                                let lo = w * chunk;
                                let hi = ((w + 1) * chunk).min(n);
                                (lo..hi).map(f).collect::<Vec<T>>()
                            })
                        })
                    })
                })
            })
            .collect();
        // lint:allow(checkpoint_coverage, reason = "bounded by worker count; joins finished workers rather than scanning data")
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                // Propagate the worker's own payload (a cancellation
                // unwind, an injected fault, a genuine bug) instead of
                // flattening it into a generic expect message — the
                // catch sites upstream dispatch on the payload type.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    out
}

/// Worker count: the machine's logical CPUs, overridable (e.g. for CI or
/// benchmarking the serial path) with `OPINE_THREADS`.
pub fn available_workers() -> usize {
    if let Ok(v) = std::env::var("OPINE_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_serial_map_above_threshold() {
        let n = PAR_THRESHOLD * 3 + 17;
        let expected: Vec<usize> = (0..n).map(|i| i * 2 + 1).collect();
        assert_eq!(par_map(n, |i| i * 2 + 1), expected);
    }

    #[test]
    fn small_inputs_run_serially_and_in_order() {
        assert_eq!(par_map(5, |i| i), vec![0, 1, 2, 3, 4]);
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn below_the_threshold_the_closure_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let ran_on = par_map(PAR_THRESHOLD - 1, |_| thread::current().id());
        assert_eq!(ran_on.len(), PAR_THRESHOLD - 1);
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[test]
    fn two_forced_workers_equal_the_serial_map() {
        // The other tests here hold for any worker count, so the
        // variable may be visible to them while this one runs.
        std::env::set_var("OPINE_THREADS", "2");
        let caller = thread::current().id();
        let n = PAR_THRESHOLD * 2;
        let out = par_map(n, |i| (i * 7 + 3, thread::current().id()));
        std::env::remove_var("OPINE_THREADS");
        let values: Vec<usize> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, (0..n).map(|i| i * 7 + 3).collect::<Vec<_>>());
        assert!(
            out.iter().all(|&(_, id)| id != caller),
            "at twice the threshold the map fans out"
        );
    }

    #[test]
    fn trace_context_survives_the_fan_out() {
        let ctx = opine_trace::TraceContext::new();
        let n = PAR_THRESHOLD * 2;
        opine_trace::with_trace(Some(ctx.clone()), || {
            let out = par_map(n, |i| {
                opine_trace::count("rescore", "scored", 1);
                i
            });
            assert_eq!(out.len(), n);
        });
        // Every worker's increments land in the one shared tree, each
        // index counted exactly once — no double-counting across the
        // scoped fan-out.
        let snap = ctx.snapshot();
        assert_eq!(snap.stage("rescore").unwrap().counter("scored"), n as u64);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let n = PAR_THRESHOLD * 2;
        let counter = AtomicUsize::new(0);
        let out = par_map(n, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), n);
        assert_eq!(out.len(), n);
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
    }
}
