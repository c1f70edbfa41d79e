//! Thread placement: connection `c`'s client thread and the server
//! worker that serves it share CPU `c`.
//!
//! A request is a ping-pong between two threads that are never runnable
//! together. Left to the scheduler, the pair sometimes sits on one core
//! (the wake-up is a local context switch) and sometimes straddles both
//! (each wake-up is an inter-processor interrupt to a halted virtual
//! CPU, which in this sandbox costs about 65 µs, twice per request),
//! and whichever it is lasts for minutes: the same commit measured a
//! plain `ingest_mixed` read at 335 µs or at 470 µs, and its p99 at
//! 3.4 ms or at 1.8 ms, depending on the placement it drew. Pinning
//! takes the draw out of the measurement. It is part of the fixed
//! set-up, like `workers: 2`: one core per connection.

use opine_server::HttpClient;
use std::io;
use std::time::Duration;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in a CPU mask: room for 1 024 CPUs, as glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;
/// How a server worker thread's name starts (`opine_server::pool`).
const WORKER_NAME: &str = "opine-serve-";
/// Requests sent to find the worker behind a connection.
const PROBES: usize = 4;
/// Long enough for an idle thread to leave its CPU (its time is booked
/// when it does), or for a new one to reach its first instruction.
const SETTLE: Duration = Duration::from_millis(2);
/// [`SETTLE`]s to wait for the server's workers to name themselves: 1 s.
const NAMING_WAITS: usize = 500;

/// The CPUs this process may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Confines thread `tid` (0: the calling thread) to `cpu`.
pub fn pin(tid: i32, cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed; the call
    // only reads it.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The CPU connection `c` and its worker run on: the allowed CPUs,
/// dealt round-robin.
pub fn cpu_of(c: usize) -> io::Result<usize> {
    let cpus = allowed_cpus()?;
    cpus.get(c % cpus.len().max(1))
        .copied()
        .ok_or_else(|| io::Error::other("no CPU is allowed to this process"))
}

/// Thread id and nanoseconds on a CPU so far of every live server
/// worker of this process.
fn worker_run_ns() -> io::Result<Vec<(i32, u64)>> {
    let mut workers = Vec::new();
    for task in std::fs::read_dir("/proc/self/task")? {
        let path = task?.path();
        let Ok(name) = std::fs::read_to_string(path.join("comm")) else {
            continue; // the thread ended between the listing and the read
        };
        if !name.starts_with(WORKER_NAME) {
            continue;
        }
        let tid = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.parse().ok());
        let run_ns = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok());
        if let (Some(tid), Some(run_ns)) = (tid, run_ns) {
            workers.push((tid, run_ns));
        }
    }
    Ok(workers)
}

/// Pins the server worker that serves `client`'s keep-alive connection
/// to `cpu`; the server has `workers` of them. A worker keeps a
/// connection for as long as it lives, so the worker is the one thread
/// whose CPU time grows when requests go down the connection
/// (`GET /healthz`: nothing reaches the engine).
pub fn pin_worker_of(client: &mut HttpClient, workers: usize, cpu: usize) -> io::Result<()> {
    // A thread names itself once it runs, which may be a moment after
    // `bind` returns; a worker missing from `before` could not be told
    // from one that was idle.
    let mut before = worker_run_ns()?;
    for _ in 0..NAMING_WAITS {
        if before.len() >= workers {
            break;
        }
        std::thread::sleep(SETTLE);
        before = worker_run_ns()?;
    }
    for _ in 0..PROBES {
        client.get("/healthz")?;
    }
    // Let the worker block on the now idle connection.
    std::thread::sleep(SETTLE);
    let after = worker_run_ns()?;
    let busiest = after
        .iter()
        .filter_map(|&(tid, ns)| {
            let (_, was) = before.iter().find(|(t, _)| *t == tid)?;
            Some((ns.saturating_sub(*was), tid))
        })
        .filter(|&(grew, _)| grew > 0)
        .max();
    match busiest {
        Some((_, tid)) => pin(tid, cpu),
        None => Err(io::Error::other(
            "no server worker's CPU time grew with the connection's requests",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_is_allowed_exactly_its_cpu() {
        let cpus = allowed_cpus().expect("the process has an affinity mask");
        assert!(!cpus.is_empty());
        let last = *cpus.last().expect("non-empty");
        std::thread::spawn(move || {
            pin(0, last).expect("an allowed CPU can be pinned to");
            assert_eq!(allowed_cpus().expect("mask"), vec![last]);
        })
        .join()
        .expect("the pinned thread ran");
        // The spawning thread keeps its own mask.
        assert_eq!(allowed_cpus().expect("mask"), cpus);
        assert_eq!(cpu_of(cpus.len()).expect("wraps"), cpus[0]);
    }
}
