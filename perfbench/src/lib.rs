//! **opine-bench** — the OpineDB benchmark.
//!
//! One harness, four workloads. It builds one fixed-scale database from
//! a seed, serves it with `OpineServer` on loopback, drives it over
//! HTTP from this process, checks the answers, and prints every metric
//! by name with its unit. `BENCHMARK.json` at the repository root is
//! the contract; `README.md` here has the metric tables, the
//! interaction map and the reasons behind each workload.
//!
//! * [`workload`] — the scenario registry and the seeded request streams;
//! * [`setup`] — corpus → build → bind → warm-up, each phase timed;
//! * [`drive`] — closed-loop readers, the open-loop writer, answer checks;
//! * [`pin`] — one core per connection: its client thread and its worker;
//! * [`replay`] — the traced in-process replay behind the per-layer metrics;
//! * [`run`] — one run of one workload, end to end;
//! * [`metrics`] — every metric's name, unit, direction and bound;
//! * [`report`] — run-set documents and `opine-bench compare`;
//! * [`stats`] — percentiles (ten-samples-beyond rule), quartiles, hashing.

pub mod drive;
pub mod metrics;
pub mod pin;
pub mod replay;
pub mod report;
pub mod run;
pub mod setup;
pub mod stats;
pub mod workload;
