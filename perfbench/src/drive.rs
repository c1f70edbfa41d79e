//! The load generator: closed-loop readers and, on `ingest_mixed`, an
//! open-loop writer, all in this process over loopback keep-alive
//! connections. Answers are checked after the clock stops.

use crate::pin::{cpu_of, pin};
use crate::setup::Instance;
use crate::stats::{highest_supported, percentile, us, Fnv};
use crate::workload::{InsertBatch, Stream, ROWS_PER_BATCH};
use opine_server::{render_query_body, HttpClient};
use opine_store::parse_select;
use std::io;
use std::time::{Duration, Instant};

/// Unrecorded traffic before the measured window: threads start,
/// sockets and branch predictors settle.
pub const RAMP: Duration = Duration::from_millis(500);
/// Every this-many-th SELECT response is compared with the reference.
pub const CHECK_EVERY: usize = 64;
/// Share of the window `ingest_mixed` runs reader-only before the
/// writer starts, as tenths.
const QUIET_TENTHS: u32 = 3;
/// The headline phase is cut into equal slices of at least this many
/// samples (so that each supports a p99), at most [`MAX_SLICES`].
const SLICE_MIN_SAMPLES: usize = 1_100;
/// See [`SLICE_MIN_SAMPLES`].
const MAX_SLICES: usize = 30;

/// What to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Length of the measured window.
    pub window: Duration,
    /// Keep every response for checking, not every 64th (`--smoke`).
    pub check_all: bool,
    /// Writer rate, batches per second.
    pub writer_batches_per_s: f64,
}

impl Plan {
    /// Reader-only part of the window on `ingest_mixed`.
    pub fn quiet(&self) -> Duration {
        self.window * QUIET_TENTHS / 10
    }

    /// Batches the writer's schedule holds.
    pub fn batches(&self) -> usize {
        ((self.window - self.quiet()).as_secs_f64() * self.writer_batches_per_s) as usize
    }
}

/// One timed SELECT, kept small: a run records a million of them.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Start, µs after the window opened.
    at_us: u32,
    /// Latency, ns (saturating at 4.29 s, beyond any deadline here).
    lat_ns: u32,
    qualified: bool,
}

/// Length and hash of one response body, kept for the comparison with
/// the in-process reference (the bodies themselves would make resident
/// memory a function of throughput).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    fn of(body: &str) -> Digest {
        let mut hash = Fnv::default();
        hash.write(body.as_bytes());
        Digest {
            len: body.len(),
            hash: hash.0,
        }
    }
}

#[derive(Default)]
struct ReaderLog {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    shed: u64,
    /// (request index, body digest) pairs kept for the comparison.
    kept: Vec<(usize, Digest)>,
}

/// One `INSERT` acknowledgement.
#[derive(Debug, Clone, Copy)]
struct Receipt {
    inserted: u64,
    epoch: u64,
    merged: bool,
}

#[derive(Default)]
struct WriterLog {
    /// Latency from the due time, ns, in send order.
    lat_ns: Vec<u64>,
    /// Due time of each acknowledged send, µs after the window opened.
    at_us: Vec<u32>,
    /// How late each send started, ns.
    late_ns: Vec<u64>,
    receipts: Vec<Receipt>,
    attempted: u64,
    failed: u64,
}

/// Client-observed results of one measured window.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Requests sent in the window (SELECTs and INSERTs).
    pub attempted: u64,
    /// Non-200 answers, transport errors, wrong answers, and receipt
    /// violations.
    pub failed: u64,
    /// 503 answers (also counted in `failed`).
    pub shed: u64,
    /// 200-OK responses per second (SELECTs and INSERTs); on
    /// `ingest_mixed`, of the ingest phase.
    pub qps: f64,
    /// Plain-SELECT latency; on `ingest_mixed`, of the ingest phase.
    pub p50_us: f64,
    /// See `p50_us`.
    pub p99_us: f64,
    /// Plain SELECTs behind `p50_us`/`p99_us`.
    pub samples: usize,
    /// Highest supported tail of the same samples: (quantile, µs).
    pub tail: (f64, f64),
    /// `ingest_mixed` only.
    pub ingest: Option<IngestObserved>,
}

/// The write side and the read-beside-write ratios of `ingest_mixed`.
#[derive(Debug, Clone, Default)]
pub struct IngestObserved {
    /// INSERT latency from the due time.
    pub insert_p50_us: f64,
    /// See `insert_p50_us`.
    pub insert_p95_us: f64,
    /// Insert p50 of the last fifth ÷ first fifth of the phase.
    pub insert_drift: f64,
    /// Plain-SELECT p50, ingest phase ÷ quiet phase.
    pub read_slowdown: f64,
    /// Qualified-SELECT median in the ingest phase.
    pub qualified_p50_us: f64,
    /// Qualified p50, ingest phase ÷ quiet phase.
    pub qualified_slowdown: f64,
    /// Latest start of a send after its due time, ms.
    pub writer_late_ms: f64,
}

/// Plain median, µs. The ratios and the qualified median are medians
/// of whatever their phase produced; only the percentiles proper carry
/// the ten-samples rule.
fn median_us(mut values: Vec<u64>) -> f64 {
    values.sort_unstable();
    values.get(values.len() / 2).map_or(0.0, |&v| us(v))
}

/// The value at the quiet decile of per-slice values sorted best
/// first. The sandbox's two cores are shared with other tenants, and
/// their interference comes in bursts of seconds that only ever slow a
/// slice down; a median over slices moves with every burst, the slice
/// a tenth of the way from the best does not (30 slices: the fourth
/// best; 4 slices: the best).
fn quiet_decile(best_first: &[f64]) -> Option<f64> {
    best_first.get(best_first.len() / 10).copied()
}

/// Drives `stream` against `instance` for `plan.window` and checks the
/// answers.
pub fn drive(
    instance: &mut Instance,
    stream: &Stream,
    batches: &[InsertBatch],
    plan: &Plan,
) -> io::Result<Observed> {
    let readers = stream.workload.readers();
    let mut clients = std::mem::take(&mut instance.clients);
    let mut writer_client = if stream.workload.ingests() {
        clients.pop()
    } else {
        None
    };
    assert_eq!(clients.len(), readers);
    let open = Instant::now() + RAMP;
    let close = open + plan.window;
    let ingest_from = open + plan.quiet();

    let (reader_logs, writer_log) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    pin(0, cpu_of(c)?)?;
                    Ok(read_loop(client, stream, c, readers, open, close, plan))
                })
            })
            .collect();
        let writer = writer_client.as_mut().map(|client| {
            // The writer's is the connection after the readers'.
            scope.spawn(move || {
                pin(0, cpu_of(readers)?)?;
                Ok(write_loop(client, batches, open, ingest_from, close, plan))
            })
        });
        let reader_logs: io::Result<Vec<ReaderLog>> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        let writer_log: io::Result<Option<WriterLog>> = writer
            .map(|h| h.join().expect("writer thread panicked"))
            .transpose();
        (reader_logs, writer_log)
    });
    let (reader_logs, writer_log) = (reader_logs?, writer_log?);
    instance.clients = clients;
    instance.clients.extend(writer_client);

    let mut observed = Observed::default();
    let mut samples: Vec<Sample> = Vec::new();
    for log in &reader_logs {
        observed.attempted += log.attempted;
        observed.failed += log.failed;
        observed.shed += log.shed;
        samples.extend(&log.samples);
    }

    // Wrong answers count as failures. Read-only workloads never move
    // the epoch, so the in-process reference is at the same epoch.
    if !stream.workload.ingests() {
        for (request, digest) in reader_logs.iter().flat_map(|log| &log.kept) {
            let select = parse_select(&stream.request(*request).sql)
                .map_err(|e| io::Error::other(e.to_string()))?;
            let reference = render_query_body(&instance.db, &select)
                .map_err(|e| io::Error::other(e.to_string()))?;
            if *digest != Digest::of(&reference) {
                observed.failed += 1;
            }
        }
    }

    // The headline phase: the ingest phase where there is one, else
    // the whole window. The headline latency is that of plain SELECTs.
    let window_us = plan.window.as_micros() as u32;
    let quiet_us = plan.quiet().as_micros() as u32;
    let from_us = if stream.workload.ingests() {
        quiet_us
    } else {
        0
    };
    let in_ingest = |s: &Sample| stream.workload.ingests() && s.at_us >= quiet_us;
    let phase = |qualified: bool, ingest: bool| -> Vec<u64> {
        samples
            .iter()
            .filter(|s| s.qualified == qualified && in_ingest(s) == ingest)
            .map(|s| u64::from(s.lat_ns))
            .collect()
    };
    let mut headline = phase(false, stream.workload.ingests());
    headline.sort_unstable();
    observed.samples = headline.len();
    observed.tail = highest_supported(&headline, &[0.999, 0.99, 0.95, 0.9, 0.5])
        .map_or((0.0, 0.0), |(q, v)| (q, us(v)));

    // The ingest phase is not stationary (an insert costs more the
    // longer the server has been up), so its best slice is its first
    // and says nothing of the rest: there the whole phase is one slice.
    let slices = if stream.workload.ingests() {
        1
    } else {
        (headline.len() / SLICE_MIN_SAMPLES).clamp(1, MAX_SLICES)
    };
    let slice_us = ((window_us - from_us) / slices as u32).max(1);
    let slice_of = |at_us: u32| -> Option<usize> {
        let slice = (at_us.checked_sub(from_us)? / slice_us) as usize;
        (slice < slices).then_some(slice)
    };
    let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); slices];
    let mut answered = vec![0u64; slices];
    for s in &samples {
        if let Some(slice) = slice_of(s.at_us) {
            answered[slice] += 1;
            if !s.qualified {
                latencies[slice].push(u64::from(s.lat_ns));
            }
        }
    }
    for at_us in writer_log.iter().flat_map(|log| &log.at_us) {
        if let Some(slice) = slice_of(*at_us) {
            answered[slice] += 1;
        }
    }
    for slice in &mut latencies {
        slice.sort_unstable();
    }
    // Lowest first is best first for a latency; slices too thin for the
    // percentile are left out, and if all are, the whole phase answers.
    let sliced = |q: f64| -> f64 {
        let mut per_slice: Vec<f64> = latencies
            .iter()
            .filter_map(|slice| percentile(slice, q).map(us))
            .collect();
        per_slice.sort_by(f64::total_cmp);
        quiet_decile(&per_slice)
            .or_else(|| percentile(&headline, q).map(us))
            .unwrap_or(0.0)
    };
    observed.p50_us = sliced(0.5);
    observed.p99_us = sliced(0.99);
    let mut per_slice_qps: Vec<f64> = answered
        .iter()
        .map(|&n| n as f64 / (f64::from(slice_us) / 1e6))
        .collect();
    per_slice_qps.sort_by(|a, b| b.total_cmp(a));
    observed.qps = quiet_decile(&per_slice_qps).unwrap_or(0.0);

    if let Some(log) = writer_log {
        observed.attempted += log.attempted;
        observed.failed += log.failed + receipt_violations(instance, &log);
        let fifth = (log.lat_ns.len() / 5).max(1);
        let first = median_us(log.lat_ns[..fifth.min(log.lat_ns.len())].to_vec());
        let last = median_us(log.lat_ns[log.lat_ns.len().saturating_sub(fifth)..].to_vec());
        let mut sorted = log.lat_ns.clone();
        sorted.sort_unstable();
        let quiet_plain = median_us(phase(false, false));
        let quiet_qualified = median_us(phase(true, false));
        let qualified_p50_us = median_us(phase(true, true));
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        observed.ingest = Some(IngestObserved {
            insert_p50_us: percentile(&sorted, 0.5).map_or(0.0, us),
            insert_p95_us: percentile(&sorted, 0.95).map_or(0.0, us),
            insert_drift: ratio(last, first),
            read_slowdown: ratio(observed.p50_us, quiet_plain),
            qualified_p50_us,
            qualified_slowdown: ratio(qualified_p50_us, quiet_qualified),
            writer_late_ms: log.late_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6,
        });
    }
    Ok(observed)
}

/// One closed-loop reader: connection `c` of `readers` sends requests
/// `c, c + readers, …` of the stream and waits for each answer.
fn read_loop(
    client: &mut HttpClient,
    stream: &Stream,
    c: usize,
    readers: usize,
    open: Instant,
    close: Instant,
    plan: &Plan,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut request = c;
    loop {
        let start = Instant::now();
        if start >= close {
            return log;
        }
        let statement = stream.request(request);
        let answer = client.post("/query", &statement.body);
        let lat_ns = start.elapsed().as_nanos() as u64;
        // Ramp traffic is sent but not recorded.
        if start >= open {
            log.attempted += 1;
            match answer {
                Ok(response) if response.status == 200 => {
                    log.samples.push(Sample {
                        at_us: (start - open).as_micros() as u32,
                        lat_ns: u32::try_from(lat_ns).unwrap_or(u32::MAX),
                        qualified: statement.qualified,
                    });
                    if plan.check_all || (request / readers).is_multiple_of(CHECK_EVERY) {
                        log.kept.push((request, Digest::of(&response.body)));
                    }
                }
                Ok(response) => {
                    log.failed += 1;
                    log.shed += u64::from(response.status == 503);
                }
                Err(_) => {
                    // The connection is gone; a closed loop has nothing
                    // more to send on it.
                    log.failed += 1;
                    return log;
                }
            }
        }
        request += readers;
    }
}

/// The open-loop writer: batch `b` is due at `from + b / rate` whether
/// or not earlier batches have been acknowledged; one connection, so a
/// slow insert delays the sends behind it and their latency, counted
/// from the due time, says so.
fn write_loop(
    client: &mut HttpClient,
    batches: &[InsertBatch],
    open: Instant,
    from: Instant,
    close: Instant,
    plan: &Plan,
) -> WriterLog {
    let mut log = WriterLog::default();
    for (b, batch) in batches.iter().enumerate() {
        let due = from + Duration::from_secs_f64(b as f64 / plan.writer_batches_per_s);
        if due >= close {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        log.attempted += 1;
        let receipt = client
            .post("/insert", &batch.body)
            .ok()
            .filter(|response| response.status == 200)
            .and_then(|response| parse_receipt(&response.body));
        match receipt {
            Some(receipt) => {
                log.lat_ns.push(due.elapsed().as_nanos() as u64);
                log.at_us.push((due - open).as_micros() as u32);
                log.late_ns.push((sent - due).as_nanos() as u64);
                log.receipts.push(receipt);
            }
            None => log.failed += 1,
        }
    }
    log
}

fn parse_receipt(body: &str) -> Option<Receipt> {
    let json = opine_server::json::parse(body).ok()?;
    Some(Receipt {
        inserted: json.get("inserted")?.as_f64()? as u64,
        epoch: json.get("epoch")?.as_f64()? as u64,
        merged: json.get("merged")?.as_bool()?,
    })
}

/// Receipts must carry strictly increasing epochs, `inserted` must be
/// the rows sent, and the engine's final counters must agree with what
/// was acknowledged. Each broken rule is one failure.
fn receipt_violations(instance: &Instance, log: &WriterLog) -> u64 {
    let mut violations = 0;
    violations += log
        .receipts
        .windows(2)
        .filter(|w| w[1].epoch <= w[0].epoch)
        .count() as u64;
    violations += log
        .receipts
        .iter()
        .filter(|r| r.inserted != ROWS_PER_BATCH as u64)
        .count() as u64;
    let report = instance.db.cache_report();
    let acknowledged: u64 = log.receipts.iter().map(|r| r.inserted).sum();
    let merges = log.receipts.iter().filter(|r| r.merged).count() as u64;
    violations += u64::from(report.inserted_reviews != acknowledged);
    violations += u64::from(report.delta_merges != merges);
    violations += u64::from(report.failed_merges != 0);
    violations
}
