//! Set-up: generate the corpus, build the database, bind the server,
//! warm it. Each phase is timed; their sum is `setup_s`.

use crate::pin::{cpu_of, pin, pin_worker_of};
use crate::workload::{query_body, Scale, Stream};
use opine_core::{build, BuildConfig, OpineDb};
use opine_server::{HttpClient, OpineServer, ServerConfig};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Server worker threads, and so the most connections that are ever
/// served at once. The sandbox has two cores; nothing here is derived
/// from the core count, so a run means the same thing everywhere.
pub const WORKERS: usize = 2;

/// The server configuration every workload runs against: explicit,
/// never `from_env()`.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        max_in_flight: WORKERS,
        result_cache_capacity: 1024,
        // A run sends far more than the default 10 000 requests down
        // one keep-alive connection.
        max_requests_per_conn: usize::MAX,
        ..ServerConfig::default()
    }
}

/// Wall-clock seconds of each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Corpus::generate`.
    pub generate_s: f64,
    /// `opine_core::build`.
    pub build_s: f64,
    /// `OpineServer::bind`, the client connections, and pinning the
    /// workers behind them.
    pub bind_s: f64,
    /// Predicate pre-touch and unrecorded warm-up requests over HTTP.
    pub warmup_s: f64,
    /// Reviews in the generated corpus.
    pub reviews: usize,
    /// Resident high-water mark right after the build, MiB.
    pub rss_after_build_mb: f64,
}

impl SetupTimes {
    /// The `setup_s` metric.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.build_s + self.bind_s + self.warmup_s
    }
}

/// A served database, ready to be measured.
pub struct Instance {
    /// The engine, shared with the server.
    pub db: Arc<OpineDb>,
    /// The loopback server.
    pub server: OpineServer,
    /// One keep-alive connection per server worker, already warm.
    pub clients: Vec<HttpClient>,
    /// How long each phase took.
    pub times: SetupTimes,
}

/// Runs the whole set-up for `stream`'s workload.
pub fn setup(scale: &Scale, seed: u64, stream: &Stream) -> io::Result<Instance> {
    let start = Instant::now();
    let corpus = scale.corpus(seed);
    let generate_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let db = Arc::new(build(&corpus, &BuildConfig::default()));
    let build_s = start.elapsed().as_secs_f64();
    let reviews = corpus.reviews.len();
    drop(corpus);
    let rss_after_build_mb = rss_high_water_mb();

    let start = Instant::now();
    let server = OpineServer::bind("127.0.0.1:0", db.clone(), server_config())?;
    let mut clients = (0..WORKERS)
        .map(|_| HttpClient::connect(server.local_addr()))
        .collect::<io::Result<Vec<_>>>()?;
    // Connection `c` and the worker behind it get CPU `c` (see `pin`);
    // `drive` puts the client thread there too.
    for (c, client) in clients.iter_mut().enumerate() {
        pin_worker_of(client, WORKERS, cpu_of(c)?)?;
    }
    let bind_s = start.elapsed().as_secs_f64();

    // Fixed work, not fixed time, so a faster engine shows as a shorter
    // set-up: touch every predicate the workload may pre-touch, then
    // send the tail of the request stream. Requests are dealt to the
    // connections in turn so both workers are warm, and each connection
    // sends its share from its own CPU, as the measured traffic will.
    let pretouch: Vec<String> = stream
        .pretouch
        .iter()
        .map(|p| query_body(&format!("select * from hotels where \"{p}\" limit 1")))
        .collect();
    let tail = stream.order.len().saturating_sub(stream.warmup);
    let bodies: Vec<&str> = pretouch
        .iter()
        .map(String::as_str)
        .chain((tail..stream.order.len()).map(|i| stream.request(i).body.as_str()))
        .collect();
    let start = Instant::now();
    for (c, client) in clients.iter_mut().enumerate() {
        let share = bodies.iter().skip(c).step_by(WORKERS);
        std::thread::scope(|scope| {
            scope
                .spawn(move || -> io::Result<()> {
                    pin(0, cpu_of(c)?)?;
                    for body in share {
                        let response = client.post("/query", body)?;
                        if response.status != 200 {
                            return Err(io::Error::other(format!(
                                "warm-up request refused with {}: {}",
                                response.status, response.body
                            )));
                        }
                    }
                    Ok(())
                })
                .join()
                .expect("warm-up thread panicked")
        })?;
    }
    let warmup_s = start.elapsed().as_secs_f64();

    Ok(Instance {
        db,
        server,
        clients,
        times: SetupTimes {
            generate_s,
            build_s,
            bind_s,
            warmup_s,
            reviews,
            rss_after_build_mb,
        },
    })
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn rss_high_water_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
