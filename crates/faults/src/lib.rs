//! **opine-faults** — the overload/fault discipline shared by every
//! execution layer: request deadlines with cooperative cancellation, and
//! compiled-in (but env-gated) fault-injection failpoints.
//!
//! This crate sits at the bottom of the workspace DAG (it depends on
//! nothing) so `opine-ir`, `opine-store`, `opine-core`, and
//! `opine-server` can all share one notion of "this request is out of
//! time" without signature churn across the crate boundary:
//!
//! * [`Deadline`] — an `Instant`-based expiry plus a manual cancel flag.
//!   The serving layer installs one per request as a **thread-ambient**
//!   token ([`with_deadline`]); long scans sprinkle [`checkpoint`] at
//!   chunk boundaries. An expired checkpoint unwinds with the
//!   [`Cancelled`] payload, which exactly one catch site (the engine's
//!   query entry) maps to a typed `QueryTimeout` error. Unwinding —
//!   rather than threading `Result` through every hot loop — works here
//!   because the workspace's locks never poison (the `parking_lot` shim
//!   recovers poisoned std locks) and every bounded cache computes
//!   outside its lock, so a cancel can never publish a partial result.
//! * [`fire`] / [`fire_panic`] — named failpoints (`pre_ta`, `mid_wand`,
//!   `summary_merge`, `response_write`) that inject delays, errors, or
//!   panics with a configured probability. Disabled (the default) a
//!   failpoint costs one relaxed atomic load; enabled via the
//!   `OPINE_FAULTS` env var or [`configure`], they drive the chaos soak.
//!
//! ```text
//! OPINE_FAULTS="pre_ta=delay:3@0.3,mid_wand=panic@0.02,summary_merge=error@0.05"
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Deadlines and cooperative cancellation
// ---------------------------------------------------------------------------

/// A per-request budget: a wall-clock expiry plus a manual cancel flag.
///
/// Cheap to clone (one `Arc` bump); clones share the cancel flag.
#[derive(Debug, Clone)]
pub struct Deadline {
    expires_at: Instant,
    cancelled: Arc<AtomicBool>,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            expires_at: Instant::now() + budget,
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Cancels the request immediately, regardless of remaining time.
    pub fn cancel(&self) {
        // sync: pairs with the Acquire load in expired(); everything the
        // canceller wrote before cancelling is visible to the observer.
        self.cancelled.store(true, Ordering::Release);
    }

    /// True once the budget is spent or [`Self::cancel`] was called.
    pub fn expired(&self) -> bool {
        // sync: pairs with the Release store in cancel().
        self.cancelled.load(Ordering::Acquire) || Instant::now() >= self.expires_at
    }

    /// Time left before expiry (zero when expired).
    pub fn remaining(&self) -> Duration {
        self.expires_at.saturating_duration_since(Instant::now())
    }
}

/// The unwind payload of an expired [`checkpoint`]. Exactly one catch
/// site (the engine's query entry) downcasts to this and maps it to a
/// typed timeout error; everything else must let it pass through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

thread_local! {
    /// The ambient deadline of the request running on this thread.
    static AMBIENT: Cell<Option<Deadline>> = const { Cell::new(None) };
    /// Checkpoint stride counter: `Instant::now` is only consulted every
    /// [`CHECKPOINT_STRIDE`] calls, so hot loops can checkpoint per
    /// iteration without a clock read each time.
    static STRIDE: Cell<u32> = const { Cell::new(0) };
}

/// How many [`checkpoint`] calls between actual clock reads.
const CHECKPOINT_STRIDE: u32 = 256;

/// Restores the previous ambient deadline on scope exit — including
/// unwinds, so a cancelled request never leaks its deadline onto the
/// worker thread's next request.
struct AmbientGuard {
    previous: Option<Deadline>,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|slot| slot.set(self.previous.take()));
    }
}

/// Runs `f` with `deadline` installed as this thread's ambient deadline
/// (replacing, and afterwards restoring, any previous one). `None`
/// clears the ambient deadline for the scope.
pub fn with_deadline<T>(deadline: Option<Deadline>, f: impl FnOnce() -> T) -> T {
    let previous = AMBIENT.with(|slot| slot.replace(deadline));
    let _guard = AmbientGuard { previous };
    f()
}

/// The ambient deadline, if one is installed — what a failpoint's delay
/// is capped by.
fn current_deadline() -> Option<Deadline> {
    AMBIENT.with(|slot| {
        let d = slot.take();
        slot.set(d.clone());
        d
    })
}

/// Cooperative cancellation point for long scans.
///
/// Call at chunk boundaries (per TA depth, per scored posting, per
/// scored row, per merged entity). With no ambient deadline this is a
/// thread-local increment; with one, the clock is read every
/// [`CHECKPOINT_STRIDE`] calls and an expired deadline unwinds with
/// [`Cancelled`].
#[inline]
pub fn checkpoint() {
    let due = STRIDE.with(|c| {
        let n = c.get().wrapping_add(1);
        c.set(n % CHECKPOINT_STRIDE);
        n % CHECKPOINT_STRIDE == 0
    });
    if due {
        checkpoint_now();
    }
}

/// [`checkpoint`] without the stride: always reads the clock. Use at
/// coarse boundaries (query entry, per merge cell) where one clock read
/// is cheap relative to the work it guards.
pub fn checkpoint_now() {
    let expired = AMBIENT.with(|slot| {
        let d = slot.take();
        let expired = d.as_ref().is_some_and(Deadline::expired);
        slot.set(d);
        expired
    });
    if expired {
        std::panic::panic_any(Cancelled);
    }
}

// ---------------------------------------------------------------------------
// Failpoints
// ---------------------------------------------------------------------------

/// The named failpoint sites compiled into the engine.
pub const SITES: [&str; 5] = [
    "pre_ta",
    "mid_wand",
    "summary_merge",
    "response_write",
    "mid_merge",
];

/// What a triggered failpoint does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    /// Sleep this long, then continue normally.
    Delay(Duration),
    /// Return an injected error to the caller.
    Error,
    /// Unwind with an [`InjectedPanic`] payload.
    Panic,
}

/// One configured failpoint.
#[derive(Debug, Clone)]
struct Failpoint {
    site: &'static str,
    action: Action,
    /// Trigger probability in `[0, 1]`, evaluated per visit.
    probability: f64,
}

/// The error a triggered `error`-action failpoint surfaces through
/// [`fire`]. Callers map it into their own error channel (an I/O error
/// for the response writer, a 500 via [`fire_panic`] elsewhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// The failpoint site that fired.
    pub site: &'static str,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {}", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// The unwind payload of a `panic`-action failpoint (and of
/// [`fire_panic`] on an `error` action). The serving layer's per-request
/// catch turns it into a 500 like any other panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic {
    /// The failpoint site that fired.
    pub site: &'static str,
}

impl std::fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected panic at failpoint {:?}", self.site)
    }
}

/// Whether any failpoint is armed — the one relaxed load every
/// [`fire`] call pays when fault injection is off.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Total faults triggered (all sites, all actions) — flows into the
/// engine's `CacheReport` and the server's `/stats`.
static INJECTED: AtomicU64 = AtomicU64::new(0);
/// xorshift64* state for the per-visit probability draw. Seeded by
/// [`configure`]; deterministic for a fixed seed and visit order.
static RNG: AtomicU64 = AtomicU64::new(0x9E3779B97F4A7C15);

fn registry() -> &'static Mutex<Vec<Failpoint>> {
    static REGISTRY: OnceLock<Mutex<Vec<Failpoint>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Arms the failpoints in the environment's `OPINE_FAULTS` spec (no-op
/// when unset). Call once at server startup; tests use [`configure`].
pub fn init_from_env() {
    if let Ok(spec) = std::env::var("OPINE_FAULTS") {
        if !spec.trim().is_empty() {
            let seed = std::env::var("OPINE_FAULTS_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x9E3779B97F4A7C15);
            configure(&spec, seed).expect("invalid OPINE_FAULTS spec");
        }
    }
}

/// Arms failpoints from a spec string, replacing any previous
/// configuration:
///
/// ```text
/// site=action[:millis]@probability[,site=action@probability...]
/// pre_ta=delay:3@0.3,mid_wand=panic@0.02,response_write=error@0.05
/// ```
///
/// Sites must be in [`SITES`]; actions are `delay:<ms>`, `error`,
/// `panic`. `seed` makes the per-visit probability draws deterministic.
pub fn configure(spec: &str, seed: u64) -> Result<(), String> {
    let mut points = Vec::new();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (site, rest) = part
            .trim()
            .split_once('=')
            .ok_or_else(|| format!("failpoint {part:?} missing '='"))?;
        let site = SITES
            .iter()
            .find(|&&s| s == site)
            .copied()
            .ok_or_else(|| format!("unknown failpoint site {site:?} (know {SITES:?})"))?;
        let (action, prob) = rest
            .split_once('@')
            .ok_or_else(|| format!("failpoint {part:?} missing '@probability'"))?;
        let probability: f64 = prob
            .parse()
            .map_err(|_| format!("bad probability {prob:?} in {part:?}"))?;
        if !(0.0..=1.0).contains(&probability) {
            return Err(format!("probability {probability} outside [0, 1]"));
        }
        let action = match action.split_once(':') {
            Some(("delay", ms)) => Action::Delay(Duration::from_millis(
                ms.parse()
                    .map_err(|_| format!("bad delay millis {ms:?} in {part:?}"))?,
            )),
            None if action == "error" => Action::Error,
            None if action == "panic" => Action::Panic,
            _ => return Err(format!("unknown action {action:?} in {part:?}")),
        };
        points.push(Failpoint {
            site,
            action,
            probability,
        });
    }
    let armed = !points.is_empty();
    *registry().lock().unwrap_or_else(|e| e.into_inner()) = points;
    // sync: RNG is a self-contained draw state; any interleaving of
    // seeding and draws yields a valid xorshift sequence.
    RNG.store(seed | 1, Ordering::Relaxed);
    // sync: pairs with the Acquire load in fire(); the registry mutex
    // above already ordered the configured points before arming.
    ENABLED.store(armed, Ordering::Release);
    Ok(())
}

/// Disarms every failpoint (counters keep their totals).
pub fn clear() {
    // sync: pairs with the Acquire load in fire(); disarm is observed
    // before the registry drains.
    ENABLED.store(false, Ordering::Release);
    registry().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Total faults injected since process start.
pub fn injected_total() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// xorshift64* step over the shared state; uniform in `[0, 1)`.
fn draw() -> f64 {
    // sync: self-contained draw state; the CAS loop below only needs
    // atomicity of the step, not ordering against other memory.
    let mut x = RNG.load(Ordering::Relaxed);
    loop {
        let mut y = x;
        y ^= y << 13;
        y ^= y >> 7;
        y ^= y << 17;
        // sync: only the RNG word itself is contended; no other memory
        // is published through the draw.
        match RNG.compare_exchange_weak(x, y, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                return (y.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
            }
            Err(cur) => x = cur,
        }
    }
}

/// Visits the failpoint `site`. Disabled: one relaxed load. Armed: a
/// probability draw per configured point at this site — a `delay`
/// sleeps (bounded by the ambient deadline's remaining budget, so an
/// injected stall cannot outlive the request), an `error` returns
/// `Err(InjectedFault)`, a `panic` unwinds with [`InjectedPanic`].
#[inline]
pub fn fire(site: &'static str) -> Result<(), InjectedFault> {
    // sync: pairs with the Release stores in configure()/clear(); an
    // armed observation sees the fully configured registry.
    if !ENABLED.load(Ordering::Acquire) {
        return Ok(());
    }
    fire_slow(site)
}

#[cold]
fn fire_slow(site: &'static str) -> Result<(), InjectedFault> {
    let action = {
        let points = registry().lock().unwrap_or_else(|e| e.into_inner());
        points
            .iter()
            .filter(|p| p.site == site)
            .find(|p| draw() < p.probability)
            .map(|p| p.action)
    };
    let Some(action) = action else { return Ok(()) };
    INJECTED.fetch_add(1, Ordering::Relaxed);
    match action {
        Action::Delay(d) => {
            let capped = match current_deadline() {
                Some(deadline) => d.min(deadline.remaining()),
                None => d,
            };
            std::thread::sleep(capped);
            Ok(())
        }
        Action::Error => Err(InjectedFault { site }),
        Action::Panic => std::panic::panic_any(InjectedPanic { site }),
    }
}

/// [`fire`] for call sites with no error channel: an `error` action
/// panics with [`InjectedPanic`] too, so the serving layer's
/// per-request catch maps both to a 500.
#[inline]
pub fn fire_panic(site: &'static str) {
    if fire(site).is_err() {
        std::panic::panic_any(InjectedPanic { site });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The failpoint registry is process-global; tests that arm it must
    /// not interleave.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn deadline_expires_and_cancels() {
        let d = Deadline::after(Duration::from_millis(5));
        assert!(!d.expired());
        std::thread::sleep(Duration::from_millis(10));
        assert!(d.expired());
        assert_eq!(d.remaining(), Duration::ZERO);

        let d = Deadline::after(Duration::from_secs(60));
        assert!(!d.expired());
        d.cancel();
        assert!(d.expired(), "manual cancel expires immediately");
    }

    #[test]
    fn checkpoint_unwinds_with_cancelled_and_restores_ambient() {
        let outer = Deadline::after(Duration::from_secs(60));
        with_deadline(Some(outer), || {
            let expired = Deadline::after(Duration::ZERO);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                with_deadline(Some(expired), checkpoint_now)
            }))
            .expect_err("expired deadline must unwind");
            assert!(payload.is::<Cancelled>(), "payload must be Cancelled");
            // The guard must restore the outer deadline even across the
            // unwind.
            assert!(current_deadline().is_some());
            assert!(!current_deadline().unwrap().expired());
        });
        assert!(current_deadline().is_none());
    }

    #[test]
    fn strided_checkpoint_fires_within_one_stride() {
        let expired = Deadline::after(Duration::ZERO);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_deadline(Some(expired), || {
                for _ in 0..=CHECKPOINT_STRIDE {
                    checkpoint();
                }
            })
        }));
        assert!(caught.is_err(), "a full stride of checkpoints must fire");
    }

    #[test]
    fn checkpoint_without_deadline_is_a_noop() {
        with_deadline(None, || {
            for _ in 0..10_000 {
                checkpoint();
            }
            checkpoint_now();
        });
    }

    #[test]
    fn failpoint_spec_parses_and_fires_deterministically() {
        let _g = global_lock();
        configure("pre_ta=error@1.0,mid_wand=delay:1@0.0", 42).unwrap();
        let before = injected_total();
        assert_eq!(fire("pre_ta"), Err(InjectedFault { site: "pre_ta" }));
        assert!(fire("mid_wand").is_ok(), "probability 0 never fires");
        assert!(fire("summary_merge").is_ok(), "unconfigured site is quiet");
        assert_eq!(injected_total(), before + 1);
        clear();
        assert!(fire("pre_ta").is_ok(), "cleared failpoints are quiet");
    }

    #[test]
    fn panic_action_unwinds_with_injected_payload() {
        let _g = global_lock();
        configure("summary_merge=panic@1.0", 7).unwrap();
        let payload = catch_unwind(AssertUnwindSafe(|| fire_panic("summary_merge")))
            .expect_err("panic action must unwind");
        let injected = payload
            .downcast_ref::<InjectedPanic>()
            .expect("payload must be InjectedPanic");
        assert_eq!(injected.site, "summary_merge");
        clear();
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _g = global_lock();
        for spec in [
            "nosuchsite=error@1.0",
            "pre_ta=explode@0.5",
            "pre_ta=error@1.5",
            "pre_ta=error",
            "pre_ta",
            "pre_ta=delay:abc@0.5",
        ] {
            assert!(configure(spec, 1).is_err(), "{spec:?} must be rejected");
            clear();
        }
    }
}
