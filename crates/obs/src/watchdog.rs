//! Stall watchdog: detects wedged executors.
//!
//! Components that drain a work queue — the serving daemon's per-dtype
//! batch executors — each register a probe of their pending work and
//! their progress. A single watchdog thread wakes every
//! [`WatchdogConfig::interval`] and judges each component by progress: it
//! must make progress *when there is work*. It is stalled when its work
//! (e.g. queue depth) stays nonzero while its progress count (e.g.
//! batches completed) does not move for `stall_after`; an executor with an
//! empty queue is idle, not stalled.
//!
//! Verdicts are recorded as escalating always-on [`trace`] events
//! (`WatchdogStall`) — level 1 at
//! `stall_after`, level 2 at `2×`, and so on, one event per escalation
//! rather than one per tick — plus a monotone stall counter exported
//! as `fmm_watchdog_stalls_total`. A component that resumes gets a
//! recovery event.
//!
//! The watchdog makes no call on serving threads. All judging state lives
//! in the watchdog thread.

use crate::trace::{self, Event, Kind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Watchdog thresholds. All deadlines are judged at `interval`
/// granularity.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Poll cadence of the watchdog thread.
    pub interval: Duration,
    /// A component is stalled after this long without progress while
    /// work is pending.
    pub stall_after: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig { interval: Duration::from_millis(100), stall_after: Duration::from_secs(1) }
    }
}

struct Component {
    name: String,
    /// Probes the pending work (0 = legitimately idle) and the progress
    /// count.
    probe: Box<dyn Fn() -> (u64, u64) + Send + Sync>,
}

/// Judging state, owned by the watchdog thread (per component).
#[derive(Clone, Copy, Default)]
struct JudgeState {
    last_progress: u64,
    /// Nanos when the progress baseline was last reset.
    baseline_nanos: u64,
    /// Escalation level already recorded for the current stall
    /// episode (0 = healthy).
    recorded_level: u64,
    /// Stall duration at the last recorded verdict.
    last_stalled_for: u64,
}

struct Inner {
    config: WatchdogConfig,
    components: Mutex<Vec<Component>>,
    stalls: AtomicU64,
    stop: Mutex<bool>,
    stop_cv: Condvar,
}

/// The watchdog: a registry of components plus the judging thread.
/// Clone-cheap (shared interior); register every component, then
/// [`spawn`](Watchdog::spawn).
#[derive(Clone)]
pub struct Watchdog {
    inner: Arc<Inner>,
}

/// Join guard for the watchdog thread.
pub struct WatchdogHandle {
    inner: Arc<Inner>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub fn new(config: WatchdogConfig) -> Watchdog {
        Watchdog {
            inner: Arc::new(Inner {
                config,
                components: Mutex::new(Vec::new()),
                stalls: AtomicU64::new(0),
                stop: Mutex::new(false),
                stop_cv: Condvar::new(),
            }),
        }
    }

    /// Register a component; `probe` returns its pending work and its
    /// progress count. The component's id in watchdog events is its
    /// registration index (see [`component_names`](Self::component_names)).
    pub fn register(&self, name: &str, probe: impl Fn() -> (u64, u64) + Send + Sync + 'static) {
        let component = Component { name: name.to_string(), probe: Box::new(probe) };
        self.inner.components.lock().unwrap().push(component);
    }

    /// Component names in registration (= event id) order.
    pub fn component_names(&self) -> Vec<String> {
        self.inner.components.lock().unwrap().iter().map(|c| c.name.clone()).collect()
    }

    /// Total stall verdicts recorded (exported as
    /// `fmm_watchdog_stalls_total`).
    pub fn stalls_total(&self) -> u64 {
        self.inner.stalls.load(Ordering::Relaxed)
    }

    /// Start the judging thread.
    pub fn spawn(&self) -> WatchdogHandle {
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::Builder::new()
            .name("fmm-watchdog".to_string())
            .spawn(move || run(&inner))
            .expect("spawn watchdog thread");
        WatchdogHandle { inner: Arc::clone(&self.inner), thread: Some(thread) }
    }
}

impl WatchdogHandle {
    /// Stop and join the judging thread.
    pub fn stop(mut self) {
        *self.inner.stop.lock().unwrap() = true;
        self.inner.stop_cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn run(inner: &Inner) {
    let mut judge: Vec<JudgeState> = Vec::new();
    loop {
        {
            let stop = inner.stop.lock().unwrap();
            if *stop {
                return;
            }
            let (stop, _) = inner.stop_cv.wait_timeout(stop, inner.config.interval).unwrap();
            if *stop {
                return;
            }
        }
        tick(inner, &mut judge);
    }
}

/// One judging pass over every component.
fn tick(inner: &Inner, judge: &mut Vec<JudgeState>) {
    let now = crate::trace::now_nanos();
    let stall_after = inner.config.stall_after.as_nanos() as u64;
    let components = inner.components.lock().unwrap();
    while judge.len() < components.len() {
        judge.push(JudgeState { baseline_nanos: now, ..JudgeState::default() });
    }
    for (id, component) in components.iter().enumerate() {
        let state = &mut judge[id];
        let (work, progress) = (component.probe)();
        let stalled_for = if work == 0 || progress != state.last_progress {
            state.last_progress = progress;
            state.baseline_nanos = now;
            0
        } else {
            now.saturating_sub(state.baseline_nanos)
        };
        if stalled_for >= stall_after && stall_after > 0 {
            let level = stalled_for / stall_after;
            if level > state.recorded_level {
                state.recorded_level = level;
                state.last_stalled_for = stalled_for;
                let stall =
                    Event::span(Kind::WatchdogStall, 0, now.saturating_sub(stalled_for), now);
                trace::record(stall.with_args([id as u64, level, 0]));
                inner.stalls.fetch_add(1, Ordering::Relaxed);
            }
        } else if state.recorded_level > 0 {
            let start = now.saturating_sub(state.last_stalled_for);
            trace::record(
                Event::span(Kind::WatchdogRecovered, 0, start, now).with_args([id as u64, 0, 0]),
            );
            state.recorded_level = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestAtomic;

    fn short_config() -> WatchdogConfig {
        WatchdogConfig {
            interval: Duration::from_millis(5),
            stall_after: Duration::from_millis(40),
        }
    }

    fn wait_until(deadline_ms: u64, mut cond: impl FnMut() -> bool) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(deadline_ms) {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    #[test]
    fn watchdog_verdicts_end_to_end() {
        // The always-on ring is process-global; serialize with the other
        // ring-touching test in this crate.
        let _guard = crate::test_lock().lock().unwrap_or_else(|e| e.into_inner());

        // -- Progress: pending work without progress is a wedge ------
        let wd = Watchdog::new(short_config());
        let (depth, done) = (Arc::new(TestAtomic::new(0)), Arc::new(TestAtomic::new(0)));
        let (work, progress) = (Arc::clone(&depth), Arc::clone(&done));
        let probe = move || (work.load(Ordering::Relaxed), progress.load(Ordering::Relaxed));
        wd.register("dispatch", probe);
        assert_eq!(wd.component_names(), ["dispatch"]);
        let handle = wd.spawn();
        // Idle (work == 0): never stalls, even without progress.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(wd.stalls_total(), 0, "idle dispatcher must not be judged stalled");
        // Work appears and progress keeps up: still healthy.
        depth.store(3, Ordering::Relaxed);
        for _ in 0..10 {
            done.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(wd.stalls_total(), 0, "progressing dispatcher must stay healthy");
        // Progress stops while work remains: wedged, with escalation.
        assert!(
            wait_until(2_000, || wd.stalls_total() >= 2),
            "wedged dispatcher never escalated (stalls={})",
            wd.stalls_total()
        );
        let wedge = trace::recent(0)
            .into_iter()
            .rev()
            .find(|e| e.kind == Kind::WatchdogStall && e.args[0] == 0)
            .map(|e| (e.nanos(), e.args[1]));
        let (stalled_nanos, level) = wedge.expect("wedge verdict recorded");
        assert!(level >= 2, "escalation level grows: {level}");
        assert!(stalled_nanos >= 40_000_000, "stall duration measured: {stalled_nanos}");

        // -- Recovery: resumed progress produces a recovery verdict ----
        done.fetch_add(1, Ordering::Relaxed);
        assert!(
            wait_until(2_000, || {
                trace::recent(0).iter().any(|e| e.kind == Kind::WatchdogRecovered && e.args[0] == 0)
            }),
            "recovered component never acknowledged"
        );
        handle.stop();
    }
}
