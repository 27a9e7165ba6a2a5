//! Stall watchdog: detects wedged dispatchers.
//!
//! Threads that drain a work queue — the serving daemon's dispatchers —
//! each register a [`Heartbeat`] and count progress on it from their own
//! loop body. A single watchdog thread wakes every
//! [`WatchdogConfig::interval`] and judges each component against its
//! [`WatchPolicy`]: [`WatchPolicy::Progress`] — the component must make
//! progress *when there is work*. It is stalled when the work probe (e.g.
//! queue depth) stays nonzero while the progress counter (e.g. batches
//! formed) does not move for `stall_after`; a dispatcher blocked on an
//! empty queue is idle, not stalled.
//!
//! Verdicts are recorded as escalating always-on [`trace`] events
//! (`WatchdogStall`) — level 1 at
//! `stall_after`, level 2 at `2×`, and so on, one event per escalation
//! rather than one per tick — plus a monotone stall counter exported
//! as `fmm_watchdog_stalls_total`. A component that resumes gets a
//! recovery event. With [`WatchdogConfig::abort_after`] set, a stall
//! that persists past the deadline triggers the `on_abort` callback
//! (the server dumps an incident report there) and then aborts the
//! process: a hard-wedged daemon that cannot serve is worth more dead
//! with a dump than alive and silent.
//!
//! [`Heartbeat::progress`] is the only call on serving threads; it is one
//! relaxed add and carries the `warm-alloc-free` contract. All judging
//! state lives in the watchdog thread.

use crate::trace::{self, Event, IncidentTrigger, Kind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Per-component progress signal, updated by the watched thread.
#[derive(Debug, Default)]
pub struct Heartbeat {
    /// Completed units of work (e.g. batches formed).
    progress: AtomicU64,
}

impl Heartbeat {
    /// The watched loop completed a unit of work. One relaxed add.
    #[inline]
    pub fn progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    pub fn progress_count(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }
}

/// How the watchdog judges a component (see module docs).
pub enum WatchPolicy {
    /// `work` probes the amount of pending work (0 = legitimately
    /// idle); progress is read from the component's [`Heartbeat`].
    Progress { work: Box<dyn Fn() -> u64 + Send + Sync> },
}

/// Watchdog thresholds. All deadlines are judged at `interval`
/// granularity.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Poll cadence of the watchdog thread.
    pub interval: Duration,
    /// A component is stalled after this long without progress while
    /// work is pending.
    pub stall_after: Duration,
    /// Dump-then-abort the process when a stall persists this long.
    /// `None` = never abort (the default).
    pub abort_after: Option<Duration>,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            interval: Duration::from_millis(100),
            stall_after: Duration::from_secs(1),
            abort_after: None,
        }
    }
}

struct Component {
    name: String,
    policy: WatchPolicy,
    heartbeat: Arc<Heartbeat>,
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

    /// Register a component; the returned [`Heartbeat`] is what the
    /// watched thread updates. The component's id in watchdog events is its
    /// registration index (see [`component_names`](Self::component_names)).
    pub fn register(&self, name: &str, policy: WatchPolicy) -> Arc<Heartbeat> {
        let heartbeat = Arc::new(Heartbeat::default());
        let mut components = self.inner.components.lock().unwrap();
        components.push(Component {
            name: name.to_string(),
            policy,
            heartbeat: Arc::clone(&heartbeat),
        });
        heartbeat
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

    /// Start the judging thread. `on_abort` runs (once) right before
    /// the process is aborted for a stall that outlived
    /// [`WatchdogConfig::abort_after`].
    pub fn spawn(&self, on_abort: Box<dyn Fn() + Send>) -> WatchdogHandle {
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::Builder::new()
            .name("fmm-watchdog".to_string())
            .spawn(move || run(&inner, on_abort))
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

fn run(inner: &Inner, on_abort: Box<dyn Fn() + Send>) {
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
        tick(inner, &mut judge, &on_abort);
    }
}

/// One judging pass over every component.
fn tick(inner: &Inner, judge: &mut Vec<JudgeState>, on_abort: &dyn Fn()) {
    let now = crate::trace::now_nanos();
    let stall_after = inner.config.stall_after.as_nanos() as u64;
    let abort_after = inner.config.abort_after.map(|d| d.as_nanos() as u64);
    let components = inner.components.lock().unwrap();
    while judge.len() < components.len() {
        judge.push(JudgeState { baseline_nanos: now, ..JudgeState::default() });
    }
    for (id, component) in components.iter().enumerate() {
        let state = &mut judge[id];
        let WatchPolicy::Progress { work } = &component.policy;
        let progress = component.heartbeat.progress_count();
        let stalled_for = if work() == 0 || progress != state.last_progress {
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
            if let Some(abort_after) = abort_after {
                if stalled_for >= abort_after {
                    let trigger = IncidentTrigger::WatchdogAbort as u64;
                    trace::record(Event::now(Kind::Incident, 0).with_args([trigger, 0, 0]));
                    on_abort();
                    std::process::abort();
                }
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
            abort_after: None,
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
        let depth = Arc::new(TestAtomic::new(0));
        let probe = Arc::clone(&depth);
        let hb = wd.register(
            "dispatch",
            WatchPolicy::Progress { work: Box::new(move || probe.load(Ordering::Relaxed)) },
        );
        assert_eq!(wd.component_names(), ["dispatch"]);
        let handle = wd.spawn(Box::new(|| {}));
        // Idle (work == 0): never stalls, even without progress.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(wd.stalls_total(), 0, "idle dispatcher must not be judged stalled");
        // Work appears and progress keeps up: still healthy.
        depth.store(3, Ordering::Relaxed);
        for _ in 0..10 {
            hb.progress();
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
        hb.progress();
        assert!(
            wait_until(2_000, || {
                trace::recent(0).iter().any(|e| e.kind == Kind::WatchdogRecovered && e.args[0] == 0)
            }),
            "recovered component never acknowledged"
        );
        handle.stop();
    }
}
