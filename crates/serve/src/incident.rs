//! Incident capture plumbing: build identity, atomic dump writing, and
//! the SIGTERM/SIGINT traps.
//!
//! The server composes the incident document itself (it owns the
//! registry, audit table, watchdog roster, and flight ring); this
//! module owns the parts that touch the outside world:
//!
//! * [`build_info_json`] — the binary's identity (crate version, git
//!   hash when the build script exported one, per-dtype kernel
//!   fingerprints, spoken protocol versions). Embedded in every
//!   `stats --json` export and incident dump so a post-mortem names the
//!   exact binary it came from.
//! * [`write_incident_file`] — atomic temp+rename dump writing: a
//!   half-written dump is never visible under its final name, even if
//!   the process aborts mid-write.
//! * [`install_signal_traps`]/[`pending_signal`] — SIGTERM/SIGINT
//!   handlers that do nothing but store the signal number into a
//!   process-global atomic (the only async-signal-safe option); a
//!   monitor thread polls the flag and performs the dump + clean stop
//!   from ordinary thread context.

use fmm_core::json;
use fmm_gemm::GemmScalar;
use fmm_obs::IncidentTrigger;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Schema tag every incident document carries; `fmm_serve doctor`
/// refuses documents with a different tag instead of misreading them.
pub const INCIDENT_SCHEMA: &str = "fmm-incident-v1";

/// The build identity as a JSON object: crate version, git hash (when
/// `FMM_GIT_HASH` was set at compile time), the runtime-selected
/// micro-kernel per dtype, and the wire protocol versions spoken.
pub fn build_info_json() -> json::Value {
    json::Value::Object(
        [
            ("version".to_string(), json::Value::String(env!("CARGO_PKG_VERSION").to_string())),
            (
                "git_hash".to_string(),
                json::Value::String(option_env!("FMM_GIT_HASH").unwrap_or("unknown").to_string()),
            ),
            ("kernel_f64".to_string(), json::Value::String(f64::micro_kernel_name().to_string())),
            ("kernel_f32".to_string(), json::Value::String(f32::micro_kernel_name().to_string())),
            ("protocol_versions".to_string(), json::Value::String("v2".to_string())),
        ]
        .into_iter()
        .collect(),
    )
}

/// The same identity as one human-readable line — `fmm_serve top`
/// headers and the Prometheus exposition comment.
pub fn build_info_line() -> String {
    format!(
        "fmm_serve {} git={} kernel_f64={} kernel_f32={} protocol=v2",
        env!("CARGO_PKG_VERSION"),
        option_env!("FMM_GIT_HASH").unwrap_or("unknown"),
        f64::micro_kernel_name(),
        f32::micro_kernel_name(),
    )
}

/// Write one incident document under `dir` (created if absent) via
/// temp+rename; the final name embeds the trigger, a wall-clock stamp,
/// and the per-process dump sequence so successive dumps never collide.
pub fn write_incident_file(
    dir: &Path,
    trigger: &str,
    seq: u64,
    doc: &json::Value,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let millis =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
    let final_path = dir.join(format!("incident-{trigger}-{millis}-{seq}.json"));
    let tmp_path = dir.join(format!(".incident-{trigger}-{millis}-{seq}.json.tmp"));
    {
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(json::to_string_pretty(doc).as_bytes())?;
        f.write_all(b"\n")?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    Ok(final_path)
}

/// The pending-signal mailbox: 0 = none, otherwise the raw signal
/// number stored by the handler.
static PENDING_SIGNAL: AtomicU64 = AtomicU64::new(0);

/// Install SIGTERM/SIGINT handlers that record the signal into the
/// returned atomic and do nothing else (the handler body must stay
/// async-signal-safe). Idempotent; on non-Unix targets this is a no-op
/// mailbox that never fires.
pub fn install_signal_traps() -> &'static AtomicU64 {
    sys::install();
    &PENDING_SIGNAL
}

/// Consume a trapped signal, mapping it to its incident trigger.
pub fn pending_signal(mailbox: &AtomicU64) -> Option<IncidentTrigger> {
    match mailbox.swap(0, Ordering::Relaxed) {
        0 => None,
        n if n == sys::SIGTERM as u64 => Some(IncidentTrigger::Sigterm),
        n if n == sys::SIGINT as u64 => Some(IncidentTrigger::Sigint),
        // An unexpected number (non-Unix stub, or a future extra trap):
        // treat as a terminate request rather than dropping it.
        _ => Some(IncidentTrigger::Sigterm),
    }
}

#[cfg(unix)]
mod sys {
    //! Minimal hand-declared signal shim, in the same style as the
    //! poller's epoll declarations: no libc crate, just the POSIX ABI
    //! surface actually used. `signal(2)` rather than `sigaction(2)`
    //! because the handler only stores into an atomic — BSD semantics
    //! (no handler reset, restartable syscalls — the default on every
    //! Unix libc this crate builds against) are exactly what the
    //! polling monitor thread wants, and the shim avoids declaring the
    //! platform-divergent `sigaction` struct layout.
    #![allow(non_camel_case_types)]

    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Once;

    pub type c_int = i32;

    pub const SIGINT: c_int = 2;
    pub const SIGTERM: c_int = 15;

    // Layout guard in the spirit of the ffi-layout rule: the handler
    // pointer crosses the ABI as a machine word and the signal number as
    // a 32-bit int on every supported Unix.
    const _: () = assert!(std::mem::size_of::<c_int>() == 4);
    const _: () =
        assert!(std::mem::size_of::<extern "C" fn(c_int)>() == std::mem::size_of::<usize>());

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    /// The handler: one relaxed store, nothing else — the async-signal-
    /// safe contract forbids locks, allocation, and formatted I/O here.
    extern "C" fn on_signal(signum: c_int) {
        super::PENDING_SIGNAL.store(signum as u64, Ordering::Relaxed);
        // A second signal while the first dump is still being written
        // should kill the process the traditional way: restore default
        // disposition once we have one in the mailbox.
        if REENTERED.swap(true, Ordering::Relaxed) {
            const SIG_DFL: usize = 0;
            // SAFETY: signal(2) is async-signal-safe per POSIX; both
            // arguments are plain integers.
            unsafe {
                signal(signum, SIG_DFL);
            }
        }
    }

    static REENTERED: AtomicBool = AtomicBool::new(false);
    static INSTALL: Once = Once::new();

    pub fn install() {
        INSTALL.call_once(|| {
            // SAFETY: on_signal is an extern "C" fn whose body is limited
            // to atomic stores and a re-arm via signal(2), both
            // async-signal-safe; the usize cast is the documented way to
            // pass a handler pointer through signal's integer-or-pointer
            // parameter.
            unsafe {
                signal(SIGTERM, on_signal as *const () as usize);
                signal(SIGINT, on_signal as *const () as usize);
            }
        });
    }
}

#[cfg(not(unix))]
mod sys {
    //! Non-Unix stub: no traps; the mailbox simply never fires.
    pub type c_int = i32;
    pub const SIGINT: c_int = 2;
    pub const SIGTERM: c_int = 15;
    pub fn install() {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_info_names_the_binary() {
        let info = build_info_json();
        let json::Value::Object(map) = &info else { panic!("build info is an object") };
        for key in ["version", "git_hash", "kernel_f64", "kernel_f32", "protocol_versions"] {
            assert!(map.contains_key(key), "missing {key}");
        }
        let line = build_info_line();
        assert!(line.contains(env!("CARGO_PKG_VERSION")));
        assert!(line.contains("kernel_f64="));
    }

    #[test]
    fn incident_file_written_atomically_with_unique_names() {
        let dir = std::env::temp_dir().join(format!("fmm-incident-test-{}", std::process::id()));
        let doc = json::Value::Object(
            [("schema".to_string(), json::Value::String(INCIDENT_SCHEMA.into()))]
                .into_iter()
                .collect(),
        );
        let p1 = write_incident_file(&dir, "sigterm", 0, &doc).expect("first dump");
        let p2 = write_incident_file(&dir, "sigterm", 1, &doc).expect("second dump");
        assert_ne!(p1, p2, "dump names must not collide");
        for p in [&p1, &p2] {
            let text = fs::read_to_string(p).expect("dump readable");
            let parsed = json::parse(&text).expect("dump is valid JSON");
            let json::Value::Object(map) = parsed else { panic!("dump is an object") };
            assert_eq!(map.get("schema"), Some(&json::Value::String(INCIDENT_SCHEMA.to_string())));
        }
        // No temp leftovers.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .expect("dir listed")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pending_signal_maps_and_consumes() {
        let mailbox = AtomicU64::new(0);
        assert_eq!(pending_signal(&mailbox), None);
        mailbox.store(sys::SIGTERM as u64, Ordering::Relaxed);
        assert_eq!(pending_signal(&mailbox), Some(IncidentTrigger::Sigterm));
        assert_eq!(pending_signal(&mailbox), None, "signal consumed");
        mailbox.store(sys::SIGINT as u64, Ordering::Relaxed);
        assert_eq!(pending_signal(&mailbox), Some(IncidentTrigger::Sigint));
    }
}
