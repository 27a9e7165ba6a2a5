//! Incident capture plumbing: atomic dump writing and the SIGTERM/SIGINT
//! traps.
//!
//! The server composes the incident document itself (it owns the
//! registry, audit table, watchdog roster, and event rings, and
//! [`crate::snapshot::Incident`] owns the format); this module owns the
//! parts that touch the outside world:
//!
//! * [`write_incident_file`] — atomic temp+rename dump writing: a
//!   half-written dump is never visible under its final name, even if
//!   the process aborts mid-write.
//! * [`install_signal_traps`]/[`pending_signal`] — SIGTERM/SIGINT
//!   handlers that do nothing but store the signal number into a
//!   process-global atomic (the only async-signal-safe option); a
//!   monitor thread polls the flag and performs the dump + clean stop
//!   from ordinary thread context.

use fmm_obs::IncidentTrigger;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Write one incident document under `dir` (created if absent) via
/// temp+rename; the final name embeds the trigger, a wall-clock stamp,
/// and the per-process dump sequence so successive dumps never collide.
pub fn write_incident_file(dir: &Path, trigger: &str, seq: u64, doc: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let millis =
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
    let final_path = dir.join(format!("incident-{trigger}-{millis}-{seq}.json"));
    let tmp_path = dir.join(format!(".incident-{trigger}-{millis}-{seq}.json.tmp"));
    {
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(doc.as_bytes())?;
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
    //! Minimal hand-declared signal shim — with `conn`'s socket probe, the
    //! crate's only FFI: no libc crate, just the POSIX ABI surface
    //! actually used. `signal(2)` rather
    //! than `sigaction(2)` because the handler only stores into an atomic
    //! — BSD semantics (no handler reset, restartable syscalls — the
    //! default on every Unix libc this crate builds against) are exactly
    //! what the polling monitor thread wants, and the shim avoids
    //! declaring the platform-divergent `sigaction` struct layout.
    #![allow(non_camel_case_types)]

    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Once;

    pub type c_int = i32;

    pub const SIGINT: c_int = 2;
    pub const SIGTERM: c_int = 15;

    // Layout guard for this `extern` block: the handler pointer crosses
    // the ABI as a machine word and the signal number as a 32-bit int on
    // every supported Unix.
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
        use crate::snapshot::{BuildInfo, Document};
        let info = BuildInfo::current();
        assert_eq!(BuildInfo::from_json(&info.to_json()), Ok(info.clone()));
        for field in [&info.version, &info.git_hash, &info.kernel_f64, &info.kernel_f32] {
            assert!(!field.is_empty(), "{info:?}");
        }
        let line = info.to_string();
        assert!(line.contains(env!("CARGO_PKG_VERSION")));
        assert!(line.contains("kernel_f64="));
    }

    #[test]
    fn incident_file_written_atomically_with_unique_names() {
        let dir = std::env::temp_dir().join(format!("fmm-incident-test-{}", std::process::id()));
        let doc = r#"{"schema": "fmm-incident-v2"}"#;
        let p1 = write_incident_file(&dir, "sigterm", 0, doc).expect("first dump");
        let p2 = write_incident_file(&dir, "sigterm", 1, doc).expect("second dump");
        assert_ne!(p1, p2, "dump names must not collide");
        for p in [&p1, &p2] {
            assert_eq!(fs::read_to_string(p).expect("dump readable"), format!("{doc}\n"));
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
