//! Pinning the whole process to one CPU, for the closed-loop `serve`
//! measurements.
//!
//! With one request in flight the client, the event loop and the dispatcher
//! never have work at the same time: a request is a chain of hand-offs. On
//! two vCPUs every hand-off wakes a halted vCPU through the hypervisor, and
//! that wake-up is the host's, not the program's: ten 8 s runs of `serve`
//! spread by 5.4 % (quartiles) and 25 % (range) on `lat_p50_ms` unpinned
//! and by 1.5 % and 17 % (one run in a slow stretch; 3 % without it) on one
//! CPU, where a hand-off is a context switch. The driver measured 19–24 %
//! unpinned and refused the benchmark for it.

use std::io;

/// `cpu_set_t` as glibc declares it: 1024 bits.
type CpuSet = [u64; 16];
const _: () = assert!(std::mem::size_of::<CpuSet>() == 128);

#[cfg(target_os = "linux")]
extern "C" {
    // std links libc; these are its declarations from <sched.h>.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs thread `tid` may run on (`0` is the calling thread).
#[cfg(target_os = "linux")]
fn get(tid: i32) -> io::Result<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable `cpu_set_t` of the size passed.
    match unsafe { sched_getaffinity(tid, std::mem::size_of::<CpuSet>(), &mut set) } {
        0 => Ok(set),
        _ => Err(io::Error::last_os_error()),
    }
}

#[cfg(target_os = "linux")]
fn set(tid: i32, set: &CpuSet) -> io::Result<()> {
    // SAFETY: `set` is a readable `cpu_set_t` of the size passed.
    match unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), set) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

#[cfg(not(target_os = "linux"))]
fn get(_tid: i32) -> io::Result<CpuSet> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "CPU affinity needs Linux"))
}

#[cfg(not(target_os = "linux"))]
fn set(_tid: i32, _set: &CpuSet) -> io::Result<()> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "CPU affinity needs Linux"))
}

/// Give every thread the process has now the CPU set `cpus`. The calling
/// thread goes first, so whatever it spawns from here on inherits the set.
fn set_every_thread(cpus: &CpuSet) -> io::Result<()> {
    set(0, cpus)?;
    for task in std::fs::read_dir("/proc/self/task")? {
        let Some(tid) = task?.file_name().to_str().and_then(|t| t.parse::<i32>().ok()) else {
            continue;
        };
        match set(tid, cpus) {
            // A thread that ended since the directory was read.
            Err(e) if e.raw_os_error() == Some(3) => {}
            other => other?,
        }
    }
    Ok(())
}

/// The highest-numbered CPU of `cpus`, on its own: CPU 0 takes most of a
/// VM's device interrupts.
fn last_cpu(cpus: &CpuSet) -> Option<(usize, CpuSet)> {
    let word = cpus.iter().rposition(|&w| w != 0)?;
    let bit = 63 - cpus[word].leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    Some((word * 64 + bit, one))
}

/// While this lives, every thread of the process runs on one CPU; dropping
/// it gives them back the CPUs the process had.
pub struct OneCpu {
    before: CpuSet,
    pub cpu: usize,
}

impl OneCpu {
    pub fn pin() -> Result<Self, String> {
        let before = get(0).map_err(|e| format!("sched_getaffinity: {e}"))?;
        let (cpu, one) = last_cpu(&before).ok_or("the process may run on no CPU")?;
        set_every_thread(&one).map_err(|e| format!("sched_setaffinity: {e}"))?;
        Ok(Self { before, cpu })
    }

    /// [`OneCpu::pin`], or a loud warning where the system refuses: an
    /// unpinned measurement is noisier, not wrong.
    pub fn pin_or_warn() -> Option<Self> {
        Self::pin()
            .map_err(|e| eprintln!("WARNING: not pinned to one CPU ({e}); serve will be noisy"))
            .ok()
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Err(e) = set_every_thread(&self.before) {
            eprintln!("could not give the process its CPUs back: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_is_the_highest_bit_set() {
        let mut cpus: CpuSet = [0; 16];
        assert!(last_cpu(&cpus).is_none());
        cpus[0] = 0b1011;
        let (cpu, one) = last_cpu(&cpus).expect("three CPUs");
        assert_eq!((cpu, one[0]), (3, 0b1000));
        cpus[2] = 1 << 5;
        let (cpu, one) = last_cpu(&cpus).expect("four CPUs");
        assert_eq!((cpu, one[0], one[2]), (133, 0, 1 << 5));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_reaches_other_threads_and_dropping_undoes_it() {
        let before = get(0).expect("affinity of the test thread");
        let (go, wait) = std::sync::mpsc::channel::<()>();
        let (tell, told) = std::sync::mpsc::channel();
        // A thread that exists before the pin reports what it may run on
        // each time it is asked.
        let other = std::thread::spawn(move || {
            while wait.recv().is_ok() {
                tell.send(get(0).expect("affinity of the other thread")).expect("report");
            }
        });
        let ask = || {
            go.send(()).expect("ask");
            told.recv().expect("answer")
        };
        let pin = OneCpu::pin().expect("pin");
        let (cpu, one) = last_cpu(&before).expect("a CPU");
        assert_eq!(pin.cpu, cpu);
        assert_eq!(get(0).expect("pinned"), one);
        assert_eq!(ask(), one, "a thread that already ran is pinned too");
        drop(pin);
        assert_eq!(get(0).expect("unpinned"), before);
        assert_eq!(ask(), before);
        drop(go);
        other.join().expect("join");
    }
}
