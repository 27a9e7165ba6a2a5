//! The std-only readiness poller under the serving event loops.
//!
//! Two backends behind one small API, chosen at compile time (the crate
//! is Unix-only):
//!
//! * **Linux**: `epoll(7)` through thin `extern "C"` declarations (std
//!   already links libc, so no crate dependency is added) — O(ready)
//!   wakeups, the production path;
//! * **other Unix**: portable `poll(2)`, rebuilding the descriptor array
//!   per wait — O(registered), fine for the connection counts a
//!   single machine serves.
//!
//! Both backends are level-triggered: a readiness bit stays set until the
//! condition drains, so event-loop code never needs to worry about missed
//! edges. Cross-thread wakeups use a self-pipe ([`Waker`]) registered
//! like any other descriptor under [`WAKE_TOKEN`].

use std::collections::BTreeMap;
use std::io;
use std::time::Duration;

/// The token [`Waker`] readiness is reported under.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// What a registration wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable.
    pub read: bool,
    /// Wake when the descriptor is writable.
    pub write: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest { read: true, write: false };
    /// Readable and writable.
    pub const BOTH: Interest = Interest { read: true, write: true };
    /// Neither — parked (still registered, reported only on hangup by
    /// backends that can't mask it).
    pub const NONE: Interest = Interest { read: false, write: false };
}

/// One readiness report.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The registration's token.
    pub token: u64,
    /// Readable (or hung up — a read will observe EOF/error promptly).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

/// Raw descriptor type registrations use.
pub type SysFd = std::os::fd::RawFd;

#[cfg(target_os = "linux")]
mod sys {
    //! Thin epoll + pipe FFI. Constants are the Linux ABI values shared
    //! by x86-64, AArch64, and RISC-V (the asm-generic UAPI numbers).
    #![allow(non_camel_case_types)]

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const O_NONBLOCK: i32 = 0x800;
    pub const O_CLOEXEC: i32 = 0x80000;

    /// `struct epoll_event`. The kernel packs this struct **only on
    /// x86/x86-64** (UAPI `EPOLL_PACKED` is defined solely there, for
    /// 32/64-bit compat); every other architecture uses natural C layout
    /// — 16 bytes with `data` at offset 8 on aarch64/riscv64. Packing it
    /// unconditionally would make `epoll_wait` scribble past the event
    /// array on those targets.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    /// Layout guard: 12 bytes where the kernel packs, 16 elsewhere.
    const _: () = assert!(
        std::mem::size_of::<epoll_event>()
            == if cfg!(any(target_arch = "x86", target_arch = "x86_64")) { 12 } else { 16 }
    );

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
        pub fn epoll_wait(
            epfd: i32,
            events: *mut epoll_event,
            maxevents: i32,
            timeout_ms: i32,
        ) -> i32;
        pub fn close(fd: i32) -> i32;
        pub fn pipe2(fds: *mut i32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portable poll(2) + pipe FFI for non-Linux Unix.
    #![allow(non_camel_case_types)]

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn poll(fds: *mut pollfd, nfds: u64, timeout_ms: i32) -> i32;
        pub fn close(fd: i32) -> i32;
        pub fn pipe(fds: *mut i32) -> i32;
        pub fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    pub const F_SETFL: i32 = 4;
    pub const O_NONBLOCK: i32 = 0x4; // BSD/macOS value; only used off-Linux
}

/// Level-triggered readiness poller over registered descriptors.
pub struct Poller {
    #[cfg(target_os = "linux")]
    epfd: i32,
    /// Registered interests; epoll keeps its own copy kernel-side, the
    /// poll(2) backend rebuilds its wait set from this.
    registered: BTreeMap<u64, (SysFd, Interest)>,
}

impl Poller {
    /// A new empty poller.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd, registered: BTreeMap::new() })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Ok(Self { registered: BTreeMap::new() })
        }
    }

    /// Register `fd` under `token` with the given interest.
    pub fn register(&mut self, fd: SysFd, token: u64, interest: Interest) -> io::Result<()> {
        #[cfg(target_os = "linux")]
        {
            let mut ev = sys::epoll_event { events: epoll_bits(interest), data: token };
            // SAFETY: `ev` outlives the call; epfd/fd are owned handles.
            if unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        self.registered.insert(token, (fd, interest));
        Ok(())
    }

    /// Change the interest of an existing registration.
    pub fn modify(&mut self, token: u64, interest: Interest) -> io::Result<()> {
        let Some(&(fd, current)) = self.registered.get(&token) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, "token not registered"));
        };
        if current == interest {
            return Ok(());
        }
        #[cfg(target_os = "linux")]
        {
            let mut ev = sys::epoll_event { events: epoll_bits(interest), data: token };
            // SAFETY: as in register.
            if unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        self.registered.insert(token, (fd, interest));
        Ok(())
    }

    /// Remove a registration (the caller still owns and closes the fd).
    pub fn deregister(&mut self, token: u64) -> io::Result<()> {
        if let Some((fd, _)) = self.registered.remove(&token) {
            #[cfg(target_os = "linux")]
            {
                let mut ev = sys::epoll_event { events: 0, data: 0 };
                // SAFETY: as in register; DEL ignores the event payload.
                if unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut ev) } < 0 {
                    return Err(io::Error::last_os_error());
                }
            }
            #[cfg(not(target_os = "linux"))]
            let _ = fd;
        }
        Ok(())
    }

    /// Block until at least one registration is ready or `timeout`
    /// elapses; ready events are appended to `out` (which is cleared
    /// first). Returns the number of events delivered.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs timeout still sleeps instead of spinning.
            Some(d) => d.as_millis().min(i32::MAX as u128).max(1) as i32,
        };
        #[cfg(target_os = "linux")]
        {
            let mut events = [sys::epoll_event { events: 0, data: 0 }; 128];
            // SAFETY: `events` is a valid out-array of the stated length.
            let n = unsafe {
                sys::epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for ev in &events[..n as usize] {
                let bits = ev.events;
                let hangup = bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
                out.push(Event {
                    token: ev.data,
                    // Hangups surface as readable: the next read returns
                    // EOF/error and the connection tears down cleanly.
                    readable: bits & sys::EPOLLIN != 0 || hangup,
                    writable: bits & sys::EPOLLOUT != 0,
                });
            }
            Ok(out.len())
        }
        #[cfg(not(target_os = "linux"))]
        {
            let mut fds: Vec<sys::pollfd> = Vec::with_capacity(self.registered.len());
            let mut tokens: Vec<u64> = Vec::with_capacity(self.registered.len());
            for (&token, &(fd, interest)) in &self.registered {
                let mut events = 0i16;
                if interest.read {
                    events |= sys::POLLIN;
                }
                if interest.write {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::pollfd { fd, events, revents: 0 });
                tokens.push(token);
            }
            // SAFETY: `fds` is a valid array of the stated length.
            let n = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for (pfd, &token) in fds.iter().zip(&tokens) {
                let hangup = pfd.revents & (sys::POLLERR | sys::POLLHUP) != 0;
                if pfd.revents & sys::POLLIN != 0 || pfd.revents & sys::POLLOUT != 0 || hangup {
                    out.push(Event {
                        token,
                        readable: pfd.revents & sys::POLLIN != 0 || hangup,
                        writable: pfd.revents & sys::POLLOUT != 0,
                    });
                }
            }
            Ok(out.len())
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        // SAFETY: epfd is an owned descriptor, closed exactly once here.
        unsafe {
            sys::close(self.epfd);
        }
    }
}

#[cfg(target_os = "linux")]
fn epoll_bits(interest: Interest) -> u32 {
    // RDHUP rides with read interest only: a read-paused connection
    // (backlog flow control, responses still owed after EOF) cannot act
    // on a peer's half-close, and the level-triggered hangup would re-fire
    // every wait with no progress possible — a busy spin until read
    // interest returns. Masking it is safe: the EOF is still sitting in
    // the socket and is observed the moment reads resume. Full hangups
    // (EPOLLHUP/EPOLLERR) are unmaskable by design, and those tear the
    // connection down through the write-error path instead.
    let mut bits = 0;
    if interest.read {
        bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
    }
    if interest.write {
        bits |= sys::EPOLLOUT;
    }
    bits
}

/// A cross-thread wakeup handle: a nonblocking self-pipe whose read end
/// is registered in a [`Poller`] under [`WAKE_TOKEN`]. `wake()` is safe
/// to call from any thread (dispatchers, other loops, the shutdown path).
pub struct Waker {
    read_fd: i32,
    write_fd: i32,
}

// SAFETY: the pipe fds are plain integers; writes from multiple threads
// are what pipes are for.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Create the pipe and register its read end with the poller.
    pub fn new(poller: &mut Poller) -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            let mut fds = [0i32; 2];
            // SAFETY: `fds` is a valid 2-element out-array.
            if unsafe { sys::pipe2(fds.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) } < 0 {
                return Err(io::Error::last_os_error());
            }
            poller.register(fds[0], WAKE_TOKEN, Interest::READ)?;
            Ok(Self { read_fd: fds[0], write_fd: fds[1] })
        }
        #[cfg(not(target_os = "linux"))]
        {
            let mut fds = [0i32; 2];
            // SAFETY: `fds` is a valid 2-element out-array.
            if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: plain fcntl on owned fds.
            unsafe {
                sys::fcntl(fds[0], sys::F_SETFL, sys::O_NONBLOCK);
                sys::fcntl(fds[1], sys::F_SETFL, sys::O_NONBLOCK);
            }
            poller.register(fds[0], WAKE_TOKEN, Interest::READ)?;
            Ok(Self { read_fd: fds[0], write_fd: fds[1] })
        }
    }

    /// Wake the owning poller (idempotent; a full pipe already wakes).
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: valid 1-byte buffer; EAGAIN on a full pipe is fine.
        unsafe {
            sys::write(self.write_fd, &byte, 1);
        }
    }

    /// Drain pending wakeup bytes after a [`WAKE_TOKEN`] readiness event.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        // SAFETY: valid buffer; loop ends on EAGAIN (nonblocking).
        while unsafe { sys::read(self.read_fd, buf.as_mut_ptr(), buf.len()) } > 0 {}
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: owned descriptors, closed exactly once here.
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    fn fd_of(s: &TcpStream) -> SysFd {
        s.as_raw_fd()
    }

    #[test]
    fn reports_readability_when_bytes_arrive() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(fd_of(&rx), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing readable yet: a short wait times out empty.
        poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        tx.write_all(b"x").unwrap();
        tx.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut seen = false;
        while Instant::now() < deadline && !seen {
            poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
            seen = events.iter().any(|e| e.token == 7 && e.readable);
        }
        assert!(seen, "byte arrival must surface as readability");

        let mut byte = [0u8; 1];
        let mut rx = rx;
        rx.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"x");
    }

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new(&mut poller).unwrap());
        let w = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake();
        });
        let mut events = Vec::new();
        let t0 = Instant::now();
        // Generous timeout: the waker must end the wait long before it.
        poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "wake() interrupted the wait");
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN && e.readable));
        waker.drain();
        handle.join().unwrap();
    }

    #[test]
    fn modify_switches_write_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        tx.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        // Register read-only: an idle writable socket must not wake us.
        poller.register(fd_of(&tx), 3, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(
            events.iter().all(|e| e.token != 3 || !e.writable),
            "write readiness must be masked without write interest"
        );
        poller.modify(3, Interest::BOTH).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut writable = false;
        while Instant::now() < deadline && !writable {
            poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
            writable = events.iter().any(|e| e.token == 3 && e.writable);
        }
        assert!(writable, "an idle socket is writable once write interest is on");
        poller.deregister(3).unwrap();
        drop(rx);
    }
}
