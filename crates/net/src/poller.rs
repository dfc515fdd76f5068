//! Socket readiness for the event loop: a thin, dependency-free
//! `poll(2)` shim behind a portable [`Poller`] abstraction.
//!
//! The loop re-submits its (small) watch list every iteration —
//! level-triggered `poll(2)` semantics, the right shape for a front-end
//! whose descriptor count is bounded by the connection cap. On unix the
//! syscall is declared directly against libc (which `std` already links)
//! so the workspace stays free of external crates; the single `unsafe`
//! call lives in the private `sys` module with the safety argument spelled
//! out. Elsewhere the [`Poller`] degrades to a short timed tick that
//! reports every watch ready at its requested interest — correct (all
//! sockets are nonblocking, a spurious wakeup costs one `WouldBlock`)
//! but busier; the event loop's logic is identical either way.
//!
//! [`WakeHandle`]/[`WakeSource`] complete the picture: a nonblocking
//! socketpair whose read end sits in the watch list, so worker threads
//! can interrupt a blocked `poll` the moment a response is ready.

use std::io;
use std::time::Duration;

/// What to watch a descriptor for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor is readable (or closed by the peer).
    pub readable: bool,
    /// Wake when the descriptor accepts more output.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Watch nothing (placeholder entry).
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };
}

/// Readiness reported for one watched descriptor.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The caller-chosen token of the watch that fired.
    pub token: usize,
    /// Data (or end-of-stream) is available to read.
    pub readable: bool,
    /// The descriptor accepts more output.
    pub writable: bool,
    /// The descriptor is in an error state (`POLLERR`/`POLLNVAL`); the
    /// connection should be dropped.
    pub error: bool,
}

#[cfg(unix)]
type RawSource = std::os::fd::RawFd;
#[cfg(not(unix))]
type RawSource = ();

/// One descriptor to watch for one [`Poller::poll`] call.
#[derive(Debug, Clone, Copy)]
pub struct Watch {
    token: usize,
    raw: RawSource,
    interest: Interest,
}

impl Watch {
    /// Watches `source` for `interest`, reporting events under `token`.
    #[cfg(unix)]
    pub fn new(token: usize, source: &impl std::os::fd::AsRawFd, interest: Interest) -> Watch {
        Watch {
            token,
            raw: source.as_raw_fd(),
            interest,
        }
    }

    /// Watches `source` for `interest`, reporting events under `token`.
    #[cfg(not(unix))]
    pub fn new<T>(token: usize, _source: &T, interest: Interest) -> Watch {
        Watch {
            token,
            raw: (),
            interest,
        }
    }
}

/// A reusable readiness poller; [`Poller::poll`] is one `poll(2)` call
/// on unix and a timed tick elsewhere.
#[derive(Debug, Default)]
pub struct Poller {
    #[cfg(unix)]
    fds: Vec<sys::PollFd>,
}

impl Poller {
    /// A poller with no retained state beyond its scratch buffer.
    #[must_use]
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Waits up to `timeout` for readiness on any watch, appending one
    /// [`Event`] per ready descriptor to `events` (cleared first).
    ///
    /// # Errors
    ///
    /// Propagates `poll(2)` failures; `EINTR` is treated as zero events.
    #[cfg(unix)]
    pub fn poll(
        &mut self,
        watches: &[Watch],
        timeout: Duration,
        events: &mut Vec<Event>,
    ) -> io::Result<()> {
        events.clear();
        self.fds.clear();
        for watch in watches {
            let mut mask: i16 = 0;
            if watch.interest.readable {
                mask |= sys::POLLIN;
            }
            if watch.interest.writable {
                mask |= sys::POLLOUT;
            }
            self.fds.push(sys::PollFd {
                fd: watch.raw,
                events: mask,
                revents: 0,
            });
        }
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        let ready = sys::poll_fds(&mut self.fds, timeout_ms)?;
        if ready == 0 {
            return Ok(());
        }
        for (watch, fd) in watches.iter().zip(&self.fds) {
            if fd.revents == 0 {
                continue;
            }
            events.push(Event {
                token: watch.token,
                // A hangup counts as readable: the pending bytes (and the
                // EOF behind them) are drained by the read path.
                readable: fd.revents & (sys::POLLIN | sys::POLLHUP) != 0,
                writable: fd.revents & sys::POLLOUT != 0,
                error: fd.revents & (sys::POLLERR | sys::POLLNVAL) != 0,
            });
        }
        Ok(())
    }

    /// Portable fallback: sleep one short tick, then report every watch
    /// ready at its requested interest. Nonblocking sockets make the
    /// spurious readiness harmless (`WouldBlock`), at the cost of a
    /// busier loop.
    #[cfg(not(unix))]
    pub fn poll(
        &mut self,
        watches: &[Watch],
        timeout: Duration,
        events: &mut Vec<Event>,
    ) -> io::Result<()> {
        events.clear();
        std::thread::sleep(timeout.min(Duration::from_millis(5)));
        for watch in watches {
            if watch.interest.readable || watch.interest.writable {
                events.push(Event {
                    token: watch.token,
                    readable: watch.interest.readable,
                    writable: watch.interest.writable,
                    error: false,
                });
            }
        }
        Ok(())
    }
}

/// The write side of the loop's wakeup channel; cloneable across the
/// worker threads that complete work while the loop sleeps in `poll`.
#[derive(Debug, Clone)]
pub struct WakeHandle {
    #[cfg(unix)]
    tx: std::sync::Arc<std::os::unix::net::UnixStream>,
}

impl WakeHandle {
    /// Interrupts the next (or current) [`Poller::poll`] call of the
    /// paired [`WakeSource`]. Never blocks: a full wake pipe already
    /// guarantees a pending wakeup.
    pub fn wake(&self) {
        #[cfg(unix)]
        {
            use std::io::Write;
            let _ = (&*self.tx).write(&[1]);
        }
    }
}

/// The read side of the wakeup channel; lives in the event loop's watch
/// list.
#[derive(Debug)]
pub struct WakeSource {
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

impl WakeSource {
    /// A connected wakeup pair.
    ///
    /// # Errors
    ///
    /// Propagates socketpair creation failures (unix only).
    pub fn pair() -> io::Result<(WakeHandle, WakeSource)> {
        #[cfg(unix)]
        {
            let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok((
                WakeHandle {
                    tx: std::sync::Arc::new(tx),
                },
                WakeSource { rx },
            ))
        }
        #[cfg(not(unix))]
        {
            // The fallback poller ticks on a timer, so wakeups are
            // bounded by the tick instead of being event-driven.
            Ok((WakeHandle {}, WakeSource {}))
        }
    }

    /// The watch entry for this source. On the fallback backend the
    /// entry is inert (the tick itself bounds wake latency).
    #[must_use]
    pub fn watch(&self, token: usize) -> Watch {
        #[cfg(unix)]
        {
            Watch::new(token, &self.rx, Interest::READ)
        }
        #[cfg(not(unix))]
        {
            Watch::new(token, &(), Interest::NONE)
        }
    }

    /// Consumes every pending wakeup byte so the next `poll` sleeps.
    pub fn drain(&mut self) {
        #[cfg(unix)]
        {
            use std::io::Read;
            let mut sink = [0u8; 64];
            while matches!(self.rx.read(&mut sink), Ok(n) if n > 0) {}
        }
    }
}

/// The `poll(2)` FFI shim — the only `unsafe` in the workspace, kept to
/// one audited call.
#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::RawFd;

    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks up to `timeout_ms` (`-1` = forever) for readiness on
    /// `fds`, returning how many descriptors fired. `EINTR` is reported
    /// as zero events rather than an error.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // structs matching the layout of `struct pollfd`, valid for the
        // whole call, and its length is passed alongside the pointer;
        // poll(2) reads `fd`/`events` and writes only `revents`.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
        if rc < 0 {
            let error = io::Error::last_os_error();
            return if error.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(error)
            };
        }
        Ok(usize::try_from(rc).unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poll_reports_readable_after_data_arrives() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connects");
        let (server, _) = listener.accept().expect("accepts");
        server.set_nonblocking(true).expect("nonblocking");

        let mut poller = Poller::new();
        let mut events = Vec::new();
        let watches = [Watch::new(7, &server, Interest::READ)];
        // Nothing pending yet: a short poll returns no read event (the
        // portable fallback may report spuriously; skip the assert there).
        #[cfg(unix)]
        {
            poller
                .poll(&watches, Duration::from_millis(1), &mut events)
                .expect("polls");
            assert!(events.is_empty(), "{events:?}");
        }
        client.write_all(b"x").expect("writes");
        client.flush().expect("flushes");
        // Now the byte must surface within a generous timeout.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            poller
                .poll(&watches, Duration::from_millis(20), &mut events)
                .expect("polls");
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "data never became readable"
            );
        }
        let mut server = server;
        let mut byte = [0u8; 1];
        assert_eq!(server.read(&mut byte).expect("reads"), 1);
    }

    #[test]
    fn wakeups_interrupt_a_sleeping_poll() {
        let (handle, mut source) = WakeSource::pair().expect("pair");
        let mut poller = Poller::new();
        let mut events = Vec::new();
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            handle.wake();
        });
        let start = std::time::Instant::now();
        // Without the wake this would sleep the full 5 seconds (unix);
        // the fallback backend ticks early by design.
        loop {
            poller
                .poll(&[source.watch(0)], Duration::from_secs(5), &mut events)
                .expect("polls");
            if events.iter().any(|e| e.token == 0 && e.readable) || cfg!(not(unix)) {
                break;
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "wakeup did not interrupt poll"
        );
        source.drain();
        waker.join().expect("waker thread");
    }
}
