//! The event loop's platform layer: the [`Poller`] readiness set, a
//! cross-thread [`Waker`] the scheduler's workers use to hand completions
//! back to the loop, and the [`TimerHeap`] that drives the
//! connection-hygiene deadlines (idle / line / write) without one blocking
//! read per connection.
//!
//! There is one readiness backend, `poll(2)`, because it runs on every
//! platform the crate builds for. The poller keeps one `pollfd` per token;
//! a free token's slot holds fd −1, which `poll(2)` skips. Registering,
//! changing interest and deregistering are memory writes into that array —
//! no syscall, no fd search — and `wait` hands the array to the kernel as
//! is. Readiness is **level-triggered**: a registered fd with unread input
//! (or writable space) reports on every `wait` until the condition is
//! consumed, so the loop never needs to drain a socket to exhaustion inside
//! one event.
//!
//! The cost is named rather than hidden: `poll(2)` walks every registered
//! fd per wakeup, where a ready-list backend costs O(ready). Measured on the
//! 2-vCPU development box (scratch probe, CHANGES.md PR 25), one zero-timeout
//! `wait` over 514 registered idle sockets takes ~13 µs (~25 ns per fd)
//! against ~0.11 µs for the ready-list backend this module used to carry;
//! at the serving benchmark's 3–4 registered fds it is ~0.21 µs against
//! ~0.11 µs, one syscall either way and noise next to a millisecond request.
//! A ready-list backend returns only as a platform-selected path, and only
//! once a many-connection benchmark workload shows the difference.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::net::UdpSocket;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw binding to `poll(2)`. `std` already links libc, so the symbol
/// resolves without any external crate. This module is the only place in
/// the crate allowed to contain unsafe code: one call that passes the
/// caller's own slice.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_ulong};

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// `poll(2)` over the caller's pollfd slice. `EINTR` surfaces as
    /// `Ok(0)` — a spurious wakeup the event loop already tolerates.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // `pollfd`s and `nfds` is its length, so the kernel reads and
        // writes (`revents` only) inside it; nothing is retained past the
        // call. Negative fds are skipped by definition.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

/// Which readiness conditions a registration subscribes to. Hangup and
/// error conditions are always reported regardless of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has input (or a peer hangup) to read.
    pub readable: bool,
    /// Wake when the fd can accept more output.
    pub writable: bool,
}

impl Interest {
    /// Read-side interest only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn mask(self) -> i16 {
        let mut mask = 0;
        if self.readable {
            mask |= sys::POLLIN;
        }
        if self.writable {
            mask |= sys::POLLOUT;
        }
        mask
    }
}

/// One readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// The fd has input to read (or a hangup to observe via EOF).
    pub readable: bool,
    /// The fd can accept output.
    pub writable: bool,
    /// The peer hung up or the fd errored; reads/writes will resolve it.
    pub hangup: bool,
}

/// A free token's slot: `poll(2)` ignores negative fds and reports no
/// events for them.
const FREE: sys::PollFd = sys::PollFd {
    fd: -1,
    events: 0,
    revents: 0,
};

/// The readiness set: one `pollfd` per token, level-triggered.
///
/// Tokens index the array directly, so one token holds at most one fd and
/// the array is as long as the highest token ever registered. The event
/// loop's tokens are its listener, its waker and its connection slots, so
/// that length is bounded by peak concurrent connections + 2 — and with it
/// by the process's open-fd limit, which `nfds` therefore never exceeds.
#[derive(Debug, Default)]
pub struct Poller {
    fds: Vec<sys::PollFd>,
}

impl Poller {
    /// The live slot of `token`, or `NotFound`.
    fn slot(&mut self, token: usize) -> io::Result<&mut sys::PollFd> {
        self.fds
            .get_mut(token)
            .filter(|slot| slot.fd >= 0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "token not registered"))
    }

    /// Subscribes `fd` under `token`. Registering a token that already
    /// holds an fd is an error.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if token >= self.fds.len() {
            self.fds.resize(token + 1, FREE);
        }
        let slot = &mut self.fds[token];
        if slot.fd >= 0 {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "token already registered",
            ));
        }
        *slot = sys::PollFd {
            fd,
            events: interest.mask(),
            revents: 0,
        };
        Ok(())
    }

    /// Replaces the interest set of a registered token.
    pub fn reregister(&mut self, token: usize, interest: Interest) -> io::Result<()> {
        self.slot(token)?.events = interest.mask();
        Ok(())
    }

    /// Frees `token`'s slot; its fd stops producing events immediately, and
    /// the token may be registered again (with any fd).
    pub fn deregister(&mut self, token: usize) -> io::Result<()> {
        *self.slot(token)? = FREE;
        Ok(())
    }

    /// Blocks until at least one event, the timeout, or a (tolerated)
    /// spurious wakeup; `events` is cleared and refilled. `None` blocks
    /// indefinitely.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let ready = sys::poll_fds(&mut self.fds, timeout_ms(timeout))?;
        let fired = self.fds.iter().enumerate().filter(|(_, s)| s.revents != 0);
        for (token, slot) in fired.take(ready) {
            let bits = slot.revents;
            let hangup = bits & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
            events.push(Event {
                token,
                readable: hangup || bits & sys::POLLIN != 0,
                writable: hangup || bits & sys::POLLOUT != 0,
                hangup,
            });
        }
        Ok(())
    }
}

/// Converts a timeout to whole milliseconds, rounding up so sub-millisecond
/// timeouts cannot busy-spin, saturating into the `c_int` range.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
    }
}

/// The write half of the loop's wakeup channel: any thread can [`wake`]
/// the event loop out of its `wait`. Built std-only from a connected
/// loopback UDP socket pair; consecutive wakes coalesce through an atomic
/// flag so a burst of completions costs one datagram, not one per job.
///
/// [`wake`]: Waker::wake
#[derive(Debug, Clone)]
pub struct Waker {
    tx: Arc<UdpSocket>,
    pending: Arc<AtomicBool>,
}

impl Waker {
    /// Wakes the event loop if it is not already scheduled to wake.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            // A failed send can only mean the socket buffer already holds
            // unread wake datagrams — which is itself a pending wakeup.
            let _ = self.tx.send(&[1]);
        }
    }
}

/// The read half of the wakeup channel, owned by the event loop: register
/// [`fd`] for readability, then [`drain`] on every wake event.
///
/// [`fd`]: WakeReceiver::fd
/// [`drain`]: WakeReceiver::drain
#[derive(Debug)]
pub struct WakeReceiver {
    rx: UdpSocket,
    pending: Arc<AtomicBool>,
}

impl WakeReceiver {
    /// The fd to register (readable) in the poller.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consumes every queued wake datagram and re-arms the coalescing
    /// flag. The loop must check its completion queues *after* draining:
    /// a producer that loses the flag race has already enqueued its work.
    pub fn drain(&self) {
        let mut buf = [0u8; 16];
        while self.rx.recv(&mut buf).is_ok() {}
        self.pending.store(false, Ordering::SeqCst);
    }
}

/// Builds a connected wakeup pair.
///
/// # Errors
///
/// Propagates loopback socket creation/connect failures.
pub fn waker() -> io::Result<(Waker, WakeReceiver)> {
    let rx = UdpSocket::bind("127.0.0.1:0")?;
    rx.set_nonblocking(true)?;
    let tx = UdpSocket::bind("127.0.0.1:0")?;
    tx.connect(rx.local_addr()?)?;
    tx.set_nonblocking(true)?;
    let pending = Arc::new(AtomicBool::new(false));
    Ok((
        Waker {
            tx: Arc::new(tx),
            pending: Arc::clone(&pending),
        },
        WakeReceiver { rx, pending },
    ))
}

/// What a connection timer polices; the heap itself is kind-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TimerKind {
    /// No completed request and no partial line for `idle_timeout`.
    Idle,
    /// A partial request line older than `line_timeout` (slow-loris).
    Line,
    /// A write buffer that has made no progress for `write_timeout`.
    Write,
}

/// One scheduled timer, ordered by deadline first. Timers use **lazy
/// cancellation**: entries are never removed early, so on expiry the owner
/// must validate the entry against current connection state (generation
/// *and* the live deadline) before acting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerEntry {
    /// Absolute expiry instant.
    pub deadline: Instant,
    /// The connection's slab token.
    pub token: usize,
    /// The connection's generation at scheduling time; a mismatch means
    /// the slot was reused and the timer is stale.
    pub generation: u64,
    /// Which deadline this timer polices.
    pub kind: TimerKind,
}

/// The hygiene deadlines as a min-heap on [`TimerEntry::deadline`].
#[derive(Debug, Default)]
pub struct TimerHeap {
    heap: BinaryHeap<Reverse<TimerEntry>>,
}

impl TimerHeap {
    /// Schedules an entry. A past deadline fires on the next
    /// [`advance`](TimerHeap::advance).
    pub fn insert(&mut self, entry: TimerEntry) {
        self.heap.push(Reverse(entry));
    }

    /// Removes and returns every entry whose deadline is at or before
    /// `now`, in deadline order.
    pub fn advance(&mut self, now: Instant) -> Vec<TimerEntry> {
        let mut expired = Vec::new();
        while let Some(Reverse(entry)) = self.heap.peek() {
            if entry.deadline > now {
                break;
            }
            expired.push(*entry);
            self.heap.pop();
        }
        expired
    }

    /// How long the owning loop may sleep before the earliest deadline is
    /// due, floored at one millisecond so an imminent deadline cannot turn
    /// the poll wait into a busy spin. `None` when nothing is scheduled.
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let Reverse(earliest) = self.heap.peek()?;
        Some(
            earliest
                .deadline
                .saturating_duration_since(now)
                .max(Duration::from_millis(1)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };

    /// A connected localhost TCP pair to generate real readiness with.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connects");
        let (server, _) = listener.accept().expect("accepts");
        client.set_nonblocking(true).expect("nonblocking");
        server.set_nonblocking(true).expect("nonblocking");
        (client, server)
    }

    fn wait_for_token(poller: &mut Poller, events: &mut Vec<Event>, token: usize) -> Option<Event> {
        // A bounded retry loop: spurious wakeups (EINTR, coalesced waker
        // noise) return zero events and must simply be waited through.
        for _ in 0..50 {
            poller
                .wait(events, Some(Duration::from_millis(100)))
                .expect("wait");
            if let Some(ev) = events.iter().find(|e| e.token == token) {
                return Some(*ev);
            }
        }
        None
    }

    #[test]
    fn readiness_is_level_triggered_until_consumed() {
        let mut poller = Poller::default();
        let (mut client, mut server) = tcp_pair();
        poller
            .register(server.as_raw_fd(), 7, Interest::READABLE)
            .expect("register");
        client.write_all(b"ping").expect("writes");
        let ev = wait_for_token(&mut poller, &mut Vec::new(), 7).expect("no readable event");
        assert!(ev.readable);
        // Level-triggered: the unread bytes keep reporting readiness.
        let again = wait_for_token(&mut poller, &mut Vec::new(), 7)
            .expect("level-triggering lost the event");
        assert!(again.readable);
        // Consume the input: readiness must stop.
        let mut buf = [0u8; 16];
        let n = server.read(&mut buf).expect("reads");
        assert_eq!(&buf[..n], b"ping");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert!(
            events.iter().all(|e| e.token != 7),
            "drained fd still readable"
        );
    }

    #[test]
    fn writable_interest_reports_immediately_on_an_open_socket() {
        let mut poller = Poller::default();
        let (_client, server) = tcp_pair();
        poller
            .register(server.as_raw_fd(), 3, WRITABLE)
            .expect("register");
        let ev = wait_for_token(&mut poller, &mut Vec::new(), 3).expect("no writable event");
        assert!(ev.writable, "fresh socket is writable");
    }

    #[test]
    fn registration_lifecycle_is_enforced() {
        let mut poller = Poller::default();
        let (mut client, server) = tcp_pair();
        let fd = server.as_raw_fd();
        poller
            .register(fd, 1, Interest::READABLE)
            .expect("register");
        assert!(
            poller.register(fd, 1, Interest::READABLE).is_err(),
            "double registration of a token must fail"
        );
        // Reregistration changes the interest set in place: with no
        // interest, pending input no longer produces events.
        let none = Interest {
            readable: false,
            writable: false,
        };
        poller.reregister(1, none).expect("reregister");
        client.write_all(b"x").expect("writes");
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .expect("wait");
        assert!(
            events.iter().all(|e| e.token != 1),
            "interest NONE still produced events"
        );
        // Deregistered tokens produce nothing, and a second deregister (or
        // a reregister) is an error.
        poller.deregister(1).expect("deregister");
        client.write_all(b"y").expect("writes");
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .expect("wait");
        assert!(events.iter().all(|e| e.token != 1));
        assert!(poller.deregister(1).is_err());
        assert!(poller.reregister(1, Interest::READABLE).is_err());
        // Tokens never registered are errors too, not out-of-bounds panics.
        assert!(poller.deregister(1_000).is_err());
        assert!(poller.reregister(1_000, Interest::READABLE).is_err());
    }

    #[test]
    fn a_freed_token_does_not_follow_its_fd_number_to_a_new_token() {
        let mut poller = Poller::default();
        let (_client_a, server_a) = tcp_pair();
        let (mut client_b, server_b) = tcp_pair();
        let old_fd = server_a.as_raw_fd();
        poller
            .register(old_fd, 5, Interest::READABLE)
            .expect("register");
        poller.deregister(5).expect("deregister");
        assert!(poller.fds[5].fd < 0, "a freed slot holds fd -1");
        drop(server_a);
        // `dup` takes the lowest free fd, which is normally the one just
        // closed; retry briefly in case a concurrently running test grabbed
        // it first.
        let mut reused = server_b.try_clone().expect("dup");
        for _ in 0..50 {
            if reused.as_raw_fd() == old_fd {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
            reused = server_b.try_clone().expect("dup");
        }
        poller
            .register(reused.as_raw_fd(), 9, Interest::READABLE)
            .expect("register under a new token");
        client_b.write_all(b"z").expect("writes");
        let ev = wait_for_token(&mut poller, &mut Vec::new(), 9).expect("new token readable");
        assert!(ev.readable);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert!(
            events.iter().any(|e| e.token == 9) && events.iter().all(|e| e.token != 5),
            "readiness must be reported under the new token only: {events:?}"
        );
    }

    #[test]
    fn waker_wakes_coalesces_and_tolerates_spurious_wakeups() {
        let mut poller = Poller::default();
        let (wake_tx, wake_rx) = waker().expect("waker pair");
        poller
            .register(wake_rx.fd(), 0, Interest::READABLE)
            .expect("register");
        // No wake: the wait times out with zero events, which the caller
        // treats as a spurious wakeup and loops over.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty(), "phantom wake");
        // A burst of wakes from another thread coalesces into (at least
        // one, at most a few) datagrams; one drain clears them.
        let remote = wake_tx.clone();
        let burst = std::thread::spawn(move || {
            for _ in 0..100 {
                remote.wake();
            }
        });
        let ev = wait_for_token(&mut poller, &mut events, 0).expect("wake lost");
        assert!(ev.readable);
        burst.join().expect("burst thread");
        wake_rx.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(events.is_empty(), "drain left stale wake datagrams");
        // The channel survives draining: the next wake still arrives.
        wake_tx.wake();
        assert!(wait_for_token(&mut poller, &mut events, 0).is_some());
    }

    #[test]
    fn timer_heap_fires_in_deadline_order_never_early() {
        let start = Instant::now();
        let mut timers = TimerHeap::default();
        let at = |ms: u64| start + Duration::from_millis(ms);
        let entry = |ms: u64, token: usize, kind: TimerKind| TimerEntry {
            deadline: at(ms),
            token,
            generation: 1,
            kind,
        };
        // Out-of-order insertion, near and far deadlines mixed.
        timers.insert(entry(30, 3, TimerKind::Line));
        timers.insert(entry(10, 1, TimerKind::Idle));
        timers.insert(entry(130, 13, TimerKind::Idle));
        timers.insert(entry(20, 2, TimerKind::Write));
        assert_eq!(timers.heap.len(), 4);
        // The poll timeout tracks the earliest deadline (10 ms out).
        assert_eq!(timers.next_timeout(start), Some(Duration::from_millis(10)));
        assert_eq!(
            timers.next_timeout(at(100)),
            Some(Duration::from_millis(1)),
            "overdue deadlines floor at 1 ms instead of busy-spinning"
        );

        assert!(
            timers.advance(at(9)).is_empty(),
            "nothing expires before its deadline"
        );
        let first = timers.advance(at(25));
        assert_eq!(
            first.iter().map(|e| e.token).collect::<Vec<_>>(),
            vec![1, 2],
            "expired entries collect in deadline order"
        );
        assert_eq!(timers.next_timeout(at(25)), Some(Duration::from_millis(5)));
        let second = timers.advance(at(50));
        assert_eq!(second.iter().map(|e| e.token).collect::<Vec<_>>(), vec![3]);
        assert_eq!(timers.heap.len(), 1);
        let third = timers.advance(at(200));
        assert_eq!(third.iter().map(|e| e.token).collect::<Vec<_>>(), vec![13]);
        assert_eq!(third[0].kind, TimerKind::Idle);
        assert!(timers.heap.is_empty());
        assert_eq!(timers.next_timeout(at(200)), None);
    }

    #[test]
    fn timer_heap_expires_past_deadlines_on_the_next_advance() {
        let start = Instant::now();
        let mut timers = TimerHeap::default();
        let _ = timers.advance(start + Duration::from_millis(60));
        // A deadline already behind the last advance fires on the very next
        // one, and an entry due exactly at `now` is due.
        timers.insert(TimerEntry {
            deadline: start + Duration::from_millis(10),
            token: 9,
            generation: 1,
            kind: TimerKind::Write,
        });
        timers.insert(TimerEntry {
            deadline: start + Duration::from_millis(70),
            token: 4,
            generation: 2,
            kind: TimerKind::Line,
        });
        let fired = timers.advance(start + Duration::from_millis(70));
        assert_eq!(
            fired.iter().map(|e| e.token).collect::<Vec<_>>(),
            vec![9, 4]
        );
        assert!(timers.heap.is_empty());
    }
}
