//! Per-connection state for the event-driven front end: the zero-copy
//! [`LineFramer`] that slices newline-delimited requests out of a growing
//! read buffer, the [`WriteBuf`] state machine that drains responses
//! through nonblocking partial writes, and the generation-tagged
//! connection table the event loop indexes by poller token.

use crate::poll::Interest;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// The request line grew past the configured byte limit without a
/// newline (or a complete line exceeded it): the stream cannot be
/// resynced and must be closed after one error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineOverflow;

/// How many bytes one `read` call appends at most; level-triggered
/// readiness re-delivers the event, so a flooding client cannot
/// monopolise the loop inside one readable event.
const READ_CHUNK: usize = 16 * 1024;

/// Slices newline-delimited request lines out of an append-only buffer
/// without copying: [`next_line`] returns `&[u8]` views directly into the
/// buffer, and consumed bytes are reclaimed by [`compact`] between
/// events. Byte-limit enforcement matches the blocking reader it
/// replaced: a complete line of up to `max_line` bytes *including* its
/// newline is accepted; `max_line` buffered bytes without a newline are
/// an overflow.
///
/// [`next_line`]: LineFramer::next_line
/// [`compact`]: LineFramer::compact
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// Scan resume point: everything in `start..scan` is known
    /// newline-free, so re-scans after short reads are O(new bytes).
    scan: usize,
    /// Max bytes of one line including its newline; 0 = unlimited.
    max_line: u64,
}

impl LineFramer {
    /// A framer enforcing `max_line` bytes per request line (0 disables
    /// the limit).
    pub fn new(max_line: u64) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            start: 0,
            scan: 0,
            max_line,
        }
    }

    /// Appends raw bytes (the test/driver-side entry point; the event
    /// loop uses [`LineFramer::read_from`]).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Reads one chunk from `r` into the buffer. `Ok(0)` is end-of-file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying read error (including `WouldBlock`).
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let mut chunk = [0u8; READ_CHUNK];
        let n = r.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// The next complete request line, without its trailing newline, or
    /// `None` when the buffer holds only a partial line.
    ///
    /// # Errors
    ///
    /// [`LineOverflow`] once the line limit is breached — either a
    /// complete line longer than the limit, or that many buffered bytes
    /// with no newline in sight.
    pub fn next_line(&mut self) -> Result<Option<&[u8]>, LineOverflow> {
        match self.buf[self.scan..].iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let newline = self.scan + offset;
                let start = self.start;
                // +1: the limit covers the newline, exactly like the
                // blocking `take(max).read_line` it replaces.
                if self.max_line > 0 && (newline + 1 - start) as u64 > self.max_line {
                    return Err(LineOverflow);
                }
                self.start = newline + 1;
                self.scan = newline + 1;
                Ok(Some(&self.buf[start..newline]))
            }
            None => {
                self.scan = self.buf.len();
                if self.max_line > 0 && self.pending() as u64 >= self.max_line {
                    return Err(LineOverflow);
                }
                Ok(None)
            }
        }
    }

    /// Bytes buffered but not yet consumed (the partial line, if any).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Reclaims consumed bytes. Cheap to call after every batch of lines:
    /// it only moves memory once the consumed prefix dominates the buffer.
    pub fn compact(&mut self) {
        if self.start == 0 {
            return;
        }
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
            self.scan = 0;
        } else if self.start >= 4096 && self.start * 2 >= self.buf.len() {
            // `scan` never trails `start`, so the scanned-prefix property
            // survives the shift unchanged.
            self.buf.drain(..self.start);
            self.scan -= self.start;
            self.start = 0;
        }
    }
}

/// Result of one [`WriteBuf::flush_to`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// Everything buffered went out; the buffer is empty.
    Drained,
    /// The socket stopped accepting bytes; `progressed` says whether any
    /// bytes left at all (progress resets the write deadline).
    Blocked {
        /// At least one byte was written before blocking.
        progressed: bool,
    },
}

/// The response-side state machine: responses append here, and the event
/// loop drains through nonblocking partial writes whenever the socket
/// reports writable.
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    /// Queues response bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unwritten bytes still queued.
    pub fn len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes as much as the socket accepts right now.
    ///
    /// # Errors
    ///
    /// Propagates hard write errors (connection reset, …); `WouldBlock`
    /// is not an error but a [`Flush::Blocked`] state.
    pub fn flush_to(&mut self, w: &mut impl Write) -> io::Result<Flush> {
        let mut progressed = false;
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Reclaim the written prefix so a long-lived slow
                    // reader cannot pin the high-water memory forever.
                    if self.pos >= 4096 && self.pos * 2 >= self.buf.len() {
                        self.buf.drain(..self.pos);
                        self.pos = 0;
                    }
                    return Ok(Flush::Blocked { progressed });
                }
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(Flush::Drained)
    }
}

/// One live connection owned by the event loop.
pub(crate) struct Conn {
    pub stream: TcpStream,
    /// Distinguishes this tenancy of the slab slot from earlier ones, so
    /// stale scheduler completions cannot act on a recycled slot.
    pub generation: u64,
    pub framer: LineFramer,
    pub out: WriteBuf,
    /// Last instant a request line completed, a response was queued or the
    /// write buffer drained (or the connection opened); the idle deadline
    /// measures from here.
    pub last_activity: Instant,
    /// When the current partial request line started arriving; the
    /// line (slow-loris) deadline measures from here.
    pub line_started: Option<Instant>,
    /// The instant the blocked write buffer is cut at; pushed forward on
    /// every write that makes progress.
    pub write_deadline: Option<Instant>,
    /// Predict requests submitted to the scheduler and not yet answered.
    pub inflight: usize,
    /// Reading is paused: the write buffer crossed the high watermark
    /// (backpressure), so the loop stopped accepting new requests until
    /// the client drains responses.
    pub paused: bool,
    /// No more reads; close the connection once `out` drains.
    pub close_after_drain: bool,
}

impl Conn {
    pub fn new(stream: TcpStream, generation: u64, max_line: u64, now: Instant) -> Conn {
        Conn {
            stream,
            generation,
            framer: LineFramer::new(max_line),
            out: WriteBuf::default(),
            last_activity: now,
            line_started: None,
            write_deadline: None,
            inflight: 0,
            paused: false,
            close_after_drain: false,
        }
    }

    /// The interest set this connection's state implies right now:
    /// readable unless paused or half-closed, writable while output is
    /// queued. With neither, hangup/error conditions still wake the loop.
    pub fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.paused && !self.close_after_drain,
            writable: !self.out.is_empty(),
        }
    }
}

/// The connection table: a slab indexed by poller token, with slot reuse
/// guarded by generations.
pub(crate) struct ConnTable {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    len: usize,
}

impl ConnTable {
    pub fn new() -> ConnTable {
        ConnTable {
            slots: Vec::new(),
            free: Vec::new(),
            next_generation: 0,
            len: 0,
        }
    }

    /// Claims a slot for the connection `build` makes from its fresh
    /// generation, returning the slot.
    pub fn insert(&mut self, build: impl FnOnce(u64) -> Conn) -> usize {
        self.next_generation += 1;
        let conn = build(self.next_generation);
        self.len += 1;
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(conn);
                slot
            }
            None => {
                self.slots.push(Some(conn));
                self.slots.len() - 1
            }
        }
    }

    pub fn get_mut(&mut self, slot: usize) -> Option<&mut Conn> {
        self.slots.get_mut(slot).and_then(Option::as_mut)
    }

    /// Generation-checked access: `None` when the slot was recycled since
    /// `generation` was issued.
    pub fn get_generation(&mut self, slot: usize, generation: u64) -> Option<&mut Conn> {
        self.get_mut(slot).filter(|c| c.generation == generation)
    }

    pub fn remove(&mut self, slot: usize) -> Option<Conn> {
        let conn = self.slots.get_mut(slot).and_then(Option::take)?;
        self.free.push(slot);
        self.len -= 1;
        Some(conn)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Every occupied slot with its connection.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Conn)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|c| (i, c)))
    }

    /// Every occupied slot index (snapshot, so the caller may mutate the
    /// table while iterating).
    pub fn occupied(&self) -> Vec<usize> {
        self.iter().map(|(i, _)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framer_slices_lines_across_arbitrary_chunks() {
        let mut framer = LineFramer::new(0);
        framer.push(b"{\"a\":1}\n{\"b\"");
        assert_eq!(framer.next_line().unwrap(), Some(&b"{\"a\":1}"[..]));
        assert_eq!(framer.next_line().unwrap(), None);
        assert_eq!(framer.pending(), 4);
        framer.push(b":2}\n\n{\"c\":3}\n");
        assert_eq!(framer.next_line().unwrap(), Some(&b"{\"b\":2}"[..]));
        assert_eq!(framer.next_line().unwrap(), Some(&b""[..]), "empty line");
        assert_eq!(framer.next_line().unwrap(), Some(&b"{\"c\":3}"[..]));
        assert_eq!(framer.next_line().unwrap(), None);
        assert_eq!(framer.pending(), 0);
        framer.compact();
        framer.push(b"tail\n");
        assert_eq!(framer.next_line().unwrap(), Some(&b"tail"[..]));
    }

    #[test]
    fn framer_byte_limit_matches_the_blocking_reader_boundary() {
        // A complete line of exactly `max` bytes INCLUDING the newline is
        // accepted — the same boundary the blocking take(max).read_line
        // reader had.
        let mut framer = LineFramer::new(8);
        framer.push(b"1234567\n");
        assert_eq!(framer.next_line().unwrap(), Some(&b"1234567"[..]));
        // One more byte is an overflow, even with the newline present.
        let mut framer = LineFramer::new(8);
        framer.push(b"12345678\n");
        assert_eq!(framer.next_line(), Err(LineOverflow));
        // And `max` buffered bytes with no newline overflow immediately —
        // the stream cannot be resynced.
        let mut framer = LineFramer::new(8);
        framer.push(b"1234567");
        assert_eq!(framer.next_line().unwrap(), None, "7 of 8 still waits");
        framer.push(b"8");
        assert_eq!(framer.next_line(), Err(LineOverflow));
    }

    #[test]
    fn framer_limit_applies_per_line_not_per_connection() {
        let mut framer = LineFramer::new(8);
        for _ in 0..100 {
            framer.push(b"1234567\n");
        }
        for _ in 0..100 {
            assert_eq!(framer.next_line().unwrap(), Some(&b"1234567"[..]));
            framer.compact();
        }
        assert_eq!(framer.next_line().unwrap(), None);
    }

    /// A writer that accepts a fixed quota of bytes then reports
    /// `WouldBlock` — the partial-write state machine in miniature.
    struct Throttled {
        accepted: Vec<u8>,
        quota: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.quota == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "throttled"));
            }
            let n = buf.len().min(self.quota);
            self.quota -= n;
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_drains_through_partial_writes() {
        let mut out = WriteBuf::default();
        out.push(b"hello ");
        out.push(b"world\n");
        let mut sink = Throttled {
            accepted: Vec::new(),
            quota: 4,
        };
        assert_eq!(
            out.flush_to(&mut sink).unwrap(),
            Flush::Blocked { progressed: true }
        );
        assert_eq!(out.len(), 8);
        // No quota at all: blocked without progress (the deadline is NOT
        // reset in this state).
        assert_eq!(
            out.flush_to(&mut sink).unwrap(),
            Flush::Blocked { progressed: false }
        );
        sink.quota = usize::MAX;
        assert_eq!(out.flush_to(&mut sink).unwrap(), Flush::Drained);
        assert!(out.is_empty());
        assert_eq!(sink.accepted, b"hello world\n");
    }

    #[test]
    fn conn_table_recycles_slots_with_fresh_generations() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("addr");
        let accept = move || {
            let _c = TcpStream::connect(addr).expect("connects");
            listener.accept().expect("accepts").0
        };
        let mut table = ConnTable::new();
        let now = Instant::now();
        let slot_a = table.insert(|g| Conn::new(accept(), g, 0, now));
        let slot_b = table.insert(|g| Conn::new(accept(), g, 0, now));
        let gen_a = table.get_mut(slot_a).expect("present").generation;
        assert_eq!(table.len(), 2);
        assert_ne!(slot_a, slot_b);
        assert!(table.get_generation(slot_a, gen_a).is_some());
        table.remove(slot_a).expect("present");
        assert_eq!(table.len(), 1);
        // The slot is recycled with a new generation: stale handles to the
        // old tenancy must not resolve to the new one.
        let slot_c = table.insert(|g| Conn::new(accept(), g, 0, now));
        let gen_c = table.get_mut(slot_c).expect("present").generation;
        assert_eq!(slot_c, slot_a, "slab reuses the freed slot");
        assert!(table.get_generation(slot_c, gen_a).is_none(), "stale gen");
        assert!(table.get_generation(slot_c, gen_c).is_some());
        assert_eq!(table.occupied().len(), 2);
    }
}
