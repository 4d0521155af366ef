//! Per-connection state for the event loop: a non-blocking socket with
//! explicit read/write buffers.
//!
//! The event loop owns every [`Conn`] outright — no mutexes, no
//! per-connection threads. Reads pull whatever the kernel has into
//! `rbuf` and split it into complete request lines (pipelining falls
//! out naturally: a client may write any number of frames back to
//! back). Writes go through `wbuf`: responses produced in one poll
//! iteration are appended to the buffer and flushed with as few
//! `write` calls as the kernel accepts — many ready responses for one
//! client coalesce into a single syscall/TCP segment instead of one
//! frame per write (the PR-6 small-frame inefficiency).

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// How much to ask the kernel for per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// One client connection owned by the event loop.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet split into complete lines.
    rbuf: Vec<u8>,
    /// Length of the `rbuf` prefix already searched for `\n` without a
    /// hit, so a frame arriving over many reads is scanned only once.
    scanned: usize,
    /// Rendered response bytes not yet accepted by the kernel.
    wbuf: Vec<u8>,
    /// The peer half-closed (EOF) or errored its read side.
    pub read_closed: bool,
    /// A write failed hard; the peer forfeits its remaining answers.
    pub write_dead: bool,
}

impl Conn {
    /// Wraps an accepted stream, switching it to non-blocking mode and
    /// disabling Nagle (responses are latency-sensitive single frames
    /// or already-coalesced bulks; never let the kernel sit on them).
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            read_closed: false,
            write_dead: false,
        })
    }

    /// Reads everything currently available, appending complete request
    /// lines to `lines`. Returns `true` if any bytes arrived (the poll
    /// iteration made progress). Sets `read_closed` on EOF or a hard
    /// error; a final unterminated line is still delivered, matching
    /// the blocking reader the event loop replaced.
    pub fn read_available(&mut self, lines: &mut Vec<String>) -> bool {
        if self.read_closed {
            return false;
        }
        let mut progressed = false;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.read_closed = true;
                    break;
                }
            }
        }
        self.split_lines(lines);
        if self.read_closed && !self.rbuf.is_empty() {
            // EOF with a trailing unterminated line: deliver it.
            let tail = std::mem::take(&mut self.rbuf);
            self.scanned = 0;
            lines.push(String::from_utf8_lossy(&tail).into_owned());
        }
        progressed
    }

    /// Splits complete `\n`-terminated lines out of `rbuf`.
    fn split_lines(&mut self, lines: &mut Vec<String>) {
        let mut start = 0;
        let mut from = self.scanned;
        while let Some(pos) = self.rbuf[from..].iter().position(|&b| b == b'\n') {
            let end = from + pos;
            let line = String::from_utf8_lossy(&self.rbuf[start..end]).into_owned();
            lines.push(line);
            start = end + 1;
            from = start;
        }
        if start > 0 {
            self.rbuf.drain(..start);
        }
        // Whatever is left holds no `\n`.
        self.scanned = self.rbuf.len();
    }

    /// Appends one response frame to the write buffer. Returns `true`
    /// when the frame *coalesced* — other frames were already waiting,
    /// so this one will share their write call.
    pub fn queue_frame(&mut self, frame: &str) -> bool {
        if self.write_dead {
            return false; // answers to a hung-up client are forfeit
        }
        let coalesced = !self.wbuf.is_empty();
        self.wbuf.reserve(frame.len() + 1);
        self.wbuf.extend_from_slice(frame.as_bytes());
        self.wbuf.push(b'\n');
        coalesced
    }

    /// Pushes buffered response bytes to the kernel until it pushes
    /// back (`WouldBlock`) or the buffer empties. Returns `true` if any
    /// bytes moved. Hard errors mark the connection `write_dead`
    /// (errors are swallowed, never fatal to the server — PR-4 rule).
    pub fn flush(&mut self) -> bool {
        if self.write_dead || self.wbuf.is_empty() {
            return false;
        }
        let mut written = 0;
        while written < self.wbuf.len() {
            match self.stream.write(&self.wbuf[written..]) {
                Ok(0) => {
                    self.write_dead = true;
                    break;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.write_dead = true;
                    break;
                }
            }
        }
        if written > 0 {
            self.wbuf.drain(..written);
        }
        if self.wbuf.is_empty() {
            let _ = self.stream.flush();
        }
        written > 0
    }

    /// `true` when every queued response byte has reached the kernel.
    pub fn flushed(&self) -> bool {
        self.wbuf.is_empty()
    }

    /// `true` once this connection can be dropped: the peer is done
    /// sending and either everything was delivered or delivery is
    /// impossible.
    pub fn finished(&self) -> bool {
        self.read_closed && (self.wbuf.is_empty() || self.write_dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, TcpListener};

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = TcpStream::connect(addr).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        (peer, Conn::new(accepted).expect("conn"))
    }

    /// Reads until `done` holds, for up to ~200 ms (TCP may deliver in
    /// pieces).
    fn read_until(conn: &mut Conn, lines: &mut Vec<String>, done: fn(&Conn, &[String]) -> bool) {
        for _ in 0..200 {
            conn.read_available(lines);
            if done(conn, lines) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn splits_pipelined_lines_and_keeps_partials() {
        let (mut peer, mut conn) = pair();
        peer.write_all(b"one\ntwo\nthree").expect("write");
        peer.flush().expect("flush");
        let mut lines = Vec::new();
        // Poll until both complete lines arrived (TCP may deliver in
        // pieces); the partial third must stay buffered.
        read_until(&mut conn, &mut lines, |_, lines| lines.len() >= 2);
        assert_eq!(lines, ["one", "two"]);
        assert!(!conn.read_closed);
        // Completing the line and closing delivers the rest.
        peer.write_all(b" more\nlast").expect("write");
        drop(peer);
        read_until(&mut conn, &mut lines, |c, _| c.read_closed);
        assert_eq!(lines, ["one", "two", "three more", "last"]);
        assert!(conn.read_closed);

        // Whatever the read sizes, every buffered byte is scanned once:
        // one byte per read, and a `\n` either side of a 64 KiB read.
        let one_byte: Vec<&[u8]> = b"{\"op\":\"map\"}\nnext".chunks(1).collect();
        let mut ends_in_newline = vec![b'a'; READ_CHUNK];
        ends_in_newline[READ_CHUNK - 1] = b'\n';
        for (reads, lengths) in [
            (one_byte, vec![12]),
            (vec![&ends_in_newline[..], b"b\n"], vec![READ_CHUNK - 1, 1]),
            (vec![&[b'a'; READ_CHUNK][..], b"\nb\n"], vec![READ_CHUNK, 1]),
        ] {
            let (_peer, mut conn) = pair();
            let mut lines = Vec::new();
            for bytes in reads {
                conn.rbuf.extend_from_slice(bytes);
                conn.split_lines(&mut lines);
                assert_eq!(conn.scanned, conn.rbuf.len());
            }
            assert_eq!(lines.iter().map(String::len).collect::<Vec<_>>(), lengths);
        }

        // A trailing unterminated line that was already scanned is
        // still delivered whole at EOF.
        let (peer, mut conn) = pair();
        let mut lines = Vec::new();
        conn.rbuf.extend_from_slice(b"tail");
        conn.split_lines(&mut lines);
        drop(peer);
        read_until(&mut conn, &mut lines, |c, _| c.read_closed);
        assert_eq!(lines, ["tail"]);
        assert_eq!(conn.scanned, 0);
    }

    #[test]
    fn coalesces_queued_frames_into_one_stream() {
        let (mut peer, mut conn) = pair();
        assert!(!conn.queue_frame("alpha"), "first frame starts the buffer");
        assert!(conn.queue_frame("beta"), "second frame coalesces");
        assert!(conn.queue_frame("gamma"), "third frame coalesces");
        while !conn.flushed() {
            conn.flush();
        }
        drop(conn);
        let mut got = String::new();
        peer.read_to_string(&mut got).expect("read");
        assert_eq!(got, "alpha\nbeta\ngamma\n");
    }

    #[test]
    fn finished_requires_eof_and_empty_write_buffer() {
        let (peer, mut conn) = pair();
        conn.queue_frame("pending");
        drop(peer);
        let mut lines = Vec::new();
        read_until(&mut conn, &mut lines, |c, _| c.read_closed);
        assert!(conn.read_closed);
        // Undelivered bytes hold the connection open until a flush
        // either delivers them or proves the peer gone.
        while !conn.finished() {
            conn.flush();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}
