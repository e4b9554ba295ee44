//! Deterministic in-memory sockets with epoll-style readiness — the
//! network stack stand-in for the offline build environment.
//!
//! The workspace's connection edge (`foc_servers::conn`) wants the real
//! shape of a readiness-driven server: listeners with bounded accept
//! backlogs, byte-stream sockets with bounded kernel buffers that
//! return `WouldBlock` instead of blocking, half-closed peers that
//! read as EOF, and a level-triggered `epoll_wait` that reports which
//! registered descriptors are ready. This crate provides exactly that
//! surface as a tiny user-space kernel — no host sockets, no threads,
//! no host time — so every byte movement is a pure function of the
//! call sequence. Determinism is the point: two identical call
//! sequences observe identical readiness, identical partial-write
//! splits, and identical accept orders, which is what lets the farm's
//! socket edge participate in the repository's byte-identical-report
//! contract.
//!
//! One [`NetStack`] is one isolated network namespace. The connection
//! edge gives every server process its own stack (sharded event loops,
//! the `SO_REUSEPORT` idiom), which keeps the whole stack single-owner
//! `&mut` state: no locks, trivially `Send`, and scheduler-movable.
//!
//! Descriptor slots are never reused within a stack, so a stale [`Fd`]
//! held after `close` can never alias a newer connection.

use std::collections::VecDeque;

/// A descriptor into one [`NetStack`]: a listener, a stream socket, or
/// an epoll instance. Only meaningful for the stack that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(u32);

impl Fd {
    /// The raw slot index (diagnostics only).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Which readiness directions an epoll registration watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Watch for readable readiness (data, EOF, or a pending accept).
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Watch for writable readiness (peer buffer has free space).
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Watch both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report from [`NetStack::epoll_wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    token: u64,
    readable: bool,
    writable: bool,
}

impl Event {
    /// The caller-chosen registration token.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Readable: buffered bytes, a pending accept, or EOF/reset.
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// Writable: the peer's receive buffer has free space.
    pub fn is_writable(&self) -> bool {
        self.writable
    }
}

/// Why a `connect` was not established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectError {
    /// No live listener on the port, or its accept backlog is full —
    /// both surface to a real client as connection refused.
    Refused,
}

/// What one `read` call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// `n` bytes were copied into the caller's buffer.
    Data(usize),
    /// No bytes buffered and the peer is still open.
    WouldBlock,
    /// The peer closed and every buffered byte has been drained: EOF.
    Closed,
}

/// What one `write` call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// `n` bytes were accepted into the peer's receive buffer
    /// (possibly fewer than offered — a partial write).
    Wrote(usize),
    /// The peer's receive buffer is full; nothing was accepted.
    WouldBlock,
    /// The peer endpoint is closed (`EPIPE`).
    Broken,
}

/// A stream endpoint: its receive buffer plus liveness of both ends.
struct SocketState {
    /// The peer endpoint's slot.
    peer: u32,
    /// Bytes written by the peer, awaiting `read` here.
    recv: VecDeque<u8>,
    /// This endpoint has been closed by its owner.
    local_closed: bool,
    /// The peer endpoint has been closed (reads drain then EOF,
    /// writes break).
    peer_closed: bool,
}

/// A listener: its port, backlog bound, and pending (un-accepted)
/// server-side endpoints in arrival order.
struct ListenerState {
    port: u16,
    backlog: usize,
    queue: VecDeque<u32>,
    closed: bool,
}

/// One epoll registration.
struct EpollEntry {
    fd: u32,
    interest: Interest,
    token: u64,
}

enum Node {
    Socket(SocketState),
    Listener(ListenerState),
    Epoll(Vec<EpollEntry>),
}

/// One isolated deterministic network namespace.
pub struct NetStack {
    nodes: Vec<Node>,
    /// Per-direction receive-buffer capacity in bytes (the "kernel"
    /// socket buffer size; the backpressure bound).
    capacity: usize,
}

impl NetStack {
    /// A fresh namespace whose sockets buffer at most `capacity` bytes
    /// per direction (clamped to ≥ 1 so progress is always possible).
    pub fn new(capacity: usize) -> NetStack {
        NetStack {
            nodes: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// The per-direction buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn push(&mut self, node: Node) -> Fd {
        let fd = u32::try_from(self.nodes.len()).expect("netshim descriptor space exhausted");
        self.nodes.push(node);
        Fd(fd)
    }

    fn socket(&self, fd: Fd) -> &SocketState {
        match &self.nodes[fd.0 as usize] {
            Node::Socket(s) => s,
            _ => panic!("fd {} is not a stream socket", fd.0),
        }
    }

    fn socket_mut(&mut self, fd: Fd) -> &mut SocketState {
        match &mut self.nodes[fd.0 as usize] {
            Node::Socket(s) => s,
            _ => panic!("fd {} is not a stream socket", fd.0),
        }
    }

    /// Opens a listener on `port` with the given accept backlog
    /// (clamped to ≥ 1). Connects beyond the backlog are refused — the
    /// flood-scenario bound.
    pub fn listen(&mut self, port: u16, backlog: usize) -> Fd {
        self.push(Node::Listener(ListenerState {
            port,
            backlog: backlog.max(1),
            queue: VecDeque::new(),
            closed: false,
        }))
    }

    /// Connects to `port`: creates a socket pair, queues the server
    /// endpoint on the listener, and returns the client endpoint (which
    /// may write immediately — bytes buffer ahead of the accept, as on
    /// a real accepted-but-unserviced connection).
    pub fn connect(&mut self, port: u16) -> Result<Fd, ConnectError> {
        let listener = self
            .nodes
            .iter()
            .position(|n| matches!(n, Node::Listener(l) if l.port == port && !l.closed))
            .ok_or(ConnectError::Refused)?;
        if let Node::Listener(l) = &self.nodes[listener] {
            if l.queue.len() >= l.backlog {
                return Err(ConnectError::Refused);
            }
        }
        let client = self.push(Node::Socket(SocketState {
            peer: 0, // patched below
            recv: VecDeque::new(),
            local_closed: false,
            peer_closed: false,
        }));
        let server = self.push(Node::Socket(SocketState {
            peer: client.0,
            recv: VecDeque::new(),
            local_closed: false,
            peer_closed: false,
        }));
        self.socket_mut(client).peer = server.0;
        match &mut self.nodes[listener] {
            Node::Listener(l) => l.queue.push_back(server.0),
            _ => unreachable!(),
        }
        Ok(client)
    }

    /// Pops the oldest pending connection off a listener, if any.
    pub fn accept(&mut self, listener: Fd) -> Option<Fd> {
        match &mut self.nodes[listener.0 as usize] {
            Node::Listener(l) => l.queue.pop_front().map(Fd),
            _ => panic!("fd {} is not a listener", listener.0),
        }
    }

    /// Number of connections awaiting accept.
    pub fn pending_accepts(&self, listener: Fd) -> usize {
        match &self.nodes[listener.0 as usize] {
            Node::Listener(l) => l.queue.len(),
            _ => panic!("fd {} is not a listener", listener.0),
        }
    }

    /// Closes a listener: subsequent connects are refused, and every
    /// still-queued connection is reset (its client reads EOF).
    pub fn close_listener(&mut self, listener: Fd) {
        let queued: Vec<u32> = match &mut self.nodes[listener.0 as usize] {
            Node::Listener(l) => {
                l.closed = true;
                l.queue.drain(..).collect()
            }
            _ => panic!("fd {} is not a listener", listener.0),
        };
        for fd in queued {
            self.close(Fd(fd));
        }
    }

    /// Writes as much of `bytes` as the peer's buffer accepts.
    pub fn write(&mut self, fd: Fd, bytes: &[u8]) -> WriteOutcome {
        let capacity = self.capacity;
        let (peer, local_closed, peer_closed) = {
            let s = self.socket(fd);
            (s.peer, s.local_closed, s.peer_closed)
        };
        assert!(!local_closed, "write on closed fd {}", fd.0);
        if peer_closed {
            return WriteOutcome::Broken;
        }
        let peer_recv = &mut self.socket_mut(Fd(peer)).recv;
        let free = capacity.saturating_sub(peer_recv.len());
        if free == 0 {
            return WriteOutcome::WouldBlock;
        }
        let n = free.min(bytes.len());
        peer_recv.extend(&bytes[..n]);
        WriteOutcome::Wrote(n)
    }

    /// Reads buffered bytes into `buf`.
    pub fn read(&mut self, fd: Fd, buf: &mut [u8]) -> ReadOutcome {
        let s = self.socket_mut(fd);
        assert!(!s.local_closed, "read on closed fd {}", fd.0);
        if s.recv.is_empty() {
            return if s.peer_closed {
                ReadOutcome::Closed
            } else {
                ReadOutcome::WouldBlock
            };
        }
        let n = s.recv.len().min(buf.len());
        // The ring's two halves, each copied whole.
        let (front, back) = s.recv.as_slices();
        let head = front.len().min(n);
        buf[..head].copy_from_slice(&front[..head]);
        buf[head..n].copy_from_slice(&back[..n - head]);
        s.recv.drain(..n);
        ReadOutcome::Data(n)
    }

    /// Closes a stream endpoint. The peer keeps draining already-sent
    /// bytes, then reads EOF; peer writes break immediately.
    pub fn close(&mut self, fd: Fd) {
        let peer = {
            let s = self.socket_mut(fd);
            if s.local_closed {
                return;
            }
            s.local_closed = true;
            s.recv.clear();
            s.peer
        };
        if let Node::Socket(p) = &mut self.nodes[peer as usize] {
            p.peer_closed = true;
        }
    }

    /// Whether this endpoint's owner has closed it.
    pub fn is_closed(&self, fd: Fd) -> bool {
        self.socket(fd).local_closed
    }

    /// Creates an epoll instance.
    pub fn epoll_create(&mut self) -> Fd {
        self.push(Node::Epoll(Vec::new()))
    }

    fn epoll_entries(&mut self, ep: Fd) -> &mut Vec<EpollEntry> {
        match &mut self.nodes[ep.0 as usize] {
            Node::Epoll(entries) => entries,
            _ => panic!("fd {} is not an epoll instance", ep.0),
        }
    }

    /// Registers `fd` (socket or listener) with `interest` under
    /// `token`. Registration order is the order `epoll_wait` reports
    /// ready descriptors in — the deterministic stand-in for the
    /// kernel's ready list.
    pub fn epoll_add(&mut self, ep: Fd, fd: Fd, interest: Interest, token: u64) {
        debug_assert!(
            matches!(
                self.nodes[fd.0 as usize],
                Node::Socket(_) | Node::Listener(_)
            ),
            "epoll watches sockets and listeners only"
        );
        let entries = self.epoll_entries(ep);
        debug_assert!(
            entries.iter().all(|e| e.fd != fd.0),
            "fd {} registered twice",
            fd.0
        );
        entries.push(EpollEntry {
            fd: fd.0,
            interest,
            token,
        });
    }

    /// Removes `fd`'s registration, if present.
    pub fn epoll_del(&mut self, ep: Fd, fd: Fd) {
        self.epoll_entries(ep).retain(|e| e.fd != fd.0);
    }

    /// Level-triggered poll: appends one [`Event`] per ready registered
    /// descriptor, in registration order, and returns how many fired.
    /// A socket is readable when bytes are buffered *or* its peer has
    /// closed (EOF is a readable condition, as under real epoll); a
    /// listener is readable when accepts are pending; a socket is
    /// writable when the peer buffer has free space. Closed-by-owner
    /// descriptors never fire (the owner already knows).
    pub fn epoll_wait(&mut self, ep: Fd, events: &mut Vec<Event>) -> usize {
        let Node::Epoll(entries) = &self.nodes[ep.0 as usize] else {
            panic!("fd {} is not an epoll instance", ep.0);
        };
        let mut fired = 0;
        for &EpollEntry {
            fd,
            interest,
            token,
        } in entries
        {
            let (mut readable, mut writable) = match &self.nodes[fd as usize] {
                Node::Listener(l) => (!l.queue.is_empty(), false),
                Node::Socket(s) => {
                    if s.local_closed {
                        (false, false)
                    } else {
                        let can_write = !s.peer_closed && {
                            let peer = match &self.nodes[s.peer as usize] {
                                Node::Socket(p) => p,
                                _ => unreachable!("socket peers are sockets"),
                            };
                            peer.recv.len() < self.capacity
                        };
                        (!s.recv.is_empty() || s.peer_closed, can_write)
                    }
                }
                Node::Epoll(_) => (false, false),
            };
            readable &= interest.readable;
            writable &= interest.writable;
            if readable || writable {
                events.push(Event {
                    token,
                    readable,
                    writable,
                });
                fired += 1;
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(net: &mut NetStack) -> (Fd, Fd) {
        let listener = net.listen(80, 4);
        let client = net.connect(80).expect("listener is live");
        let server = net.accept(listener).expect("connect queued an accept");
        (client, server)
    }

    #[test]
    fn bytes_round_trip_through_a_socket_pair() {
        let mut net = NetStack::new(64);
        let (client, server) = pair(&mut net);
        assert_eq!(net.write(client, b"hello"), WriteOutcome::Wrote(5));
        let mut buf = [0u8; 16];
        assert_eq!(net.read(server, &mut buf), ReadOutcome::Data(5));
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(net.read(server, &mut buf), ReadOutcome::WouldBlock);
    }

    #[test]
    fn bounded_buffers_split_writes_and_block_when_full() {
        let mut net = NetStack::new(4);
        let (client, server) = pair(&mut net);
        assert_eq!(net.write(client, b"abcdef"), WriteOutcome::Wrote(4));
        assert_eq!(net.write(client, b"ef"), WriteOutcome::WouldBlock);
        let mut buf = [0u8; 2];
        assert_eq!(net.read(server, &mut buf), ReadOutcome::Data(2));
        assert_eq!(&buf, b"ab");
        // Draining frees capacity: the retry now accepts the tail.
        assert_eq!(net.write(client, b"ef"), WriteOutcome::Wrote(2));
    }

    #[test]
    fn reads_across_the_ring_buffers_wrap_point_keep_byte_order() {
        let mut net = NetStack::new(8);
        let (client, server) = pair(&mut net);
        let mut wrapped = 0;
        for shift in 1..8 {
            // Fill the ring, free its first `shift` bytes, refill them:
            // the refill lands past the ring's end.
            let mut buf = [0u8; 8];
            assert_eq!(net.write(client, b"abcdefgh"), WriteOutcome::Wrote(8));
            assert_eq!(
                net.read(server, &mut buf[..shift]),
                ReadOutcome::Data(shift)
            );
            assert_eq!(
                net.write(client, &b"ABCDEFGH"[..shift]),
                WriteOutcome::Wrote(shift)
            );
            if !net.socket(server).recv.as_slices().1.is_empty() {
                wrapped += 1;
            }
            // One read ends mid-ring, the next takes the rest.
            assert_eq!(net.read(server, &mut buf[..5]), ReadOutcome::Data(5));
            assert_eq!(net.read(server, &mut buf[5..]), ReadOutcome::Data(3));
            let expected = [&b"abcdefgh"[shift..], &b"ABCDEFGH"[..shift]].concat();
            assert_eq!(buf[..], expected, "head moved by {shift}");
        }
        assert!(wrapped > 0, "no refill wrapped the ring");
    }

    #[test]
    fn backlog_bounds_pending_accepts() {
        let mut net = NetStack::new(8);
        let listener = net.listen(80, 2);
        assert!(net.connect(80).is_ok());
        assert!(net.connect(80).is_ok());
        assert_eq!(net.connect(80), Err(ConnectError::Refused));
        assert_eq!(net.pending_accepts(listener), 2);
        net.accept(listener).unwrap();
        assert!(net.connect(80).is_ok(), "accept frees a backlog slot");
        assert_eq!(net.connect(9999), Err(ConnectError::Refused));
    }

    #[test]
    fn close_drains_then_eofs_and_breaks_peer_writes() {
        let mut net = NetStack::new(16);
        let (client, server) = pair(&mut net);
        assert_eq!(net.write(client, b"bye"), WriteOutcome::Wrote(3));
        net.close(client);
        let mut buf = [0u8; 8];
        // In-flight bytes survive the close, then EOF.
        assert_eq!(net.read(server, &mut buf), ReadOutcome::Data(3));
        assert_eq!(net.read(server, &mut buf), ReadOutcome::Closed);
        assert_eq!(net.write(server, b"x"), WriteOutcome::Broken);
        // Closing twice is a no-op.
        net.close(client);
    }

    #[test]
    fn closed_listener_refuses_and_resets_its_queue() {
        let mut net = NetStack::new(8);
        let listener = net.listen(80, 4);
        let queued = net.connect(80).unwrap();
        net.close_listener(listener);
        assert_eq!(net.connect(80), Err(ConnectError::Refused));
        let mut buf = [0u8; 1];
        assert_eq!(net.read(queued, &mut buf), ReadOutcome::Closed);
    }

    #[test]
    fn epoll_reports_level_triggered_readiness_in_registration_order() {
        let mut net = NetStack::new(4);
        let listener = net.listen(80, 4);
        let client = net.connect(80).unwrap();
        let server = net.accept(listener).unwrap();
        let ep = net.epoll_create();
        net.epoll_add(ep, listener, Interest::READABLE, 1);
        net.epoll_add(ep, server, Interest::READABLE, 2);
        net.epoll_add(ep, client, Interest::BOTH, 3);
        let mut events = Vec::new();
        // Nothing pending: only the client's writable side fires.
        assert_eq!(net.epoll_wait(ep, &mut events), 1);
        assert_eq!((events[0].token(), events[0].is_writable()), (3, true));
        // A second connect + a client write: listener and server fire
        // too, in registration order, and (level-triggered) keep firing
        // until the condition clears.
        net.connect(80).unwrap();
        net.write(client, b"hihi").unwrap_wrote();
        for _ in 0..2 {
            events.clear();
            assert_eq!(net.epoll_wait(ep, &mut events), 2);
            assert_eq!(events[0].token(), 1);
            assert!(events[0].is_readable());
            assert_eq!(events[1].token(), 2);
            assert!(events[1].is_readable());
            // Buffer full: the client's writable edge is gone.
        }
        net.epoll_del(ep, listener);
        events.clear();
        assert_eq!(net.epoll_wait(ep, &mut events), 1);
        assert_eq!(events[0].token(), 2);
    }

    #[test]
    fn eof_is_a_readable_condition() {
        let mut net = NetStack::new(8);
        let (client, server) = pair(&mut net);
        let ep = net.epoll_create();
        net.epoll_add(ep, server, Interest::READABLE, 7);
        net.close(client);
        let mut events = Vec::new();
        assert_eq!(net.epoll_wait(ep, &mut events), 1);
        assert!(events[0].is_readable(), "EOF must wake the reader");
    }

    impl WriteOutcome {
        fn unwrap_wrote(self) -> usize {
            match self {
                WriteOutcome::Wrote(n) => n,
                other => panic!("expected Wrote, got {other:?}"),
            }
        }
    }
}
