//! The connection edge: serving the farm over simulated sockets.
//!
//! The farm's historical request path is a function call — the driver
//! generates a request and applies it to the guest process in the same
//! stack frame. This module puts a network edge in between: each farm
//! server owns a [`ConnSession`] holding its own deterministic
//! in-memory network stack ([`netshim`]), a listening socket, and a
//! pool of client connections. Requests are framed onto the wire,
//! carried through bounded kernel-style socket buffers under an
//! epoll-style readiness loop (partial writes, level-triggered events,
//! fair progress), decoded on the server side of the boundary, applied
//! to the guest, and answered with a framed response the client decodes
//! and verifies. Per-server stacks keep every session single-owner
//! (`&mut`, no locks, `Send`), so the work-stealing scheduler moves
//! socket-backed servers between threads exactly like in-process ones —
//! the SO_REUSEPORT sharding idiom, one event loop per server.
//!
//! **Byte-identity contract.** The edge is a *transport* axis, never a
//! content axis. The request generator draws the same rng stream in the
//! same order on both edges, the server applies the *decoded* frame
//! (wire-authoritative), and the workload is closed-loop — one logical
//! request in flight per server, the next generated only after this
//! one's outcome is observed — so connection interleaving, drip
//! schedules, and mid-frame disconnects can reorder *bytes* but never
//! *decisions*. `FarmReport`s across edges therefore compare equal, and
//! the transcript batteries in `tests/conn_equiv.rs` assert it.
//!
//! **Adversarial scenarios.** [`Scenario`] injects transport abuse the
//! framing layer must shrug off: slow-loris drips (a few bytes per
//! event-loop turn), mid-request disconnects with retransmission on a
//! fresh connection (the server discards the half-assembled frame at
//! EOF), and accept-queue floods (idle connections piling onto the
//! listener past its backlog, the excess refused).

use netshim::{ConnectError, Fd, Interest, NetStack, ReadOutcome, WriteOutcome};

use crate::farm::{Bytes, Links, Request, Server};
use crate::image::ServerKind;
use crate::latency::LatencyHist;
use crate::{Measured, Outcome};

/// How requests reach a farm server.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Edge {
    /// Generate and apply in the same stack frame (the historical fast
    /// path, and the default).
    #[default]
    InProcess,
    /// Frame every request over the simulated socket layer.
    Socket(SocketEdge),
}

impl Edge {
    /// Stable label for reports and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Edge::InProcess => "in-process",
            Edge::Socket(s) => match s.scenario {
                Scenario::Clean if s.flood > 0 => "socket-flood",
                Scenario::Clean => "socket",
                Scenario::SlowLoris { .. } => "socket-slow-loris",
                Scenario::Disconnect { .. } => "socket-disconnect",
            },
        }
    }
}

/// Shape of one server's socket session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocketEdge {
    /// Client connections in the session pool; the request stream
    /// round-robins across them (clamped to ≥ 1).
    pub connections: usize,
    /// Listener accept-queue depth (clamped to ≥ 1).
    pub backlog: usize,
    /// Extra flood connections opened at session start: accepted ones
    /// sit idle on the event loop, the overflow past `backlog` is
    /// refused.
    pub flood: usize,
    /// Transport abuse to inject.
    pub scenario: Scenario,
}

impl Default for SocketEdge {
    fn default() -> SocketEdge {
        SocketEdge {
            connections: 4,
            backlog: 8,
            flood: 0,
            scenario: Scenario::Clean,
        }
    }
}

/// Transport-level adversarial behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Whole-frame writes, no abuse.
    Clean,
    /// Slow-loris: the client writes at most `chunk` bytes per
    /// event-loop turn, so every frame arrives as a long drip of
    /// partial reads.
    SlowLoris {
        /// Bytes per drip (clamped to ≥ 1).
        chunk: usize,
    },
    /// Every `every`-th request first disconnects mid-frame: half the
    /// frame is sent, the connection drops, the server discards the
    /// partial at EOF, and the full frame is retransmitted on a fresh
    /// connection.
    Disconnect {
        /// Disconnect period in requests (clamped to ≥ 1).
        every: u32,
    },
}

/// Transport counters for one session (unit-test and smoke-check
/// surface; the farm's measured data never includes them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Requests carried over the wire.
    pub requests: u64,
    /// Request frames the server side fully assembled and applied.
    pub frames: u64,
    /// Client→server bytes written.
    pub bytes_tx: u64,
    /// Server→client bytes the client read back.
    pub bytes_rx: u64,
    /// Connections established (pool + accepted flood + reconnects).
    pub connected: u64,
    /// Connections refused (flood overflow past the backlog, and every
    /// attempt against a torn-down listener).
    pub refused: u64,
    /// Mid-frame disconnects injected by [`Scenario::Disconnect`].
    pub disconnects: u64,
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

const REQ_MAGIC: u8 = 0xFC;
const RESP_MAGIC: u8 = 0xFD;
/// Request header: magic, kind, op, seq u32, body_len u32.
const REQ_HEADER: usize = 11;
/// Response header: magic, status, seq u32, ret i64, cycles u64,
/// payload_len u32.
const RESP_HEADER: usize = 26;
const STATUS_DONE: u8 = 0;
const STATUS_CRASHED: u8 = 1;

/// Per-socket kernel buffer, deliberately small so realistic frames
/// (Pine deliveries run past 300 bytes) need several readiness turns.
const BUFFER_BYTES: usize = 256;
/// Event-loop turns a single transaction may take without completing
/// before the session declares itself stalled (a framing bug, never
/// data-dependent: the drip floor is 1 byte per turn).
const STALL_TURNS: u32 = 1 << 20;
/// First free port of the per-kind listener range.
const PORT_BASE: u16 = 7000;
const LISTENER_TOKEN: u64 = u64::MAX;
/// Tokens at and above this belong to idle flood connections.
const FLOOD_TOKEN_BASE: u64 = 1 << 32;

fn push_field(body: &mut Vec<u8>, bytes: &[u8]) {
    body.extend_from_slice(&(u32::try_from(bytes.len()).expect("field fits u32")).to_le_bytes());
    body.extend_from_slice(bytes);
}

fn push_index(body: &mut Vec<u8>, index: i64) {
    push_field(body, &index.to_le_bytes());
}

fn op_and_body(request: &Request) -> (u8, Vec<u8>) {
    let mut body = Vec::new();
    let op = match request {
        Request::ApacheGet { path } => {
            push_field(&mut body, path);
            0
        }
        Request::SendmailReceive { from, to, body: b } => {
            push_field(&mut body, from);
            push_field(&mut body, to);
            push_field(&mut body, b);
            0
        }
        Request::SendmailSend { to, body: b } => {
            push_field(&mut body, to);
            push_field(&mut body, b);
            1
        }
        Request::SendmailWakeup => 2,
        Request::SendmailMailFrom { from } => {
            push_field(&mut body, from);
            3
        }
        Request::PineDeliver {
            from,
            subject,
            body: b,
        } => {
            push_field(&mut body, from);
            push_field(&mut body, subject);
            push_field(&mut body, b);
            0
        }
        Request::PineRead { index } => {
            push_index(&mut body, *index);
            1
        }
        Request::PineCompose => 2,
        Request::PineMove { index } => {
            push_index(&mut body, *index);
            3
        }
        Request::MuttOpenFolder { name } => {
            push_field(&mut body, name);
            0
        }
        Request::MuttRead { index } => {
            push_index(&mut body, *index);
            1
        }
        Request::McCopy { src, dst } => {
            push_field(&mut body, src);
            push_field(&mut body, dst);
            0
        }
        Request::McMkdir { path } => {
            push_field(&mut body, path);
            1
        }
        Request::McComponentEnd { name } => {
            push_field(&mut body, name);
            2
        }
        Request::McDelete { path } => {
            push_field(&mut body, path);
            3
        }
        Request::McOpenArchive { links } => {
            for link in links.iter() {
                push_field(&mut body, link);
            }
            4
        }
    };
    (op, body)
}

/// Frames one request for the wire.
fn encode_request(kind: ServerKind, seq: u32, request: &Request) -> Vec<u8> {
    let (op, body) = op_and_body(request);
    let mut frame = Vec::with_capacity(REQ_HEADER + body.len());
    frame.push(REQ_MAGIC);
    frame.push(kind.index() as u8);
    frame.push(op);
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&(u32::try_from(body.len()).expect("body fits u32")).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

/// Splits one length-prefixed field off the front of `body`.
fn take_field<'a>(body: &mut &'a [u8]) -> Option<&'a [u8]> {
    if body.len() < 4 {
        return None;
    }
    let len = read_u32(body, 0) as usize;
    if body.len() < 4 + len {
        return None;
    }
    let field = &body[4..4 + len];
    *body = &body[4 + len..];
    Some(field)
}

fn take_owned(body: &mut &[u8]) -> Option<Bytes> {
    take_field(body).map(|f| Bytes::Owned(f.to_vec()))
}

fn take_index(body: &mut &[u8]) -> Option<i64> {
    let field = take_field(body)?;
    Some(i64::from_le_bytes(field.try_into().ok()?))
}

/// Decodes one complete request frame off the front of `buf`, returning
/// the frame's sequence number, the request, and the bytes consumed —
/// or `None` while the frame is still partial.
///
/// # Panics
///
/// Panics on a corrupt frame (bad magic, kind mismatch, unknown opcode,
/// malformed body): the only writer is this module's own encoder, so
/// corruption is a transport bug, not input.
fn decode_request(kind: ServerKind, buf: &[u8]) -> Option<(u32, Request, usize)> {
    if buf.len() < REQ_HEADER {
        return None;
    }
    assert_eq!(buf[0], REQ_MAGIC, "request frame magic");
    assert_eq!(buf[1] as usize, kind.index(), "request frame kind");
    let op = buf[2];
    let seq = read_u32(buf, 3);
    let body_len = read_u32(buf, 7) as usize;
    if buf.len() < REQ_HEADER + body_len {
        return None;
    }
    let mut body = &buf[REQ_HEADER..REQ_HEADER + body_len];
    let fields = &mut body;
    let request = match (kind, op) {
        (ServerKind::Apache, 0) => Request::ApacheGet {
            path: take_owned(fields).expect("apache get path"),
        },
        (ServerKind::Sendmail, 0) => Request::SendmailReceive {
            from: take_owned(fields).expect("receive from"),
            to: take_owned(fields).expect("receive to"),
            body: take_owned(fields).expect("receive body"),
        },
        (ServerKind::Sendmail, 1) => Request::SendmailSend {
            to: take_owned(fields).expect("send to"),
            body: take_owned(fields).expect("send body"),
        },
        (ServerKind::Sendmail, 2) => Request::SendmailWakeup,
        (ServerKind::Sendmail, 3) => Request::SendmailMailFrom {
            from: take_owned(fields).expect("mail-from address"),
        },
        (ServerKind::Pine, 0) => Request::PineDeliver {
            from: take_owned(fields).expect("deliver from"),
            subject: take_owned(fields).expect("deliver subject"),
            body: take_owned(fields).expect("deliver body"),
        },
        (ServerKind::Pine, 1) => Request::PineRead {
            index: take_index(fields).expect("read index"),
        },
        (ServerKind::Pine, 2) => Request::PineCompose,
        (ServerKind::Pine, 3) => Request::PineMove {
            index: take_index(fields).expect("move index"),
        },
        (ServerKind::Mutt, 0) => Request::MuttOpenFolder {
            name: take_owned(fields).expect("folder name"),
        },
        (ServerKind::Mutt, 1) => Request::MuttRead {
            index: take_index(fields).expect("read index"),
        },
        (ServerKind::Mc, 0) => Request::McCopy {
            src: take_owned(fields).expect("copy src"),
            dst: take_owned(fields).expect("copy dst"),
        },
        (ServerKind::Mc, 1) => Request::McMkdir {
            path: take_owned(fields).expect("mkdir path"),
        },
        (ServerKind::Mc, 2) => Request::McComponentEnd {
            name: take_owned(fields).expect("component name"),
        },
        (ServerKind::Mc, 3) => Request::McDelete {
            path: take_owned(fields).expect("delete path"),
        },
        (ServerKind::Mc, 4) => {
            let mut links = Vec::new();
            while !fields.is_empty() {
                links.push(take_field(fields).expect("archive link").to_vec());
            }
            Request::McOpenArchive {
                links: Links::Owned(links),
            }
        }
        (kind, op) => panic!("unknown opcode {op} for {}", kind.name()),
    };
    assert!(fields.is_empty(), "request body has trailing bytes");
    Some((seq, request, REQ_HEADER + body_len))
}

/// Frames one measured outcome as the response to frame `seq`.
fn encode_response(seq: u32, measured: &Measured) -> Vec<u8> {
    // A crashed response carries the fault rendering, so the client
    // sees *why* the connection's request died without reconstructing
    // the fault type from the wire.
    let crash_text;
    let (status, ret, payload): (u8, i64, &[u8]) = match &measured.outcome {
        Outcome::Done { ret, output } => (STATUS_DONE, *ret, output),
        Outcome::Crashed(fault) => {
            crash_text = fault.to_string();
            (STATUS_CRASHED, 0, crash_text.as_bytes())
        }
    };
    let mut frame = Vec::with_capacity(RESP_HEADER + payload.len());
    frame.push(RESP_MAGIC);
    frame.push(status);
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&ret.to_le_bytes());
    frame.extend_from_slice(&measured.cycles.to_le_bytes());
    frame.extend_from_slice(
        &(u32::try_from(payload.len()).expect("payload fits u32")).to_le_bytes(),
    );
    frame.extend_from_slice(payload);
    frame
}

/// A decoded response frame.
struct Response {
    seq: u32,
    status: u8,
    ret: i64,
    cycles: u64,
    payload: Vec<u8>,
}

/// Decodes one complete response frame off the front of `buf`, or
/// `None` while partial.
fn decode_response(buf: &[u8]) -> Option<(Response, usize)> {
    if buf.len() < RESP_HEADER {
        return None;
    }
    assert_eq!(buf[0], RESP_MAGIC, "response frame magic");
    let payload_len = read_u32(buf, 22) as usize;
    if buf.len() < RESP_HEADER + payload_len {
        return None;
    }
    Some((
        Response {
            status: buf[1],
            seq: read_u32(buf, 2),
            ret: i64::from_le_bytes(buf[6..14].try_into().unwrap()),
            cycles: u64::from_le_bytes(buf[14..22].try_into().unwrap()),
            payload: buf[RESP_HEADER..RESP_HEADER + payload_len].to_vec(),
        },
        RESP_HEADER + payload_len,
    ))
}

/// Checks the client-decoded response against the server's
/// authoritative measurement — the wire must not have lied.
fn verify_response(resp: &Response, measured: &Measured) {
    assert_eq!(resp.cycles, measured.cycles, "response cycle count");
    match &measured.outcome {
        Outcome::Done { ret, output } => {
            assert_eq!(resp.status, STATUS_DONE, "response status");
            assert_eq!(resp.ret, *ret, "response return value");
            assert_eq!(resp.payload, *output, "response payload");
        }
        Outcome::Crashed(fault) => {
            assert_eq!(resp.status, STATUS_CRASHED, "response status");
            assert_eq!(resp.ret, 0, "crashed responses carry no return value");
            assert_eq!(
                resp.payload,
                fault.to_string().as_bytes(),
                "response fault rendering"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The session.
// ---------------------------------------------------------------------

/// One pooled connection: client and server halves plus the partial-
/// frame state each side of the boundary keeps.
struct Conn {
    client: Fd,
    server: Fd,
    /// Server-side request bytes not yet forming a complete frame.
    inbound: Vec<u8>,
    /// Server-side response bytes queued behind a full socket buffer.
    outbound: Vec<u8>,
    out_sent: usize,
    /// Whether the server half is registered for write readiness (only
    /// while `outbound` has unsent bytes — level-triggered writable
    /// events on idle sockets would dominate every wait otherwise).
    write_armed: bool,
    /// Client-side response bytes not yet forming a complete frame.
    reply: Vec<u8>,
}

impl Conn {
    fn new(client: Fd, server: Fd) -> Conn {
        Conn {
            client,
            server,
            inbound: Vec::new(),
            outbound: Vec::new(),
            out_sent: 0,
            write_armed: false,
            reply: Vec::new(),
        }
    }
}

/// One farm server's socket session: its private network stack, its
/// listener, its accepted connection pool, and the readiness loop that
/// moves frames across. Single-owner and lock-free — the work-stealing
/// scheduler moves whole sessions between threads.
pub(crate) struct ConnSession {
    kind: ServerKind,
    port: u16,
    scenario: Scenario,
    net: NetStack,
    /// `None` after [`ConnSession::refused`] tore the edge down.
    listener: Option<Fd>,
    epoll: Fd,
    conns: Vec<Conn>,
    /// Accepted flood connections (idle; registered so the ready-list
    /// has to skip past them fairly) and their held client halves.
    flood_fds: Vec<Fd>,
    /// Round-robin cursor over the pool.
    cursor: usize,
    seq: u32,
    stats: ConnStats,
    events: Vec<netshim::Event>,
}

impl ConnSession {
    /// Opens a session for one server of `kind`: listener, epoll set,
    /// `edge.connections` accepted pool connections, plus the flood
    /// extras (accepted up to the backlog, refused past it).
    pub(crate) fn new(kind: ServerKind, edge: &SocketEdge) -> ConnSession {
        let pool = edge.connections.max(1);
        let port = PORT_BASE + kind.index() as u16;
        let mut net = NetStack::new(BUFFER_BYTES);
        let listener = net.listen(port, edge.backlog.max(1));
        let epoll = net.epoll_create();
        net.epoll_add(epoll, listener, Interest::READABLE, LISTENER_TOKEN);
        let mut stats = ConnStats::default();
        let mut conns = Vec::with_capacity(pool);
        for i in 0..pool {
            let client = net
                .connect(port)
                .expect("listener accepts the session pool");
            let server = net.accept(listener).expect("pool connect was queued");
            net.epoll_add(epoll, server, Interest::READABLE, (i as u64) * 2);
            net.epoll_add(epoll, client, Interest::READABLE, (i as u64) * 2 + 1);
            stats.connected += 1;
            conns.push(Conn::new(client, server));
        }
        // Flood: pile connects onto the accept queue before draining it
        // once, so everything past the backlog is genuinely refused.
        let mut flood_fds = Vec::new();
        for _ in 0..edge.flood {
            match net.connect(port) {
                Ok(client) => {
                    stats.connected += 1;
                    flood_fds.push(client);
                }
                Err(ConnectError::Refused) => stats.refused += 1,
            }
        }
        let mut token = FLOOD_TOKEN_BASE;
        while let Some(server) = net.accept(listener) {
            net.epoll_add(epoll, server, Interest::READABLE, token);
            token += 1;
            flood_fds.push(server);
        }
        ConnSession {
            kind,
            port,
            scenario: edge.scenario,
            net,
            listener: Some(listener),
            epoll,
            conns,
            flood_fds,
            cursor: 0,
            seq: 0,
            stats,
            events: Vec::new(),
        }
    }

    /// Transport counters so far.
    #[cfg(test)]
    fn stats(&self) -> ConnStats {
        self.stats
    }

    /// Carries one request over the wire and returns the server's
    /// authoritative measurement (the client-decoded response is
    /// verified against it). Closed-loop: the call does not return
    /// until the response frame is fully read back.
    pub(crate) fn transact(&mut self, request: &Request, process: &mut Server) -> Measured {
        debug_assert_eq!(
            request.kind(),
            self.kind,
            "request kind matches the session"
        );
        assert!(
            self.listener.is_some(),
            "transact on a torn-down session (server was declared down)"
        );
        let slot = self.cursor;
        self.cursor = (self.cursor + 1) % self.conns.len();
        let seq = self.seq;
        self.seq = self.seq.wrapping_add(1);
        self.stats.requests += 1;
        let frame = encode_request(self.kind, seq, request);

        if let Scenario::Disconnect { every } = self.scenario {
            if self.stats.requests.is_multiple_of(u64::from(every.max(1)))
                && frame.len() > REQ_HEADER
            {
                self.drop_mid_frame(slot, &frame[..frame.len() / 2]);
            }
        }

        let mut sent = 0usize;
        let mut measured: Option<Measured> = None;
        let mut turns = 0u32;
        loop {
            // Client side: push request bytes (dripped under slow-loris,
            // cut short by a full peer buffer — backpressure).
            if sent < frame.len() {
                let budget = match self.scenario {
                    Scenario::SlowLoris { chunk } => chunk.max(1),
                    _ => frame.len(),
                };
                let upto = frame.len().min(sent + budget);
                match self.net.write(self.conns[slot].client, &frame[sent..upto]) {
                    WriteOutcome::Wrote(n) => {
                        sent += n;
                        self.stats.bytes_tx += n as u64;
                    }
                    WriteOutcome::WouldBlock => {}
                    WriteOutcome::Broken => panic!("pool connection broke mid-request"),
                }
            }

            // One readiness turn: act only on what the event loop says
            // is ready. The pool's idle connections and the flood
            // extras never fire (no pending bytes), so the ready list
            // stays proportional to actual work.
            let mut events = std::mem::take(&mut self.events);
            self.net.epoll_wait(self.epoll, &mut events);
            for &ev in &events {
                let token = ev.token();
                if token == LISTENER_TOKEN || token >= FLOOD_TOKEN_BASE {
                    continue;
                }
                let ev_slot = (token / 2) as usize;
                debug_assert_eq!(ev_slot, slot, "only the active connection moves bytes");
                if token.is_multiple_of(2) {
                    if ev.is_readable() {
                        self.server_read(ev_slot, seq, request, process, &mut measured);
                    }
                    if ev.is_writable() {
                        self.server_flush(ev_slot);
                    }
                } else if ev.is_readable() {
                    self.client_read(ev_slot);
                }
            }
            events.clear();
            self.events = events;

            if let Some((resp, consumed)) = decode_response(&self.conns[slot].reply) {
                self.conns[slot].reply.drain(..consumed);
                debug_assert!(
                    self.conns[slot].reply.is_empty(),
                    "one response per request"
                );
                let measured = measured
                    .take()
                    .expect("response frame before the request was served");
                assert_eq!(resp.seq, seq, "closed-loop responses answer in order");
                verify_response(&resp, &measured);
                self.stats.frames += 1;
                return measured;
            }

            turns += 1;
            assert!(turns < STALL_TURNS, "connection edge stalled mid-request");
        }
    }

    /// Registers that the farm refused this server's connection (down,
    /// restart budget exhausted). The first refusal tears the edge
    /// down — pool closed, listener gone — and every later one proves
    /// the dead listener still refuses connects. Idempotent.
    pub(crate) fn refused(&mut self) {
        self.stats.refused += 1;
        if let Some(listener) = self.listener.take() {
            for slot in 0..self.conns.len() {
                let (client, server) = (self.conns[slot].client, self.conns[slot].server);
                self.net.epoll_del(self.epoll, client);
                self.net.epoll_del(self.epoll, server);
                self.net.close(client);
                self.net.close(server);
            }
            for &fd in &self.flood_fds {
                self.net.close(fd);
            }
            self.net.close_listener(listener);
        } else {
            let attempt = self.net.connect(self.port);
            assert!(
                matches!(attempt, Err(ConnectError::Refused)),
                "a torn-down listener must refuse connects"
            );
        }
    }

    /// Drains the server half of `slot` into its partial-frame buffer.
    /// Returns `true` when the peer has hung up.
    fn drain_server(&mut self, slot: usize) -> bool {
        let server = self.conns[slot].server;
        let mut buf = [0u8; BUFFER_BYTES];
        loop {
            match self.net.read(server, &mut buf) {
                ReadOutcome::Data(n) => self.conns[slot].inbound.extend_from_slice(&buf[..n]),
                ReadOutcome::WouldBlock => return false,
                ReadOutcome::Closed => return true,
            }
        }
    }

    /// Server-side readable: assemble frames, apply each decoded
    /// request to the guest, queue and start flushing the response.
    fn server_read(
        &mut self,
        slot: usize,
        seq: u32,
        expected: &Request,
        process: &mut Server,
        measured: &mut Option<Measured>,
    ) {
        self.drain_server(slot);
        while let Some((frame_seq, decoded, consumed)) =
            decode_request(self.kind, &self.conns[slot].inbound)
        {
            self.conns[slot].inbound.drain(..consumed);
            assert_eq!(frame_seq, seq, "closed-loop requests arrive in order");
            // Wire-authoritative: the server applies what the frame
            // says, and the frame must say what the generator meant.
            debug_assert_eq!(
                &decoded, expected,
                "decoded frame matches the generated request"
            );
            let m = decoded.apply(process);
            let response = encode_response(frame_seq, &m);
            let conn = &mut self.conns[slot];
            conn.outbound = response;
            conn.out_sent = 0;
            *measured = Some(m);
            self.server_flush(slot);
        }
    }

    /// Pushes queued response bytes; arms write readiness while the
    /// client's buffer is full and disarms once drained.
    fn server_flush(&mut self, slot: usize) {
        loop {
            let (server, pending_from) = {
                let conn = &self.conns[slot];
                if conn.out_sent >= conn.outbound.len() {
                    if conn.write_armed {
                        let token = (slot as u64) * 2;
                        self.net.epoll_del(self.epoll, conn.server);
                        self.net
                            .epoll_add(self.epoll, conn.server, Interest::READABLE, token);
                        self.conns[slot].write_armed = false;
                    }
                    self.conns[slot].outbound.clear();
                    self.conns[slot].out_sent = 0;
                    return;
                }
                (conn.server, conn.out_sent)
            };
            let outbound = std::mem::take(&mut self.conns[slot].outbound);
            let outcome = self.net.write(server, &outbound[pending_from..]);
            self.conns[slot].outbound = outbound;
            match outcome {
                WriteOutcome::Wrote(n) => self.conns[slot].out_sent += n,
                WriteOutcome::WouldBlock => {
                    if !self.conns[slot].write_armed {
                        let token = (slot as u64) * 2;
                        self.net.epoll_del(self.epoll, server);
                        self.net
                            .epoll_add(self.epoll, server, Interest::BOTH, token);
                        self.conns[slot].write_armed = true;
                    }
                    return;
                }
                WriteOutcome::Broken => panic!("client hung up mid-response"),
            }
        }
    }

    /// Client-side readable: accumulate response bytes.
    fn client_read(&mut self, slot: usize) {
        let client = self.conns[slot].client;
        let mut buf = [0u8; BUFFER_BYTES];
        loop {
            match self.net.read(client, &mut buf) {
                ReadOutcome::Data(n) => {
                    self.conns[slot].reply.extend_from_slice(&buf[..n]);
                    self.stats.bytes_rx += n as u64;
                }
                ReadOutcome::WouldBlock => return,
                ReadOutcome::Closed => panic!("server hung up mid-response"),
            }
        }
    }

    /// The mid-request disconnect: send `prefix` (a strict partial
    /// frame), drop the client, let the server observe EOF under the
    /// half-assembled frame and discard it, then reconnect the slot so
    /// the caller can retransmit in full.
    fn drop_mid_frame(&mut self, slot: usize, prefix: &[u8]) {
        debug_assert!(!prefix.is_empty());
        let client = self.conns[slot].client;
        let mut sent = 0usize;
        let mut turns = 0u32;
        while sent < prefix.len() {
            match self.net.write(client, &prefix[sent..]) {
                WriteOutcome::Wrote(n) => {
                    sent += n;
                    self.stats.bytes_tx += n as u64;
                }
                WriteOutcome::WouldBlock => {}
                WriteOutcome::Broken => panic!("pool connection broke while dripping"),
            }
            self.drain_server(slot);
            turns += 1;
            assert!(turns < STALL_TURNS, "mid-frame drip stalled");
        }
        self.net.close(client);
        let closed = self.drain_server(slot);
        debug_assert!(closed, "server must observe the disconnect EOF");
        debug_assert!(
            decode_request(self.kind, &self.conns[slot].inbound).is_none(),
            "a half frame must never decode"
        );
        self.reset_slot(slot);
        self.stats.disconnects += 1;
    }

    /// Tears down and reconnects one pool slot, discarding any partial
    /// frame state on either side.
    fn reset_slot(&mut self, slot: usize) {
        let (old_client, old_server) = (self.conns[slot].client, self.conns[slot].server);
        self.net.epoll_del(self.epoll, old_client);
        self.net.epoll_del(self.epoll, old_server);
        self.net.close(old_client);
        self.net.close(old_server);
        let listener = self.listener.expect("reconnect requires a live listener");
        let client = self
            .net
            .connect(self.port)
            .expect("listener accepts reconnects");
        let server = self.net.accept(listener).expect("reconnect was queued");
        self.net
            .epoll_add(self.epoll, server, Interest::READABLE, (slot as u64) * 2);
        self.net.epoll_add(
            self.epoll,
            client,
            Interest::READABLE,
            (slot as u64) * 2 + 1,
        );
        let conn = &mut self.conns[slot];
        conn.client = client;
        conn.server = server;
        conn.inbound.clear();
        conn.outbound.clear();
        conn.out_sent = 0;
        conn.write_armed = false;
        conn.reply.clear();
        self.stats.connected += 1;
    }
}

// ---------------------------------------------------------------------
// Connection-level SLO accounting.
// ---------------------------------------------------------------------

/// Basis points (1/100 of a percent, 0..=10000) of recorded latencies
/// within `k`× the histogram's median. Resolution follows the
/// histogram's: a value counts as "within" when its *bucket's* upper
/// bound is ≤ `k × median` — deterministic, integer-only, and monotone
/// in `k`. An empty histogram reports 10000 (the SLO is vacuously met;
/// deadness is gated separately by completion counts).
pub fn slo_within_basis_points(hist: &LatencyHist, k: u64) -> u64 {
    let count = hist.count();
    if count == 0 {
        return 10_000;
    }
    let threshold = hist.quantile(1, 2).saturating_mul(k);
    let within: u64 = hist
        .nonzero_buckets()
        .iter()
        .filter(|&&(top, _)| top <= threshold)
        .map(|&(_, n)| n)
        .sum();
    ((u128::from(within) * 10_000) / u128::from(count)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::ServerEnv;
    use crate::BootSpec;
    use foc_memory::Mode;

    fn spec(kind: ServerKind) -> BootSpec {
        BootSpec::new(kind, Mode::FailureOblivious)
    }

    fn library() -> Vec<(ServerKind, Request)> {
        vec![
            (
                ServerKind::Apache,
                Request::ApacheGet {
                    path: Bytes::Static(b"/index.html"),
                },
            ),
            (
                ServerKind::Sendmail,
                Request::SendmailReceive {
                    from: Bytes::Owned(b"a@x.test".to_vec()),
                    to: Bytes::Static(b"b@y.test"),
                    body: Bytes::Owned(b"hello".to_vec()),
                },
            ),
            (
                ServerKind::Sendmail,
                Request::SendmailSend {
                    to: Bytes::Owned(b"c@z.test".to_vec()),
                    body: Bytes::Static(b"outbound"),
                },
            ),
            (ServerKind::Sendmail, Request::SendmailWakeup),
            (
                ServerKind::Sendmail,
                Request::SendmailMailFrom {
                    from: Bytes::Owned(b"d@w.test".to_vec()),
                },
            ),
            (
                ServerKind::Pine,
                Request::PineDeliver {
                    from: Bytes::Owned(b"Eve <eve@test>".to_vec()),
                    subject: Bytes::Static(b"s"),
                    body: Bytes::Static(b"b"),
                },
            ),
            (ServerKind::Pine, Request::PineRead { index: 2 }),
            (ServerKind::Pine, Request::PineCompose),
            (ServerKind::Pine, Request::PineMove { index: -1 }),
            (
                ServerKind::Mutt,
                Request::MuttOpenFolder {
                    name: Bytes::Static(b"INBOX"),
                },
            ),
            (ServerKind::Mutt, Request::MuttRead { index: 0 }),
            (
                ServerKind::Mc,
                Request::McCopy {
                    src: Bytes::Static(b"/home/user/data.bin"),
                    dst: Bytes::Owned(b"/tmp/c1".to_vec()),
                },
            ),
            (
                ServerKind::Mc,
                Request::McMkdir {
                    path: Bytes::Static(b"/tmp/d"),
                },
            ),
            (
                ServerKind::Mc,
                Request::McComponentEnd {
                    name: Bytes::Static(b"usr/share/x"),
                },
            ),
            (
                ServerKind::Mc,
                Request::McDelete {
                    path: Bytes::Owned(b"/tmp/c1".to_vec()),
                },
            ),
            (
                ServerKind::Mc,
                Request::McOpenArchive {
                    links: Links::Owned(vec![b"one".to_vec(), b"two".to_vec(), Vec::new()]),
                },
            ),
        ]
    }

    #[test]
    fn request_frames_round_trip_for_every_shape() {
        for (i, (kind, request)) in library().into_iter().enumerate() {
            let seq = 40 + i as u32;
            let frame = encode_request(kind, seq, &request);
            let (got_seq, decoded, consumed) =
                decode_request(kind, &frame).expect("complete frame decodes");
            assert_eq!(consumed, frame.len());
            assert_eq!(got_seq, seq);
            assert_eq!(decoded, request, "content equality across the wire");
            // Every strict prefix is partial.
            for cut in 0..frame.len() {
                assert!(
                    decode_request(kind, &frame[..cut]).is_none(),
                    "prefix of {cut} bytes must not decode"
                );
            }
        }
    }

    #[test]
    fn response_frames_round_trip_and_verify() {
        let done = Measured {
            outcome: Outcome::Done {
                ret: -7,
                output: b"body bytes".to_vec(),
            },
            cycles: 123_456,
        };
        let frame = encode_response(9, &done);
        let (resp, consumed) = decode_response(&frame).unwrap();
        assert_eq!(consumed, frame.len());
        assert_eq!(resp.seq, 9);
        verify_response(&resp, &done);
        for cut in 0..frame.len() {
            assert!(decode_response(&frame[..cut]).is_none());
        }
    }

    /// Shared harness: drive `requests` through a socket session and
    /// through a plain in-process twin, asserting measured equality.
    fn socket_matches_in_process(kind: ServerKind, edge: &SocketEdge, requests: &[Request]) {
        let spec = spec(kind);
        let env = ServerEnv::standard();
        let mut wired = Server::boot(kind, &spec, env);
        let mut plain = Server::boot(kind, &spec, env);
        let mut session = ConnSession::new(kind, edge);
        for request in requests {
            let over_wire = session.transact(request, &mut wired);
            let direct = request.apply(&mut plain);
            assert_eq!(over_wire, direct, "transport must not change outcomes");
        }
    }

    #[test]
    fn clean_socket_session_matches_direct_application() {
        socket_matches_in_process(
            ServerKind::Apache,
            &SocketEdge::default(),
            &[
                Request::ApacheGet {
                    path: Bytes::Static(b"/index.html"),
                },
                Request::ApacheGet {
                    path: Bytes::Static(b"/big.bin"),
                },
                Request::ApacheGet {
                    path: Bytes::Static(b"/nosuchpage.html"),
                },
            ],
        );
    }

    #[test]
    fn slow_loris_drip_assembles_frames_byte_by_byte() {
        let edge = SocketEdge {
            scenario: Scenario::SlowLoris { chunk: 1 },
            connections: 2,
            ..SocketEdge::default()
        };
        socket_matches_in_process(
            ServerKind::Pine,
            &edge,
            &[
                Request::PineRead { index: 0 },
                Request::PineDeliver {
                    from: Bytes::Static(b"Al <al@test>"),
                    subject: Bytes::Static(b"new mail"),
                    body: Bytes::Owned(vec![b'x'; 400]),
                },
                Request::PineRead { index: 3 },
            ],
        );
    }

    #[test]
    fn mid_request_disconnects_retransmit_without_observable_effect() {
        let edge = SocketEdge {
            scenario: Scenario::Disconnect { every: 2 },
            connections: 3,
            ..SocketEdge::default()
        };
        let requests: Vec<Request> = (0..6)
            .map(|i| Request::MuttOpenFolder {
                name: Bytes::Owned(if i % 2 == 0 {
                    b"INBOX".to_vec()
                } else {
                    b"work".to_vec()
                }),
            })
            .collect();
        socket_matches_in_process(ServerKind::Mutt, &edge, &requests);
    }

    #[test]
    fn disconnect_scenario_counts_its_drops() {
        let edge = SocketEdge {
            scenario: Scenario::Disconnect { every: 2 },
            ..SocketEdge::default()
        };
        let spec = spec(ServerKind::Apache);
        let mut process = Server::boot(ServerKind::Apache, &spec, ServerEnv::standard());
        let mut session = ConnSession::new(ServerKind::Apache, &edge);
        for _ in 0..4 {
            session.transact(
                &Request::ApacheGet {
                    path: Bytes::Static(b"/index.html"),
                },
                &mut process,
            );
        }
        let stats = session.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(
            stats.disconnects, 2,
            "every second request dropped mid-frame"
        );
        assert_eq!(stats.frames, 4, "every request still completed");
    }

    #[test]
    fn connection_flood_past_the_backlog_is_refused() {
        let edge = SocketEdge {
            backlog: 4,
            flood: 10,
            ..SocketEdge::default()
        };
        let session = ConnSession::new(ServerKind::Mc, &edge);
        let stats = session.stats();
        assert_eq!(stats.refused, 6, "flood past the backlog bounces");
        // Pool (4) + accepted flood (4).
        assert_eq!(stats.connected, 4 + 4);
    }

    #[test]
    fn flooded_session_still_serves() {
        let edge = SocketEdge {
            backlog: 4,
            flood: 10,
            ..SocketEdge::default()
        };
        socket_matches_in_process(
            ServerKind::Mc,
            &edge,
            &[
                Request::McMkdir {
                    path: Bytes::Static(b"/tmp/d1"),
                },
                Request::McDelete {
                    path: Bytes::Static(b"/tmp/d1"),
                },
            ],
        );
    }

    #[test]
    fn teardown_is_idempotent_and_keeps_refusing() {
        let mut session = ConnSession::new(ServerKind::Apache, &SocketEdge::default());
        session.refused();
        session.refused();
        session.refused();
        assert_eq!(session.stats().refused, 3);
    }

    #[test]
    fn slo_counts_bucket_tops_within_k_times_median() {
        let mut h = LatencyHist::new();
        // 9 requests in the [64,128) bucket, one far outlier.
        for _ in 0..9 {
            h.record(100);
        }
        h.record(1_000_000);
        // Median bucket top is 127; 4×127 = 508 covers only the fast 9.
        assert_eq!(slo_within_basis_points(&h, 4), 9_000);
        // A huge k covers everything.
        assert_eq!(slo_within_basis_points(&h, 1 << 20), 10_000);
        // Vacuous SLO on an empty histogram.
        assert_eq!(slo_within_basis_points(&LatencyHist::new(), 4), 10_000);
    }
}
