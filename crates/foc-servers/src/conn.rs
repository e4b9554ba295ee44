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
//! *decisions*. `FarmReport`s across edges therefore compare equal: the
//! equivalence harness (`tests/equiv`) drives every library input at a
//! socket point of its lattice, and `tests/conn_equiv.rs` runs every
//! farm case over a socket edge and holds connection scale and
//! disconnects.
//!
//! **Adversarial scenarios.** [`Scenario`] injects transport abuse the
//! framing layer must shrug off: slow-loris drips (a few bytes per
//! event-loop turn), mid-request disconnects with retransmission on a
//! fresh connection (the server discards the half-assembled frame at
//! EOF), and accept-queue floods (idle connections piling onto the
//! listener past its backlog, the excess refused).

use std::borrow::Cow;

use netshim::{ConnectError, Fd, Interest, NetStack, ReadOutcome, WriteOutcome};

use crate::farm::{Bytes, Request, Server};
use crate::image::ServerKind;
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

/// Largest request body or response payload a frame may carry, far
/// above any real one (the request generator and the sweep's input
/// library send bodies of at most 380 bytes and get payloads of at most
/// 1 410), so that a header claiming more is refused at once instead of
/// awaited until the session stalls. The encoders assert it.
const MAX_BODY: usize = 64 << 10;
/// Per-socket kernel buffer, deliberately small so realistic frames
/// (Pine deliveries run past 300 bytes) need several readiness turns.
const BUFFER_BYTES: usize = 256;
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
    assert!(body.len() <= MAX_BODY, "request body past MAX_BODY");
    let mut frame = Vec::with_capacity(REQ_HEADER + body.len());
    frame.push(REQ_MAGIC);
    frame.push(kind.index() as u8);
    frame.push(op);
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
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
    take_field(body).map(|f| Cow::Owned(f.to_vec()))
}

fn take_index(body: &mut &[u8]) -> Option<i64> {
    let field = take_field(body)?;
    Some(i64::from_le_bytes(field.try_into().ok()?))
}

/// Why a frame was refused: the first thing the decoder found that no
/// frame of this module's encoder holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameError {
    /// The first byte is not the frame kind's magic.
    Magic,
    /// A request for another server kind.
    Kind,
    /// An opcode the server kind does not have.
    Opcode,
    /// A field cut short, or an index that is not eight bytes.
    Field,
    /// Bytes left in the body after its last field.
    Trailing,
    /// A response status that is neither done nor crashed.
    Status,
    /// A body or payload length above [`MAX_BODY`].
    Length,
    /// A request frame other than the one the server awaits.
    Sequence,
}

/// Decodes one complete request frame off the front of `buf`, returning
/// the frame's sequence number, the request, and the bytes consumed —
/// `Ok(None)` while the frame is still partial, an error as soon as
/// what has arrived is no frame the encoder writes. Decoding reads
/// input: a corrupt frame is refused, never a panic.
fn decode_request(
    kind: ServerKind,
    buf: &[u8],
) -> Result<Option<(u32, Request, usize)>, FrameError> {
    match buf {
        [m, ..] if *m != REQ_MAGIC => return Err(FrameError::Magic),
        [_, k, ..] if *k as usize != kind.index() => return Err(FrameError::Kind),
        _ if buf.len() < REQ_HEADER => return Ok(None),
        _ => {}
    }
    let op = buf[2];
    let seq = read_u32(buf, 3);
    let body_len = read_u32(buf, 7) as usize;
    if body_len > MAX_BODY {
        return Err(FrameError::Length);
    }
    let Some(body) = buf[REQ_HEADER..].get(..body_len) else {
        return Ok(None);
    };
    let fields = &mut &body[..];
    let owned = |fields: &mut &[u8]| take_owned(fields).ok_or(FrameError::Field);
    let index = |fields: &mut &[u8]| take_index(fields).ok_or(FrameError::Field);
    let request = match (kind, op) {
        (ServerKind::Apache, 0) => Request::ApacheGet {
            path: owned(fields)?,
        },
        (ServerKind::Sendmail, 0) => Request::SendmailReceive {
            from: owned(fields)?,
            to: owned(fields)?,
            body: owned(fields)?,
        },
        (ServerKind::Sendmail, 1) => Request::SendmailSend {
            to: owned(fields)?,
            body: owned(fields)?,
        },
        (ServerKind::Sendmail, 2) => Request::SendmailWakeup,
        (ServerKind::Sendmail, 3) => Request::SendmailMailFrom {
            from: owned(fields)?,
        },
        (ServerKind::Pine, 0) => Request::PineDeliver {
            from: owned(fields)?,
            subject: owned(fields)?,
            body: owned(fields)?,
        },
        (ServerKind::Pine, 1) => Request::PineRead {
            index: index(fields)?,
        },
        (ServerKind::Pine, 2) => Request::PineCompose,
        (ServerKind::Pine, 3) => Request::PineMove {
            index: index(fields)?,
        },
        (ServerKind::Mutt, 0) => Request::MuttOpenFolder {
            name: owned(fields)?,
        },
        (ServerKind::Mutt, 1) => Request::MuttRead {
            index: index(fields)?,
        },
        (ServerKind::Mc, 0) => Request::McCopy {
            src: owned(fields)?,
            dst: owned(fields)?,
        },
        (ServerKind::Mc, 1) => Request::McMkdir {
            path: owned(fields)?,
        },
        (ServerKind::Mc, 2) => Request::McComponentEnd {
            name: owned(fields)?,
        },
        (ServerKind::Mc, 3) => Request::McDelete {
            path: owned(fields)?,
        },
        (ServerKind::Mc, 4) => {
            let mut links = Vec::new();
            while !fields.is_empty() {
                links.push(take_field(fields).ok_or(FrameError::Field)?.to_vec());
            }
            Request::McOpenArchive {
                links: Cow::Owned(links),
            }
        }
        _ => return Err(FrameError::Opcode),
    };
    if !fields.is_empty() {
        return Err(FrameError::Trailing);
    }
    Ok(Some((seq, request, REQ_HEADER + body_len)))
}

/// Frames one measured outcome as the response to frame `seq`, in place
/// of whatever `frame` held (a connection reuses one buffer).
fn encode_response(seq: u32, measured: &Measured, frame: &mut Vec<u8>) {
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
    assert!(payload.len() <= MAX_BODY, "response payload past MAX_BODY");
    frame.clear();
    frame.reserve(RESP_HEADER + payload.len());
    frame.push(RESP_MAGIC);
    frame.push(status);
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&ret.to_le_bytes());
    frame.extend_from_slice(&measured.cycles.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
}

/// A decoded response frame, its payload borrowed from the wire buffer.
struct Response<'a> {
    seq: u32,
    status: u8,
    ret: i64,
    cycles: u64,
    payload: &'a [u8],
}

/// Decodes one complete response frame off the front of `buf`:
/// `Ok(None)` while partial, an error for what no response frame holds.
fn decode_response(buf: &[u8]) -> Result<Option<(Response<'_>, usize)>, FrameError> {
    match buf {
        [m, ..] if *m != RESP_MAGIC => return Err(FrameError::Magic),
        [_, s, ..] if ![STATUS_DONE, STATUS_CRASHED].contains(s) => return Err(FrameError::Status),
        _ if buf.len() < RESP_HEADER => return Ok(None),
        _ => {}
    }
    let payload_len = read_u32(buf, 22) as usize;
    if payload_len > MAX_BODY {
        return Err(FrameError::Length);
    }
    let Some(payload) = buf[RESP_HEADER..].get(..payload_len) else {
        return Ok(None);
    };
    Ok(Some((
        Response {
            status: buf[1],
            seq: read_u32(buf, 2),
            ret: i64::from_le_bytes(buf[6..14].try_into().expect("eight bytes")),
            cycles: u64::from_le_bytes(buf[14..22].try_into().expect("eight bytes")),
            payload,
        },
        RESP_HEADER + payload_len,
    )))
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
    /// verified against it) — or `None` when either side refused the
    /// other's frame as corrupt: the connection is reset and counted
    /// refused, and the request goes unanswered. Closed-loop: the call
    /// does not return until the response frame is fully read back or
    /// refused — as is a frame whose promised bytes never come (a header
    /// claiming more body than follows it), and a connection whose server
    /// half has gone.
    pub(crate) fn transact(&mut self, request: &Request, process: &mut Server) -> Option<Measured> {
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
                    // The server half is gone: refused like a corrupt
                    // frame, on a fresh connection.
                    WriteOutcome::Broken => {
                        self.reset_slot(slot);
                        self.stats.refused += 1;
                        return None;
                    }
                }
            }

            // One readiness turn: act only on what the event loop says
            // is ready. The pool's idle connections and the flood
            // extras never fire (no pending bytes), so the ready list
            // stays proportional to actual work.
            let mut events = std::mem::take(&mut self.events);
            self.net.epoll_wait(self.epoll, &mut events);
            let idle = events.is_empty();
            let mut refused = Ok(());
            for &ev in &events {
                let token = ev.token();
                if token == LISTENER_TOKEN || token >= FLOOD_TOKEN_BASE {
                    continue;
                }
                let ev_slot = (token / 2) as usize;
                debug_assert_eq!(ev_slot, slot, "only the active connection moves bytes");
                if token.is_multiple_of(2) {
                    if ev.is_readable() {
                        refused = refused.and(self.server_read(
                            ev_slot,
                            seq,
                            request,
                            process,
                            &mut measured,
                        ));
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

            match refused.and_then(|()| decode_response(&self.conns[slot].reply)) {
                Ok(Some((resp, consumed))) => {
                    let measured = measured
                        .take()
                        .expect("response frame before the request was served");
                    assert_eq!(resp.seq, seq, "closed-loop responses answer in order");
                    verify_response(&resp, &measured);
                    let reply = &mut self.conns[slot].reply;
                    reply.drain(..consumed);
                    debug_assert!(reply.is_empty(), "one response per request");
                    self.stats.frames += 1;
                    return Some(measured);
                }
                // Level-triggered: a turn with nothing ready, after the
                // whole frame went out and with nothing owed either way,
                // is one no later turn improves on — the server awaits
                // bytes that will never come — so it is refused too.
                Ok(None) if !idle || sent < frame.len() => {}
                Ok(None) if self.conns[slot].out_sent < self.conns[slot].outbound.len() => {}
                _ => {
                    self.reset_slot(slot);
                    self.stats.refused += 1;
                    return None;
                }
            }
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
    /// request to the guest, queue and start flushing the response. A
    /// corrupt frame, or one out of sequence (requests are closed-loop,
    /// so only `seq` may arrive), stops the read with its error,
    /// unapplied.
    fn server_read(
        &mut self,
        slot: usize,
        seq: u32,
        expected: &Request,
        process: &mut Server,
        measured: &mut Option<Measured>,
    ) -> Result<(), FrameError> {
        self.drain_server(slot);
        while let Some((frame_seq, decoded, consumed)) =
            decode_request(self.kind, &self.conns[slot].inbound)?
        {
            self.conns[slot].inbound.drain(..consumed);
            if frame_seq != seq {
                return Err(FrameError::Sequence);
            }
            // Wire-authoritative: the server applies what the frame
            // says, and the frame must say what the generator meant.
            debug_assert_eq!(
                &decoded, expected,
                "decoded frame matches the generated request"
            );
            let m = decoded.apply(process);
            let conn = &mut self.conns[slot];
            encode_response(frame_seq, &m, &mut conn.outbound);
            conn.out_sent = 0;
            *measured = Some(m);
            self.server_flush(slot);
        }
        Ok(())
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
        // Each pass drains the server, so the next write moves bytes.
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
        }
        self.net.close(client);
        let closed = self.drain_server(slot);
        debug_assert!(closed, "server must observe the disconnect EOF");
        debug_assert_eq!(
            decode_request(self.kind, &self.conns[slot].inbound),
            Ok(None),
            "a half frame must never decode"
        );
        self.reset_slot(slot);
        self.stats.disconnects += 1;
    }

    /// Tears down and reconnects one pool slot, discarding any partial
    /// frame state on either side. A half already closed stays closed:
    /// closing it again does nothing.
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
                    path: Cow::Borrowed(b"/index.html"),
                },
            ),
            (
                ServerKind::Sendmail,
                Request::SendmailReceive {
                    from: Cow::Owned(b"a@x.test".to_vec()),
                    to: Cow::Borrowed(b"b@y.test"),
                    body: Cow::Owned(b"hello".to_vec()),
                },
            ),
            (
                ServerKind::Sendmail,
                Request::SendmailSend {
                    to: Cow::Owned(b"c@z.test".to_vec()),
                    body: Cow::Borrowed(b"outbound"),
                },
            ),
            (ServerKind::Sendmail, Request::SendmailWakeup),
            (
                ServerKind::Sendmail,
                Request::SendmailMailFrom {
                    from: Cow::Owned(b"d@w.test".to_vec()),
                },
            ),
            (
                ServerKind::Pine,
                Request::PineDeliver {
                    from: Cow::Owned(b"Eve <eve@test>".to_vec()),
                    subject: Cow::Borrowed(b"s"),
                    body: Cow::Borrowed(b"b"),
                },
            ),
            (ServerKind::Pine, Request::PineRead { index: 2 }),
            (ServerKind::Pine, Request::PineCompose),
            (ServerKind::Pine, Request::PineMove { index: -1 }),
            (
                ServerKind::Mutt,
                Request::MuttOpenFolder {
                    name: Cow::Borrowed(b"INBOX"),
                },
            ),
            (ServerKind::Mutt, Request::MuttRead { index: 0 }),
            (
                ServerKind::Mc,
                Request::McCopy {
                    src: Cow::Borrowed(b"/home/user/data.bin"),
                    dst: Cow::Owned(b"/tmp/c1".to_vec()),
                },
            ),
            (
                ServerKind::Mc,
                Request::McMkdir {
                    path: Cow::Borrowed(b"/tmp/d"),
                },
            ),
            (
                ServerKind::Mc,
                Request::McComponentEnd {
                    name: Cow::Borrowed(b"usr/share/x"),
                },
            ),
            (
                ServerKind::Mc,
                Request::McDelete {
                    path: Cow::Owned(b"/tmp/c1".to_vec()),
                },
            ),
            (
                ServerKind::Mc,
                Request::McOpenArchive {
                    links: Cow::Owned(vec![b"one".to_vec(), b"two".to_vec(), Vec::new()]),
                },
            ),
        ]
    }

    #[test]
    fn request_frames_round_trip_for_every_shape() {
        for (i, (kind, request)) in library().into_iter().enumerate() {
            let seq = 40 + i as u32;
            let frame = encode_request(kind, seq, &request);
            let (got_seq, decoded, consumed) = decode_request(kind, &frame)
                .ok()
                .flatten()
                .expect("complete frame decodes");
            assert_eq!(consumed, frame.len());
            assert_eq!(got_seq, seq);
            assert_eq!(decoded, request, "content equality across the wire");
            // Every strict prefix is partial.
            for cut in 0..frame.len() {
                assert_eq!(
                    decode_request(kind, &frame[..cut]),
                    Ok(None),
                    "prefix of {cut} bytes must not decode"
                );
            }
        }
    }

    /// Hostile bytes: one frame per request class (and a response of
    /// each status) with each byte flipped by a seeded mask, every
    /// prefix of each, decodes to a frame, "partial" or a refusal —
    /// never a panic, never more bytes than arrived. A length whose top
    /// byte is flipped is refused whole, not awaited.
    #[test]
    fn corrupt_frames_are_refused_not_panics() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x39);
        let mut flip = |frame: &[u8], at: usize| {
            let mut bad = frame.to_vec();
            bad[at] ^= rng.gen_range(1..256u16) as u8;
            bad
        };
        for (i, (kind, request)) in library().into_iter().enumerate() {
            let frame = encode_request(kind, i as u32, &request);
            for at in 0..frame.len() {
                let bad = flip(&frame, at);
                for cut in 0..=bad.len() {
                    if let Ok(Some((_, _, used))) = decode_request(kind, &bad[..cut]) {
                        assert!(used <= cut, "{kind:?} byte {at}: read past the frame");
                    }
                }
                let whole = decode_request(kind, &bad);
                match at {
                    0 => assert_eq!(whole, Err(FrameError::Magic)),
                    1 => assert_eq!(whole, Err(FrameError::Kind)),
                    10 => assert_eq!(whole, Err(FrameError::Length)),
                    _ => {}
                }
            }
        }
        for outcome in [
            Outcome::Done {
                ret: 3,
                output: b"out".to_vec(),
            },
            Outcome::Crashed(foc_vm::VmFault::DivideByZero),
        ] {
            let mut frame = Vec::new();
            encode_response(5, &Measured { outcome, cycles: 9 }, &mut frame);
            for at in 0..frame.len() {
                let bad = flip(&frame, at);
                for cut in 0..=bad.len() {
                    if let Ok(Some((_, used))) = decode_response(&bad[..cut]) {
                        assert!(used <= cut, "response byte {at}: read past the frame");
                    }
                }
                match at {
                    0 => assert!(matches!(decode_response(&bad), Err(FrameError::Magic))),
                    25 => assert!(matches!(decode_response(&bad), Err(FrameError::Length))),
                    _ => {}
                }
            }
        }
    }

    /// A well-formed frame the server is not awaiting — here a stale
    /// one ahead of the request in flight — is refused: the slot is
    /// reset and the connection counted refused, and the session then
    /// serves on every slot as an in-process twin does.
    #[test]
    fn a_frame_out_of_sequence_is_refused_not_a_panic() {
        let kind = ServerKind::Apache;
        let request = Request::ApacheGet {
            path: Cow::Borrowed(b"/index.html"),
        };
        let mut wired = Server::boot(kind, &spec(kind), ServerEnv::standard());
        let mut plain = wired.clone();
        let mut session = ConnSession::new(kind, &SocketEdge::default());
        let stale = encode_request(kind, 7, &request);
        assert_eq!(
            session.net.write(session.conns[0].client, &stale),
            WriteOutcome::Wrote(stale.len())
        );
        assert_eq!(session.transact(&request, &mut wired), None);
        assert_eq!(session.stats().refused, 1);
        for _ in 0..=session.conns.len() {
            let served = session.transact(&request, &mut wired);
            assert_eq!(served, Some(request.apply(&mut plain)));
        }
    }

    /// A header claiming a body under `MAX_BODY` whose bytes never come
    /// is refused once the readiness loop falls idle, not awaited for
    /// ever; the session then serves on as an in-process twin does.
    #[test]
    fn a_frame_that_stops_arriving_is_refused_not_a_panic() {
        let kind = ServerKind::Apache;
        let request = Request::ApacheGet {
            path: Cow::Borrowed(b"/index.html"),
        };
        let long = Request::ApacheGet {
            path: Cow::Owned(vec![b'a'; 1000]),
        };
        let mut wired = Server::boot(kind, &spec(kind), ServerEnv::standard());
        let mut plain = wired.clone();
        let mut session = ConnSession::new(kind, &SocketEdge::default());
        let cut = &encode_request(kind, 0, &long)[..120];
        assert_eq!(
            session.net.write(session.conns[0].client, cut),
            WriteOutcome::Wrote(cut.len())
        );
        assert_eq!(session.transact(&request, &mut wired), None);
        assert_eq!(session.stats().refused, 1);
        for _ in 0..=session.conns.len() {
            let served = session.transact(&request, &mut wired);
            assert_eq!(served, Some(request.apply(&mut plain)));
        }
    }

    /// A pool connection whose server half has closed is refused and
    /// reconnected, not a host panic; every slot serves on after it.
    #[test]
    fn a_closed_server_half_is_refused_not_a_panic() {
        let kind = ServerKind::Apache;
        let request = Request::ApacheGet {
            path: Cow::Borrowed(b"/index.html"),
        };
        let mut wired = Server::boot(kind, &spec(kind), ServerEnv::standard());
        let mut plain = wired.clone();
        let mut session = ConnSession::new(kind, &SocketEdge::default());
        session.net.close(session.conns[0].server);
        assert_eq!(session.transact(&request, &mut wired), None);
        assert_eq!(session.stats().refused, 1);
        for _ in 0..=session.conns.len() {
            let served = session.transact(&request, &mut wired);
            assert_eq!(served, Some(request.apply(&mut plain)));
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
        let mut frame = b"stale bytes".to_vec();
        encode_response(9, &done, &mut frame);
        let (resp, consumed) = decode_response(&frame).ok().flatten().unwrap();
        assert_eq!(consumed, frame.len());
        assert_eq!(resp.seq, 9);
        verify_response(&resp, &done);
        for cut in 0..frame.len() {
            assert!(matches!(decode_response(&frame[..cut]), Ok(None)));
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
            assert_eq!(
                over_wire,
                Some(direct),
                "transport must not change outcomes"
            );
        }
    }

    #[test]
    fn clean_socket_session_matches_direct_application() {
        socket_matches_in_process(
            ServerKind::Apache,
            &SocketEdge::default(),
            &[
                Request::ApacheGet {
                    path: Cow::Borrowed(b"/index.html"),
                },
                Request::ApacheGet {
                    path: Cow::Borrowed(b"/big.bin"),
                },
                Request::ApacheGet {
                    path: Cow::Borrowed(b"/nosuchpage.html"),
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
                    from: Cow::Borrowed(b"Al <al@test>"),
                    subject: Cow::Borrowed(b"new mail"),
                    body: Cow::Owned(vec![b'x'; 400]),
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
                name: Cow::Owned(if i % 2 == 0 {
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
            let served = session.transact(
                &Request::ApacheGet {
                    path: Cow::Borrowed(b"/index.html"),
                },
                &mut process,
            );
            assert!(served.is_some(), "a whole frame is served");
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
                    path: Cow::Borrowed(b"/tmp/d1"),
                },
                Request::McDelete {
                    path: Cow::Borrowed(b"/tmp/d1"),
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
}
