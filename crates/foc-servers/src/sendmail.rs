//! Sendmail 8.11.6 (§4.4): the `prescan` address-parsing overflow.
//!
//! `prescan` transfers an address into a fixed-size stack buffer using a
//! lookahead character, treating `\` specially. When the byte after a `\`
//! is `0xFF`, the `char`→`int` sign extension makes it equal to `-1` —
//! the parser's NOCHAR sentinel — which routes control around the block
//! that contains the buffer-space check, and a later *unchecked* store
//! writes the `\` into the buffer. "An attack message containing an
//! appropriately placed alternating sequence of -1 and `\` characters in
//! the address can therefore cause the prescan to write arbitrarily many
//! `\` characters beyond the end of the buffer."
//!
//! Per-mode behaviour (§4.4.2):
//!
//! * **Standard** — the out-of-bounds stores corrupt the call stack; the
//!   canary bytes are the attacker-controlled `\` pattern, modelling the
//!   documented possibility of injected-code execution.
//! * **Bounds Check** — unusable: every daemon wake-up commits a benign
//!   memory error (an off-by-one sentinel probe over the work queue), so
//!   the process exits before it ever serves a message.
//! * **Failure Oblivious** — the overflow is discarded, prescan returns,
//!   the address-too-long check fails, and standard error-handling
//!   rejects the address with a 501; subsequent commands succeed. The
//!   wake-up error is logged and otherwise harmless — the "steady stream
//!   of memory errors during normal execution" of §4.4.4.

use foc_compiler::ProgramImage;
use foc_memory::Mode;

use crate::image::{self, ServerKind};
use crate::workload;
use crate::{Arg, BootSpec, Measured, Outcome, Process, Server};

/// MiniC source of the Sendmail model.
pub const SENDMAIL_SOURCE: &str = r#"
/* ---- Daemon work queue ------------------------------------------------ */

int workqueue[16];
int nqueued = 0;

/* Wake up and scan the queue. The loop bound walks one element past the
   end of the array — a benign read in practice, committed on every single
   wake-up. */
int sendmail_wakeup() {
    int i;
    int pending = 0;
    for (i = 0; i <= 16; i++) {
        if (workqueue[i] > 0) pending++;
    }
    io_wait(16);
    return pending;
}

/* ---- The prescan bug --------------------------------------------------- */

/* Parses an address into canonical form. Scratch integers are declared
   before the buffer so the overflow runs upward into the frame guard (the
   saved-return-address region), as on a real downward-growing stack. */
int parse_address(char *addr, char *canon, size_t canoncap) {
    int q = 0;
    int p = 0;
    int c;
    int lookahead = -1;              /* NOCHAR */
    char pvpbuf[48];
    while (1) {
        if (lookahead != -1) { c = lookahead; lookahead = -1; }
        else { c = addr[p++]; if (c == 0) break; }
        if (c == '\\') {
            lookahead = addr[p++];   /* char -> int: 0xFF becomes -1 */
            if (lookahead == 0) break;
            if (lookahead != -1) {
                if (q >= 44) break;  /* the buffer-space check lives here */
                pvpbuf[q++] = (char) c;
                continue;
            }
            /* NOCHAR path: the check above was skipped... */
            pvpbuf[q++] = '\\';      /* BUG: unchecked store */
            continue;
        }
        if (q >= 44) break;
        pvpbuf[q++] = (char) c;
    }
    if (q < 48) pvpbuf[q] = '\0';
    /* The caller's next step: reject addresses that are too long — the
       anticipated error case the failure-oblivious execution falls into. */
    if (q > 40) return -1;
    /* Canonicalise: three ruleset passes (sendmail's rewriting engine). */
    int pass;
    int j;
    char work[96];
    for (pass = 0; pass < 3; pass++) {
        j = 0;
        int i2 = 0;
        while (pvpbuf[i2] && j < 90) {
            char ch = pvpbuf[i2];
            if (pass == 0 && ch >= 'A' && ch <= 'Z') ch = ch + 32;
            if (pass == 1 && ch == '%') ch = '@';
            work[j++] = ch;
            i2++;
        }
        work[j] = '\0';
        int k2 = 0;
        while (work[k2]) { pvpbuf[k2] = work[k2]; k2++; }
        pvpbuf[k2] = '\0';
    }
    j = 0;
    while (pvpbuf[j] && (size_t) j + 1 < canoncap) {
        canon[j] = pvpbuf[j];
        j++;
    }
    canon[j] = '\0';
    return 0;
}

/* ---- SMTP transaction state ------------------------------------------- */

char sender[64];
char rcpt[8][64];
int nrcpt = 0;
int in_txn = 0;

struct dmsg {
    int used;
    char to[64];
    int len;
};
struct dmsg delivered[64];
int ndelivered = 0;
long total_delivered = 0;
long delivered_bytes = 0;

int sendmail_init() {
    int i;
    for (i = 0; i < 16; i++) workqueue[i] = 0;
    nqueued = 0;
    /* The daemon wakes up before serving anything — this is what makes
       the Bounds Check version unusable (§4.4.4). */
    sendmail_wakeup();
    return 0;
}

int smtp_mail_from(char *addr) {
    char canon[64];
    if (parse_address(addr, canon, 64) != 0) return 501;
    strncpy(sender, canon, 63);
    sender[63] = '\0';
    in_txn = 1;
    nrcpt = 0;
    io_wait(8);
    return 250;
}

int smtp_rcpt_to(char *addr) {
    if (!in_txn) return 503;
    if (nrcpt >= 8) return 452;
    char canon[64];
    if (parse_address(addr, canon, 64) != 0) return 501;
    strncpy(rcpt[nrcpt], canon, 63);
    rcpt[nrcpt][63] = '\0';
    nrcpt++;
    io_wait(8);
    return 250;
}

/* DATA: queue the message — header rewriting plus a per-byte copy into
   the queue file, then fsync-ish I/O. */
int smtp_data(char *body) {
    if (!in_txn) return 503;
    if (nrcpt == 0) return 554;
    size_t len = strlen(body);
    /* Received: header construction + body copy to the queue file. */
    char *qf = (char *) malloc(len + 256);
    char *p = qf;
    char *s = sender;
    while (*s) { *p++ = *s; s++; }
    *p++ = '\n';
    s = body;
    while (*s) {
        char ch = *s;
        /* dot-stuffing and bare-LF fixups */
        if (ch == '.' ) *p++ = '.';
        *p++ = ch;
        s++;
    }
    *p = '\0';
    io_wait((long) len / 2 + 32);
    free(qf);
    int r;
    for (r = 0; r < nrcpt; r++) {
        /* Keep a bounded ring of recent deliveries plus exact counters. */
        int slot = (int) (total_delivered % 64);
        delivered[slot].used = 1;
        strncpy(delivered[slot].to, rcpt[r], 63);
        delivered[slot].to[63] = '\0';
        delivered[slot].len = (int) len;
        if (ndelivered < 64) ndelivered++;
        total_delivered++;
        delivered_bytes += (long) len;
    }
    in_txn = 0;
    io_wait(16);
    return 250;
}

/* Outbound: send a queued message to a remote MTA. */
int smtp_send(char *to, char *body) {
    char canon[64];
    if (parse_address(to, canon, 64) != 0) return 501;
    size_t len = strlen(body);
    /* Envelope rewrite + transmission buffers. */
    char *xf = (char *) malloc(len + 128);
    char *p = xf;
    char *s = body;
    while (*s) { *p++ = *s; s++; }
    *p = '\0';
    io_wait((long) len / 2 + 64);
    free(xf);
    return 250;
}

long sendmail_delivered_count() {
    return total_delivered;
}

long sendmail_delivered_bytes() {
    return delivered_bytes;
}
"#;

/// A Sendmail process.
#[derive(Clone)]
pub struct Sendmail {
    proc: Process,
    /// Outcome of initialization (the first wake-up).
    init_outcome: Outcome,
}

/// The §4.4 attack address: alternating `\` and `0xFF` bytes.
pub fn attack_address(pairs: usize) -> Vec<u8> {
    workload::sendmail_attack_address(pairs)
}

impl Sendmail {
    /// Legacy convenience over [`Sendmail::boot_spec`] with a default
    /// spec for `mode`; prefer constructing a [`BootSpec`] at the call
    /// site.
    pub fn boot(mode: Mode) -> Sendmail {
        Sendmail::boot_spec(&BootSpec::new(ServerKind::Sendmail, mode))
    }

    /// Boots the daemon from a full [`BootSpec`]: a clone of the
    /// per-spec frozen boot, so supervised restarts of the daemon never
    /// re-interpret the wake-up path. A boot that died at init (the
    /// §4.4.4 Bounds Check daemon) is frozen, and cloned, faithfully
    /// dead.
    pub fn boot_spec(spec: &BootSpec) -> Sendmail {
        let Server::Sendmail(daemon) = &*image::boot_checkpoint(ServerKind::Sendmail, spec) else {
            unreachable!("Sendmail cache slot holds a Sendmail daemon");
        };
        daemon.clone()
    }

    /// Boots the daemon from an explicit image and a full [`BootSpec`].
    pub fn boot_image_spec(image: &ProgramImage, spec: &BootSpec) -> Sendmail {
        let mut proc = Process::boot_spec(image, spec);
        let init_outcome = proc.call("sendmail_init", &[]).outcome;
        Sendmail { proc, init_outcome }
    }

    /// How daemon initialization went.
    pub fn init_outcome(&self) -> &Outcome {
        &self.init_outcome
    }

    /// Whether the daemon is serving.
    pub fn usable(&self) -> bool {
        self.init_outcome.survived() && !self.proc.is_dead()
    }

    /// The underlying process.
    pub fn process(&self) -> &Process {
        &self.proc
    }

    /// Periodic daemon wake-up (commits the benign memory error).
    pub fn wakeup(&mut self) -> Measured {
        self.proc.call("sendmail_wakeup", &[])
    }

    /// `MAIL FROM:` — the vulnerable parse runs on the address.
    pub fn mail_from(&mut self, addr: &[u8]) -> Measured {
        self.proc.call("smtp_mail_from", &[Arg::Str(addr)])
    }

    /// `RCPT TO:`.
    pub fn rcpt_to(&mut self, addr: &[u8]) -> Measured {
        self.proc.call("smtp_rcpt_to", &[Arg::Str(addr)])
    }

    /// `DATA` with the given body.
    pub fn data(&mut self, body: &[u8]) -> Measured {
        self.proc.call("smtp_data", &[Arg::Str(body)])
    }

    /// Receives a complete message (Figure 4 Recv requests).
    pub fn receive(&mut self, from: &[u8], to: &[u8], body: &[u8]) -> Measured {
        let a = self.mail_from(from);
        if !a.outcome.survived() {
            return a;
        }
        let b = self.rcpt_to(to);
        if !b.outcome.survived() {
            return b;
        }
        let c = self.data(body);
        Measured {
            cycles: a.cycles + b.cycles + c.cycles,
            outcome: c.outcome,
        }
    }

    /// Sends a message outbound (Figure 4 Send requests).
    pub fn send(&mut self, to: &[u8], body: &[u8]) -> Measured {
        self.proc.call("smtp_send", &[Arg::Str(to), Arg::Str(body)])
    }

    /// Messages delivered so far.
    pub fn delivered_count(&mut self) -> Option<i64> {
        self.proc
            .call("sendmail_delivered_count", &[])
            .outcome
            .ret()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_memory::MemFault;
    use foc_vm::VmFault;

    #[test]
    fn legitimate_mail_flows_in_standard_and_fo() {
        for mode in [Mode::Standard, Mode::FailureOblivious] {
            let mut sm = Sendmail::boot(mode);
            assert!(sm.usable(), "mode {mode:?}");
            let r = sm.receive(
                &workload::sendmail_address(1),
                &workload::sendmail_address(2),
                b"hi!!",
            );
            assert_eq!(r.outcome.ret(), Some(250), "mode {mode:?}");
            assert_eq!(sm.delivered_count(), Some(1));
            let r = sm.send(&workload::sendmail_address(3), b"outbound body");
            assert_eq!(r.outcome.ret(), Some(250));
        }
    }

    #[test]
    fn bounds_check_daemon_is_unusable() {
        // §4.4.4: the wake-up error "apparently completely disables the
        // Bounds Check version" — it dies during initialization.
        let sm = Sendmail::boot(Mode::BoundsCheck);
        assert!(!sm.usable());
        let Outcome::Crashed(f) = sm.init_outcome() else {
            panic!("expected init crash");
        };
        assert!(f.is_memory_error(), "got {f}");
    }

    #[test]
    fn fo_daemon_logs_steady_stream_of_wakeup_errors() {
        let mut sm = Sendmail::boot(Mode::FailureOblivious);
        assert!(sm.usable());
        let before = sm.process().machine().space().error_log().total();
        for _ in 0..10 {
            let r = sm.wakeup();
            assert!(r.outcome.survived());
        }
        let after = sm.process().machine().space().error_log().total();
        assert!(
            after >= before + 10,
            "each wake-up must log at least one error ({before} -> {after})"
        );
    }

    #[test]
    fn attack_smashes_standard_stack_with_attacker_bytes() {
        let mut sm = Sendmail::boot(Mode::Standard);
        // Enough pairs to carry the unchecked stores across the scratch
        // locals above the buffer and into the frame guard.
        let r = sm.mail_from(&attack_address(400));
        let Outcome::Crashed(f) = &r.outcome else {
            panic!("Standard sendmail must crash, got {:?}", r.outcome);
        };
        match f {
            VmFault::Mem(MemFault::StackSmashed { found, .. }) => {
                // The canary was overwritten with the attacker's '\' bytes:
                // the modelled control-flow hijack.
                assert_eq!(*found, 0x5C5C_5C5C_5C5C_5C5C, "attacker bytes in canary");
            }
            other => panic!("expected stack smash, got {other}"),
        }
    }

    #[test]
    fn attack_terminates_bounds_check_worker() {
        // Boot dies at wake-up already; to exercise the prescan path give
        // the worker a life without wake-up by testing the parse directly.
        let mut proc = Process::boot_source(SENDMAIL_SOURCE, Mode::BoundsCheck, 80_000_000);
        let r = proc.call(
            "parse_address",
            &[
                Arg::Str(&attack_address(120)),
                Arg::Str(&[0u8; 63]),
                Arg::Int(64),
            ],
        );
        let Outcome::Crashed(f) = &r.outcome else {
            panic!("expected memory error");
        };
        assert!(f.is_memory_error());
    }

    #[test]
    fn fo_rejects_attack_as_address_too_long_and_continues() {
        let mut sm = Sendmail::boot(Mode::FailureOblivious);
        let r = sm.mail_from(&attack_address(120));
        // 501: the anticipated "address too long" rejection (§4.4.2).
        assert_eq!(r.outcome.ret(), Some(501));
        assert!(sm.process().machine().space().error_log().total_writes() > 0);
        // Subsequent commands process correctly.
        let r = sm.receive(
            &workload::sendmail_address(5),
            &workload::sendmail_address(6),
            b"after the attack",
        );
        assert_eq!(r.outcome.ret(), Some(250));
        assert_eq!(sm.delivered_count(), Some(1));
    }

    #[test]
    fn fo_survives_interleaved_attacks_and_mail() {
        let mut sm = Sendmail::boot(Mode::FailureOblivious);
        let mut delivered = 0;
        for i in 0..30 {
            if i % 3 == 0 {
                let r = sm.mail_from(&attack_address(60 + i));
                assert_eq!(r.outcome.ret(), Some(501), "attack {i}");
            } else {
                let r = sm.receive(
                    &workload::sendmail_address(i as u64),
                    &workload::sendmail_address(1000 + i as u64),
                    &workload::lorem(200, i as u64),
                );
                assert_eq!(r.outcome.ret(), Some(250), "mail {i}");
                delivered += 1;
            }
            sm.wakeup();
        }
        assert_eq!(sm.delivered_count(), Some(delivered));
    }

    #[test]
    fn malformed_but_short_addresses_are_rejected_cleanly() {
        for mode in [Mode::Standard, Mode::FailureOblivious] {
            let mut sm = Sendmail::boot(mode);
            // An over-long ordinary address: rejected by the same check.
            let long: Vec<u8> = std::iter::repeat_n(b'a', 60).collect();
            let r = sm.mail_from(&long);
            assert_eq!(r.outcome.ret(), Some(501), "mode {mode:?}");
        }
    }

    #[test]
    fn figure4_shape_slowdown_flat_across_sizes() {
        let mut std = Sendmail::boot(Mode::Standard);
        let mut fo = Sendmail::boot(Mode::FailureOblivious);
        let small = workload::lorem(4, 1);
        let large = workload::lorem(4096, 2);
        let from = workload::sendmail_address(1);
        let to = workload::sendmail_address(2);
        let rs_s = std.receive(&from, &to, &small).cycles as f64;
        let rf_s = fo.receive(&from, &to, &small).cycles as f64;
        let rs_l = std.receive(&from, &to, &large).cycles as f64;
        let rf_l = fo.receive(&from, &to, &large).cycles as f64;
        let slow_small = rf_s / rs_s;
        let slow_large = rf_l / rs_l;
        assert!(slow_small > 1.5, "small slowdown {slow_small}");
        assert!(slow_large > 1.5, "large slowdown {slow_large}");
        // The paper's flat profile: both sizes in the same band.
        assert!(
            (slow_small / slow_large) < 2.2 && (slow_large / slow_small) < 2.2,
            "sizes should slow down comparably: {slow_small} vs {slow_large}"
        );
    }
}
