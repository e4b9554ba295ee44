//! Pine 4.44 (§4.2): the From-field quoting overflow.
//!
//! When Pine builds the message-index display it transfers each message's
//! From field into a heap-allocated buffer, inserting `\` before every
//! quoted character. "The procedure that calculates the maximum possible
//! length of the character buffer fails to correctly account for the
//! potential increase and produces a length that is too short for messages
//! whose From fields contain many quoted characters."
//!
//! Crucially, this runs while the mail file is loaded — before the user
//! can interact at all — so (§4.2.2):
//!
//! * **Standard** — heap overflow, allocator corruption, segfault during
//!   initialization; the user cannot read mail at all until the message is
//!   removed by other means.
//! * **Bounds Check** — memory error during initialization; same denial
//!   of service.
//! * **Failure Oblivious** — the out-of-bounds writes are discarded (the
//!   index entry is truncated, which the index UI hides anyway since it
//!   shows only an initial segment); selecting the message takes a
//!   different, correct path that displays the complete From field.

use std::sync::Arc;

use foc_compiler::ProgramImage;
use foc_memory::Mode;

use crate::image::{self, Mailbox, ServerKind};
use crate::workload;
use crate::{Arg, BootSpec, Measured, Outcome, Process, Server};

/// MiniC source of the Pine model.
pub const PINE_SOURCE: &str = r#"
/* ---- Message store ---------------------------------------------------- */

struct pmsg {
    int used;
    char from[192];
    char subject[64];
    char body[1024];
};

struct pmsg msgs[128];
int nmsgs = 0;
char index_disp[128][48];
int index_built = 0;

char addressbook[32][48];
int naddr = 0;

/* The vulnerable quoting path used for the message index: the allocation
   accounts for the original length only, not for the inserted
   backslashes. */
char *quote_from_for_index(char *from) {
    size_t len = strlen(from);
    char *buf = (char *) malloc(len + 1);   /* BUG: quoting can grow the string */
    char *p = buf;
    while (*from) {
        char c = *from;
        if (c == '"' || c == '\\') *p++ = '\\';
        *p++ = c;
        from++;
    }
    *p = '\0';
    return buf;
}

/* The correct quoting path used when a message is displayed. */
char *quote_from_full(char *from) {
    size_t len = strlen(from);
    char *buf = (char *) malloc(len * 2 + 1);
    char *p = buf;
    while (*from) {
        char c = *from;
        if (c == '"' || c == '\\') *p++ = '\\';
        *p++ = c;
        from++;
    }
    *p = '\0';
    return buf;
}

int pine_init() {
    int i;
    /* Address book used by compose completion. */
    for (i = 0; i < 24; i++) {
        char *a = addressbook[i];
        strcpy(a, "colleague");
        a[9] = '0' + i % 10;
        a[10] = '\0';
        strcat(a, "@example.org");
        naddr = i + 1;
    }
    /* Spool read scratch: freed, so index quoting allocates mid-heap with
       allocator metadata after it. */
    char *scratch = (char *) malloc(512);
    scratch[0] = 'x';
    free(scratch);
    return 0;
}

int pine_add_message(char *from, char *subject, char *body) {
    if (nmsgs >= 128) return -1;
    msgs[nmsgs].used = 1;
    strncpy(msgs[nmsgs].from, from, 191);
    msgs[nmsgs].from[191] = '\0';
    strncpy(msgs[nmsgs].subject, subject, 63);
    msgs[nmsgs].subject[63] = '\0';
    strncpy(msgs[nmsgs].body, body, 1023);
    msgs[nmsgs].body[1023] = '\0';
    nmsgs++;
    return nmsgs - 1;
}

/* Renders one index entry through the vulnerable path. */
int pine_index_entry(int i) {
    char *q = quote_from_for_index(msgs[i].from);
    strncpy(index_disp[i], q, 47);
    index_disp[i][47] = '\0';
    free(q);
    return 0;
}

/* Runs while the mail file is loaded, before the UI comes up. */
int pine_build_index() {
    int i;
    io_wait(256);
    for (i = 0; i < nmsgs; i++) pine_index_entry(i);
    index_built = 1;
    return 0;
}

/* Read request: display a selected message (pure UI work). */
int pine_read(int idx) {
    if (!index_built) return -3;
    if (idx < 0 || idx >= nmsgs) return -1;
    if (!msgs[idx].used) return -1;
    /* Correct full translation of the From field. */
    char *q = quote_from_full(msgs[idx].from);
    print_str("From: ");
    print_str(q);
    print_str("\n");
    free(q);
    /* Redraw the visible index page. */
    int i;
    for (i = 0; i < nmsgs && i < 24; i++) {
        print_str(index_disp[i]);
        print_str("\n");
    }
    /* Render the body with line wrapping. */
    char *s = msgs[idx].body;
    int col = 0;
    int lines = 0;
    while (*s) {
        col++;
        if (col >= 80 || *s == '\n') { lines++; col = 0; }
        s++;
    }
    return lines >= 0 ? 0 : -1;
}

/* Compose request: bring up the composer (address completion, template). */
int pine_compose() {
    if (!index_built) return -3;
    char tmpl[2600];
    char *p = tmpl;
    int i;
    int round;
    /* Completion index over the address book, built each time. */
    for (round = 0; round < 3; round++) {
        p = tmpl;
        for (i = 0; i < naddr; i++) {
            char *s = addressbook[i];
            while (*s) {
                char c = *s;
                if (c == '@') *p++ = '%';
                if (c >= 'a' && c <= 'z' && round == 1) c = c - 32;
                *p++ = c;
                s++;
            }
            *p++ = ';';
        }
        *p = '\0';
    }
    return (int) strlen(tmpl) > 0 ? 0 : -1;
}

/* Move request: move a message between folders — folder file I/O plus
   the header rewrite appended to the destination folder. */
char foldbuf[300];
int pine_move(int idx) {
    if (!index_built) return -3;
    if (idx < 0 || idx >= nmsgs) return -1;
    if (!msgs[idx].used) return -1;
    strncpy(foldbuf, msgs[idx].body, 256);
    foldbuf[256] = '\0';
    io_wait(4096);
    io_wait(512);
    msgs[idx].used = 0;
    return 0;
}

int pine_message_count() {
    int i; int n = 0;
    for (i = 0; i < nmsgs; i++) if (msgs[i].used) n++;
    return n;
}
"#;

/// A Pine process plus the driver-side mailbox replay state.
#[derive(Clone)]
pub struct Pine {
    proc: Process,
    /// The mail file: replayed into any restarted process (the mailbox
    /// persists on disk even when the reader crashes).
    mailbox: Mailbox,
    /// Outcome of the initial index build (the init-time vulnerability).
    init_outcome: Outcome,
    /// The process frozen after `pine_init` plus the boot-time mailbox
    /// adds, *before* the index build: the restart base. A restart
    /// clones it and replays only the messages delivered since boot
    /// plus the index build — the exact call sequence a from-scratch
    /// boot performs, so the restarted reader is byte-identical to one
    /// that re-read the whole mail file, at O(delta) instead of
    /// O(mailbox) cost.
    restart_base: Option<Arc<Process>>,
    /// Messages of `mailbox` already loaded in `restart_base`.
    base_messages: usize,
}

/// A From field that triggers the quoting overflow: `quoted` characters
/// that each grow by one byte.
pub fn attack_from(quoted: usize) -> Vec<u8> {
    workload::pine_attack_from(quoted)
}

impl Pine {
    /// Legacy convenience over [`Pine::boot_spec`] with a default spec
    /// for `mode`; prefer constructing a [`BootSpec`] at the call site.
    pub fn boot(mode: Mode, mailbox: Mailbox) -> Pine {
        Pine::boot_spec(&BootSpec::new(ServerKind::Pine, mode), mailbox)
    }

    /// Boots Pine from a full [`BootSpec`] (interned image). Over the
    /// standard seed mailbox it is a clone of the per-spec frozen boot
    /// instead of a replay of initialization.
    pub fn boot_spec(spec: &BootSpec, mailbox: Mailbox) -> Pine {
        if &mailbox == image::standard_pine_mailbox() {
            let Server::Pine(pine) = &*image::boot_checkpoint(ServerKind::Pine, spec) else {
                unreachable!("Pine cache slot holds a Pine reader");
            };
            return pine.clone();
        }
        Pine::boot_image_spec(&ServerKind::Pine.image_tier(spec.tier), spec, mailbox)
    }

    /// Boots Pine from an explicit image and a full [`BootSpec`],
    /// bypassing the boot cache (the cache's own fill path, and the
    /// differential baseline the equivalence tests compare against).
    pub fn boot_image_spec(image: &ProgramImage, spec: &BootSpec, mailbox: Mailbox) -> Pine {
        let mut proc = Process::boot_spec(image, spec);
        let r = proc.call("pine_init", &[]);
        assert!(r.outcome.survived(), "pine_init cannot fail");
        let mut pine = Pine {
            proc,
            mailbox,
            init_outcome: r.outcome,
            restart_base: None,
            base_messages: 0,
        };
        pine.add_messages(0);
        // Freeze the pre-index state: `pine_init` plus every boot-time
        // add is captured here, so restarts clone this base and replay
        // only the delta (messages delivered after boot) before the
        // index build — the same call sequence as a fresh boot.
        if !pine.proc.is_dead() {
            pine.restart_base = Some(Arc::new(pine.proc.clone()));
            pine.base_messages = pine.mailbox.len();
        }
        pine.finish_index();
        pine
    }

    /// A standard mailbox of `n` ordinary messages.
    pub fn standard_mailbox(n: usize) -> Mailbox {
        (0..n)
            .map(|i| {
                (
                    workload::from_field(i as u64),
                    format!("subject {i}").into_bytes(),
                    workload::lorem(700, 100 + i as u64),
                )
            })
            .collect()
    }

    /// Feeds `mailbox[from..]` to the running process in order; once the
    /// process dies mid-replay the rest are dead calls.
    fn add_messages(&mut self, from: usize) {
        for (from_f, subject, body) in &self.mailbox[from..] {
            self.proc.call(
                "pine_add_message",
                &[Arg::Str(from_f), Arg::Str(subject), Arg::Str(body)],
            );
        }
    }

    /// Runs the index build (the init-time vulnerability) and records
    /// how initialization went.
    fn finish_index(&mut self) {
        self.init_outcome = self.proc.call("pine_build_index", &[]).outcome;
    }

    /// How initialization (mail file load) went.
    pub fn init_outcome(&self) -> &Outcome {
        &self.init_outcome
    }

    /// Whether the reader is usable at all.
    pub fn usable(&self) -> bool {
        self.init_outcome.survived() && !self.proc.is_dead()
    }

    /// The underlying process.
    pub fn process(&self) -> &Process {
        &self.proc
    }

    /// Appends a message to the mail file and delivers it to the running
    /// process (new mail arriving).
    pub fn deliver(&mut self, from: &[u8], subject: &[u8], body: &[u8]) -> Measured {
        self.mailbox
            .push((from.to_vec(), subject.to_vec(), body.to_vec()));
        let r = self.proc.call(
            "pine_add_message",
            &[Arg::Str(from), Arg::Str(subject), Arg::Str(body)],
        );
        let Some(idx) = r.outcome.ret() else {
            return r;
        };
        // The index view updates as mail arrives: the vulnerable path.
        self.proc.call("pine_index_entry", &[Arg::Int(idx)])
    }

    /// Figure 2 "Read".
    pub fn read(&mut self, idx: i64) -> Measured {
        self.proc.call("pine_read", &[Arg::Int(idx)])
    }

    /// Figure 2 "Compose".
    pub fn compose(&mut self) -> Measured {
        self.proc.call("pine_compose", &[])
    }

    /// Figure 2 "Move".
    pub fn move_message(&mut self, idx: i64) -> Measured {
        self.proc.call("pine_move", &[Arg::Int(idx)])
    }

    /// Restarts the process and replays the mail file — the §4.7 point:
    /// when the bad message is *in the mailbox*, restarting just dies
    /// again during initialization.
    ///
    /// The replay clones the pre-index restart base (init plus the
    /// boot-time mailbox, frozen at boot) and re-runs only the messages
    /// delivered since, then the index build — byte-identical to a
    /// from-scratch boot over the current mail file, but O(1) in the
    /// boot-time environment.
    pub fn restart(&mut self) {
        if let Some(base) = &self.restart_base {
            self.proc = Process::clone(base);
            self.add_messages(self.base_messages);
            self.finish_index();
            return;
        }
        // No base (the boot itself died mid-replay): a full reboot is
        // the only faithful replay.
        let mailbox = self.mailbox.clone();
        let spec = *self.proc.spec();
        *self = Pine::boot_spec(&spec, mailbox);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_mailbox_works_everywhere() {
        for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
            let mut pine = Pine::boot(mode, Pine::standard_mailbox(6));
            assert!(pine.usable(), "mode {mode:?}");
            assert_eq!(pine.read(2).outcome.ret(), Some(0), "mode {mode:?}");
            assert_eq!(pine.compose().outcome.ret(), Some(0), "mode {mode:?}");
            assert_eq!(pine.move_message(1).outcome.ret(), Some(0), "mode {mode:?}");
        }
    }

    #[test]
    fn poisoned_mailbox_kills_standard_at_init() {
        let mut mailbox = Pine::standard_mailbox(4);
        mailbox.insert(2, (attack_from(40), b"pwn".to_vec(), b"x".to_vec()));
        let pine = Pine::boot(Mode::Standard, mailbox);
        assert!(!pine.usable(), "Standard Pine must die loading the mailbox");
        let Outcome::Crashed(f) = pine.init_outcome() else {
            panic!("expected crash");
        };
        assert!(f.is_segfault_like(), "expected heap corruption, got {f}");
    }

    #[test]
    fn poisoned_mailbox_kills_bounds_check_at_init_even_after_restart() {
        let mut mailbox = Pine::standard_mailbox(4);
        mailbox.insert(2, (attack_from(40), b"pwn".to_vec(), b"x".to_vec()));
        let mut pine = Pine::boot(Mode::BoundsCheck, mailbox);
        assert!(!pine.usable());
        let Outcome::Crashed(f) = pine.init_outcome() else {
            panic!("expected termination");
        };
        assert!(f.is_memory_error(), "got {f}");
        // §4.7: restarting is no use — it dies during initialization again.
        pine.restart();
        assert!(!pine.usable(), "restart must die the same way");
    }

    #[test]
    fn failure_oblivious_loads_poisoned_mailbox_and_serves() {
        let mut mailbox = Pine::standard_mailbox(4);
        let bad_idx = 2;
        mailbox.insert(
            bad_idx,
            (attack_from(40), b"pwn".to_vec(), b"body".to_vec()),
        );
        let mut pine = Pine::boot(Mode::FailureOblivious, mailbox);
        assert!(pine.usable(), "FO Pine must survive the poisoned mailbox");
        assert!(
            pine.process().machine().space().error_log().total_writes() > 0,
            "the discarded writes must be logged"
        );
        // All messages remain readable, including the poisoned one, whose
        // full From field is rendered by the correct path.
        for i in 0..5 {
            let r = pine.read(i);
            assert_eq!(r.outcome.ret(), Some(0), "message {i}");
            if i == bad_idx as i64 {
                let out = String::from_utf8_lossy(r.outcome.output()).to_string();
                assert!(
                    out.contains("attacker@evil.example"),
                    "complete From must display: {out}"
                );
            }
        }
        assert_eq!(pine.compose().outcome.ret(), Some(0));
        assert_eq!(pine.move_message(0).outcome.ret(), Some(0));
    }

    #[test]
    fn attack_mail_arriving_live_is_survived_only_by_fo() {
        // Standard dies when the poisoned message's index entry renders.
        let mut pine = Pine::boot(Mode::Standard, Pine::standard_mailbox(3));
        let r = pine.deliver(&attack_from(40), b"pwn", b"x");
        assert!(!r.outcome.survived());
        // FO keeps going and subsequent mail still arrives.
        let mut pine = Pine::boot(Mode::FailureOblivious, Pine::standard_mailbox(3));
        let r = pine.deliver(&attack_from(40), b"pwn", b"x");
        assert!(r.outcome.survived());
        let r = pine.deliver(&workload::from_field(9), b"later", b"fine");
        assert_eq!(r.outcome.ret(), Some(0));
        assert_eq!(pine.read(3).outcome.ret(), Some(0));
    }

    #[test]
    fn read_and_compose_are_parse_bound_move_is_io_bound() {
        let mut std = Pine::boot(Mode::Standard, Pine::standard_mailbox(8));
        let mut fo = Pine::boot(Mode::FailureOblivious, Pine::standard_mailbox(8));
        let read = fo.read(3).cycles as f64 / std.read(3).cycles as f64;
        let compose = fo.compose().cycles as f64 / std.compose().cycles as f64;
        let mv = fo.move_message(2).cycles as f64 / std.move_message(2).cycles as f64;
        assert!(read > 2.0, "read slowdown {read}");
        assert!(compose > 2.0, "compose slowdown {compose}");
        assert!(mv < 2.0, "move slowdown {mv}");
        assert!(
            mv < read && mv < compose,
            "move must be the cheapest: {mv} vs {read}/{compose}"
        );
    }
}
