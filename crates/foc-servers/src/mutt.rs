//! Mutt 1.4 (§2, §4.6): the UTF-8 → UTF-7 conversion overflow.
//!
//! `utf8_to_utf7` below is a transliteration of the paper's Figure 1,
//! `goto bail` and all. The bug is the allocation on the marked line:
//! the conversion can expand the name by up to 7/3, but only `u8len*2+1`
//! bytes are allocated. A folder name alternating control characters with
//! printable ones expands 3×: each control character opens (or continues
//! re-opening) a Base64 run — `&`, two or three Base64 chars, `-` — six
//! output bytes for every two input bytes.
//!
//! Per-mode behaviour (§4.6.2, asserted by the tests):
//!
//! * **Standard** — the overflow tramples the adjacent free block's
//!   header; the shrink-to-fit `realloc` walks the free list and the
//!   process dies of heap corruption ("corrupts its heap, and terminates
//!   with a segmentation violation").
//! * **Bounds Check** — memory error at the first out-of-bounds store;
//!   when the bad folder name is in the configuration, the process dies
//!   before the UI comes up.
//! * **Failure Oblivious** — out-of-bounds writes are discarded
//!   (truncating the converted name), the IMAP select fails with
//!   "folder does not exist", Mutt's error handling rejects it, and the
//!   user continues working with legitimate folders.

use foc_compiler::ProgramImage;
use foc_memory::Mode;

use crate::image::{self, ServerKind};
use crate::{Arg, BootSpec, Measured, Process, Server};

/// MiniC source of the Mutt model.
pub const MUTT_SOURCE: &str = r#"
/* ---- Figure 1 (Rinard et al., OSDI 2004) ---------------------------- */

char B64Chars[64] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+,";

char *utf8_to_utf7(char *u8, size_t u8len) {
    char *buf; char *p;
    int ch; int n; int i; int b = 0; int k = 0; int base64 = 0;
    /* The following line allocates the return string. The allocated
       string is too small; instead of u8len*2+1, a safe length would be
       u8len*4+1. */
    p = buf = (char *) malloc(u8len * 2 + 1);
    while (u8len) {
        unsigned char c = *u8;
        if (c < 0x80) ch = c, n = 0;
        else if (c < 0xc2) goto bail;
        else if (c < 0xe0) ch = c & 0x1f, n = 1;
        else if (c < 0xf0) ch = c & 0x0f, n = 2;
        else if (c < 0xf8) ch = c & 0x07, n = 3;
        else if (c < 0xfc) ch = c & 0x03, n = 4;
        else if (c < 0xfe) ch = c & 0x01, n = 5;
        else goto bail;
        u8++; u8len--;
        if (n > u8len) goto bail;
        for (i = 0; i < n; i++) {
            if ((u8[i] & 0xc0) != 0x80) goto bail;
            ch = (ch << 6) | (u8[i] & 0x3f);
        }
        if (n > 1 && !(ch >> (n * 5 + 1))) goto bail;
        u8 += n; u8len -= n;
        if (ch < 0x20 || ch >= 0x7f) {
            if (!base64) {
                *p++ = '&';
                base64 = 1;
                b = 0;
                k = 10;
            }
            if (ch & ~0xffff) ch = 0xfffe;
            *p++ = B64Chars[b | ch >> k];
            k -= 6;
            for (; k >= 0; k -= 6)
                *p++ = B64Chars[(ch >> k) & 0x3f];
            b = (ch << (-k)) & 0x3f;
            k += 16;
        } else {
            if (base64) {
                if (k > 10) *p++ = B64Chars[b];
                *p++ = '-';
                base64 = 0;
            }
            *p++ = ch;
            if (ch == '&') *p++ = '-';
        }
    }
    if (base64) {
        if (k > 10) *p++ = B64Chars[b];
        *p++ = '-';
    }
    *p++ = '\0';
    buf = (char *) realloc(buf, p - buf);
    return buf;
bail:
    free(buf);
    return 0;
}

/* ---- Minimal IMAP server the client talks to ------------------------ */

char folders[4][24];
int nfolders = 0;

int imap_select(char *name) {
    int i;
    io_wait(32); /* network round trip to the IMAP server */
    for (i = 0; i < nfolders; i++) {
        if (strcmp(folders[i], name) == 0) return 0;
    }
    return -1; /* NO [NONEXISTENT] */
}

/* ---- Mailbox state --------------------------------------------------- */

struct message {
    int used;
    char from[64];
    char subject[64];
    char body[2048];
};

struct message msgs[64];
int nmsgs = 0;
int folder_open = 0;

int mutt_init() {
    strcpy(folders[0], "INBOX");
    strcpy(folders[1], "work");
    strcpy(folders[2], "archive");
    nfolders = 3;
    /* Scratch allocations made during startup (header cache etc.); the
       freed block seeds the free list so later conversions allocate in
       the middle of the heap, with allocator metadata after them. */
    char *scratch = (char *) malloc(512);
    scratch[0] = 'x';
    free(scratch);
    return 0;
}

int mutt_add_message(char *from, char *subject, char *body) {
    if (nmsgs >= 64) return -1;
    msgs[nmsgs].used = 1;
    strncpy(msgs[nmsgs].from, from, 63);
    msgs[nmsgs].from[63] = '\0';
    strncpy(msgs[nmsgs].subject, subject, 63);
    msgs[nmsgs].subject[63] = '\0';
    strncpy(msgs[nmsgs].body, body, 2047);
    msgs[nmsgs].body[2047] = '\0';
    nmsgs++;
    return nmsgs - 1;
}

/* Open a mailbox by its UTF-8 folder name: the vulnerable path. */
int mutt_open_folder(char *name_u8) {
    size_t len = strlen(name_u8);
    char *u7 = utf8_to_utf7(name_u8, len);
    if (!u7) return -2;          /* malformed UTF-8: anticipated error */
    int rc = imap_select(u7);
    free(u7);
    if (rc != 0) return -1;      /* folder does not exist: anticipated */
    folder_open = 1;
    return 0;
}

/* Read (display) a message: the pager re-renders it, which is parse
   work, not network work (the message is already in core). */
int mutt_read_message(int idx) {
    if (!folder_open) return -3;
    if (idx < 0 || idx >= nmsgs) return -1;
    if (!msgs[idx].used) return -1;
    io_wait(16); /* tty writes */
    char line[4200];
    char *p;
    char *s;
    int pass;
    int urls = 0;
    /* Pass 1-2: quote-escape and display-transform header then body. */
    for (pass = 0; pass < 2; pass++) {
        s = pass == 0 ? msgs[idx].from : msgs[idx].body;
        p = line;
        while (*s) {
            char c = *s;
            if (c == '\\' || c == '"') *p++ = '\\';
            if (c >= 'a' && c <= 'z') c = c - 32; /* display transform */
            *p++ = c;
            s++;
        }
        *p = '\0';
        print_str(line);
        print_str("\n");
    }
    /* Pass 3: pager link scan (mutt's <url> detection). */
    s = msgs[idx].body;
    while (*s) {
        if (s[0] == 'h' && s[1] == 't' && s[2] == 't' && s[3] == 'p') urls++;
        s++;
    }
    /* Pass 4: line wrapping — count display columns. */
    s = msgs[idx].body;
    int col = 0;
    int wraps = 0;
    while (*s) {
        col++;
        if (col >= 80 || *s == '\n') { wraps++; col = 0; }
        s++;
    }
    return urls + wraps >= 0 ? 0 : -1;
}

/* Move a message to another folder: dominated by IMAP round trips. */
int mutt_move_message(int idx, char *dest) {
    if (!folder_open) return -3;
    if (idx < 0 || idx >= nmsgs) return -1;
    if (!msgs[idx].used) return -1;
    if (imap_select(dest) != 0) return -1;
    /* Serialise the envelope + headers into the APPEND buffer... */
    char append[300];
    strncpy(append, msgs[idx].body, 256);
    append[256] = '\0';
    /* ...then APPEND + STORE +FLAGS \Deleted + EXPUNGE round trips. */
    io_wait(2048);
    io_wait(256);
    msgs[idx].used = 0;
    return 0;
}

int mutt_message_count() {
    int i; int n = 0;
    for (i = 0; i < nmsgs; i++) if (msgs[i].used) n++;
    return n;
}
"#;

/// A Mutt process under a given policy.
#[derive(Clone)]
pub struct Mutt {
    proc: Process,
}

/// A folder name that triggers the Figure 1 overflow: `pairs` repetitions
/// of a control character followed by a printable one (3× expansion; the
/// buffer only allows 2×).
pub fn attack_folder_name(pairs: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(pairs * 2);
    for _ in 0..pairs {
        v.push(0x01);
        v.push(b'a');
    }
    v
}

impl Mutt {
    /// Legacy convenience over [`Mutt::boot_spec`] with a default spec
    /// for `mode`; prefer constructing a [`BootSpec`] at the call site.
    pub fn boot(mode: Mode, seed_messages: usize) -> Mutt {
        Mutt::boot_spec(&BootSpec::new(ServerKind::Mutt, mode), seed_messages)
    }

    /// Boots Mutt from a full [`BootSpec`] (interned image). With the
    /// standard seed count it is a clone of the per-spec frozen boot.
    pub fn boot_spec(spec: &BootSpec, seed_messages: usize) -> Mutt {
        if seed_messages == image::MUTT_SEED_MESSAGES {
            let Server::Mutt(mutt) = &*image::boot_checkpoint(ServerKind::Mutt, spec) else {
                unreachable!("Mutt cache slot holds a Mutt reader");
            };
            return mutt.clone();
        }
        Mutt::boot_image_spec(&ServerKind::Mutt.image_tier(spec.tier), spec, seed_messages)
    }

    /// Boots Mutt from an explicit image and a full [`BootSpec`].
    pub fn boot_image_spec(image: &ProgramImage, spec: &BootSpec, seed_messages: usize) -> Mutt {
        let mut proc = Process::boot_spec(image, spec);
        let r = proc.call("mutt_init", &[]);
        assert!(
            r.outcome.survived(),
            "mutt_init cannot fail: {:?}",
            r.outcome
        );
        let mut mutt = Mutt { proc };
        let body = crate::workload::lorem(1400, 7);
        for i in 0..seed_messages {
            mutt.add_message(
                format!("user{i}@example.org").as_bytes(),
                format!("subject {i}").as_bytes(),
                &body,
            );
        }
        mutt
    }

    /// Overwrites this reader with `src` in place
    /// ([`Process::restore_from`]).
    pub fn restore_from(&mut self, src: &Mutt) {
        let Mutt { proc } = self;
        proc.restore_from(&src.proc);
    }

    /// The underlying process.
    pub fn process(&self) -> &Process {
        &self.proc
    }

    /// Whether the reader can serve.
    pub fn usable(&self) -> bool {
        !self.proc.is_dead()
    }

    /// Adds a message to the open mailbox (driver-side seeding).
    pub fn add_message(&mut self, from: &[u8], subject: &[u8], body: &[u8]) -> Option<i64> {
        let args = [Arg::Str(from), Arg::Str(subject), Arg::Str(body)];
        self.proc.call("mutt_add_message", &args).outcome.ret()
    }

    /// Opens a folder by UTF-8 name (the vulnerable request).
    pub fn open_folder(&mut self, name: &[u8]) -> Measured {
        self.proc.call("mutt_open_folder", &[Arg::Str(name)])
    }

    /// Reads message `idx` (Figure 6 "Read" request).
    pub fn read_message(&mut self, idx: i64) -> Measured {
        self.proc.call("mutt_read_message", &[Arg::Int(idx)])
    }

    /// Moves message `idx` to `dest` (Figure 6 "Move" request).
    pub fn move_message(&mut self, idx: i64, dest: &[u8]) -> Measured {
        self.proc
            .call("mutt_move_message", &[Arg::Int(idx), Arg::Str(dest)])
    }

    /// Live message count (consistency checks in stability runs).
    pub fn message_count(&mut self) -> Option<i64> {
        self.proc.call("mutt_message_count", &[]).outcome.ret()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Outcome;

    #[test]
    fn legitimate_folders_work_in_every_mode() {
        for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
            let mut mutt = Mutt::boot(mode, 2);
            let r = mutt.open_folder(b"INBOX");
            assert_eq!(r.outcome.ret(), Some(0), "mode {mode:?}");
            let r = mutt.read_message(0);
            assert_eq!(r.outcome.ret(), Some(0), "mode {mode:?}");
            let out = String::from_utf8_lossy(r.outcome.output()).to_string();
            assert!(out.contains("USER0@EXAMPLE.ORG"), "display output: {out}");
            let r = mutt.move_message(1, b"archive");
            assert_eq!(r.outcome.ret(), Some(0), "mode {mode:?}");
        }
    }

    #[test]
    fn conversion_is_correct_for_plain_ascii() {
        let mut mutt = Mutt::boot(Mode::BoundsCheck, 0);
        // ASCII-only names convert to themselves: selecting "work" works.
        assert_eq!(mutt.open_folder(b"work").outcome.ret(), Some(0));
    }

    #[test]
    fn malformed_utf8_is_an_anticipated_error() {
        // 0xC0 is in the `goto bail` range of Figure 1.
        for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
            let mut mutt = Mutt::boot(mode, 0);
            let r = mutt.open_folder(&[0xC0, 0x80]);
            assert_eq!(r.outcome.ret(), Some(-2), "mode {mode:?}");
        }
    }

    #[test]
    fn standard_version_dies_of_heap_corruption() {
        let mut mutt = Mutt::boot(Mode::Standard, 2);
        let r = mutt.open_folder(&attack_folder_name(40));
        let Outcome::Crashed(f) = &r.outcome else {
            panic!("Standard Mutt must crash, got {:?}", r.outcome);
        };
        assert!(f.is_segfault_like(), "expected heap corruption, got {f}");
        // The process is gone: further requests fail.
        assert!(!mutt.read_message(0).outcome.survived());
    }

    #[test]
    fn bounds_check_version_terminates_with_memory_error() {
        let mut mutt = Mutt::boot(Mode::BoundsCheck, 2);
        let r = mutt.open_folder(&attack_folder_name(40));
        let Outcome::Crashed(f) = &r.outcome else {
            panic!("Bounds-Check Mutt must terminate, got {:?}", r.outcome);
        };
        assert!(f.is_memory_error(), "expected memory error, got {f}");
    }

    #[test]
    fn failure_oblivious_version_continues_serving() {
        let mut mutt = Mutt::boot(Mode::FailureOblivious, 3);
        // The attack folder is rejected as "does not exist" — the paper's
        // conversion of an unanticipated attack into an anticipated error.
        let r = mutt.open_folder(&attack_folder_name(40));
        assert_eq!(r.outcome.ret(), Some(-1), "attack must be rejected");
        // Memory errors were logged (discarded writes).
        assert!(mutt.process().machine().space().error_log().total_writes() > 0);
        // The user continues processing mail from legitimate folders.
        assert_eq!(mutt.open_folder(b"INBOX").outcome.ret(), Some(0));
        assert_eq!(mutt.read_message(0).outcome.ret(), Some(0));
        assert_eq!(mutt.move_message(1, b"work").outcome.ret(), Some(0));
        assert_eq!(mutt.message_count(), Some(2));
    }

    #[test]
    fn failure_oblivious_survives_repeated_attacks() {
        let mut mutt = Mutt::boot(Mode::FailureOblivious, 2);
        for pairs in [10, 20, 40, 80, 120] {
            let r = mutt.open_folder(&attack_folder_name(pairs));
            assert_eq!(r.outcome.ret(), Some(-1), "attack {pairs} must be rejected");
        }
        assert_eq!(mutt.open_folder(b"archive").outcome.ret(), Some(0));
        assert_eq!(mutt.read_message(0).outcome.ret(), Some(0));
    }

    #[test]
    fn boundless_and_redirect_variants_also_survive() {
        for mode in [Mode::Boundless, Mode::Redirect] {
            let mut mutt = Mutt::boot(mode, 1);
            let r = mutt.open_folder(&attack_folder_name(40));
            assert!(r.outcome.survived(), "mode {mode:?}: {:?}", r.outcome);
            assert_eq!(
                mutt.open_folder(b"INBOX").outcome.ret(),
                Some(0),
                "mode {mode:?}"
            );
            assert_eq!(mutt.read_message(0).outcome.ret(), Some(0), "mode {mode:?}");
        }
    }

    #[test]
    fn fo_read_is_slower_than_standard_but_move_is_closer() {
        // The Figure 6 shape: Read is parse-bound (large slowdown), Move is
        // I/O-bound (small slowdown).
        let mut std = Mutt::boot(Mode::Standard, 2);
        let mut fo = Mutt::boot(Mode::FailureOblivious, 2);
        std.open_folder(b"INBOX");
        fo.open_folder(b"INBOX");
        let read_std = std.read_message(0).cycles as f64;
        let read_fo = fo.read_message(0).cycles as f64;
        let move_std = std.move_message(1, b"work").cycles as f64;
        let move_fo = fo.move_message(1, b"work").cycles as f64;
        let read_slowdown = read_fo / read_std;
        let move_slowdown = move_fo / move_std;
        assert!(read_slowdown > 1.5, "read slowdown {read_slowdown}");
        assert!(
            move_slowdown < read_slowdown,
            "move {move_slowdown} < read {read_slowdown}"
        );
    }
}
