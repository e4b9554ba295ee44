//! Apache 2.0.47 (§4.3): the mod_rewrite capture-offsets overflow.
//!
//! Apache's URL rewriting records each parenthesised capture's start/end
//! offsets in a stack buffer "with enough room for ten captures. If there
//! are more, Apache writes the corresponding pairs of offsets beyond the
//! end of the buffer." The real vulnerability needs a rewrite pattern
//! with many groups; we model the pattern's repeated capturing group with
//! a `%` glob that captures *every* URL segment it consumes, so a
//! remotely supplied URL with more than ten segments drives the overflow
//! (same buffer, same write pattern, attacker-controlled count).
//!
//! Per-mode behaviour (§4.3.2):
//!
//! * **Standard** — out-of-bounds writes corrupt the stack; the child
//!   process serving the connection dies of a stack smash.
//! * **Bounds Check** — the child terminates with a memory error.
//!   In both cases Apache's regenerating process pool respawns children,
//!   so the *server* keeps working — at the cost of process management
//!   overhead, which the throughput experiment quantifies.
//! * **Failure Oblivious** — the writes beyond ten pairs are discarded;
//!   the first ten pairs are copied into the rewrite info structure; the
//!   replacement only ever references `$0`–`$9`, so the rewritten URL is
//!   exactly right and the request is processed *correctly* (the errors
//!   occur in irrelevant data).

use foc_compiler::ProgramImage;
use foc_memory::Mode;

use crate::image::{self, ServerKind};
use crate::{Arg, BootSpec, Measured, Outcome, Process, Server};

/// MiniC source of the Apache worker.
pub const APACHE_SOURCE: &str = r#"
/* ---- Document store --------------------------------------------------- */

struct wfile {
    int used;
    char path[64];
    long size;
};

struct wfile docs[16];
int ndocs = 0;

int apache_add_doc(char *path, long size) {
    if (ndocs >= 16) return -1;
    docs[ndocs].used = 1;
    strncpy(docs[ndocs].path, path, 63);
    docs[ndocs].path[63] = '\0';
    docs[ndocs].size = size;
    ndocs++;
    return ndocs - 1;
}

long doc_lookup(char *path) {
    int i;
    for (i = 0; i < ndocs; i++) {
        if (docs[i].used && strcmp(docs[i].path, path) == 0) return i;
    }
    return -1;
}

/* ---- mod_rewrite ------------------------------------------------------- */

char rw_pattern[32];
char rw_replacement[64];
int rw_enabled = 0;

int apache_set_rewrite(char *pattern, char *replacement) {
    strncpy(rw_pattern, pattern, 31);
    rw_pattern[31] = '\0';
    strncpy(rw_replacement, replacement, 63);
    rw_replacement[63] = '\0';
    rw_enabled = 1;
    return 0;
}

/* Applies the rewrite rule. Pattern language: literal characters match
   themselves; '%' matches a run of '/'-separated segments, capturing
   each one (the repeated capturing group). Capture offsets land in a
   stack buffer sized for ten pairs — writes beyond it are unchecked. */
int apply_rewrite(char *url, char *out, size_t outcap) {
    /* C89-style declarations: every scratch variable precedes the offsets
       buffer, so the buffer sits at the top of the frame — directly below
       the saved return state, as in the real Apache child. */
    int ncap;
    int u;
    int p;
    int i;
    int keep;
    int o;
    int r;
    int start;
    int g;
    int s;
    int e;
    char c;
    int info[20];
    int offsets[20];         /* ten (start, end) pairs — the §4.3 buffer */
    ncap = 0;
    u = 0;
    p = 0;
    while (rw_pattern[p]) {
        if (rw_pattern[p] == '%') {
            while (url[u] == '/') {
                start = u + 1;
                u++;
                while (url[u] && url[u] != '/') u++;
                offsets[ncap * 2] = start;      /* BUG: unchecked count */
                offsets[ncap * 2 + 1] = u;
                ncap++;
            }
            p++;
        } else {
            if (url[u] != rw_pattern[p]) return -1;
            u++;
            p++;
        }
    }
    if (url[u]) return -1;
    /* Copy the first ten pairs into the rewrite info structure. */
    keep = ncap > 10 ? 10 : ncap;
    for (i = 0; i < keep * 2; i++) info[i] = offsets[i];
    /* Substitute $0..$9 in the replacement. */
    o = 0;
    r = 0;
    while (rw_replacement[r]) {
        c = rw_replacement[r];
        if (c == '$' && rw_replacement[r + 1] >= '0' && rw_replacement[r + 1] <= '9') {
            g = rw_replacement[r + 1] - '0';
            if (g < keep) {
                s = info[g * 2];
                e = info[g * 2 + 1];
                while (s < e) {
                    if ((size_t) o + 1 < outcap) out[o] = url[s], o++;
                    s++;
                }
            }
            r += 2;
        } else {
            if ((size_t) o + 1 < outcap) out[o] = c, o++;
            r++;
        }
    }
    out[o] = '\0';
    return ncap;
}

/* ---- Request handling -------------------------------------------------- */

long requests_served = 0;

/* Serves one GET. Returns the HTTP status code. */
int handle_request(char *url) {
    char path[128];
    char rewritten[128];
    /* Parse the request path (strip a query string). */
    int i = 0;
    while (url[i] && url[i] != '?' && i < 127) {
        path[i] = url[i];
        i++;
    }
    path[i] = '\0';
    /* Rewrite when enabled and the rule prefix matches. */
    if (rw_enabled && strncmp(path, "/rw/", 4) == 0) {
        char *sub = path + 3;       /* keep the leading '/' of segment 1 */
        int rc = apply_rewrite(sub, rewritten, 128);
        if (rc < 0) return 400;
        strncpy(path, rewritten, 127);
        path[127] = '\0';
    }
    long d = doc_lookup(path);
    requests_served++;
    if (d < 0) {
        print_str("HTTP/1.1 404 Not Found\r\n\r\n");
        io_wait(64);
        return 404;
    }
    print_str("HTTP/1.1 200 OK\r\n");
    print_str("Content-Length: ");
    print_int(docs[d].size);
    print_str("\r\n\r\n");
    io_wait(docs[d].size);           /* sendfile(2): kernel-side copy */
    return 200;
}

long apache_requests_served() {
    return requests_served;
}
"#;

/// Default documents: the 5 KB home page and the 830 KB large file of
/// Figure 3.
pub const SMALL_PAGE: (&str, i64) = ("/index.html", 5 * 1024);
/// The large file of Figure 3.
pub const LARGE_FILE: (&str, i64) = ("/big.bin", 830 * 1024);

/// A URL matching the rewrite rule with `segments` capturable segments;
/// more than ten overflows the offsets buffer.
pub fn rewrite_url(segments: usize) -> Vec<u8> {
    let mut v = b"/rw".to_vec();
    for i in 0..segments {
        v.extend_from_slice(format!("/s{i}").as_bytes());
    }
    v
}

/// The attack URL used throughout the experiments: enough captures to
/// carry the offset writes across the loop scratch slot and into the
/// frame guard (the saved-return-address region).
pub fn attack_url() -> Vec<u8> {
    rewrite_url(20)
}

fn init_worker(proc: &mut Process) {
    let docs = [SMALL_PAGE, LARGE_FILE, ("/s0", 512)];
    for (path, size) in docs {
        let r = proc.call(
            "apache_add_doc",
            &[Arg::Str(path.as_bytes()), Arg::Int(size)],
        );
        assert!(r.outcome.survived(), "init add_doc");
    }
    let r = proc.call("apache_set_rewrite", &[Arg::Str(b"%"), Arg::Str(b"/$0")]);
    assert!(r.outcome.survived(), "init rewrite");
}

/// A single Apache child process.
#[derive(Clone)]
pub struct ApacheWorker {
    proc: Process,
}

impl ApacheWorker {
    /// Legacy convenience over [`ApacheWorker::boot_spec`] with a
    /// default spec for `mode`; prefer constructing a [`BootSpec`] at
    /// the call site.
    pub fn boot(mode: Mode) -> ApacheWorker {
        ApacheWorker::boot_spec(&BootSpec::new(ServerKind::Apache, mode))
    }

    /// Boots one worker from a full [`BootSpec`]: a clone of the
    /// per-spec frozen boot, so farm boots and pool respawns cost a copy
    /// of the process instead of the document/rewrite-rule replay. A
    /// supervised restart copies the same frozen boot over the dead
    /// worker in place instead ([`ApacheWorker::restore_from`]), which
    /// allocates nothing.
    pub fn boot_spec(spec: &BootSpec) -> ApacheWorker {
        let Server::Apache(worker) = &*image::boot_checkpoint(ServerKind::Apache, spec) else {
            unreachable!("Apache cache slot holds an Apache worker");
        };
        worker.clone()
    }

    /// Boots one worker from an explicit image and a full [`BootSpec`],
    /// bypassing the boot cache (the cache's own fill path, and the
    /// differential baseline of the equivalence tests).
    pub fn boot_image_spec(image: &ProgramImage, spec: &BootSpec) -> ApacheWorker {
        let mut proc = Process::boot_spec(image, spec);
        init_worker(&mut proc);
        ApacheWorker { proc }
    }

    /// Overwrites this worker with `src` in place
    /// ([`Process::restore_from`]).
    pub fn restore_from(&mut self, src: &ApacheWorker) {
        let ApacheWorker { proc } = self;
        proc.restore_from(&src.proc);
    }

    /// The underlying process.
    pub fn process(&self) -> &Process {
        &self.proc
    }

    /// Whether this child has died.
    pub fn is_dead(&self) -> bool {
        self.proc.is_dead()
    }

    /// Whether this child can serve.
    pub fn usable(&self) -> bool {
        !self.is_dead()
    }

    /// Serves one request.
    pub fn get(&mut self, url: &[u8]) -> Measured {
        self.proc.call("handle_request", &[Arg::Str(url)])
    }
}

/// Virtual cycles charged for forking and initialising a replacement
/// child (fork + exec + module init). This is the process-management
/// overhead that §4.3.2 blames for the Bounds Check version's throughput
/// loss under attack.
pub const RESTART_COST_CYCLES: u64 = 220_000;

/// The regenerating process pool (the paper's Apache architecture).
pub struct ApachePool {
    spec: BootSpec,
    workers: Vec<ApacheWorker>,
    next: usize,
    /// Total virtual cycles spent, including restart overhead.
    pub total_cycles: u64,
    /// Requests that received a response.
    pub completed: u64,
    /// Child deaths observed.
    pub child_deaths: u64,
}

impl ApachePool {
    /// Creates a pool with `n` children sharing the interned image, on
    /// the shipped-default spec ([`BootSpec::new`]). Children boot (and
    /// later respawn) as clones of the interned frozen boot, so pool
    /// regeneration never replays worker init.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` (a pool with no child can serve nothing —
    /// a harness bug, not a measurement).
    pub fn new(mode: Mode, n: usize) -> ApachePool {
        assert!(n > 0, "pool needs at least one child");
        let spec = BootSpec::new(ServerKind::Apache, mode);
        let workers = (0..n).map(|_| ApacheWorker::boot_spec(&spec)).collect();
        ApachePool {
            spec,
            workers,
            next: 0,
            total_cycles: 0,
            completed: 0,
            child_deaths: 0,
        }
    }

    /// Dispatches one request to the pool, respawning the child if it
    /// dies. Returns the outcome the *client* observes (a dead child is a
    /// dropped connection).
    pub fn get(&mut self, url: &[u8]) -> Outcome {
        let idx = self.next;
        self.next = (self.next + 1) % self.workers.len();
        let r = self.workers[idx].get(url);
        self.total_cycles += r.cycles;
        match &r.outcome {
            Outcome::Done { .. } => {
                self.completed += 1;
            }
            Outcome::Crashed(_) => {
                self.child_deaths += 1;
                self.total_cycles += RESTART_COST_CYCLES;
                self.workers[idx] = ApacheWorker::boot_spec(&self.spec);
            }
        }
        r.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_pages_in_every_mode() {
        for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
            let mut w = ApacheWorker::boot(mode);
            let r = w.get(b"/index.html");
            assert_eq!(r.outcome.ret(), Some(200), "mode {mode:?}");
            let out = String::from_utf8_lossy(r.outcome.output()).to_string();
            assert!(out.contains("200 OK"), "{out}");
            assert!(out.contains("Content-Length: 5120"), "{out}");
            let r = w.get(b"/missing.html");
            assert_eq!(r.outcome.ret(), Some(404));
        }
    }

    #[test]
    fn rewrite_works_for_legitimate_urls() {
        for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
            let mut w = ApacheWorker::boot(mode);
            // "/rw/index.html" rewrites to "/index.html".
            let r = w.get(b"/rw/index.html");
            assert_eq!(r.outcome.ret(), Some(200), "mode {mode:?}");
        }
    }

    #[test]
    fn ten_captures_fit_eleven_do_not() {
        assert_eq!(rewrite_url(12).iter().filter(|&&b| b == b'/').count(), 13);
        // Exactly ten segments: still in bounds everywhere.
        for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
            let mut w = ApacheWorker::boot(mode);
            let r = w.get(&rewrite_url(10));
            assert!(r.outcome.survived(), "10 segments must be safe in {mode:?}");
        }
        // Eleven segments: the Bounds Check child dies.
        let mut w = ApacheWorker::boot(Mode::BoundsCheck);
        let r = w.get(&rewrite_url(11));
        let Outcome::Crashed(f) = &r.outcome else {
            panic!("11 captures must overflow, got {:?}", r.outcome);
        };
        assert!(f.is_memory_error());
    }

    #[test]
    fn attack_kills_standard_child_with_stack_smash() {
        let mut w = ApacheWorker::boot(Mode::Standard);
        let r = w.get(&attack_url());
        let Outcome::Crashed(f) = &r.outcome else {
            panic!("Standard child must die, got {:?}", r.outcome);
        };
        assert!(f.is_segfault_like(), "got {f}");
    }

    #[test]
    fn fo_processes_attack_url_correctly() {
        let mut fo = ApacheWorker::boot(Mode::FailureOblivious);
        let r = fo.get(&attack_url());
        // The rewrite completes using the first ten pairs; "$0" = "s0",
        // so the URL rewrites to "/s0", which exists → 200.
        assert_eq!(r.outcome.ret(), Some(200), "got {:?}", r.outcome);
        assert!(fo.process().machine().space().error_log().total_writes() > 0);
        // Subsequent requests are unaffected.
        assert_eq!(fo.get(b"/index.html").outcome.ret(), Some(200));
    }

    #[test]
    fn fo_rewrite_output_identical_to_safe_case() {
        // The paper: "Failure Oblivious computing eliminates the memory
        // error without affecting the results of the computation at all."
        let mut fo = ApacheWorker::boot(Mode::FailureOblivious);
        let ok = fo.get(&rewrite_url(10));
        let attacked = fo.get(&attack_url());
        assert_eq!(ok.outcome.ret(), attacked.outcome.ret());
    }

    #[test]
    fn pool_restarts_dead_children() {
        let mut pool = ApachePool::new(Mode::BoundsCheck, 2);
        assert!(pool.get(b"/index.html").survived());
        assert!(!pool.get(&attack_url()).survived());
        assert_eq!(pool.child_deaths, 1);
        // The pool recovered: subsequent requests are served.
        assert!(pool.get(b"/index.html").survived());
        assert!(pool.get(b"/index.html").survived());
    }

    #[test]
    #[should_panic(expected = "pool needs at least one child")]
    fn empty_pool_is_rejected_where_it_is_made() {
        ApachePool::new(Mode::FailureOblivious, 0);
    }

    #[test]
    fn pool_under_attack_fo_beats_restarting_modes() {
        // §4.3.2 in miniature: mixed attack + legitimate traffic.
        let run = |mode: Mode| -> f64 {
            let mut pool = ApachePool::new(mode, 2);
            for i in 0..60 {
                if i % 2 == 0 {
                    pool.get(&attack_url());
                } else {
                    pool.get(b"/index.html");
                }
            }
            // Throughput: completed requests per virtual megacycle.
            pool.completed as f64 / (pool.total_cycles as f64 / 1e6)
        };
        let fo = run(Mode::FailureOblivious);
        let bc = run(Mode::BoundsCheck);
        let std = run(Mode::Standard);
        assert!(fo > bc * 2.0, "FO {fo} must far exceed Bounds Check {bc}");
        assert!(fo > std * 2.0, "FO {fo} must far exceed Standard {std}");
    }

    #[test]
    fn large_file_slowdown_is_tiny() {
        // Figure 3: the large transfer is I/O-bound; FO ≈ 1.0×.
        let mut std = ApacheWorker::boot(Mode::Standard);
        let mut fo = ApacheWorker::boot(Mode::FailureOblivious);
        let s = std.get(b"/big.bin").cycles as f64;
        let f = fo.get(b"/big.bin").cycles as f64;
        let slow = f / s;
        assert!(slow < 1.25, "large-file slowdown {slow}");
    }
}
