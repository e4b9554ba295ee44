//! Midnight Commander 4.5.55 (§4.5): the tgz symlink `strcat` overflow.
//!
//! When MC opens a tgz archive it converts absolute symbolic links into
//! links relative to the archive root, building each name with `strcat`
//! in a stack buffer that is *never initialised*: component names simply
//! accumulate across links, and once their combined length exceeds the
//! buffer, `strcat` writes past its end.
//!
//! Two more documented errors live here:
//!
//! * the configuration loader commits a memory error on every *blank
//!   line* (`line[strlen(line) - 1]` underflows) — harmless under the
//!   Standard compiler, fatal at startup under Bounds Check (§4.5.4),
//!   logged-and-ignored under failure-oblivious;
//! * a path-component scan loops "searching past the end of a buffer
//!   looking for the `/` character" (§3) — the paper's motivation for the
//!   manufactured-value sequence: a constant sequence would hang it; the
//!   cycling sequence eventually produces `'/'` and the loop exits.

use foc_compiler::ProgramImage;
use foc_memory::Mode;

use crate::image::{self, ServerKind};
use crate::{Arg, BootSpec, Measured, Outcome, Process, Server};

/// MiniC source of the Midnight Commander model.
pub const MC_SOURCE: &str = r#"
/* ---- Virtual file system ---------------------------------------------- */

struct fentry {
    int used;
    char name[64];
    long size;
    int is_dir;
};

struct fentry fs[128];
int nfs = 0;

long fs_lookup(char *name) {
    int i;
    for (i = 0; i < nfs; i++) {
        if (fs[i].used && strcmp(fs[i].name, name) == 0) return i;
    }
    return -1;
}

int fs_create(char *name, long size, int is_dir) {
    if (nfs >= 128) return -1;
    fs[nfs].used = 1;
    strncpy(fs[nfs].name, name, 63);
    fs[nfs].name[63] = '\0';
    fs[nfs].size = size;
    fs[nfs].is_dir = is_dir;
    nfs++;
    return nfs - 1;
}

/* ---- Configuration loading (the blank-line error) --------------------- */

int config_lines = 0;

int mc_load_config(char *cfg) {
    char line[128];
    int pos = 0;
    int n = 0;
    while (1) {
        int j = 0;
        while (cfg[pos] && cfg[pos] != '\n') {
            if (j < 127) line[j++] = cfg[pos];
            pos++;
        }
        line[j] = '\0';
        /* Strip a trailing CR. BUG: on a blank line strlen() is 0 and the
           index underflows the buffer. */
        if (line[strlen(line) - 1] == '\r') line[strlen(line) - 1] = '\0';
        n++;
        if (!cfg[pos]) break;
        pos++;
    }
    config_lines = n;
    return n;
}

/* ---- tgz symlink conversion (the strcat overflow) ---------------------- */

char links[24][80];
int link_status[24];
int nlinks = 0;

int mc_add_link(char *target) {
    if (nlinks >= 24) return -1;
    strncpy(links[nlinks], target, 79);
    links[nlinks][79] = '\0';
    nlinks++;
    return nlinks - 1;
}

int mc_clear_links() {
    nlinks = 0;
    return 0;
}

/* Opens the archive: converts each absolute link to a relative one. The
   buffer is never initialised and never reset, so component names
   accumulate across iterations (§4.5.1). */
int mc_open_tgz() {
    int i;
    int dangling;
    char buf[64];            /* BUG: uninitialised accumulator */
    dangling = 0;
    io_wait(128);
    for (i = 0; i < nlinks; i++) {
        strcat(buf, "../");
        strcat(buf, links[i]);
        if (fs_lookup(buf) < 0) {
            link_status[i] = 0;   /* shown to the user as dangling */
            dangling++;
        } else {
            link_status[i] = 1;
        }
    }
    return dangling;
}

/* Path-component scan: the loop of §3 that searches for '/' with no
   bounds check. For inputs without a '/' it runs off the end. */
int mc_component_end(char *name) {
    int i;
    char tmp[32];
    strncpy(tmp, name, 31);
    tmp[31] = '\0';
    i = 0;
    while (tmp[i] != '/') i++;
    return i;
}

/* ---- File operations (Figure 5 requests) ------------------------------ */

char rdbuf[4096];
char wrbuf[4096];

/* Copy through userspace buffers, as mc does: read, copy, write. */
long mc_copy_file(char *src, char *dst) {
    long idx = fs_lookup(src);
    if (idx < 0) return -1;
    long size = fs[idx].size;
    if (fs_create(dst, size, fs[idx].is_dir) < 0) return -2;
    long done = 0;
    while (done < size) {
        long chunk = size - done;
        if (chunk > 4096) chunk = 4096;
        io_wait(chunk / 2);
        long k;
        long words = (chunk + 7) / 8;
        long *s = (long *) rdbuf;
        long *d = (long *) wrbuf;
        for (k = 0; k < words; k++) d[k] = s[k];
        io_wait(chunk / 2);
        done += chunk;
    }
    return done;
}

long mc_move_file(char *src, char *dst) {
    long idx = fs_lookup(src);
    if (idx < 0) return -1;
    if (fs_lookup(dst) >= 0) return -2;
    strncpy(fs[idx].name, dst, 63);
    fs[idx].name[63] = '\0';
    io_wait(2048); /* journalled rename: several metadata writes */
    return fs[idx].size;
}

int mc_mkdir(char *name) {
    if (fs_lookup(name) >= 0) return -1;
    int r = fs_create(name, 0, 1);
    io_wait(96);
    return r;
}

int mc_delete(char *name) {
    long idx = fs_lookup(name);
    if (idx < 0) return -1;
    long size = fs[idx].size;
    fs[idx].used = 0;
    io_wait(size / 16 + 32); /* truncate + block-group bitmap updates */
    return 0;
}

int mc_file_count() {
    int i; int n = 0;
    for (i = 0; i < nfs; i++) if (fs[i].used) n++;
    return n;
}
"#;

/// A Midnight Commander process.
#[derive(Clone)]
pub struct Mc {
    proc: Process,
    init_outcome: Outcome,
}

/// A config with only well-formed lines.
pub fn clean_config() -> Vec<u8> {
    b"use_internal_edit=1\nshow_backups=0\npause_after_run=1".to_vec()
}

/// A config containing a blank line — the §4.5.4 error trigger.
pub fn config_with_blank_line() -> Vec<u8> {
    b"use_internal_edit=1\n\nshow_backups=0".to_vec()
}

/// Symlink targets whose combined length overruns the 64-byte buffer.
pub fn attack_links() -> Vec<Vec<u8>> {
    (0..8)
        .map(|i| format!("usr/share/component{i}/lib").into_bytes())
        .collect()
}

impl Mc {
    /// Legacy convenience over [`Mc::boot_spec`] with a default spec
    /// for `mode`; prefer constructing a [`BootSpec`] at the call site.
    pub fn boot(mode: Mode, config: &[u8]) -> Mc {
        Mc::boot_spec(&BootSpec::new(ServerKind::Mc, mode), config)
    }

    /// Boots MC from a full [`BootSpec`] (interned image). Over the
    /// clean standard configuration it is a clone of the per-spec frozen
    /// boot; hostile configurations (the §4.5.4 blank line) boot
    /// fresh — their replay *is* the persistent trigger under study.
    pub fn boot_spec(spec: &BootSpec, config: &[u8]) -> Mc {
        if config == image::standard_mc_config().as_slice() {
            let Server::Mc(mc) = &*image::boot_checkpoint(ServerKind::Mc, spec) else {
                unreachable!("MC cache slot holds an MC");
            };
            return mc.clone();
        }
        Mc::boot_image_spec(&ServerKind::Mc.image_tier(spec.tier), spec, config)
    }

    /// Boots MC from an explicit image and a full [`BootSpec`].
    pub fn boot_image_spec(image: &ProgramImage, spec: &BootSpec, config: &[u8]) -> Mc {
        let mut proc = Process::boot_spec(image, spec);
        let init_outcome = proc.call("mc_load_config", &[Arg::Str(config)]).outcome;
        let mut mc = Mc { proc, init_outcome };
        if mc.usable() {
            // Seed the working directory.
            for (name, size) in [
                ("/home/user/docs", 0),
                ("/home/user/data.bin", 3_276_800i64),
                ("/home/user/tree", 0),
            ] {
                mc.create(name.as_bytes(), size, size == 0);
            }
        }
        mc
    }

    /// Overwrites this process with `src` in place
    /// ([`Process::restore_from`]).
    pub fn restore_from(&mut self, src: &Mc) {
        let Mc { proc, init_outcome } = self;
        proc.restore_from(&src.proc);
        init_outcome.clone_from(&src.init_outcome);
    }

    /// How configuration loading went.
    pub fn init_outcome(&self) -> &Outcome {
        &self.init_outcome
    }

    /// Whether MC started at all.
    pub fn usable(&self) -> bool {
        self.init_outcome.survived() && !self.proc.is_dead()
    }

    /// The underlying process.
    pub fn process(&self) -> &Process {
        &self.proc
    }

    /// Creates a file/directory entry (driver-side seeding).
    pub fn create(&mut self, name: &[u8], size: i64, is_dir: bool) -> Option<i64> {
        let args = [Arg::Str(name), Arg::Int(size), Arg::Int(is_dir as i64)];
        self.proc.call("fs_create", &args).outcome.ret()
    }

    /// Queues the symlinks of an archive, then opens it (the attack path).
    pub fn open_archive(&mut self, links: &[Vec<u8>]) -> Measured {
        let r = self.proc.call("mc_clear_links", &[]);
        if !r.outcome.survived() {
            return r;
        }
        for l in links {
            let r = self.proc.call("mc_add_link", &[Arg::Str(l)]);
            if !r.outcome.survived() {
                return r;
            }
        }
        self.proc.call("mc_open_tgz", &[])
    }

    /// Figure 5 "Copy".
    pub fn copy(&mut self, src: &[u8], dst: &[u8]) -> Measured {
        self.proc
            .call("mc_copy_file", &[Arg::Str(src), Arg::Str(dst)])
    }

    /// Figure 5 "Move".
    pub fn move_file(&mut self, src: &[u8], dst: &[u8]) -> Measured {
        self.proc
            .call("mc_move_file", &[Arg::Str(src), Arg::Str(dst)])
    }

    /// Figure 5 "MkDir".
    pub fn mkdir(&mut self, name: &[u8]) -> Measured {
        self.proc.call("mc_mkdir", &[Arg::Str(name)])
    }

    /// Figure 5 "Delete".
    pub fn delete(&mut self, name: &[u8]) -> Measured {
        self.proc.call("mc_delete", &[Arg::Str(name)])
    }

    /// The §3 `'/'`-scan (ablation experiment entry point).
    pub fn component_end(&mut self, name: &[u8]) -> Measured {
        self.proc.call("mc_component_end", &[Arg::Str(name)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foc_memory::ValueSequence;
    use foc_vm::{Machine, MachineConfig, VmFault};

    #[test]
    fn file_operations_work_in_every_mode() {
        for mode in [Mode::Standard, Mode::BoundsCheck, Mode::FailureOblivious] {
            let mut mc = Mc::boot(mode, &clean_config());
            assert!(mc.usable(), "mode {mode:?}");
            mc.create(b"/tmp/a.txt", 8192, false);
            let r = mc.copy(b"/tmp/a.txt", b"/tmp/b.txt");
            assert_eq!(r.outcome.ret(), Some(8192), "mode {mode:?}");
            let r = mc.move_file(b"/tmp/b.txt", b"/tmp/c.txt");
            assert_eq!(r.outcome.ret(), Some(8192));
            let r = mc.mkdir(b"/tmp/newdir");
            assert!(r.outcome.ret().unwrap_or(-1) >= 0);
            let r = mc.delete(b"/tmp/c.txt");
            assert_eq!(r.outcome.ret(), Some(0));
        }
    }

    #[test]
    fn blank_config_line_disables_bounds_check_only() {
        // Standard: harmless stray read.
        let mc = Mc::boot(Mode::Standard, &config_with_blank_line());
        assert!(mc.usable(), "Standard must tolerate the blank line");
        // Bounds Check: dies during initialization (§4.5.4) — and restarts
        // die again while the blank line persists in the environment.
        let mc = Mc::boot(Mode::BoundsCheck, &config_with_blank_line());
        assert!(!mc.usable());
        let Outcome::Crashed(f) = mc.init_outcome() else {
            panic!("expected init death");
        };
        assert!(f.is_memory_error(), "got {f}");
        // Failure-oblivious: logged, ignored, fully usable.
        let mc = Mc::boot(Mode::FailureOblivious, &config_with_blank_line());
        assert!(mc.usable());
        assert!(mc.process().machine().space().error_log().total() > 0);
    }

    #[test]
    fn archive_attack_per_mode() {
        // Standard: the scan/writes escape the frame → segfault-like death.
        let mut mc = Mc::boot(Mode::Standard, &clean_config());
        let r = mc.open_archive(&attack_links());
        let Outcome::Crashed(f) = &r.outcome else {
            panic!("Standard MC must crash, got {:?}", r.outcome);
        };
        assert!(f.is_segfault_like(), "got {f}");

        // Bounds Check: memory error ends the process.
        let mut mc = Mc::boot(Mode::BoundsCheck, &clean_config());
        let r = mc.open_archive(&attack_links());
        let Outcome::Crashed(f) = &r.outcome else {
            panic!("Bounds-Check MC must terminate, got {:?}", r.outcome);
        };
        assert!(f.is_memory_error(), "got {f}");

        // Failure-oblivious: every link shows as dangling; MC continues.
        let mut mc = Mc::boot(Mode::FailureOblivious, &clean_config());
        let r = mc.open_archive(&attack_links());
        assert_eq!(
            r.outcome.ret(),
            Some(attack_links().len() as i64),
            "all links dangle"
        );
        // Subsequent commands work fine (§4.5.2).
        mc.create(b"/tmp/x", 4096, false);
        assert_eq!(mc.copy(b"/tmp/x", b"/tmp/y").outcome.ret(), Some(4096));
        assert_eq!(mc.delete(b"/tmp/y").outcome.ret(), Some(0));
    }

    #[test]
    fn fo_survives_repeated_archive_openings() {
        let mut mc = Mc::boot(Mode::FailureOblivious, &clean_config());
        for round in 0..5 {
            let r = mc.open_archive(&attack_links());
            assert!(r.outcome.survived(), "round {round}");
            assert_eq!(
                mc.mkdir(format!("/tmp/d{round}").as_bytes())
                    .outcome
                    .ret()
                    .map(|v| v >= 0),
                Some(true)
            );
        }
    }

    #[test]
    fn slash_scan_terminates_under_cycling_sequence_only() {
        // Directly exercise the §3 loop with a name containing no '/'.
        let boot = |seq: ValueSequence| {
            let mut cfg = MachineConfig::with_mode(Mode::FailureOblivious);
            cfg.mem.sequence = seq;
            cfg.fuel_per_call = 2_000_000;
            let mut m = Machine::from_source(MC_SOURCE, cfg).unwrap();
            let p = m.alloc_cstring(b"plainname").unwrap();
            (m, p)
        };
        // The paper's sequence: the scan eventually sees '/' and exits.
        let (mut m, p) = boot(ValueSequence::default());
        let r = m.call("mc_component_end", &[p as i64]);
        assert!(r.is_ok(), "cycling sequence must terminate the loop: {r:?}");
        assert!(r.unwrap() > 31, "the slash was found past the buffer end");
        // A constant-zero sequence never produces '/': the loop hangs.
        let (mut m, p) = boot(ValueSequence::Zero);
        let r = m.call("mc_component_end", &[p as i64]);
        assert_eq!(r, Err(VmFault::FuelExhausted), "zero sequence must hang");
        // Names with a slash never touch the bug.
        let (mut m, _p) = boot(ValueSequence::Zero);
        let q = m.alloc_cstring(b"usr/lib").unwrap();
        assert_eq!(m.call("mc_component_end", &[q as i64]), Ok(3));
    }

    #[test]
    fn copy_loop_lowers_to_two_indexed_ops_and_a_fused_latch() {
        // `for (k = 0; k < words; k++) d[k] = s[k];` is what `mc_copy`
        // spends its time in: two indexed accesses and the latch, every
        // pointer, count and compare operand an 8-byte slot sealed to
        // the one-step kind — and the latch a counted loop's, so its
        // passes run as one move.
        use foc_compiler::native::{CountedLoop, NOp, Src, Term, Test};
        use foc_compiler::CmpOp;
        let image = foc_compiler::compile_image_tier(MC_SOURCE, foc_compiler::ExecTier::Native)
            .expect("MC compiles");
        let fid = image.func_index("mc_copy_file").expect("function exists");
        let nf = image.native_func(fid).expect("native image");
        let mut latches = nf
            .regions
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r.term, Term::IncBranch { .. } | Term::Counted(_)));
        let (at, body) = latches.next().expect("the copy loop's fused latch");
        assert!(latches.next().is_none(), "one counted loop");
        let [NOp::IdxLoad {
            dst,
            ptr: Src::Slot8(s),
            count: Src::Slot8(k),
            esz: 8,
            ..
        }, NOp::IdxStore {
            ptr: Src::Slot8(d),
            count: Src::Slot8(k2),
            val: Src::Reg(v),
            esz: 8,
            ..
        }] = body.ops[..]
        else {
            panic!("body is one indexed load and one indexed store: {body:?}");
        };
        assert!(s != d && k == k2 && v == dst, "{body:?}");
        assert_eq!(body.term, Term::Counted(0), "{body:?}");
        let [CountedLoop {
            counter,
            bound: Src::Slot8(words),
            latch:
                Term::IncBranch {
                    op: CmpOp::GeS,
                    b: Src::Slot8(latched),
                    taken: out,
                    ..
                },
            tests:
                [Some(Test::Counter {
                    at: 1,
                    op: CmpOp::GeS,
                }), None, None, None],
            back,
            exit,
            holes,
            ..
        }] = nf.loops[..]
        else {
            panic!(
                "latch leaves once k >= words, two sealed slots: {:?}",
                nf.loops
            );
        };
        assert_eq!((latched, out), (words, exit));
        assert!(counter == k && words != k, "{:?}", nf.loops);
        let slot = |off: u32| (off, off + 8);
        assert_eq!(
            holes,
            [k, words, s, d].map(slot),
            "the frame bytes the loop reads"
        );
        assert_eq!((back.region, back.skip), (at as u32, 0));
        assert_ne!(exit.region, at as u32);
    }

    #[test]
    fn copy_slowdown_is_modest() {
        // Figure 5: Copy ≈ 1.4×, dominated by I/O with per-word copying.
        let mut std = Mc::boot(Mode::Standard, &clean_config());
        let mut fo = Mc::boot(Mode::FailureOblivious, &clean_config());
        std.create(b"/tmp/big", 485_000, false);
        fo.create(b"/tmp/big", 485_000, false);
        let c_std = std.copy(b"/tmp/big", b"/tmp/big2").cycles as f64;
        let c_fo = fo.copy(b"/tmp/big", b"/tmp/big2").cycles as f64;
        let slow = c_fo / c_std;
        assert!(slow > 1.05 && slow < 2.5, "copy slowdown {slow}");
    }
}
