//! Cross-mode differential tests.
//!
//! The paper's central semantic claims, stated as differential
//! properties over the five compiler/runtime versions:
//!
//! 1. **Benign traffic is mode-invariant.** For every server, requests
//!    that commit no memory error produce byte-identical output (return
//!    code and emitted bytes) under `Standard`, `BoundsCheck`,
//!    `FailureOblivious`, `Boundless`, and `Redirect` — checking and
//!    continuation change *when* the program survives, never *what* it
//!    computes on valid inputs. (Sendmail is the documented exception:
//!    its daemon wake-up itself errs, so the Bounds Check version is
//!    dead before the first benign request — §4.4.4.)
//! 2. **Attack traffic follows the §4 outcome matrix.** Standard
//!    versions die of segfault-like corruption, Bounds Check versions
//!    exit with a memory error (or are already dead at init), and the
//!    failure-oblivious version (and its §5.1 variants) survive and keep
//!    serving — with the FO version converting each attack into the
//!    anticipated error the paper reports.
//! 3. **The shipped default is the reference oracle, faster.** A session
//!    booted from `BootSpec::new` (`native`/`flat`) and from
//!    `BootSpec::oracle` (`baseline`/`splay`) agree on the transcript
//!    (per step: return code, bytes or fault, cycles) and on the
//!    process's whole [`Observation`].

use failure_oblivious::memory::Mode;
use failure_oblivious::servers::{apache, mc, mutt, pine, sendmail, workload};
use failure_oblivious::servers::{BootSpec, Measured, Outcome, ServerKind};
use failure_oblivious::vm::Observation;

/// What one request looked like to the client: return code + bytes.
type Observed = (Option<i64>, Vec<u8>);

fn observe(m: Measured) -> Observed {
    (m.outcome.ret(), m.outcome.output().to_vec())
}

/// Asserts every mode's transcript equals Standard's, labelling the
/// first diverging step.
fn assert_transcripts_match(server: &str, transcripts: &[(Mode, Vec<Observed>)]) {
    let (base_mode, base) = &transcripts[0];
    for (mode, transcript) in &transcripts[1..] {
        assert_eq!(
            base.len(),
            transcript.len(),
            "{server}: {mode:?} transcript length differs from {base_mode:?}"
        );
        for (i, (a, b)) in base.iter().zip(transcript.iter()).enumerate() {
            assert_eq!(
                a, b,
                "{server}: step {i} diverges between {base_mode:?} and {mode:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Benign differential transcripts.
// ---------------------------------------------------------------------

#[test]
fn apache_benign_output_is_mode_invariant() {
    let transcripts: Vec<(Mode, Vec<Observed>)> = Mode::ALL
        .into_iter()
        .map(|mode| {
            let mut w = apache::ApacheWorker::boot(mode);
            let steps = vec![
                observe(w.get(b"/index.html")),
                observe(w.get(b"/big.bin")),
                observe(w.get(b"/rw/index.html")),
                observe(w.get(&apache::rewrite_url(10))),
                observe(w.get(b"/missing.html")),
                observe(w.get(b"/index.html?q=1")),
            ];
            (mode, steps)
        })
        .collect();
    assert_transcripts_match("Apache", &transcripts);
}

#[test]
fn pine_benign_output_is_mode_invariant() {
    let transcripts: Vec<(Mode, Vec<Observed>)> = Mode::ALL
        .into_iter()
        .map(|mode| {
            let mut p = pine::Pine::boot(mode, pine::Pine::standard_mailbox(5));
            assert!(p.usable(), "{mode:?}: clean mailbox must load");
            let steps = vec![
                observe(p.read(0)),
                observe(p.read(4)),
                observe(p.compose()),
                observe(p.move_message(2)),
                observe(p.deliver(&workload::from_field(77), b"new mail", b"hello there")),
                observe(p.read(5)),
            ];
            (mode, steps)
        })
        .collect();
    assert_transcripts_match("Pine", &transcripts);
}

#[test]
fn sendmail_benign_output_is_mode_invariant_where_usable() {
    // §4.4.4: the Bounds Check daemon never survives initialization, so
    // the benign differential runs over the other four modes...
    let usable_modes = [
        Mode::Standard,
        Mode::FailureOblivious,
        Mode::Boundless,
        Mode::Redirect,
    ];
    let transcripts: Vec<(Mode, Vec<Observed>)> = usable_modes
        .into_iter()
        .map(|mode| {
            let mut sm = sendmail::Sendmail::boot(mode);
            assert!(sm.usable(), "{mode:?}: daemon must start");
            let steps = vec![
                observe(sm.receive(
                    &workload::sendmail_address(1),
                    &workload::sendmail_address(2),
                    b"first message body",
                )),
                observe(sm.send(&workload::sendmail_address(3), b"outbound body")),
                observe(sm.receive(
                    &workload::sendmail_address(4),
                    &workload::sendmail_address(5),
                    &workload::lorem(200, 42),
                )),
                (sm.delivered_count(), Vec::new()),
            ];
            (mode, steps)
        })
        .collect();
    assert_transcripts_match("Sendmail", &transcripts);

    // ...and the exception itself is part of the expected matrix.
    let bc = sendmail::Sendmail::boot(Mode::BoundsCheck);
    assert!(!bc.usable(), "Bounds Check sendmail must die at init");
    let Outcome::Crashed(f) = bc.init_outcome() else {
        panic!("expected init crash");
    };
    assert!(f.is_memory_error(), "got {f}");
}

#[test]
fn mc_benign_output_is_mode_invariant() {
    let transcripts: Vec<(Mode, Vec<Observed>)> = Mode::ALL
        .into_iter()
        .map(|mode| {
            let mut m = mc::Mc::boot(mode, &mc::clean_config());
            assert!(m.usable(), "{mode:?}: clean config must load");
            m.create(b"/tmp/a.txt", 4096, false);
            let steps = vec![
                observe(m.copy(b"/tmp/a.txt", b"/tmp/b.txt")),
                observe(m.move_file(b"/tmp/b.txt", b"/tmp/c.txt")),
                observe(m.mkdir(b"/tmp/newdir")),
                observe(m.component_end(b"usr/lib")),
                observe(m.delete(b"/tmp/c.txt")),
                observe(m.delete(b"/tmp/never-existed")),
            ];
            (mode, steps)
        })
        .collect();
    assert_transcripts_match("MC", &transcripts);
}

#[test]
fn mutt_benign_output_is_mode_invariant() {
    let transcripts: Vec<(Mode, Vec<Observed>)> = Mode::ALL
        .into_iter()
        .map(|mode| {
            let mut m = mutt::Mutt::boot(mode, 3);
            let steps = vec![
                observe(m.open_folder(b"INBOX")),
                observe(m.read_message(0)),
                observe(m.read_message(2)),
                observe(m.move_message(1, b"archive")),
                observe(m.open_folder(b"work")),
                // Malformed UTF-8 is an *anticipated* error: same rejection
                // in every mode, no memory error involved.
                observe(m.open_folder(&[0xC0, 0x80])),
            ];
            (mode, steps)
        })
        .collect();
    assert_transcripts_match("Mutt", &transcripts);
}

// ---------------------------------------------------------------------
// Attack outcome matrix (§4).
// ---------------------------------------------------------------------

#[test]
fn apache_attack_matrix() {
    // Standard: the offsets overflow smashes the child's stack.
    let mut w = apache::ApacheWorker::boot(Mode::Standard);
    let r = w.get(&apache::attack_url());
    let Outcome::Crashed(f) = &r.outcome else {
        panic!("Standard child must die, got {:?}", r.outcome);
    };
    assert!(f.is_segfault_like(), "got {f}");

    // Bounds Check: terminates with a memory error.
    let mut w = apache::ApacheWorker::boot(Mode::BoundsCheck);
    let r = w.get(&apache::attack_url());
    let Outcome::Crashed(f) = &r.outcome else {
        panic!("Bounds Check child must die, got {:?}", r.outcome);
    };
    assert!(f.is_memory_error(), "got {f}");

    // Failure Oblivious: the request is processed *correctly* (§4.3.2) —
    // identical to the in-bounds ten-segment rewrite.
    let mut w = apache::ApacheWorker::boot(Mode::FailureOblivious);
    assert_eq!(w.get(&apache::attack_url()).outcome.ret(), Some(200));
    assert_eq!(w.get(b"/index.html").outcome.ret(), Some(200));

    // The §5.1 variants also survive and keep serving.
    for mode in [Mode::Boundless, Mode::Redirect] {
        let mut w = apache::ApacheWorker::boot(mode);
        let r = w.get(&apache::attack_url());
        assert!(r.outcome.survived(), "{mode:?}: {:?}", r.outcome);
        assert_eq!(w.get(b"/index.html").outcome.ret(), Some(200), "{mode:?}");
    }
}

#[test]
fn pine_attack_matrix() {
    let poisoned = || {
        let mut mailbox = pine::Pine::standard_mailbox(4);
        mailbox.insert(2, (pine::attack_from(40), b"pwn".to_vec(), b"x".to_vec()));
        mailbox
    };

    // Standard: heap corruption while loading the mail file.
    let p = pine::Pine::boot(Mode::Standard, poisoned());
    assert!(!p.usable());
    let Outcome::Crashed(f) = p.init_outcome() else {
        panic!("expected crash");
    };
    assert!(f.is_segfault_like(), "got {f}");

    // Bounds Check: memory-error exit, and restarts die the same way.
    let mut p = pine::Pine::boot(Mode::BoundsCheck, poisoned());
    assert!(!p.usable());
    let Outcome::Crashed(f) = p.init_outcome() else {
        panic!("expected termination");
    };
    assert!(f.is_memory_error(), "got {f}");
    p.restart();
    assert!(!p.usable(), "restart must die during init again (§4.7)");

    // Failure Oblivious: loads the poisoned mailbox, serves everything,
    // and renders the complete attack From field via the correct path.
    let mut p = pine::Pine::boot(Mode::FailureOblivious, poisoned());
    assert!(p.usable());
    let r = p.read(2);
    assert_eq!(r.outcome.ret(), Some(0));
    let shown = String::from_utf8_lossy(r.outcome.output()).to_string();
    assert!(shown.contains("attacker@evil.example"), "{shown}");

    // Variants: usable and serving.
    for mode in [Mode::Boundless, Mode::Redirect] {
        let mut p = pine::Pine::boot(mode, poisoned());
        assert!(p.usable(), "{mode:?} must survive the poisoned mailbox");
        assert_eq!(p.read(0).outcome.ret(), Some(0), "{mode:?}");
    }
}

#[test]
fn sendmail_attack_matrix() {
    // Standard: the prescan overflow smashes the stack with attacker
    // bytes (the modelled control-flow hijack).
    let mut sm = sendmail::Sendmail::boot(Mode::Standard);
    let r = sm.mail_from(&sendmail::attack_address(400));
    let Outcome::Crashed(f) = &r.outcome else {
        panic!("Standard sendmail must crash, got {:?}", r.outcome);
    };
    assert!(f.is_segfault_like(), "got {f}");

    // Bounds Check: already covered — dead at init (§4.4.4).

    // Failure Oblivious: the attack is rejected as the anticipated
    // "address too long" error (501) and service continues.
    let mut sm = sendmail::Sendmail::boot(Mode::FailureOblivious);
    assert_eq!(
        sm.mail_from(&sendmail::attack_address(120)).outcome.ret(),
        Some(501)
    );
    assert_eq!(
        sm.receive(
            &workload::sendmail_address(8),
            &workload::sendmail_address(9),
            b"after attack",
        )
        .outcome
        .ret(),
        Some(250)
    );

    // Variants: survive the attack and keep accepting mail.
    for mode in [Mode::Boundless, Mode::Redirect] {
        let mut sm = sendmail::Sendmail::boot(mode);
        assert!(sm.usable(), "{mode:?} daemon must start");
        let r = sm.mail_from(&sendmail::attack_address(120));
        assert!(r.outcome.survived(), "{mode:?}: {:?}", r.outcome);
        assert_eq!(
            sm.receive(
                &workload::sendmail_address(8),
                &workload::sendmail_address(9),
                b"after attack",
            )
            .outcome
            .ret(),
            Some(250),
            "{mode:?}"
        );
    }
}

#[test]
fn mc_attack_matrix() {
    // Standard: the symlink-path overflow escapes the frame.
    let mut m = mc::Mc::boot(Mode::Standard, &mc::clean_config());
    let r = m.open_archive(&mc::attack_links());
    let Outcome::Crashed(f) = &r.outcome else {
        panic!("Standard MC must crash, got {:?}", r.outcome);
    };
    assert!(f.is_segfault_like(), "got {f}");

    // Bounds Check: memory-error exit.
    let mut m = mc::Mc::boot(Mode::BoundsCheck, &mc::clean_config());
    let r = m.open_archive(&mc::attack_links());
    let Outcome::Crashed(f) = &r.outcome else {
        panic!("Bounds-Check MC must terminate, got {:?}", r.outcome);
    };
    assert!(f.is_memory_error(), "got {f}");

    // Failure Oblivious: every link dangles, MC keeps working (§4.5.2).
    let mut m = mc::Mc::boot(Mode::FailureOblivious, &mc::clean_config());
    let r = m.open_archive(&mc::attack_links());
    assert_eq!(r.outcome.ret(), Some(mc::attack_links().len() as i64));
    m.create(b"/tmp/x", 2048, false);
    assert_eq!(m.copy(b"/tmp/x", b"/tmp/y").outcome.ret(), Some(2048));

    // Variants: survive and keep working.
    for mode in [Mode::Boundless, Mode::Redirect] {
        let mut m = mc::Mc::boot(mode, &mc::clean_config());
        let r = m.open_archive(&mc::attack_links());
        assert!(r.outcome.survived(), "{mode:?}: {:?}", r.outcome);
        m.create(b"/tmp/x", 2048, false);
        assert_eq!(
            m.copy(b"/tmp/x", b"/tmp/y").outcome.ret(),
            Some(2048),
            "{mode:?}"
        );
    }
}

#[test]
fn mutt_attack_matrix() {
    // Standard: heap corruption from the Figure 1 overflow.
    let mut m = mutt::Mutt::boot(Mode::Standard, 2);
    let r = m.open_folder(&mutt::attack_folder_name(40));
    let Outcome::Crashed(f) = &r.outcome else {
        panic!("Standard Mutt must crash, got {:?}", r.outcome);
    };
    assert!(f.is_segfault_like(), "got {f}");

    // Bounds Check: memory-error exit.
    let mut m = mutt::Mutt::boot(Mode::BoundsCheck, 2);
    let r = m.open_folder(&mutt::attack_folder_name(40));
    let Outcome::Crashed(f) = &r.outcome else {
        panic!("Bounds-Check Mutt must terminate, got {:?}", r.outcome);
    };
    assert!(f.is_memory_error(), "got {f}");

    // Failure Oblivious: the attack folder is rejected as nonexistent —
    // the unanticipated attack becomes an anticipated error.
    let mut m = mutt::Mutt::boot(Mode::FailureOblivious, 2);
    assert_eq!(
        m.open_folder(&mutt::attack_folder_name(40)).outcome.ret(),
        Some(-1)
    );
    assert_eq!(m.open_folder(b"INBOX").outcome.ret(), Some(0));
    assert_eq!(m.read_message(0).outcome.ret(), Some(0));

    // Variants: survive and keep serving.
    for mode in [Mode::Boundless, Mode::Redirect] {
        let mut m = mutt::Mutt::boot(mode, 2);
        let r = m.open_folder(&mutt::attack_folder_name(40));
        assert!(r.outcome.survived(), "{mode:?}: {:?}", r.outcome);
        assert_eq!(m.open_folder(b"INBOX").outcome.ret(), Some(0), "{mode:?}");
    }
}

// ---------------------------------------------------------------------
// The shipped default against the reference oracle.
// ---------------------------------------------------------------------

/// One benign + attack + benign-again session per server: its
/// transcript beside what its process left observable.
fn session(kind: ServerKind, spec: &BootSpec) -> (Vec<Measured>, Observation) {
    match kind {
        ServerKind::Apache => {
            let mut w = apache::ApacheWorker::boot_spec(spec);
            let steps = vec![
                w.get(b"/index.html"),
                w.get(b"/big.bin"),
                w.get(&apache::attack_url()),
                w.get(b"/rw/index.html"),
            ];
            (steps, w.process().machine().observe())
        }
        ServerKind::Pine => {
            let mut p = pine::Pine::boot_spec(spec, pine::Pine::standard_mailbox(3));
            let steps = vec![
                p.read(0),
                p.compose(),
                p.deliver(&pine::attack_from(40), b"pwn", b"payload"),
                p.read(3),
                p.read(1),
            ];
            (steps, p.process().machine().observe())
        }
        ServerKind::Sendmail => {
            let mut sm = sendmail::Sendmail::boot_spec(spec);
            let steps = vec![
                sm.receive(
                    &workload::sendmail_address(1),
                    &workload::sendmail_address(2),
                    b"first message body",
                ),
                sm.mail_from(&sendmail::attack_address(120)),
                sm.send(&workload::sendmail_address(3), b"outbound body"),
            ];
            (steps, sm.process().machine().observe())
        }
        ServerKind::Mc => {
            let mut m = mc::Mc::boot_spec(spec, &mc::clean_config());
            m.create(b"/tmp/a.txt", 4096, false);
            let steps = vec![
                m.copy(b"/tmp/a.txt", b"/tmp/b.txt"),
                m.open_archive(&mc::attack_links()),
                m.component_end(b"noslashhere"),
                m.mkdir(b"/tmp/newdir"),
            ];
            (steps, m.process().machine().observe())
        }
        ServerKind::Mutt => {
            let mut m = mutt::Mutt::boot_spec(spec, 3);
            let steps = vec![
                m.open_folder(b"INBOX"),
                m.read_message(0),
                m.open_folder(&mutt::attack_folder_name(40)),
                m.open_folder(b"work"),
            ];
            (steps, m.process().machine().observe())
        }
    }
}

/// What ships by default (`BootSpec::new`: native tier, flat table) is
/// a faster way to run the reference
/// configuration, never a different program: the same session booted
/// from the default spec and from the explicitly named
/// `baseline`/`splay` oracle agrees on every surface, where the
/// continuation code runs (Failure Oblivious) and where the first error
/// kills the process (Bounds Check).
#[test]
fn default_boot_equals_the_baseline_table_splay_oracle() {
    for kind in ServerKind::ALL {
        for mode in [Mode::FailureOblivious, Mode::BoundsCheck] {
            let default = BootSpec::new(kind, mode);
            let shipped = session(kind, &default);
            assert_eq!(
                shipped,
                session(kind, &BootSpec::oracle(kind, mode)),
                "{} under {mode:?}: {default:?} diverges from the oracle",
                kind.name()
            );
            if mode == Mode::FailureOblivious {
                assert!(
                    shipped.1.log_total > 0 && shipped.1.dead.is_none(),
                    "{}: the session must contain an attack the server rides through",
                    kind.name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Guest-chosen addresses at the top of the address space.
// ---------------------------------------------------------------------

/// `a[k]` with `k` chosen so the byte address is `2^64 - 8`: the end of
/// the access wraps to 0, which an unguarded `target + size <= end`
/// compare accepts as "inside the unit".
const WRAPPING_LOAD: &str = "long g[4];\n\
     long f() { long *a = (long *) g; long p = (long) a; long k = -1 - p / 8;\n\
                long i; long acc = 0;\n\
                for (i = 0; i < 2; i++) acc = acc + a[k];\n\
                return acc; }";

/// Store twin of [`WRAPPING_LOAD`].
const WRAPPING_STORE: &str = "long g[4];\n\
     long f() { long *a = (long *) g; long p = (long) a; long k = -1 - p / 8;\n\
                long i;\n\
                for (i = 0; i < 2; i++) a[k] = 7;\n\
                return g[0]; }";

/// An index that wraps the address space is an ordinary violation on
/// every tier: same result or fault, same counters, same log — and no
/// host panic — under all five modes and both object tables.
#[test]
fn wrapping_index_is_a_violation_on_every_tier() {
    use failure_oblivious::compiler::{compile_image_tier, ExecTier};
    use failure_oblivious::memory::TableKind;
    use failure_oblivious::{Machine, MachineConfig};

    for source in [WRAPPING_LOAD, WRAPPING_STORE] {
        for mode in Mode::ALL {
            for table in TableKind::ALL {
                let observed = ExecTier::ALL.map(|tier| {
                    let image = compile_image_tier(source, tier).expect("source builds");
                    let config = MachineConfig::with_mode(mode).with_table(table);
                    let mut m = Machine::load(image, config).expect("load");
                    (m.call("f", &[]), m.observe())
                });
                for (tier, seen) in ExecTier::ALL.iter().zip(&observed) {
                    assert_eq!(
                        &observed[0],
                        seen,
                        "{tier:?} diverges from {:?} under {mode:?}/{table:?}",
                        ExecTier::ALL[0]
                    );
                }
                if mode == Mode::FailureOblivious {
                    let (result, seen) = &observed[0];
                    assert_eq!(seen.log_total, 2, "both accesses are logged");
                    assert_eq!(seen.space.invalid_reads + seen.space.invalid_writes, 2);
                    // Two manufactured reads (0, then 1), or `g[0]` untouched.
                    let expected = if source == WRAPPING_LOAD { 1 } else { 0 };
                    assert_eq!(*result, Ok(expected));
                }
            }
        }
    }
}
