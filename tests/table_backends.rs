//! Shipped table against oracle: a space runs on the sorted vector
//! ([`TableKind::Flat`]) or on Jones & Kelly's splay tree
//! ([`TableKind::Splay`]), and the choice must be *invisible* to
//! everything but the wall clock.
//!
//! The contract under test:
//!
//! 1. identical workload traces produce **byte-identical transcripts**
//!    (return codes, output bytes or faults, virtual cycles) on every
//!    server driver, in every mode;
//! 2. the process is left identical — [`Observation`]s compare equal
//!    across backends after the same trace;
//! 3. whole farm runs produce equal [`FarmReport`]s across backends, for
//!    every server kind × mode cell (the farm's determinism contract
//!    extended to the table layer).

use std::borrow::Cow;

use proptest::prelude::*;

use failure_oblivious::memory::{Mode, TableKind};
use failure_oblivious::servers::farm::{run_farm, FarmConfig, ServerKind};
use failure_oblivious::servers::{
    apache, mc, mutt, pine, sendmail, workload, BootSpec, Measured, Request, Server, ServerEnv,
};
use failure_oblivious::vm::Observation;

/// Request `i` of `kind`'s fixed seeded trace: legitimate traffic with
/// attacks interleaved.
fn request(kind: ServerKind, seed: u64, i: u64) -> Request {
    let owned = |s: String| Cow::Owned(s.into_bytes());
    match kind {
        ServerKind::Apache => Request::ApacheGet {
            path: match i % 5 {
                0 => Cow::Borrowed(b"/index.html"),
                1 => Cow::Owned(workload::apache_url(3 + (seed % 4) as usize)),
                2 => Cow::Owned(apache::attack_url()),
                3 => Cow::Borrowed(b"/big.bin"),
                _ => Cow::Borrowed(b"/nosuchpage.html"),
            },
        },
        ServerKind::Sendmail => match i % 4 {
            0 => Request::SendmailReceive {
                from: Cow::Owned(workload::sendmail_address(seed + i)),
                to: Cow::Owned(workload::sendmail_address(seed + 100 + i)),
                body: Cow::Owned(workload::lorem(120, seed + i)),
            },
            1 => Request::SendmailSend {
                to: Cow::Owned(workload::sendmail_address(seed + 200 + i)),
                body: Cow::Owned(workload::lorem(80, seed + 300 + i)),
            },
            2 => Request::SendmailMailFrom {
                from: Cow::Owned(sendmail::attack_address(40)),
            },
            _ => Request::SendmailWakeup,
        },
        ServerKind::Pine => match i % 4 {
            0 => Request::PineRead {
                index: i as i64 % 3,
            },
            1 => Request::PineCompose,
            2 => Request::PineDeliver {
                from: Cow::Owned(pine::attack_from(40)),
                subject: Cow::Borrowed(b"pwn"),
                body: Cow::Borrowed(b"payload"),
            },
            _ => Request::PineMove {
                index: i as i64 % 3,
            },
        },
        ServerKind::Mutt => match i % 4 {
            0 => Request::MuttOpenFolder {
                name: Cow::Borrowed(b"INBOX"),
            },
            1 => Request::MuttRead {
                index: i as i64 % 2,
            },
            2 => Request::MuttOpenFolder {
                name: Cow::Owned(mutt::attack_folder_name(40)),
            },
            _ => Request::MuttOpenFolder {
                name: Cow::Borrowed(b"work"),
            },
        },
        ServerKind::Mc => match i % 4 {
            0 => Request::McCopy {
                src: Cow::Borrowed(b"/home/user/data.bin"),
                dst: owned(format!("/tmp/c{i}")),
            },
            1 => Request::McMkdir {
                path: owned(format!("/tmp/d{i}")),
            },
            2 => Request::McOpenArchive {
                links: Cow::Owned(mc::attack_links()),
            },
            _ => Request::McComponentEnd {
                name: Cow::Borrowed(b"usr/share/component/lib"),
            },
        },
    }
}

/// Drives one server of `kind` under `mode` on `table` through its
/// trace, for as long as it serves, and returns the transcript plus
/// what the process left observable.
fn transcript(
    kind: ServerKind,
    mode: Mode,
    table: TableKind,
    seed: u64,
) -> (Vec<Measured>, Observation) {
    let spec = BootSpec::new(kind, mode).with_table(table);
    let mut server = Server::boot(kind, &spec, ServerEnv::standard());
    let len = if kind == ServerKind::Apache { 10 } else { 8 };
    let mut steps = Vec::new();
    for i in 0..len {
        if !server.usable() {
            break;
        }
        steps.push(request(kind, seed, i).apply(&mut server));
    }
    (steps, server.process().machine().observe())
}

/// The headline contract: 5 servers × 5 modes, transcripts and
/// observations byte-identical on the shipped table and the oracle.
#[test]
fn transcripts_identical_across_backends_all_servers_all_modes() {
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            let reference = transcript(kind, mode, TableKind::Splay, 7);
            assert!(
                !reference.0.is_empty() || !matches!(mode, Mode::FailureOblivious),
                "{} under {mode:?} produced no steps",
                kind.name()
            );
            assert_eq!(
                reference,
                transcript(kind, mode, TableKind::Flat, 7),
                "{} under {mode:?}: diverged on flat",
                kind.name()
            );
        }
    }
}

/// Whole farms agree across backends for every server × mode cell.
#[test]
fn farm_reports_equal_across_backends_all_cells() {
    for kind in ServerKind::ALL {
        for mode in Mode::ALL {
            let mut config = FarmConfig::new(kind, mode);
            config.servers = 2;
            config.threads = 2;
            config.requests_per_server = 8;
            config.attack_ratio = (1, 4);
            let reference = run_farm(&config.clone().with_table(TableKind::Splay));
            let report = run_farm(&config.with_table(TableKind::Flat));
            assert_eq!(
                reference,
                report,
                "{} under {mode:?}: farm diverged on flat",
                kind.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary workload seeds cannot tell the backends apart: the
    /// Apache driver trace (the stress-point server) stays
    /// byte-identical in every mode.
    #[test]
    fn apache_transcripts_backend_invariant_over_seeds(seed in 0u64..1_000_000) {
        for mode in Mode::ALL {
            let reference = transcript(ServerKind::Apache, mode, TableKind::Splay, seed);
            let flat = transcript(ServerKind::Apache, mode, TableKind::Flat, seed);
            prop_assert_eq!(reference, flat, "mode {:?}", mode);
        }
    }

    /// Arbitrary farm seeds cannot tell the backends apart either — the
    /// end-to-end version of the same property, restarts included.
    #[test]
    fn farm_reports_backend_invariant_over_seeds(seed in 0u64..1_000_000) {
        let mut config = FarmConfig::new(ServerKind::Apache, Mode::BoundsCheck);
        config.servers = 2;
        config.threads = 2;
        config.requests_per_server = 6;
        config.attack_ratio = (1, 3);
        config.seed = seed;
        let reference = run_farm(&config.clone().with_table(TableKind::Splay));
        let report = run_farm(&config.with_table(TableKind::Flat));
        prop_assert_eq!(&reference, &report);
    }
}
