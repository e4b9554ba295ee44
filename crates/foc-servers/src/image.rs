//! Per-server compiled-image interning.
//!
//! The five server sources are fixed constants, so there are exactly five
//! compiled programs in the whole system — yet before this module every
//! boot and every supervisor restart recompiled its source from scratch
//! (only Apache's regenerating pool reused an image, and even the pool
//! recompiled once per pool). This module holds one lazily-compiled
//! [`ProgramImage`] per [`ServerKind`] in a process-wide cache:
//! [`ServerKind::image`] compiles on first use and afterwards hands out
//! `Arc` clones, so farm boots, restarts, and pool respawns never invoke
//! the compiler again. The `boot_cost` bench quantifies the difference.
//!
//! [`ServerKind::fresh_image`] bypasses the cache. The equivalence
//! harness's oracle boots cold from such a compile, so every library
//! input compares a cached boot against a from-source one.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use foc_compiler::{ExecTier, ProgramImage};

use crate::farm::{Server, ServerEnv};
use crate::{apache, mc, mutt, pine, sendmail, BootSpec};

/// Which of the paper's five servers is meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerKind {
    /// Apache httpd worker (mod_rewrite offsets overflow, §4.3).
    Apache,
    /// Sendmail daemon (prescan overflow, §4.4).
    Sendmail,
    /// Pine mail reader (From-quoting overflow, §4.2).
    Pine,
    /// Mutt mail reader (UTF-8→UTF-7 overflow, §4.6 / Figure 1).
    Mutt,
    /// Midnight Commander (symlink-path overflow, §4.5).
    Mc,
}

/// One cache slot per `(ServerKind, ExecTier)` pair, indexed by
/// `kind.index() * TIERS + tier.index()`. The tiers of one server have
/// distinct [`foc_compiler::ProgramId`]s (the native image's id is
/// tagged), so the slots never alias.
const TIERS: usize = ExecTier::ALL.len();
static IMAGES: [OnceLock<ProgramImage>; 5 * TIERS] = [const { OnceLock::new() }; 5 * TIERS];

impl ServerKind {
    /// All five servers, in the paper's presentation order.
    pub const ALL: [ServerKind; 5] = [
        ServerKind::Pine,
        ServerKind::Apache,
        ServerKind::Sendmail,
        ServerKind::Mc,
        ServerKind::Mutt,
    ];

    /// Human-readable server name.
    pub fn name(self) -> &'static str {
        match self {
            ServerKind::Apache => "Apache",
            ServerKind::Sendmail => "Sendmail",
            ServerKind::Pine => "Pine",
            ServerKind::Mutt => "Mutt",
            ServerKind::Mc => "MC",
        }
    }

    /// The MiniC source of this server.
    pub fn source(self) -> &'static str {
        match self {
            ServerKind::Apache => apache::APACHE_SOURCE,
            ServerKind::Sendmail => sendmail::SENDMAIL_SOURCE,
            ServerKind::Pine => pine::PINE_SOURCE,
            ServerKind::Mutt => mutt::MUTT_SOURCE,
            ServerKind::Mc => mc::MC_SOURCE,
        }
    }

    /// Fuel budget per guest call for this server's drivers.
    pub fn fuel(self) -> u64 {
        match self {
            // MC's archive walk visits more guest code per request.
            ServerKind::Mc => 120_000_000,
            _ => 80_000_000,
        }
    }

    /// Dense index (cache slots, report tables).
    pub fn index(self) -> usize {
        match self {
            ServerKind::Pine => 0,
            ServerKind::Apache => 1,
            ServerKind::Sendmail => 2,
            ServerKind::Mc => 3,
            ServerKind::Mutt => 4,
        }
    }

    /// The interned compiled image on the shipped-default execution
    /// tier ([`ExecTier::default`]): compiled at most once per process, then
    /// shared by every machine of this kind. Concurrent first callers
    /// race benignly — `OnceLock` publishes exactly one image, so all
    /// threads observe the same [`foc_compiler::ProgramId`].
    ///
    /// # Panics
    ///
    /// Panics when the server source fails to compile — the sources are
    /// fixed constants, so that is a bug in this crate, not input error.
    pub fn image(self) -> ProgramImage {
        self.image_tier(ExecTier::default())
    }

    /// The interned compiled image for an explicit execution tier (one
    /// cache slot per `(kind, tier)` pair).
    ///
    /// # Panics
    ///
    /// Panics when the server source fails to compile, as
    /// [`ServerKind::image`] does.
    pub fn image_tier(self, tier: ExecTier) -> ProgramImage {
        IMAGES[self.index() * TIERS + tier.index()]
            .get_or_init(|| self.fresh_image_tier(tier))
            .clone()
    }

    /// Compiles a fresh, uncached image from source on the
    /// shipped-default tier (the cold-boot path; the image-sharing
    /// tests compare its id against the cache's).
    ///
    /// # Panics
    ///
    /// Panics when the server source fails to compile, as
    /// [`ServerKind::image`] does.
    pub fn fresh_image(self) -> ProgramImage {
        self.fresh_image_tier(ExecTier::default())
    }

    /// Compiles a fresh, uncached image for an explicit execution tier.
    ///
    /// # Panics
    ///
    /// Panics when the server source fails to compile, as
    /// [`ServerKind::image`] does.
    pub fn fresh_image_tier(self, tier: ExecTier) -> ProgramImage {
        match foc_compiler::compile_image_tier(self.source(), tier) {
            Ok(image) => image,
            Err(e) => panic!("{} source failed to build: {e}", self.name()),
        }
    }
}

// ---------------------------------------------------------------------
// Frozen boots: the restart layer above the image cache.
// ---------------------------------------------------------------------

/// Messages every standard Pine boot seeds its mailbox with (the farm's
/// and the sweep's benign Pine environment).
pub const PINE_SEED_MESSAGES: usize = 3;

/// Messages every standard Mutt boot seeds its mailbox with.
pub const MUTT_SEED_MESSAGES: usize = 2;

/// A mail file: `(from, subject, body)` triples.
pub type Mailbox = Vec<(Vec<u8>, Vec<u8>, Vec<u8>)>;

/// The standard Pine seed mailbox, interned so cache-eligibility checks
/// compare against it without regenerating the workload text per boot.
pub fn standard_pine_mailbox() -> &'static Mailbox {
    static MAILBOX: OnceLock<Mailbox> = OnceLock::new();
    MAILBOX.get_or_init(|| pine::Pine::standard_mailbox(PINE_SEED_MESSAGES))
}

/// The standard MC configuration, interned like the Pine mailbox.
pub fn standard_mc_config() -> &'static Vec<u8> {
    static CONFIG: OnceLock<Vec<u8>> = OnceLock::new();
    CONFIG.get_or_init(mc::clean_config)
}

/// Cap on cached frozen boots. A full mode sweep visits hundreds of
/// distinct specs and each entry holds a whole machine image — the
/// committed windows of a booted space plus its unit tables: 16 KiB
/// (Sendmail) to 36 KiB (MC, Mutt, Pine; Pine's entry keeps two, the
/// boot and its restart base), so a full cache is 1–5 MiB — so the
/// cache evicts (rather than grows without bound) when it fills.
/// Eviction is per-entry least-recently-used: a churn of one-shot
/// sweep cells displaces only the coldest cells, never the hot
/// standard boots the farm and the supervisor restore from on every
/// restart. (The previous clear-on-fill policy dumped *all* 64 hot
/// boots — including the five standard cells — whenever a 65th
/// distinct spec appeared.)
const CHECKPOINT_CACHE_CAP: usize = 64;

/// One frozen boot plus its last-touched stamp (monotone per cache).
struct CheckpointEntry {
    frozen: Arc<Server>,
    last_used: u64,
}

/// The boot cache: one frozen boot per `(kind, spec)` with LRU
/// bookkeeping.
#[derive(Default)]
struct CheckpointCache {
    map: HashMap<(ServerKind, BootSpec), CheckpointEntry>,
    tick: u64,
}

impl CheckpointCache {
    /// Looks up a cell, refreshing its recency on a hit.
    fn get(&mut self, key: &(ServerKind, BootSpec)) -> Option<Arc<Server>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.map.get_mut(key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.frozen))
    }

    /// Inserts a freshly built cell (or returns the racing winner),
    /// evicting the least-recently-used entry when the cache is full.
    fn insert(&mut self, key: (ServerKind, BootSpec), built: Arc<Server>) -> Arc<Server> {
        if let Some(hit) = self.get(&key) {
            return hit;
        }
        if self.map.len() >= CHECKPOINT_CACHE_CAP {
            // O(n) argmin scan; n is the small fixed cap and fills are
            // already amortized behind a full standard boot.
            if let Some(coldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.map.remove(&coldest);
            }
        }
        self.tick += 1;
        self.map.insert(
            key,
            CheckpointEntry {
                frozen: Arc::clone(&built),
                last_used: self.tick,
            },
        );
        built
    }
}

fn checkpoint_cache() -> &'static Mutex<CheckpointCache> {
    static CACHE: OnceLock<Mutex<CheckpointCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(CheckpointCache::default()))
}

/// Number of currently cached frozen boots (diagnostics; the LRU
/// regression test asserts the cap holds).
pub fn checkpoint_cache_len() -> usize {
    checkpoint_cache().lock().unwrap().map.len()
}

/// The interned *frozen standard boot* for `(kind, spec)`: a [`Server`]
/// booted over [`ServerEnv::standard`] — machine image, init outcome,
/// driver bookkeeping — that nobody calls, so `Arc` is all the
/// immutability it needs. Performed at most once per residency, then
/// cloned by every farm boot and pool respawn of that configuration and
/// copied over the dead process in place by every supervised restart
/// ([`Server::restore_from`]): boots are pure functions of `(image,
/// spec, environment)`, so the copy is byte-identical to re-running the
/// boot. Sits directly above [`ServerKind::image`] in the boot stack:
/// compile → image → **frozen boot** → machine.
///
/// Each call takes the cache's lock and hashes `(kind, spec)`, so a
/// caller that restarts one configuration many times — a farm server —
/// resolves the `Arc` once and restarts from it
/// ([`Server::restart_from`]).
///
/// A boot that *dies* (Bounds Check Sendmail's wake-up, §4.4.4) is
/// cached and cloned just the same: the clone is dead in exactly the
/// way a fresh boot would be, which is what the persistent-trigger
/// semantics require.
pub fn boot_checkpoint(kind: ServerKind, spec: &BootSpec) -> Arc<Server> {
    let key = (kind, *spec);
    if let Some(hit) = checkpoint_cache().lock().unwrap().get(&key) {
        return hit;
    }
    // Boot outside the lock: first boots interpret guest code, and
    // concurrent first callers of *different* cells must not serialize.
    // Racing first callers of the same cell build identical servers;
    // `insert` publishes one winner.
    let image = kind.image_tier(spec.tier);
    let built = Arc::new(Server::boot_cold(kind, &image, spec, ServerEnv::standard()));
    checkpoint_cache().lock().unwrap().insert(key, built)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hands_out_one_shared_image_per_kind() {
        for kind in ServerKind::ALL {
            let a = kind.image();
            let b = kind.image();
            assert_eq!(a.id(), b.id(), "{}", kind.name());
            assert!(
                std::ptr::eq(a.program(), b.program()),
                "{}: cache must share one allocation",
                kind.name()
            );
        }
    }

    #[test]
    fn cached_and_fresh_images_have_equal_ids() {
        for kind in ServerKind::ALL {
            assert_eq!(
                kind.image().id(),
                kind.fresh_image().id(),
                "{}: cache must serve the same content as a cold compile",
                kind.name()
            );
        }
    }

    #[test]
    fn the_five_images_are_distinct_programs() {
        let ids: Vec<_> = ServerKind::ALL.iter().map(|k| k.image().id()).collect();
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_ne!(ids[i], ids[j], "two servers share a ProgramId");
            }
        }
    }

    #[test]
    fn tier_images_of_one_server_never_alias() {
        // The native tier runs the baseline tier's bytecode; its tagged
        // id must still claim a distinct cache slot.
        for kind in ServerKind::ALL {
            let ids: Vec<_> = ExecTier::ALL
                .iter()
                .map(|&t| kind.image_tier(t).id())
                .collect();
            for i in 0..ids.len() {
                for j in i + 1..ids.len() {
                    assert_ne!(ids[i], ids[j], "{}: two tiers share an id", kind.name());
                }
            }
        }
    }

    #[test]
    fn indices_are_dense_and_match_all_order() {
        for (pos, kind) in ServerKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), pos);
        }
    }

    #[test]
    fn checkpoint_cache_hands_out_one_snapshot_per_cell() {
        let spec = BootSpec::new(ServerKind::Apache, foc_memory::Mode::FailureOblivious);
        let a = boot_checkpoint(ServerKind::Apache, &spec);
        let b = boot_checkpoint(ServerKind::Apache, &spec);
        assert!(Arc::ptr_eq(&a, &b), "same cell must share one snapshot");
        // A different axis is a different cell.
        let c = boot_checkpoint(
            ServerKind::Apache,
            &spec.with_table(foc_memory::TableKind::Reference),
        );
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn dead_standard_boots_are_cached_dead() {
        // §4.4.4: the Bounds Check Sendmail daemon dies during init;
        // its frozen boot must hold (and every clone reproduce) exactly
        // that dead state.
        let spec = BootSpec::new(ServerKind::Sendmail, foc_memory::Mode::BoundsCheck);
        let first = sendmail::Sendmail::boot_spec(&spec);
        let second = sendmail::Sendmail::boot_spec(&spec);
        assert!(!first.usable() && !second.usable());
        assert_eq!(
            first.process().machine().dead_reason(),
            second.process().machine().dead_reason()
        );
    }
}
