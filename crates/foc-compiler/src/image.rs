//! Shared compiled images: a content-addressed, cheaply-cloneable
//! wrapper around [`CompiledProgram`].
//!
//! A farm of thousands of server processes runs the *same* five compiled
//! programs. Before this layer existed every `foc_vm::Machine` owned its
//! `CompiledProgram` by value, so every boot (and every supervisor
//! restart) recompiled the MiniC source and then carried a private copy
//! of the bytecode. [`ProgramImage`] holds the program behind an `Arc`,
//! so loading a machine is a pointer clone, images can be interned in
//! per-server caches, and concurrent farm threads share one allocation.
//!
//! Every image carries a [`ProgramId`]: a stable 64-bit FNV-1a content
//! hash over the complete compiled artifact (functions, frame layouts,
//! bytecode, global images, relocations, string table). Two compilations
//! of the same source — on any host, in any process — produce the same
//! id, which is what lets caches, tests, and reports talk about "the
//! Apache image" without comparing whole programs structurally.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::bytecode::CompiledProgram;
use crate::native::{NativeFunc, NativeProgram};

/// Stable identity of a compiled program: a 64-bit FNV-1a hash of its
/// full content. Equal ids mean byte-identical images.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgramId(u64);

impl ProgramId {
    /// Computes the id of a program by hashing its entire content.
    pub fn of(program: &CompiledProgram) -> ProgramId {
        let mut h = Fnv1a::new();
        program.hash(&mut h);
        ProgramId(h.finish())
    }

    /// Content id of a program plus an artifact tag. The native tier
    /// runs the *same* bytecode as the baseline tier with an extra
    /// lowered artifact attached; mixing the tag into the hash keeps the
    /// two images from aliasing in id-keyed caches.
    pub fn of_tagged(program: &CompiledProgram, tag: &str) -> ProgramId {
        let mut h = Fnv1a::new();
        program.hash(&mut h);
        tag.hash(&mut h);
        ProgramId(h.finish())
    }

    /// The raw 64-bit hash value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ProgramId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A shared, immutable compiled program plus its content id.
///
/// Cloning is an `Arc` bump — the whole point. `Deref`s to
/// [`CompiledProgram`], so existing read paths (`image.funcs`,
/// `image.func_index(..)`) work unchanged.
#[derive(Debug, Clone)]
pub struct ProgramImage {
    shared: Arc<Shared>,
}

/// What every clone of one image shares.
#[derive(Debug)]
struct Shared {
    program: CompiledProgram,
    native: Option<NativeProgram>,
    /// Function name → index, built once with the image: a host call
    /// names its entry point on every request, and the farm makes
    /// millions.
    by_name: HashMap<String, u32>,
    /// Hashed on the first [`ProgramImage::id`] call: the hash walks
    /// every byte of the program (global initialisers included), and
    /// booting and running an image never ask for it.
    id: OnceLock<ProgramId>,
}

impl ProgramImage {
    /// Wraps a freshly compiled program.
    pub fn new(program: CompiledProgram) -> ProgramImage {
        ProgramImage::from_parts(program, None)
    }

    /// Wraps a program together with an (empty) native-tier artifact;
    /// functions are lowered into it as machines first enter them. The
    /// bytecode is byte-identical to the baseline tier's, so the id
    /// carries a tag to keep the two from aliasing in any id-keyed
    /// cache — and because the id hashes the bytecode, not the
    /// artifact, it does not depend on which functions have been
    /// lowered so far. The artifact rides the `Arc` through machine
    /// clones and checkpoint restores.
    pub fn with_native(program: CompiledProgram) -> ProgramImage {
        let native = NativeProgram::new(program.funcs.len());
        ProgramImage::from_parts(program, Some(native))
    }

    fn from_parts(program: CompiledProgram, native: Option<NativeProgram>) -> ProgramImage {
        let mut by_name = HashMap::with_capacity(program.funcs.len());
        for (i, f) in program.funcs.iter().enumerate() {
            // The first of two functions with one name, as a scan finds.
            by_name.entry(f.name.clone()).or_insert(i as u32);
        }
        ProgramImage {
            shared: Arc::new(Shared {
                program,
                native,
                by_name,
                id: OnceLock::new(),
            }),
        }
    }

    /// The stable content id.
    pub fn id(&self) -> ProgramId {
        let shared = &*self.shared;
        *shared.id.get_or_init(|| match shared.native {
            Some(_) => ProgramId::of_tagged(&shared.program, "native"),
            None => ProgramId::of(&shared.program),
        })
    }

    /// The underlying program.
    pub fn program(&self) -> &CompiledProgram {
        &self.shared.program
    }

    /// The native-tier artifact, when this image was built for
    /// `ExecTier::Native`.
    pub fn native(&self) -> Option<&NativeProgram> {
        self.shared.native.as_ref()
    }

    /// Finds a function index by name: [`CompiledProgram::func_index`]'s
    /// answer from one map lookup instead of a scan of every name.
    pub fn func_index(&self, name: &str) -> Option<u32> {
        self.shared.by_name.get(name).copied()
    }

    /// Function `fid`'s native regions, lowered now if no machine has
    /// entered the function before; `None` on the baseline tier. The VM
    /// calls this once per activation, never per instruction.
    pub fn native_func(&self, fid: u32) -> Option<&NativeFunc> {
        let native = self.shared.native.as_ref()?;
        let fid = fid as usize;
        Some(native.func(fid, &self.shared.program.funcs[fid].code))
    }

    /// How many machines/caches currently share this image (diagnostic).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.shared)
    }
}

impl Deref for ProgramImage {
    type Target = CompiledProgram;

    fn deref(&self) -> &CompiledProgram {
        &self.shared.program
    }
}

impl PartialEq for ProgramImage {
    fn eq(&self, other: &ProgramImage) -> bool {
        self.id() == other.id()
    }
}

impl Eq for ProgramImage {}

/// 64-bit FNV-1a. `std::hash::DefaultHasher` makes no cross-version
/// stability promise, and the derived `Hash` impls feed lengths through
/// `write_usize`/`write_length_prefix` (platform-width). This hasher
/// folds every write into the FNV state as little-endian `u64`s, so the
/// resulting [`ProgramId`] is identical on every platform and toolchain.
///
/// Public because it is the workspace's one stable content-hash
/// primitive: the sweep engine hashes transcripts with it too.
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }

    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }

    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }

    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;

    const SRC_A: &str = "int f(int x) { return x + 1; }";
    const SRC_B: &str = "int f(int x) { return x + 2; }";

    #[test]
    fn same_source_same_id() {
        let a = ProgramImage::new(compile_source(SRC_A).unwrap());
        let b = ProgramImage::new(compile_source(SRC_A).unwrap());
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
    }

    #[test]
    fn different_source_different_id() {
        let a = ProgramImage::new(compile_source(SRC_A).unwrap());
        let b = ProgramImage::new(compile_source(SRC_B).unwrap());
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn clone_shares_the_allocation() {
        let a = ProgramImage::new(compile_source(SRC_A).unwrap());
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        assert!(std::ptr::eq(a.program(), b.program()));
        assert!(a.ref_count() >= 2);
    }

    #[test]
    fn deref_exposes_the_program() {
        let a = ProgramImage::new(compile_source(SRC_A).unwrap());
        assert_eq!(a.func_index("f"), a.program().func_index("f"));
        assert_eq!(a.func_index("g"), None);
        assert!(a.instr_count() > 0);
    }

    #[test]
    fn id_renders_as_hex() {
        let a = ProgramImage::new(compile_source(SRC_A).unwrap());
        let s = a.id().to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
