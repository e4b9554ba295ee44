//! MiniC bytecode compiler.
//!
//! Lowers the typed HIR from `foc-lang` into a stack-machine bytecode whose
//! memory instructions are exactly the operations the `foc-memory`
//! substrate checks:
//!
//! * [`bytecode::Instr::Load`] / [`bytecode::Instr::Store`] — every scalar
//!   access the program performs, subject to the mode's checking and
//!   continuation code at run time;
//! * [`bytecode::Instr::PtrAdd`] — instrumented pointer arithmetic (the
//!   Jones & Kelly / CRED hook that classifies derived pointers as in- or
//!   out-of-bounds);
//! * [`bytecode::Instr::EffAddr`] — pointer-to-integer bridging so that
//!   comparisons and casts involving out-of-bounds pointers behave as CRED
//!   specifies.
//!
//! There is deliberately no "unsafe" variant of the instruction set: the
//! *same* compiled program runs under every policy; the execution mode of
//! the memory space decides whether checks happen. This mirrors the
//! paper's methodology of compiling one source three ways, while keeping
//! compiled images byte-identical across modes (stronger than the paper:
//! any behavioural difference is attributable to the policy alone).

pub mod bytecode;
pub mod image;
pub mod lower;
pub mod native;

pub use bytecode::{AluOp, CmpOp, CompiledFunc, CompiledProgram, FrameLayout, GlobalImage, Instr};
pub use image::{Fnv1a, ProgramId, ProgramImage};
pub use lower::{compile, CompileError};
pub use native::{NativeFunc, NativeProgram};

/// Convenience: front end plus lowering in one call.
pub fn compile_source(source: &str) -> Result<CompiledProgram, String> {
    let program = foc_lang::frontend(source).map_err(|e| e.to_string())?;
    compile(&program).map_err(|e| e.to_string())
}

/// Execution tier of a compiled image.
///
/// Both tiers hold the same bytecode; the native image carries a tag in
/// its [`ProgramId`], so the two never alias in the image or checkpoint
/// caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecTier {
    /// The instruction stream straight out of `lower`, interpreted: the
    /// reference oracle the native tier is proven against.
    Baseline,
    /// The same stream plus a region artifact ([`NativeProgram`],
    /// lowered per function on first entry): straight-line runs execute
    /// as pre-decoded micro-op arrays with no per-instruction dispatch,
    /// deopting to the interpreter at region boundaries. The shipped
    /// default.
    #[default]
    Native,
}

impl ExecTier {
    /// Every tier, in cache-slot order.
    pub const ALL: [ExecTier; 2] = [ExecTier::Baseline, ExecTier::Native];

    /// Dense index (cache slot).
    pub fn index(self) -> usize {
        match self {
            ExecTier::Baseline => 0,
            ExecTier::Native => 1,
        }
    }

    /// Stable label used in reports and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            ExecTier::Baseline => "baseline",
            ExecTier::Native => "native",
        }
    }
}

/// Compiles source straight into a shareable [`ProgramImage`] on the
/// baseline tier — the reference oracle. [`compile_image_tier`] builds
/// either tier (the shipped default, [`ExecTier::default`], among them).
pub fn compile_image(source: &str) -> Result<ProgramImage, String> {
    compile_image_tier(source, ExecTier::Baseline)
}

/// Compiles source into a [`ProgramImage`] for the given execution
/// tier. Both images hold the same bytecode; the native one attaches
/// the lazily lowered region artifact and carries a tag in its
/// [`ProgramId`], so tiered images never alias in downstream caches.
pub fn compile_image_tier(source: &str, tier: ExecTier) -> Result<ProgramImage, String> {
    let program = compile_source(source)?;
    Ok(match tier {
        ExecTier::Baseline => ProgramImage::new(program),
        ExecTier::Native => ProgramImage::with_native(program),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_labels_and_slots_are_stable() {
        assert_eq!(ExecTier::Baseline.label(), "baseline");
        assert_eq!(ExecTier::Native.label(), "native");
        assert_eq!(ExecTier::Baseline.index(), 0);
        assert_eq!(ExecTier::Native.index(), 1);
    }

    #[test]
    fn both_tiers_hold_the_same_code() {
        let src = "long f(long n) { int xs[2]; long i; long acc = 0; \
                   for (i = 0; i < n; i++) acc += xs[5]; return acc; }";
        let baseline = compile_image_tier(src, ExecTier::Baseline).unwrap();
        let native = compile_image_tier(src, ExecTier::Native).unwrap();
        assert_eq!(baseline.funcs.len(), native.funcs.len());
        for (b, n) in baseline.funcs.iter().zip(&native.funcs) {
            assert_eq!(b.code, n.code, "{}", b.name);
        }
        assert_ne!(baseline.id(), native.id(), "the artifact tags the id");
        assert!(baseline.native().is_none() && native.native().is_some());
    }
}
