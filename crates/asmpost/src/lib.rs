//! # asmpost — SPARC-like codegen and the peephole postprocessor
//!
//! The final two stages of the paper's toolchain:
//!
//! * [`codegen`] — instruction selection and linear-scan register
//!   allocation onto a SPARC-like ISA, reproducing the Analysis section's
//!   central fact: a `KEEP_LIVE` barrier forfeits the indexed-load
//!   addressing mode (`add x,y,z; (empty asm); ld [z]` instead of
//!   `ld [x+y]`);
//! * [`peephole`] — the paper's three-pattern postprocessor (derived, in
//!   the paper, from a SPARC instruction scheduler) that removes most of
//!   that residual overhead while provably preserving `KEEP_LIVE`
//!   semantics;
//! * [`cost`] — cycle/code-size accounting that turns VM block profiles
//!   into the numbers in the paper's tables.

#![warn(missing_docs)]

pub mod asm;
pub mod codegen;
pub mod cost;
pub mod peephole;

pub use asm::{AsmBlock, AsmFunc, AsmInstr, Reg, RegImm};
pub use codegen::{codegen_func, codegen_program};
pub use cost::{measure, CostReport, Machine};
pub use peephole::{
    keep_live_bases_preserved, postprocess, postprocess_program, postprocess_program_traced,
    PeepholeStats,
};
