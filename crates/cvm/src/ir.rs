//! Three-address intermediate representation.
//!
//! The IR plays the role of gcc's RTL in the paper's pipeline: the
//! annotator's `KEEP_LIVE` / `GC_same_obj` expressions survive lowering as
//! first-class instructions ([`Instr::KeepLive`], [`Instr::CheckSame`]), so
//! the optimizer can honour their constraints exactly as the paper's
//! inline-`asm` encoding forced gcc to:
//!
//! * the *value* operand must materialise in a register (no folding the
//!   computation into an addressing mode through the barrier);
//! * the *base* operand is a use, so liveness keeps the base pointer
//!   visible until the protected value exists.

use cfront::sema::Builtin;
use std::fmt;

/// Tag added to function-table indices to form function-pointer values.
/// Chosen outside every mapped memory region so a function pointer can
/// never be mistaken for a data address (or a heap pointer by the
/// conservative collector).
pub const FUNC_PTR_BASE: i64 = 0x4000_0000;

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Temp(pub u32);

impl fmt::Display for Temp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A basic-block id within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Operand {
    /// Virtual register.
    Temp(Temp),
    /// Immediate constant (also used for addresses of globals/strings).
    Const(i64),
}

impl Operand {
    /// The temp, if this operand is one.
    pub fn as_temp(&self) -> Option<Temp> {
        match self {
            Operand::Temp(t) => Some(*t),
            Operand::Const(_) => None,
        }
    }

    /// The constant, if this operand is one.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Operand::Const(c) => Some(*c),
            Operand::Temp(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Temp(t) => write!(f, "{t}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<Temp> for Operand {
    fn from(t: Temp) -> Self {
        Operand::Temp(t)
    }
}

/// Binary IR operations. Comparisons produce 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinIr {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    DivU,
    RemU,
    And,
    Or,
    Xor,
    Shl,
    Sar,
    Shr,
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    CmpGt,
    CmpGe,
    CmpLtU,
    CmpLeU,
    CmpGtU,
    CmpGeU,
}

impl BinIr {
    /// Whether the operation is commutative.
    pub fn commutative(self) -> bool {
        matches!(
            self,
            BinIr::Add
                | BinIr::Mul
                | BinIr::And
                | BinIr::Or
                | BinIr::Xor
                | BinIr::CmpEq
                | BinIr::CmpNe
        )
    }

    /// Evaluates the operation on two i64 values (C-like semantics,
    /// wrapping; division by zero yields 0 — callers trap separately).
    #[inline(always)]
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinIr::Add => a.wrapping_add(b),
            BinIr::Sub => a.wrapping_sub(b),
            BinIr::Mul => a.wrapping_mul(b),
            BinIr::Div => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinIr::Rem => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinIr::DivU => {
                if b == 0 {
                    0
                } else {
                    ((a as u64) / (b as u64)) as i64
                }
            }
            BinIr::RemU => {
                if b == 0 {
                    0
                } else {
                    ((a as u64) % (b as u64)) as i64
                }
            }
            BinIr::And => a & b,
            BinIr::Or => a | b,
            BinIr::Xor => a ^ b,
            BinIr::Shl => a.wrapping_shl(b as u32 & 63),
            BinIr::Sar => a.wrapping_shr(b as u32 & 63),
            BinIr::Shr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
            BinIr::CmpEq => (a == b) as i64,
            BinIr::CmpNe => (a != b) as i64,
            BinIr::CmpLt => (a < b) as i64,
            BinIr::CmpLe => (a <= b) as i64,
            BinIr::CmpGt => (a > b) as i64,
            BinIr::CmpGe => (a >= b) as i64,
            BinIr::CmpLtU => ((a as u64) < (b as u64)) as i64,
            BinIr::CmpLeU => ((a as u64) <= (b as u64)) as i64,
            BinIr::CmpGtU => ((a as u64) > (b as u64)) as i64,
            BinIr::CmpGeU => ((a as u64) >= (b as u64)) as i64,
        }
    }
}

/// Call target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallTarget {
    /// User function by index into the program's function table.
    Func(usize),
    /// Runtime builtin.
    Builtin(Builtin),
    /// Indirect through a function-pointer value (a
    /// [`FUNC_PTR_BASE`]-tagged index).
    Indirect(Operand),
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = value`.
    Const {
        /// Destination.
        dst: Temp,
        /// Immediate.
        value: i64,
    },
    /// `dst = src`.
    Mov {
        /// Destination.
        dst: Temp,
        /// Source.
        src: Operand,
    },
    /// `dst = a op b`.
    Bin {
        /// Destination.
        dst: Temp,
        /// Operation.
        op: BinIr,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = *(addr)` with the given width; `signed` selects sign- vs
    /// zero-extension.
    Load {
        /// Destination.
        dst: Temp,
        /// Address.
        addr: Operand,
        /// 1, 4, or 8 bytes.
        width: u8,
        /// Sign-extend narrower loads.
        signed: bool,
    },
    /// `*(addr) = value` with the given width.
    Store {
        /// Address.
        addr: Operand,
        /// Stored value.
        value: Operand,
        /// 1, 4, or 8 bytes.
        width: u8,
    },
    /// `dst = frame_pointer + offset` — address of a stack slot.
    FrameAddr {
        /// Destination.
        dst: Temp,
        /// Byte offset within the frame.
        offset: u32,
    },
    /// `memmove(dst_addr, src_addr, len)` — struct assignment.
    MemCopy {
        /// Destination address.
        dst_addr: Operand,
        /// Source address.
        src_addr: Operand,
        /// Length in bytes.
        len: u64,
    },
    /// Function call; `dst` receives the return value if any.
    Call {
        /// Result register.
        dst: Option<Temp>,
        /// Callee.
        target: CallTarget,
        /// Arguments.
        args: Vec<Operand>,
        /// For allocation builtins: index into
        /// [`ProgramIr::alloc_sites`], so the VM can attribute the
        /// allocation to its source program point.
        site: Option<u32>,
    },
    /// The paper's primitive: `dst = value`, opaque to the optimizer, with
    /// `base` kept live until this instruction executes.
    KeepLive {
        /// Destination (the protected, opaque value).
        dst: Temp,
        /// The pointer value being protected.
        value: Operand,
        /// The base pointer to keep visible (None = opacity only).
        base: Option<Operand>,
    },
    /// Debug-mode check: verifies `value` and `base` point into the same
    /// heap object (via the collector's page map), then `dst = value`.
    /// Also has the full `KeepLive` effect.
    CheckSame {
        /// Destination.
        dst: Temp,
        /// Derived pointer.
        value: Operand,
        /// Base pointer.
        base: Operand,
    },
    /// Return.
    Ret {
        /// Optional return value.
        value: Option<Operand>,
    },
    /// Unconditional jump (must be last in a block).
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch (must be last in a block).
    Branch {
        /// Condition (non-zero = taken).
        cond: Operand,
        /// Taken target.
        if_true: BlockId,
        /// Fallthrough target.
        if_false: BlockId,
    },
}

impl Instr {
    /// The destination temp, if the instruction defines one.
    pub fn dst(&self) -> Option<Temp> {
        match self {
            Instr::Const { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::FrameAddr { dst, .. }
            | Instr::KeepLive { dst, .. }
            | Instr::CheckSame { dst, .. } => Some(*dst),
            Instr::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Collects the temps this instruction reads.
    pub fn uses(&self, out: &mut Vec<Temp>) {
        let mut push = |o: &Operand| {
            if let Operand::Temp(t) = o {
                out.push(*t);
            }
        };
        match self {
            Instr::Const { .. } | Instr::FrameAddr { .. } | Instr::Jump { .. } => {}
            Instr::Mov { src, .. } => push(src),
            Instr::Bin { a, b, .. } => {
                push(a);
                push(b);
            }
            Instr::Load { addr, .. } => push(addr),
            Instr::Store { addr, value, .. } => {
                push(addr);
                push(value);
            }
            Instr::MemCopy {
                dst_addr, src_addr, ..
            } => {
                push(dst_addr);
                push(src_addr);
            }
            Instr::Call { target, args, .. } => {
                if let CallTarget::Indirect(o) = target {
                    push(o);
                }
                for a in args {
                    push(a);
                }
            }
            Instr::KeepLive { value, base, .. } => {
                push(value);
                if let Some(b) = base {
                    push(b);
                }
            }
            Instr::CheckSame { value, base, .. } => {
                push(value);
                push(base);
            }
            Instr::Ret { value } => {
                if let Some(v) = value {
                    push(v);
                }
            }
            Instr::Branch { cond, .. } => push(cond),
        }
    }

    /// Whether the instruction has side effects beyond defining `dst`
    /// (and therefore must not be removed even if `dst` is dead).
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Instr::Store { .. }
                | Instr::MemCopy { .. }
                | Instr::Call { .. }
                | Instr::CheckSame { .. }
                | Instr::Ret { .. }
                | Instr::Jump { .. }
                | Instr::Branch { .. }
        )
    }

    /// Whether the instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Ret { .. } | Instr::Jump { .. } | Instr::Branch { .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Const { dst, value } => write!(f, "{dst} = {value}"),
            Instr::Mov { dst, src } => write!(f, "{dst} = {src}"),
            Instr::Bin { dst, op, a, b } => write!(f, "{dst} = {op:?}({a}, {b})"),
            Instr::Load {
                dst,
                addr,
                width,
                signed,
            } => {
                write!(
                    f,
                    "{dst} = load{width}{} [{addr}]",
                    if *signed { "s" } else { "u" }
                )
            }
            Instr::Store { addr, value, width } => {
                write!(f, "store{width} [{addr}] = {value}")
            }
            Instr::FrameAddr { dst, offset } => write!(f, "{dst} = fp+{offset}"),
            Instr::MemCopy {
                dst_addr,
                src_addr,
                len,
            } => {
                write!(f, "memcopy [{dst_addr}] <- [{src_addr}] x{len}")
            }
            Instr::Call {
                dst, target, args, ..
            } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                match target {
                    CallTarget::Func(i) => write!(f, "call fn#{i}")?,
                    CallTarget::Builtin(b) => write!(f, "call {b:?}")?,
                    CallTarget::Indirect(o) => write!(f, "call *{o}")?,
                }
                write!(f, "(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Instr::KeepLive { dst, value, base } => match base {
                Some(b) => write!(f, "{dst} = keep_live({value}, {b})"),
                None => write!(f, "{dst} = keep_live({value})"),
            },
            Instr::CheckSame { dst, value, base } => {
                write!(f, "{dst} = gc_same_obj({value}, {base})")
            }
            Instr::Ret { value: Some(v) } => write!(f, "ret {v}"),
            Instr::Ret { value: None } => write!(f, "ret"),
            Instr::Jump { target } => write!(f, "jump {target}"),
            Instr::Branch {
                cond,
                if_true,
                if_false,
            } => {
                write!(f, "br {cond} ? {if_true} : {if_false}")
            }
        }
    }
}

/// A basic block: straight-line instructions ending in a terminator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Instructions; the last one is the terminator once sealed.
    pub instrs: Vec<Instr>,
}

impl Block {
    /// Successor block ids (a branch with equal arms yields its target
    /// twice).
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let (x, y) = match self.instrs.last() {
            Some(Instr::Jump { target }) => (Some(*target), None),
            Some(Instr::Branch {
                if_true, if_false, ..
            }) => (Some(*if_true), Some(*if_false)),
            _ => (None, None),
        };
        x.into_iter().chain(y)
    }
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncIr {
    /// Source-level name.
    pub name: String,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Number of temps allocated.
    pub temp_count: u32,
    /// Temps holding the incoming parameters (in order).
    pub param_temps: Vec<Temp>,
    /// Frame size in bytes (memory-resident locals).
    pub frame_size: u32,
    /// Whether the function returns a value.
    pub returns_value: bool,
}

impl FuncIr {
    /// Pretty-prints the function for debugging/tests.
    pub fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fn {} (frame {} bytes, {} temps)",
            self.name, self.frame_size, self.temp_count
        );
        for (i, b) in self.blocks.iter().enumerate() {
            let _ = writeln!(out, "bb{i}:");
            for ins in &b.instrs {
                let _ = writeln!(out, "    {ins}");
            }
        }
        out
    }

    /// Total instruction count (a proxy for code size before codegen).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// Source location of one allocation call, recorded during lowering so
/// the VM (and gcprof) can attribute every heap allocation back to the
/// program point that asked for it.
///
/// Positions are bound in two steps. Lowering records the call
/// expression's [`cfront::NodeId`] and span; both refer to the *original*
/// source the program was parsed from (the annotator preserves the ids
/// and spans of the nodes it rewrites). After compilation —
/// whether fresh or served from the compilation cache — the sites are
/// re-bound against the requesting program's AST and source text via
/// [`ProgramIr::rebind_alloc_sites`], which is what keeps `line`/`col`
/// labels correct when a structurally-identical but differently-formatted
/// program shares cached IR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// Name of the enclosing function.
    pub func: String,
    /// Allocation primitive: `"malloc"`, `"calloc"`, or `"realloc"`.
    pub primitive: &'static str,
    /// Id of the call expression in the parsed AST — the stable
    /// correspondence between structurally-equal programs (the parser
    /// assigns ids in syntax order, which formatting cannot change).
    pub node: cfront::NodeId,
    /// Byte offset of the call expression in the original source text.
    pub span_start: usize,
    /// 1-based source line (0 until resolved).
    pub line: usize,
    /// 1-based source column (0 until resolved).
    pub col: usize,
}

impl AllocSite {
    /// The flamegraph-frame label for the site: `primitive@line:col`.
    pub fn label(&self) -> String {
        format!("{}@{}:{}", self.primitive, self.line, self.col)
    }
}

/// A whole lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramIr {
    /// Functions; indices are the [`CallTarget::Func`] ids.
    pub funcs: Vec<FuncIr>,
    /// Index of `main`.
    pub main: usize,
    /// Initial contents of the globals region (variables, then strings).
    pub globals_image: Vec<u8>,
    /// Size of the globals region actually used.
    pub globals_size: u64,
    /// Allocation sites, indexed by the `site` field of [`Instr::Call`].
    pub alloc_sites: Vec<AllocSite>,
}

impl ProgramIr {
    /// Finds a function index by name.
    pub fn func_index(&self, name: &str) -> Option<usize> {
        self.funcs.iter().position(|f| f.name == name)
    }

    /// Re-binds every allocation site to the *requesting* program: each
    /// site's span is looked up by [`cfront::NodeId`] in `spans` (a map
    /// built from the requester's freshly parsed AST) and its `line`/`col`
    /// resolved against the requester's `source`.
    ///
    /// This runs after every compilation, cached or not. On a cache hit
    /// the shared IR carries the donor program's byte offsets — without
    /// re-binding, a whitespace-divergent but hash-equal program would
    /// report the donor's `malloc@line:col` coordinates in its own
    /// profiles. A node missing from `spans` (not expected in practice)
    /// keeps its recorded span.
    pub fn rebind_alloc_sites(
        &mut self,
        spans: &std::collections::HashMap<cfront::NodeId, usize>,
        source: &str,
    ) {
        for site in &mut self.alloc_sites {
            if let Some(&start) = spans.get(&site.node) {
                site.span_start = start;
            }
            let (line, col) = cfront::span::line_col(source, site.span_start);
            site.line = line;
            site.col = col;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binir_eval_basics() {
        assert_eq!(BinIr::Add.eval(2, 3), 5);
        assert_eq!(BinIr::Sub.eval(2, 3), -1);
        assert_eq!(BinIr::Div.eval(7, 2), 3);
        assert_eq!(BinIr::Div.eval(7, 0), 0, "division by zero is defused");
        assert_eq!(BinIr::CmpLt.eval(-1, 0), 1);
        assert_eq!(BinIr::CmpLtU.eval(-1, 0), 0, "-1 is huge unsigned");
        assert_eq!(BinIr::Shr.eval(-8, 1), (u64::MAX / 2 - 3) as i64);
        assert_eq!(BinIr::Sar.eval(-8, 1), -4);
    }

    #[test]
    fn instr_uses_and_dst() {
        let i = Instr::Bin {
            dst: Temp(3),
            op: BinIr::Add,
            a: Operand::Temp(Temp(1)),
            b: Operand::Const(4),
        };
        assert_eq!(i.dst(), Some(Temp(3)));
        let mut u = Vec::new();
        i.uses(&mut u);
        assert_eq!(u, vec![Temp(1)]);
    }

    #[test]
    fn keep_live_base_is_a_use() {
        // The liveness guarantee of the paper's primitive rests on this.
        let i = Instr::KeepLive {
            dst: Temp(5),
            value: Operand::Temp(Temp(2)),
            base: Some(Operand::Temp(Temp(1))),
        };
        let mut u = Vec::new();
        i.uses(&mut u);
        assert!(u.contains(&Temp(1)), "base must be kept live");
        assert!(u.contains(&Temp(2)));
        assert!(
            !i.has_side_effects(),
            "keep_live with dead dst may be removed"
        );
    }

    #[test]
    fn check_same_has_side_effects() {
        let i = Instr::CheckSame {
            dst: Temp(5),
            value: Operand::Temp(Temp(2)),
            base: Operand::Temp(Temp(1)),
        };
        assert!(i.has_side_effects(), "the runtime check may abort");
    }

    #[test]
    fn block_successors() {
        let b = Block {
            instrs: vec![Instr::Branch {
                cond: Operand::Temp(Temp(0)),
                if_true: BlockId(1),
                if_false: BlockId(2),
            }],
        };
        assert_eq!(
            b.successors().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(2)]
        );
    }
}
