//! The SPARC-like target assembly.
//!
//! A small RISC ISA with register+register and register+immediate
//! addressing — enough to express the paper's central cost story: the
//! baseline folds address arithmetic into `ld [x+y]`, the `KEEP_LIVE`
//! barrier forces `add x,y,z ; ld [z]`, and the peephole postprocessor
//! folds it back.
//!
//! `KEEP_LIVE` itself appears as a zero-size pseudo-instruction — the
//! paper's "special comment understood by the peephole optimizer" — that
//! marks its base register as protected.

use crate::cost::Machine;
use std::fmt;

/// A physical register `%r0 … %rK-1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%r{}", self.0)
    }
}

/// Register-or-immediate second operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegImm {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand.
    Imm(i64),
}

impl fmt::Display for RegImm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegImm::Reg(r) => write!(f, "{r}"),
            RegImm::Imm(v) => write!(f, "{v}"),
        }
    }
}

impl From<Reg> for RegImm {
    fn from(r: Reg) -> Self {
        RegImm::Reg(r)
    }
}

/// ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Div,
    DivU,
    Rem,
    RemU,
    And,
    Or,
    Xor,
    Shl,
    Sar,
    Shr,
}

impl AluOp {
    fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "smul",
            AluOp::Div => "sdiv",
            AluOp::DivU => "udiv",
            AluOp::Rem => "srem",
            AluOp::RemU => "urem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "sll",
            AluOp::Sar => "sra",
            AluOp::Shr => "srl",
        }
    }
}

/// Branch conditions (signed/unsigned comparisons against a second
/// operand; `cmp` is fused into the branch for costing purposes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LtU,
    LeU,
    GtU,
    GeU,
}

impl Cond {
    fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "be",
            Cond::Ne => "bne",
            Cond::Lt => "bl",
            Cond::Le => "ble",
            Cond::Gt => "bg",
            Cond::Ge => "bge",
            Cond::LtU => "blu",
            Cond::LeU => "bleu",
            Cond::GtU => "bgu",
            Cond::GeU => "bgeu",
        }
    }
}

/// Call targets at the assembly level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmCallTarget {
    /// User function by name.
    Named(String),
    /// Runtime builtin by name.
    Runtime(&'static str),
    /// Indirect through a register.
    Indirect(Reg),
}

impl fmt::Display for AsmCallTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmCallTarget::Named(n) => write!(f, "{n}"),
            AsmCallTarget::Runtime(n) => write!(f, "{n}"),
            AsmCallTarget::Indirect(r) => write!(f, "{r}"),
        }
    }
}

/// One assembly instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum AsmInstr {
    /// `op rd, rs, op2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs: Reg,
        /// Second source.
        op2: RegImm,
    },
    /// `mov rd, src`.
    Mov {
        /// Destination.
        rd: Reg,
        /// Source.
        src: RegImm,
    },
    /// `sethi`-style load of a large constant.
    SetImm {
        /// Destination.
        rd: Reg,
        /// Constant.
        value: i64,
    },
    /// `ld [base + off], rd`.
    Ld {
        /// Destination.
        rd: Reg,
        /// Base register.
        base: Reg,
        /// Offset (register or immediate).
        off: RegImm,
        /// Access width in bytes.
        width: u8,
        /// Sign-extend.
        signed: bool,
    },
    /// `st rs, [base + off]`.
    St {
        /// Stored register.
        rs: Reg,
        /// Base register.
        base: Reg,
        /// Offset.
        off: RegImm,
        /// Access width in bytes.
        width: u8,
    },
    /// Compare and set 0/1: `cmp a, b; mov<cond> 1, rd` (two instructions
    /// on the real machine).
    SetCc {
        /// Condition.
        cond: Cond,
        /// Destination (receives 0 or 1).
        rd: Reg,
        /// Left comparand.
        a: Reg,
        /// Right comparand.
        b: RegImm,
    },
    /// Fused compare-and-branch `cmp a, b; b<cond> target`.
    Bcc {
        /// Condition.
        cond: Cond,
        /// Left comparand.
        a: Reg,
        /// Right comparand.
        b: RegImm,
        /// Target block index within the function.
        target: u32,
    },
    /// Unconditional branch.
    Ba {
        /// Target block index.
        target: u32,
    },
    /// Call.
    Call {
        /// Callee.
        target: AsmCallTarget,
        /// Number of argument moves already emitted (for documentation).
        args: u8,
    },
    /// Return.
    Ret,
    /// The `KEEP_LIVE` marker: zero bytes of code. `base` is the protected
    /// register; the peephole pass refuses to eliminate it.
    KeepLive {
        /// Register holding the protected (derived) value.
        value: Reg,
        /// Base register kept visible, if any.
        base: Option<Reg>,
    },
    /// `GC_same_obj(value, base)` runtime check (a real call).
    CheckSame {
        /// Result/derived-value register.
        value: Reg,
        /// Base register.
        base: Reg,
    },
    /// `memmove`-style block copy (runtime call).
    BlockCopy {
        /// Destination address register.
        dst: Reg,
        /// Source address register.
        src: Reg,
        /// Length in bytes.
        len: u64,
    },
}

impl AsmInstr {
    /// Code size contribution in bytes (fixed 4-byte encoding; pseudo
    /// instructions are free; calls include the argument window setup).
    pub fn size_bytes(&self) -> u64 {
        match self {
            AsmInstr::KeepLive { .. } => 0,
            AsmInstr::SetImm { value, .. }
                // Large constants need sethi+or.
                if (*value > 0x1fff || *value < -0x1000) => {
                    8
                }
            AsmInstr::SetCc { .. } => 8, // cmp + conditional move
            AsmInstr::Bcc { .. } => 8, // cmp + branch
            AsmInstr::CheckSame { .. } => 12, // two arg moves + call
            AsmInstr::BlockCopy { .. } => 12,
            _ => 4,
        }
    }

    /// Cycle cost under a machine model.
    pub fn cost(&self, m: &Machine) -> u64 {
        match self {
            AsmInstr::Alu { op, .. } => match op {
                AluOp::Mul => m.mul_cost,
                AluOp::Div | AluOp::DivU | AluOp::Rem | AluOp::RemU => m.div_cost,
                _ => m.alu_cost,
            },
            AsmInstr::Mov { .. } | AsmInstr::SetImm { .. } => m.alu_cost,
            AsmInstr::Ld { .. } => m.load_cost,
            AsmInstr::St { .. } => m.store_cost,
            AsmInstr::SetCc { .. } => 2 * m.alu_cost,
            AsmInstr::Bcc { .. } => m.alu_cost + m.branch_cost,
            AsmInstr::Ba { .. } => m.branch_cost,
            AsmInstr::Call { .. } => m.call_cost,
            AsmInstr::Ret => m.branch_cost,
            AsmInstr::KeepLive { .. } => 0,
            AsmInstr::CheckSame { .. } => m.check_cost,
            AsmInstr::BlockCopy { len, .. } => m.call_cost + (len * m.byte_work_cost_milli) / 1000,
        }
    }

    /// Registers read by this instruction (at most three, in operand
    /// order; no allocation).
    pub fn reads(&self) -> impl Iterator<Item = Reg> {
        let ri = |o: &RegImm| match o {
            RegImm::Reg(r) => Some(*r),
            RegImm::Imm(_) => None,
        };
        let regs = match self {
            AsmInstr::Alu { rs, op2, .. } => [Some(*rs), ri(op2), None],
            AsmInstr::Mov { src, .. } => [ri(src), None, None],
            AsmInstr::Ld { base, off, .. } => [Some(*base), ri(off), None],
            AsmInstr::St { rs, base, off, .. } => [Some(*rs), Some(*base), ri(off)],
            AsmInstr::SetCc { a, b, .. } | AsmInstr::Bcc { a, b, .. } => [Some(*a), ri(b), None],
            AsmInstr::Call {
                target: AsmCallTarget::Indirect(r),
                ..
            } => [Some(*r), None, None],
            AsmInstr::KeepLive { value, base } => [Some(*value), *base, None],
            AsmInstr::CheckSame { value, base } => [Some(*value), Some(*base), None],
            AsmInstr::BlockCopy { dst, src, .. } => [Some(*dst), Some(*src), None],
            AsmInstr::SetImm { .. }
            | AsmInstr::Ba { .. }
            | AsmInstr::Ret
            | AsmInstr::Call { .. } => [None; 3],
        };
        regs.into_iter().flatten()
    }

    /// Register written by this instruction, if any.
    pub fn writes(&self) -> Option<Reg> {
        match self {
            AsmInstr::Alu { rd, .. }
            | AsmInstr::Mov { rd, .. }
            | AsmInstr::SetImm { rd, .. }
            | AsmInstr::SetCc { rd, .. }
            | AsmInstr::Ld { rd, .. } => Some(*rd),
            AsmInstr::KeepLive { .. } => None,
            AsmInstr::CheckSame { value, .. } => Some(*value),
            _ => None,
        }
    }
}

impl fmt::Display for AsmInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmInstr::Alu { op, rd, rs, op2 } => {
                write!(f, "{} {rs},{op2},{rd}", op.mnemonic())
            }
            AsmInstr::Mov { rd, src } => write!(f, "mov {src},{rd}"),
            AsmInstr::SetImm { rd, value } => write!(f, "set {value},{rd}"),
            AsmInstr::Ld {
                rd,
                base,
                off,
                width,
                signed,
            } => {
                let suffix = match (width, signed) {
                    (1, true) => "sb",
                    (1, false) => "ub",
                    (4, true) => "sw",
                    (4, false) => "uw",
                    _ => "x",
                };
                write!(f, "ld{suffix} [{base}+{off}],{rd}")
            }
            AsmInstr::St {
                rs,
                base,
                off,
                width,
            } => {
                let suffix = match width {
                    1 => "b",
                    4 => "w",
                    _ => "x",
                };
                write!(f, "st{suffix} {rs},[{base}+{off}]")
            }
            AsmInstr::SetCc { cond, rd, a, b } => {
                write!(f, "cmp {a},{b}; mov{} 1,{rd}", cond.mnemonic())
            }
            AsmInstr::Bcc { cond, a, b, target } => {
                write!(f, "cmp {a},{b}; {} .LB{target}", cond.mnemonic())
            }
            AsmInstr::Ba { target } => write!(f, "ba .LB{target}"),
            AsmInstr::Call { target, args } => write!(f, "call {target} ! {args} args"),
            AsmInstr::Ret => write!(f, "ret"),
            AsmInstr::KeepLive { value, base } => match base {
                Some(b) => write!(f, "! keep_live {value} base {b}"),
                None => write!(f, "! keep_live {value}"),
            },
            AsmInstr::CheckSame { value, base } => {
                write!(f, "call GC_same_obj({value},{base})")
            }
            AsmInstr::BlockCopy { dst, src, len } => {
                write!(f, "call memmove({dst},{src},{len})")
            }
        }
    }
}

/// One assembly basic block, aligned 1:1 with the source IR block so VM
/// profiles transfer directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AsmBlock {
    /// Instructions.
    pub instrs: Vec<AsmInstr>,
}

impl AsmBlock {
    /// Static size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.instrs.iter().map(AsmInstr::size_bytes).sum()
    }

    /// Cycle cost of one execution under `m`.
    pub fn cost(&self, m: &Machine) -> u64 {
        self.instrs.iter().map(|i| i.cost(m)).sum()
    }
}

/// An assembled function.
#[derive(Debug, Clone, PartialEq)]
pub struct AsmFunc {
    /// Function name.
    pub name: String,
    /// Blocks, index-aligned with the IR function's blocks.
    pub blocks: Vec<AsmBlock>,
    /// Registers the allocator spilled (for diagnostics).
    pub spill_count: u32,
}

impl AsmFunc {
    /// Static code size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.blocks.iter().map(AsmBlock::size_bytes).sum()
    }

    /// Pretty listing.
    pub fn listing(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{}:", self.name);
        for (i, b) in self.blocks.iter().enumerate() {
            let _ = writeln!(out, ".LB{i}:");
            for ins in &b.instrs {
                let _ = writeln!(out, "    {ins}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_live_is_free() {
        let kl = AsmInstr::KeepLive {
            value: Reg(1),
            base: Some(Reg(2)),
        };
        assert_eq!(kl.size_bytes(), 0);
        assert_eq!(kl.cost(&Machine::sparc10()), 0);
        assert_eq!(kl.reads().collect::<Vec<_>>(), vec![Reg(1), Reg(2)]);
        assert_eq!(kl.writes(), None);
    }

    #[test]
    fn check_is_expensive() {
        let m = Machine::sparc10();
        let chk = AsmInstr::CheckSame {
            value: Reg(1),
            base: Reg(2),
        };
        assert!(chk.cost(&m) > 10 * m.alu_cost);
    }

    #[test]
    fn indexed_load_displays() {
        let ld = AsmInstr::Ld {
            rd: Reg(0),
            base: Reg(1),
            off: RegImm::Reg(Reg(2)),
            width: 1,
            signed: true,
        };
        assert_eq!(ld.to_string(), "ldsb [%r1+%r2],%r0");
    }

    #[test]
    fn reads_writes_tracking() {
        let add = AsmInstr::Alu {
            op: AluOp::Add,
            rd: Reg(3),
            rs: Reg(1),
            op2: RegImm::Reg(Reg(2)),
        };
        assert_eq!(add.reads().collect::<Vec<_>>(), vec![Reg(1), Reg(2)]);
        assert_eq!(add.writes(), Some(Reg(3)));
        let st = AsmInstr::St {
            rs: Reg(0),
            base: Reg(1),
            off: RegImm::Imm(4),
            width: 8,
        };
        assert_eq!(st.reads().collect::<Vec<_>>(), vec![Reg(0), Reg(1)]);
        assert_eq!(st.writes(), None);
    }

    #[test]
    fn block_accounting() {
        let m = Machine::sparc2();
        let b = AsmBlock {
            instrs: vec![
                AsmInstr::Alu {
                    op: AluOp::Add,
                    rd: Reg(0),
                    rs: Reg(1),
                    op2: RegImm::Imm(1),
                },
                AsmInstr::Ld {
                    rd: Reg(0),
                    base: Reg(0),
                    off: RegImm::Imm(0),
                    width: 8,
                    signed: false,
                },
            ],
        };
        assert_eq!(b.size_bytes(), 8);
        assert_eq!(b.cost(&m), m.alu_cost + m.load_cost);
    }
}
