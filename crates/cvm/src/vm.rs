//! The executing virtual machine.
//!
//! Runs IR against the simulated address space with the conservative
//! collector attached. Collections are triggered inside allocation
//! builtins (the call-site model); the roots at a collection are:
//!
//! * the globals region and the live portion of the stack (frame slots),
//!   scanned conservatively word-by-word, and
//! * per suspended frame, exactly the temps *live across the active call*
//!   (from `liveness::visit_call_roots`) — the VM's "registers".
//!
//! Dead temps are not roots. That is what makes the paper's disguised-
//! pointer hazard reproducible: optimize away the last live copy of a
//! pointer and the object really is collected under your feet.
//!
//! # The interpreter
//!
//! A run first decodes each function into a flat table of small `Copy`
//! ops, its blocks laid end to end, so a position in a function is one
//! program counter and dispatching an instruction is one index and one
//! match. Decoding settles once what the IR would otherwise be asked on
//! every step: whether each operand is a temp or an immediate, a load's
//! width and extension, `KeepLive` as the move it is at run time, and
//! each jump's target as its first slot and its block. A block that does
//! not end in a terminator gets one extra op, and reaching it is
//! [`VmError::Malformed`] ("fell off block bbN"). Beside the ops, the
//! table keeps each block's first slot and, per `Call` slot, the temps
//! live across that call: the precise roots above. The block-count
//! profile is one counter per block of the program, indexed by the
//! decoded jump targets and handed over when the run ends.
//!
//! Five adjacent pairs inside a block are then fused into one op each: a
//! frame address and the load, or the store of a temp, through it; a move
//! (also a `KeepLive`) and a jump (also a branch on an immediate); and an
//! operation and a branch on its result. A fused op is still two steps:
//! its first half, which cannot fault, writes its destination and is
//! charged to the budget before the second half runs. It takes the pair's
//! first slot and the second slot keeps its own op, so block starts, call
//! slots and every slot-indexed table are those of the unfused code, and
//! no jump lands between the halves.
//!
//! The loop keeps the program counter, the active frame's window base
//! and the step count in locals. It re-reads the active function's ops
//! and its slice of the register window only at calls and returns,
//! which are also the only places a run can end. All frames' temps live
//! in one register window: a frame owns `regs[base..base + temp_count]`,
//! zeroed when the frame is pushed and truncated away when it returns.
//! Call arguments are read straight from the caller's window, and
//! builtin calls are counted in a fixed array.
//!
//! Loads, stores, block copies and the string and memory builtins all go
//! through one checked access (`Space`): an address in the heap range
//! must lie in an allocated object, and a range is checked at both
//! ends. An address is classified once: one compare against the heap
//! range, the collector's side table for a heap address, then the
//! committed run the bytes live in.
//!
//! A run pays only for what it touches. Its memory commits bytes as they
//! are written (see [`gcheap::Memory`]), an allocation hands the collector
//! a root builder that runs only if the allocation collects or steps a
//! mark cycle, and a function's per-call root table is solved the first
//! time such a root scan reaches one of its frames, so a run that never
//! collects never solves liveness.
//!
//! The step count, the block counts, every error and its text, and the
//! order of root words (globals, then the stack, then each frame's live
//! temps bottom frame first and in ascending temp order) do not depend on
//! this layout; `tests/gc_golden.rs` and `tests/vm_golden.rs` pin them.

use crate::ir::*;
use crate::liveness::visit_call_roots;
use cfront::sema::Builtin;
use gcheap::{GcHeap, HeapConfig, HeapStats, MemFault, Memory, RootSet, Roots, GLOBAL_BASE};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmOptions {
    /// Collector configuration.
    pub heap_config: HeapConfig,
    /// Bytes served to `getchar`.
    pub input: Vec<u8>,
    /// Instruction budget (guards against runaway programs).
    pub max_steps: u64,
    /// The Extensions-section dynamic check: verify that every pointer
    /// stored into the heap or statics is an object *base* (required by
    /// [`gcheap::PointerPolicy::InteriorFromRootsOnly`]).
    pub check_base_stores: bool,
    /// Heap region size in bytes: the address range reserved for the
    /// heap. Memory is committed only as the run writes it.
    pub heap_bytes: usize,
    /// Stack region size in bytes: the address range reserved for the
    /// stack, whose overflow is [`VmError::StackOverflow`]. Memory is
    /// committed only as the run writes it.
    pub stack_bytes: usize,
    /// Trace sink shared with the attached collector: the heap emits its
    /// per-collection timeline events here, and the VM emits one
    /// `("vm", "run")` summary when execution completes. Disabled by
    /// default — the disabled handle adds no measurable overhead.
    pub trace: gctrace::TraceHandle,
    /// Profiling sink shared with the attached collector: pause/size
    /// histograms and the pause timeline are recorded by the heap,
    /// per-allocation-site counters (keyed by the VM's shadow call
    /// stack) by the VM, and a final heap census when the run ends.
    /// Disabled by default; the disabled handle never builds a stack key.
    pub prof: gcprof::ProfHandle,
    /// Snapshot sink: when enabled, the VM records a `begin` heap-graph
    /// snapshot at its first allocation and an `end` snapshot when the
    /// run completes (without collecting first, so floating garbage is
    /// still visible). Disabled by default; the disabled handle never
    /// walks the heap.
    pub snap: gcsnap::SnapHandle,
    /// Cross-check the snapshot's reachable set against the collector's
    /// shadow liveness at the end of the run: after a full collection
    /// and sweep, every surviving object must be reachable in the
    /// snapshot graph (and vice versa, trivially). A divergence is a
    /// [`VmError::SnapshotOracle`]. Used by the fuzzer's paranoid modes.
    pub snapshot_oracle: bool,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            heap_config: HeapConfig::default(),
            input: Vec::new(),
            max_steps: 2_000_000_000,
            check_base_stores: false,
            heap_bytes: 32 << 20,
            stack_bytes: 1 << 20,
            trace: gctrace::TraceHandle::disabled(),
            prof: gcprof::ProfHandle::disabled(),
            snap: gcsnap::SnapHandle::disabled(),
            snapshot_oracle: false,
        }
    }
}

/// Positional labels for the root ranges [`RootView::roots`] builds: the
/// globals region first, the live stack second. Precise root words
/// (live temps) are labeled `reg` by the snapshot walk itself.
const ROOT_LABELS: &[&str] = &["globals", "stack"];

/// Dynamic execution counts used for cycle accounting.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Executions of each basic block, per function.
    pub block_counts: Vec<Vec<u64>>,
    /// Builtin invocation counts.
    pub builtin_calls: HashMap<Builtin, u64>,
    /// Total bytes processed by block builtins (memcpy, strlen, …).
    pub builtin_byte_work: u64,
}

impl Profile {
    /// Total dynamic IR instructions implied by the block counts.
    pub fn dynamic_instrs(&self, prog: &ProgramIr) -> u64 {
        let mut total = 0;
        for (f, counts) in self.block_counts.iter().enumerate() {
            for (b, &c) in counts.iter().enumerate() {
                total += c * prog.funcs[f].blocks[b].instrs.len() as u64;
            }
        }
        total
    }
}

/// Successful execution result.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Bytes written by `putchar`/`putstr`/`putint`.
    pub output: Vec<u8>,
    /// `main`'s return value or the `exit` code.
    pub exit_code: i64,
    /// Execution profile.
    pub profile: Profile,
    /// Collector statistics.
    pub heap: HeapStats,
    /// Instructions executed.
    pub steps: u64,
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// Simulated memory fault.
    Fault(MemFault),
    /// A `GC_same_obj` / `GC_pre_incr` check failed: pointer arithmetic
    /// left its object.
    CheckFailed {
        /// Function in which the check fired.
        func: String,
        /// The derived pointer value.
        value: u64,
        /// The base pointer value.
        base: u64,
    },
    /// Load/store hit a heap address with no allocated object — the
    /// observable symptom of premature collection.
    UseAfterFree {
        /// Function performing the access.
        func: String,
        /// Offending address.
        addr: u64,
    },
    /// Heap exhausted even after collection.
    OutOfMemory,
    /// Stack exhausted.
    StackOverflow,
    /// Instruction budget exceeded.
    StepLimit,
    /// `abort()` was called.
    Aborted,
    /// The Extensions-mode base-store assertion failed: an interior
    /// pointer was stored into the heap or statically allocated memory.
    InteriorStored {
        /// Function performing the store.
        func: String,
        /// The interior pointer value.
        value: u64,
        /// The object base it points into.
        base: u64,
    },
    /// A caller expected a value but the callee returned without one
    /// (`return;` or fall-through in a function whose result is used).
    MissingReturn {
        /// The callee that produced no value.
        func: String,
    },
    /// Malformed program (bad function pointer, missing target, …).
    Malformed(String),
    /// The end-of-run snapshot oracle found a disagreement between the
    /// snapshot graph's reachable set and the collector's shadow
    /// liveness (objects that survived a full collection).
    SnapshotOracle(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Fault(e) => write!(f, "{e}"),
            VmError::CheckFailed { func, value, base } => write!(
                f,
                "pointer arithmetic check failed in '{func}': {value:#x} not in same object as {base:#x}"
            ),
            VmError::UseAfterFree { func, addr } => {
                write!(f, "access to unallocated heap memory at {addr:#x} in '{func}' (premature collection?)")
            }
            VmError::OutOfMemory => write!(f, "out of memory"),
            VmError::StackOverflow => write!(f, "stack overflow"),
            VmError::StepLimit => write!(f, "instruction budget exceeded"),
            VmError::Aborted => write!(f, "abort() called"),
            VmError::InteriorStored { func, value, base } => write!(
                f,
                "interior pointer {value:#x} (base {base:#x}) stored to collector-visible memory in '{func}' under base-only policy"
            ),
            VmError::MissingReturn { func } => {
                write!(f, "'{func}' returned no value but its caller uses one")
            }
            VmError::Malformed(m) => write!(f, "malformed program: {m}"),
            VmError::SnapshotOracle(m) => {
                write!(f, "snapshot oracle divergence: {m}")
            }
        }
    }
}

impl std::error::Error for VmError {}

impl From<MemFault> for VmError {
    fn from(e: MemFault) -> Self {
        VmError::Fault(e)
    }
}

/// Runs a lowered program to completion.
///
/// # Errors
///
/// See [`VmError`]; in particular `CheckFailed` reproduces the paper's
/// checking mode catching bad pointer arithmetic, and `UseAfterFree`
/// observes premature collection caused by disguised pointers.
pub fn run(prog: &ProgramIr, opts: &VmOptions) -> Result<ExecOutcome, VmError> {
    let mut first_block = 0;
    let code: Vec<Code> = prog
        .funcs
        .iter()
        .map(|func| {
            let code = Code::new(func, first_block);
            first_block += func.blocks.len() as u32;
            code
        })
        .collect();
    Vm::new(prog, &code, opts)?.run()
}

/// An operand of a call, a block copy or a check, which read theirs from
/// their function's operand table.
#[derive(Clone, Copy)]
enum Src {
    Temp(u32),
    Imm(i64),
}

impl Src {
    fn new(o: Operand) -> Self {
        match o {
            Operand::Temp(t) => Src::Temp(t.0),
            Operand::Const(c) => Src::Imm(c),
        }
    }

    /// The operand's value in the frame whose window is `regs`.
    #[inline]
    fn read(self, regs: &[i64]) -> i64 {
        match self {
            Src::Temp(t) => regs[t as usize],
            Src::Imm(v) => v,
        }
    }
}

/// Where a jump lands: the block's first slot, and the block's counter
/// in the run's block-count table.
#[derive(Clone, Copy)]
struct Target {
    slot: u32,
    block: u32,
}

impl Target {
    /// Counts an entry into the block and returns its first slot.
    #[inline]
    fn enter(self, counts: &mut [u64]) -> usize {
        counts[self.block as usize] += 1;
        self.slot as usize
    }
}

/// One decoded instruction. A `u32` operand is a temp of the active
/// frame; an immediate the IR gives in a hot position is decoded into
/// an op of its own, and the rarer ops read theirs from the operand
/// table at `at`.
#[derive(Clone, Copy)]
enum Op {
    /// `dst = value`: also a `Mov` or `KeepLive` of an immediate, and a
    /// `Bin` of two.
    Const {
        dst: u32,
        value: i64,
    },
    /// `dst = src`: also a `KeepLive`, whose force is entirely static.
    Mov {
        dst: u32,
        src: u32,
    },
    /// `dst = a op b`.
    Bin {
        op: BinIr,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `dst = a op b` with `b` immediate.
    BinImm {
        op: BinIr,
        dst: u32,
        a: u32,
        b: i64,
    },
    /// `dst = a op b` with `a` immediate.
    ImmBin {
        op: BinIr,
        dst: u32,
        a: i64,
        b: u32,
    },
    /// `dst = *addr`.
    Load {
        dst: u32,
        addr: u32,
        width: u8,
        signed: bool,
    },
    /// `dst = *addr` with `addr` immediate.
    LoadAt {
        dst: u32,
        addr: u64,
        width: u8,
        signed: bool,
    },
    /// `*addr = value`.
    Store {
        addr: u32,
        value: u32,
        width: u8,
    },
    /// `*addr = value` with `value` immediate.
    StoreImm {
        addr: u32,
        value: i64,
        width: u8,
    },
    /// `*addr = value` with `addr` immediate.
    StoreAt {
        addr: u64,
        value: u32,
        width: u8,
    },
    /// `*addr = value` with both immediate.
    StoreImmAt {
        addr: u64,
        value: i64,
        width: u8,
    },
    /// `dst = sp + offset`.
    FrameAddr {
        dst: u32,
        offset: u32,
    },
    /// `memmove(srcs[at], srcs[at + 1], len)`.
    MemCopy {
        at: u32,
        len: u64,
    },
    /// `dst = srcs[at]`, which must share an object with `srcs[at + 1]`.
    CheckSame {
        dst: u32,
        at: u32,
    },
    Jump {
        to: Target,
    },
    /// A branch on a temp; one on an immediate is decoded as a `Jump`.
    Branch {
        cond: u32,
        if_true: Target,
        if_false: Target,
    },
    Ret {
        value: Option<Src>,
    },
    /// A call of function `callee` with the `n` arguments at `srcs[at..]`.
    Call {
        callee: u32,
        dst: Option<Temp>,
        at: u32,
        n: u32,
    },
    /// A call through the function pointer `srcs[at]`, with the `n`
    /// arguments after it.
    CallIndirect {
        dst: Option<Temp>,
        at: u32,
        n: u32,
    },
    /// A builtin call with the `n` arguments at `srcs[at..]`.
    CallBuiltin {
        b: Builtin,
        dst: Option<Temp>,
        at: u32,
        n: u8,
        site: Option<u32>,
    },
    /// The slot after block `block`, which does not end in a terminator.
    FellOff {
        block: u32,
    },
    // The fused pairs: each runs an op and the one after it in its block
    // as one dispatch of two steps (see `fuse`).
    /// `addr = sp + offset`, then `dst = *addr`.
    FrameLoad {
        addr: u32,
        offset: u32,
        dst: u32,
        width: u8,
        signed: bool,
    },
    /// `addr = sp + offset`, then `*addr = value`.
    FrameStore {
        addr: u32,
        offset: u32,
        value: u32,
        width: u8,
    },
    /// `dst = src`, then a jump.
    MovJump {
        dst: u32,
        src: u32,
        to: Target,
    },
    /// `dst = a op b`, then a branch on `dst` to the targets at
    /// `branches[at]`.
    BinBranch {
        op: BinIr,
        dst: u32,
        a: u32,
        b: u32,
        at: u32,
    },
    /// `dst = a op b` with `b` immediate, then a branch on `dst` to the
    /// targets at `branches[at]`.
    BinImmBranch {
        op: BinIr,
        dst: u32,
        a: u32,
        b: i64,
        at: u32,
    },
}

const _: () = assert!(std::mem::size_of::<Op>() <= 24);

/// Charges one step to a budget with `left` steps remaining: a step that
/// completes with none left is over it.
#[inline(always)]
fn spend(left: &mut u64) -> Result<(), VmError> {
    *left = left.checked_sub(1).ok_or(VmError::StepLimit)?;
    Ok(())
}

/// Appends `operands` to an operand table and returns where they start.
fn push_srcs(srcs: &mut Vec<Src>, operands: impl IntoIterator<Item = Operand>) -> u32 {
    let at = srcs.len() as u32;
    srcs.extend(operands.into_iter().map(Src::new));
    at
}

/// Decodes one instruction. `to` maps a block to its jump target, and
/// the operands of calls, block copies and checks are appended to `srcs`.
fn decode(instr: &Instr, to: impl Fn(BlockId) -> Target, srcs: &mut Vec<Src>) -> Op {
    use Operand::{Const as I, Temp as T};
    match *instr {
        Instr::Const { dst, value } => Op::Const { dst: dst.0, value },
        Instr::Mov { dst, src }
        | Instr::KeepLive {
            dst, value: src, ..
        } => match src {
            T(src) => Op::Mov {
                dst: dst.0,
                src: src.0,
            },
            I(value) => Op::Const { dst: dst.0, value },
        },
        Instr::Bin { dst, op, a, b } => {
            let dst = dst.0;
            match (a, b) {
                (T(a), T(b)) => Op::Bin {
                    op,
                    dst,
                    a: a.0,
                    b: b.0,
                },
                (T(a), I(b)) => Op::BinImm { op, dst, a: a.0, b },
                (I(a), T(b)) => Op::ImmBin { op, dst, a, b: b.0 },
                // `eval` is total (division by zero yields 0), so a
                // constant operation is its value.
                (I(a), I(b)) => Op::Const {
                    dst,
                    value: op.eval(a, b),
                },
            }
        }
        Instr::Load {
            dst,
            addr,
            width,
            signed,
        } => match addr {
            T(addr) => Op::Load {
                dst: dst.0,
                addr: addr.0,
                width,
                signed,
            },
            I(addr) => Op::LoadAt {
                dst: dst.0,
                addr: addr as u64,
                width,
                signed,
            },
        },
        Instr::Store { addr, value, width } => match (addr, value) {
            (T(addr), T(value)) => Op::Store {
                addr: addr.0,
                value: value.0,
                width,
            },
            (T(addr), I(value)) => Op::StoreImm {
                addr: addr.0,
                value,
                width,
            },
            (I(addr), T(value)) => Op::StoreAt {
                addr: addr as u64,
                value: value.0,
                width,
            },
            (I(addr), I(value)) => Op::StoreImmAt {
                addr: addr as u64,
                value,
                width,
            },
        },
        Instr::FrameAddr { dst, offset } => Op::FrameAddr { dst: dst.0, offset },
        Instr::MemCopy {
            dst_addr,
            src_addr,
            len,
        } => Op::MemCopy {
            at: push_srcs(srcs, [dst_addr, src_addr]),
            len,
        },
        Instr::CheckSame { dst, value, base } => Op::CheckSame {
            dst: dst.0,
            at: push_srcs(srcs, [value, base]),
        },
        Instr::Ret { value } => Op::Ret {
            value: value.map(Src::new),
        },
        Instr::Jump { target } => Op::Jump { to: to(target) },
        Instr::Branch {
            cond,
            if_true,
            if_false,
        } => match cond {
            T(cond) => Op::Branch {
                cond: cond.0,
                if_true: to(if_true),
                if_false: to(if_false),
            },
            I(c) => Op::Jump {
                to: to(if c != 0 { if_true } else { if_false }),
            },
        },
        Instr::Call {
            dst,
            target,
            ref args,
            site,
        } => match target {
            CallTarget::Func(callee) => Op::Call {
                callee: callee as u32,
                dst,
                at: push_srcs(srcs, args.iter().copied()),
                n: args.len() as u32,
            },
            CallTarget::Indirect(f) => Op::CallIndirect {
                dst,
                at: push_srcs(srcs, std::iter::once(f).chain(args.iter().copied())),
                n: args.len() as u32,
            },
            CallTarget::Builtin(b) => Op::CallBuiltin {
                b,
                dst,
                at: push_srcs(srcs, args.iter().copied()),
                // Saturating: the loop's three-slot argument array
                // rejects any count past three.
                n: u8::try_from(args.len()).unwrap_or(u8::MAX),
                site,
            },
        },
    }
}

/// The op that runs `first` and then `second`, the op after it in the same
/// block, as one dispatch, if the pair is one of the five the paper's
/// programs run most: a frame address and the load or store through it, a
/// move and a jump, and an operation and a branch on its result. A fused
/// branch's targets are appended to `branches`.
fn fuse(first: Op, second: Op, branches: &mut Vec<(Target, Target)>) -> Option<Op> {
    let mut branch_at = |if_true, if_false| {
        branches.push((if_true, if_false));
        branches.len() as u32 - 1
    };
    Some(match (first, second) {
        (
            Op::FrameAddr { dst: t, offset },
            Op::Load {
                dst,
                addr,
                width,
                signed,
            },
        ) if addr == t => Op::FrameLoad {
            addr,
            offset,
            dst,
            width,
            signed,
        },
        (Op::FrameAddr { dst: t, offset }, Op::Store { addr, value, width }) if addr == t => {
            Op::FrameStore {
                addr,
                offset,
                value,
                width,
            }
        }
        (Op::Mov { dst, src }, Op::Jump { to }) => Op::MovJump { dst, src, to },
        (
            Op::Bin { op, dst, a, b },
            Op::Branch {
                cond,
                if_true,
                if_false,
            },
        ) if cond == dst => Op::BinBranch {
            op,
            dst,
            a,
            b,
            at: branch_at(if_true, if_false),
        },
        (
            Op::BinImm { op, dst, a, b },
            Op::Branch {
                cond,
                if_true,
                if_false,
            },
        ) if cond == dst => Op::BinImmBranch {
            op,
            dst,
            a,
            b,
            at: branch_at(if_true, if_false),
        },
        _ => return None,
    })
}

/// One function's code table: its blocks' instructions decoded and laid
/// end to end, so a position in the function is one program counter.
struct Code<'a> {
    /// The function, whose call-site liveness `roots` is solved from.
    func: &'a FuncIr,
    /// The decoded instructions, plus a [`Op::FellOff`] after each block
    /// that does not end in a terminator.
    ops: Vec<Op>,
    /// The operands of the function's calls, block copies and checks.
    srcs: Vec<Src>,
    /// The targets of the function's fused branches.
    branches: Vec<(Target, Target)>,
    /// Per block: the slot of its first instruction.
    starts: Vec<u32>,
    /// The counter of the entry block in the run's block-count table; the
    /// function's other blocks follow it.
    first_block: u32,
    /// The temps live across each call, solved the first time a root
    /// scan reaches a frame of this function.
    roots: OnceCell<CallRoots>,
}

/// One function's precise roots per call.
struct CallRoots {
    /// Per slot, the range of `temps` holding the temps live across the
    /// call at that slot (empty for every other instruction).
    ranges: Vec<(u32, u32)>,
    /// The root temps of all calls, each call's run in ascending order.
    temps: Vec<Temp>,
}

impl<'a> Code<'a> {
    /// Decodes `func`, whose blocks' counters start at `first_block`.
    fn new(func: &'a FuncIr, first_block: u32) -> Self {
        let falls_off = |b: &Block| !b.instrs.last().is_some_and(Instr::is_terminator);
        let mut starts = Vec::with_capacity(func.blocks.len());
        let mut slots = 0;
        for b in &func.blocks {
            starts.push(slots);
            slots += b.instrs.len() as u32 + u32::from(falls_off(b));
        }
        let to = |b: BlockId| Target {
            slot: starts[b.0 as usize],
            block: first_block + b.0,
        };
        let mut ops = Vec::with_capacity(slots as usize);
        let (mut srcs, mut branches) = (Vec::new(), Vec::new());
        for (i, b) in func.blocks.iter().enumerate() {
            let first = ops.len();
            ops.extend(b.instrs.iter().map(|instr| decode(instr, to, &mut srcs)));
            // A fused op takes its pair's first slot; the second keeps its
            // own op, so every slot-indexed table stays as it was.
            for at in first + 1..ops.len() {
                if let Some(op) = fuse(ops[at - 1], ops[at], &mut branches) {
                    ops[at - 1] = op;
                }
            }
            if falls_off(b) {
                ops.push(Op::FellOff { block: i as u32 });
            }
        }
        Code {
            func,
            ops,
            srcs,
            branches,
            starts,
            first_block,
            roots: OnceCell::new(),
        }
    }

    /// The tables the interpreter loop reads while the function runs: its
    /// ops, its operand table and its fused branches' targets.
    fn tables(&self) -> (&[Op], &[Src], &[(Target, Target)]) {
        (&self.ops, &self.srcs, &self.branches)
    }

    /// The temps live across the call at slot `pc`.
    fn roots_at(&self, pc: usize) -> &[Temp] {
        let table = self.roots.get_or_init(|| {
            let mut ranges = vec![(0, 0); self.ops.len()];
            let mut temps = Vec::new();
            visit_call_roots(self.func, |block, ip, live| {
                let start = temps.len() as u32;
                temps.extend(live.iter());
                ranges[self.starts[block] as usize + ip] = (start, temps.len() as u32);
            });
            CallRoots { ranges, temps }
        });
        let (start, end) = table.ranges[pc];
        &table.temps[start as usize..end as usize]
    }
}

/// A failed access or check, before it is charged to the function that
/// made it.
enum Trap {
    Fault(MemFault),
    /// A heap address outside every allocated object.
    Freed(u64),
    /// An interior pointer `value` into the object at `base`, stored
    /// where the collector scans.
    Interior {
        value: u64,
        base: u64,
    },
    /// A `value` outside the heap object at `base`.
    Escaped {
        value: u64,
        base: u64,
    },
}

impl From<MemFault> for Trap {
    fn from(e: MemFault) -> Self {
        Trap::Fault(e)
    }
}

impl Trap {
    /// The error, charged to function `func` of `prog`.
    #[cold]
    fn in_func(self, prog: &ProgramIr, func: usize) -> VmError {
        let func = || prog.funcs[func].name.clone();
        match self {
            Trap::Fault(e) => VmError::Fault(e),
            Trap::Freed(addr) => VmError::UseAfterFree { func: func(), addr },
            Trap::Interior { value, base } => VmError::InteriorStored {
                func: func(),
                value,
                base,
            },
            Trap::Escaped { value, base } => VmError::CheckFailed {
                func: func(),
                value,
                base,
            },
        }
    }
}

/// The address space as the program sees it: the simulated memory, and
/// the collector that owns its heap region. Every load, store, block
/// copy and string or memory builtin goes through here.
struct Space {
    mem: Memory,
    heap: GcHeap,
    /// [`VmOptions::check_base_stores`].
    check_base_stores: bool,
}

impl Space {
    /// The use-after-free check of an access at `addr`: one compare
    /// against the heap range, and for a heap address the collector's
    /// side table. An access to a heap address outside any allocated
    /// object traps, so a premature collection shows deterministically.
    #[inline(always)]
    fn check(&self, addr: u64) -> Result<(), Trap> {
        if self.mem.in_heap(addr) && !self.heap.is_allocated(addr) {
            return Err(Trap::Freed(addr));
        }
        Ok(())
    }

    /// [`Space::check`] at both ends of the `len` bytes at `addr`.
    fn check_range(&self, addr: u64, len: u64) -> Result<(), Trap> {
        if len > 0 {
            self.check(addr)?;
            self.check(addr.wrapping_add(len - 1))?;
        }
        Ok(())
    }

    #[inline(always)]
    fn load(&self, addr: u64, width: u8) -> Result<u64, Trap> {
        self.check(addr)?;
        Ok(self.mem.read(addr, width.into())?)
    }

    /// A `Store`: checked, then (under `check_base_stores`) a pointer-sized
    /// store must store an object base, and the collector's barrier sees
    /// the stored bytes.
    #[inline(always)]
    fn store(&mut self, addr: u64, value: u64, width: u8) -> Result<(), Trap> {
        self.check(addr)?;
        if self.check_base_stores && width == 8 {
            self.check_base_store(addr, value)?;
        }
        self.mem.write(addr, width.into(), value)?;
        if self.heap.barrier_active() {
            if width == 8 {
                self.heap.write_barrier(addr, value);
            } else {
                // A narrow store can still turn the containing word into
                // something the conservative scan reads as a pointer —
                // re-scan the touched bytes.
                self.heap.write_barrier_range(&self.mem, addr, width.into());
            }
        }
        Ok(())
    }

    /// `memmove`: both ranges checked at both ends, and the copied words
    /// reported to the barrier.
    #[inline(never)]
    fn copy(&mut self, dst: u64, src: u64, len: u64) -> Result<(), Trap> {
        self.check_range(dst, len)?;
        self.check_range(src, len)?;
        self.mem.copy(dst, src, len as usize)?;
        if self.heap.barrier_active() {
            self.heap.write_barrier_range(&self.mem, dst, len);
        }
        Ok(())
    }

    /// `memset`, checked at both ends. No barrier: an 8-byte word of one
    /// repeated byte is 0 or ≥ 0x0101…, never inside the heap range, and
    /// merely overwriting pointers needs no Dijkstra barrier.
    fn fill(&mut self, addr: u64, byte: u8, len: u64) -> Result<(), Trap> {
        self.check_range(addr, len)?;
        Ok(self.mem.fill(addr, byte, len as usize)?)
    }

    /// A frame slot's load. A committed stack byte is never a heap
    /// address, so it needs no use-after-free check: the stack's run is
    /// read in place, and only bytes not yet committed take
    /// [`Space::load`].
    #[inline(always)]
    fn load_frame(&self, addr: u64, width: u8) -> Result<u64, Trap> {
        match self.mem.read_stack(addr, width.into()) {
            Some(raw) => Ok(raw),
            None => self.load_uncommitted(addr, width),
        }
    }

    /// [`Space::load`] out of line, so the fused arms inline only the
    /// fast path: the loop's speed moves with what is inlined into it.
    #[cold]
    #[inline(never)]
    fn load_uncommitted(&self, addr: u64, width: u8) -> Result<u64, Trap> {
        self.load(addr, width)
    }

    /// A frame slot's store. A committed stack byte is neither a heap
    /// address nor collector-visible, so the use-after-free check,
    /// [`Space::check_base_store`] and both write barriers have nothing to
    /// do there: the stack's run is written in place, and only bytes not
    /// yet committed take [`Space::store`].
    #[inline(always)]
    fn store_frame(&mut self, addr: u64, value: u64, width: u8) -> Result<(), Trap> {
        if self.mem.write_stack(addr, width.into(), value) {
            return Ok(());
        }
        self.store_uncommitted(addr, value, width)
    }

    /// [`Space::store`] out of line, as [`Space::load_uncommitted`].
    #[cold]
    #[inline(never)]
    fn store_uncommitted(&mut self, addr: u64, value: u64, width: u8) -> Result<(), Trap> {
        self.store(addr, value, width)
    }

    /// The NUL-terminated string at `addr`, checked at its first byte and
    /// at its NUL, and borrowed in place when its committed run holds it.
    fn read_cstr(&self, addr: u64) -> Result<Cow<'_, [u8]>, Trap> {
        self.check(addr)?;
        let s = self.mem.read_cstr(addr)?;
        self.check(addr.wrapping_add(s.len() as u64))?;
        Ok(s)
    }

    /// The Extensions-section assertion: a pointer-sized store into the
    /// heap or statics must store an object base (or a non-heap value).
    #[inline(never)]
    fn check_base_store(&self, addr: u64, value: u64) -> Result<(), Trap> {
        use gcheap::Region;
        let collector_visible = matches!(
            self.mem.region_of(addr),
            Some(Region::Heap | Region::Globals)
        );
        if !collector_visible || !self.mem.in_heap(value) {
            return Ok(());
        }
        match self.heap.base(value) {
            Some(base) if base != value => Err(Trap::Interior { value, base }),
            _ => Ok(()),
        }
    }

    /// `GC_same_obj` semantics: heap pointers must share an object; pairs
    /// outside the collected heap are not checked (the paper restricts
    /// attention to heap pointers).
    #[inline(never)]
    fn same_obj(&mut self, value: u64, base: u64) -> Result<(), Trap> {
        if !self.mem.in_heap(base) || self.heap.same_obj(value, base) {
            Ok(())
        } else {
            Err(Trap::Escaped { value, base })
        }
    }
}

/// What a root scan reads of a VM paused inside a call, borrowed apart
/// from the heap and memory a collection mutates.
struct RootView<'v> {
    /// End of the scanned globals: the image plus 4,096 bytes of slop.
    globals_end: u64,
    sp: u64,
    stack_top: u64,
    code: &'v [Code<'v>],
    frames: &'v [Frame],
    regs: &'v [i64],
}

impl RootView<'_> {
    /// The root set: globals, live stack, and the live temps of every
    /// frame, bottom frame first, then `held` — a word the running
    /// builtin keeps in its own frame. Every frame is suspended at a
    /// `Call` slot: roots are only taken inside a call (an allocation,
    /// `gc_collect`, or `exit`) or once `main` has returned.
    fn roots(&self, held: Option<u64>) -> RootSet {
        let mut roots = RootSet::new();
        roots.add_range(GLOBAL_BASE, self.globals_end);
        roots.add_range(self.sp, self.stack_top);
        for frame in self.frames {
            for t in self.code[frame.func].roots_at(frame.pc) {
                roots.add_word(self.regs[frame.base + t.0 as usize] as u64);
            }
        }
        roots.words.extend(held);
        roots
    }
}

/// A live activation. The active (top) frame's position is kept in the
/// interpreter loop's locals; `pc` is written when the frame makes a call.
struct Frame {
    func: usize,
    /// The `Call` slot the frame is suspended at.
    pc: usize,
    /// Where the frame's temps start in the register window.
    base: usize,
    dst_in_caller: Option<Temp>,
}

struct Vm<'a> {
    prog: &'a ProgramIr,
    opts: &'a VmOptions,
    code: &'a [Code<'a>],
    space: Space,
    frames: Vec<Frame>,
    /// Every live frame's temps, bottom frame first: the register window.
    regs: Vec<i64>,
    /// Per block of the program, in [`Target::block`] order: how many
    /// times it has been entered.
    counts: Vec<u64>,
    sp: u64,
    input_pos: usize,
    output: Vec<u8>,
    profile: Profile,
    /// Builtin invocation counts, indexed by `Builtin as usize`; they
    /// fill [`Profile::builtin_calls`] when the run ends.
    builtin_calls: [u64; Builtin::ALL.len()],
    exit: Option<i64>,
    /// Whether the `begin` heap-graph snapshot has been recorded.
    begin_snapped: bool,
}

impl<'a> Vm<'a> {
    fn new(
        prog: &'a ProgramIr,
        code: &'a [Code<'a>],
        opts: &'a VmOptions,
    ) -> Result<Self, VmError> {
        let globals_bytes = (prog.globals_image.len() + 4096).max(1 << 16);
        // The regions may not overlap: a frame slot's fast path relies on
        // a stack address being neither a heap nor a globals address.
        if GLOBAL_BASE + globals_bytes as u64 > gcheap::STACK_BASE
            || gcheap::STACK_BASE + opts.stack_bytes as u64 > gcheap::HEAP_BASE
        {
            return Err(VmError::Malformed(format!(
                "{globals_bytes} bytes of globals and a {}-byte stack overlap the next region",
                opts.stack_bytes
            )));
        }
        let mut mem = Memory::new(globals_bytes, opts.stack_bytes, opts.heap_bytes);
        // Unwritten memory reads as zero, so only the image's nonzero
        // bytes are stored.
        for (i, &b) in prog.globals_image.iter().enumerate() {
            if b != 0 {
                mem.write(GLOBAL_BASE + i as u64, 1, b as u64)?;
            }
        }
        let mut heap = GcHeap::new(&mem, opts.heap_config.clone());
        heap.set_trace(opts.trace.clone());
        heap.set_prof(opts.prof.clone());
        heap.set_snap_sites(opts.snap.is_enabled() || opts.snapshot_oracle);
        let sp = mem.stack_top();
        let blocks = code
            .last()
            .map_or(0, |c| c.first_block as usize + c.starts.len());
        Ok(Vm {
            prog,
            opts,
            code,
            space: Space {
                mem,
                heap,
                check_base_stores: opts.check_base_stores,
            },
            frames: Vec::new(),
            regs: Vec::new(),
            counts: vec![0; blocks],
            sp,
            input_pos: 0,
            output: Vec::new(),
            profile: Profile::default(),
            builtin_calls: [0; Builtin::ALL.len()],
            exit: None,
            begin_snapped: false,
        })
    }

    /// The error `trap` charged to the active function.
    fn charge(&self, trap: Trap) -> VmError {
        let frame = self.frames.last().expect("active frame");
        trap.in_func(self.prog, frame.func)
    }

    /// Pushes a frame for `callee`, whose parameters receive `args` read
    /// in the active frame, and returns the new frame's window base.
    #[inline(never)]
    fn enter(&mut self, callee: usize, args: &[Src], dst: Option<Temp>) -> Result<usize, VmError> {
        let f = &self.prog.funcs[callee];
        if args.len() != f.param_temps.len() {
            return Err(VmError::Malformed(format!(
                "call to '{}' with {} args, expected {}",
                f.name,
                args.len(),
                f.param_temps.len()
            )));
        }
        let frame_size = f.frame_size as u64;
        if self.sp < gcheap::STACK_BASE + frame_size {
            return Err(VmError::StackOverflow);
        }
        self.sp -= frame_size;
        // Zero the frame so stale words cannot retain garbage.
        self.space.mem.fill(self.sp, 0, frame_size as usize)?;
        // The window ends at the caller's last temp, so the callee's temps
        // start zeroed.
        let caller = self.frames.last().map_or(0, |frame| frame.base);
        let base = self.regs.len();
        self.regs.resize(base + f.temp_count as usize, 0);
        for (pt, a) in f.param_temps.iter().zip(args) {
            self.regs[base + pt.0 as usize] = a.read(&self.regs[caller..]);
        }
        self.counts[self.code[callee].first_block as usize] += 1;
        self.frames.push(Frame {
            func: callee,
            pc: 0,
            base,
            dst_in_caller: dst,
        });
        Ok(base)
    }

    /// Suspends the active frame at the call in the slot before `pc`: the
    /// roots of a collection inside the callee are read there.
    fn suspend(&mut self, pc: usize) {
        self.frames.last_mut().expect("active frame").pc = pc - 1;
    }

    /// Pops the active frame and returns the caller to resume (its
    /// function, the slot after its call, and its window base), or `None`
    /// once `main` has returned.
    #[inline(never)]
    fn leave(&mut self, value: Option<i64>) -> Result<Option<(usize, usize, usize)>, VmError> {
        let frame = self.frames.pop().expect("pop with no frame");
        let f = &self.prog.funcs[frame.func];
        self.sp += f.frame_size as u64;
        self.regs.truncate(frame.base);
        let Some(caller) = self.frames.last() else {
            self.exit = Some(value.unwrap_or(0));
            return Ok(None);
        };
        if let Some(dst) = frame.dst_in_caller {
            // A caller-visible destination with no returned value would
            // silently become 0 — refuse, so miscompilations that drop
            // a return path surface instead of masking divergence.
            let Some(v) = value else {
                return Err(VmError::MissingReturn {
                    func: f.name.clone(),
                });
            };
            self.regs[caller.base + dst.0 as usize] = v;
        }
        Ok(Some((caller.func, caller.pc + 1, caller.base)))
    }

    /// The interpreter loop: runs `main` until it returns or calls `exit`,
    /// and returns the step count. Where the active frame is — its
    /// function's ops and operand table, the pc, and its slice of the
    /// register window — lives in locals that only calls and returns
    /// change.
    fn execute(&mut self) -> Result<u64, VmError> {
        let (prog, code) = (self.prog, self.code);
        let mut func = prog.main;
        let mut base = self.enter(func, &[], None)?;
        let mut pc = 0;
        let (mut ops, mut srcs, mut branches) = code[func].tables();
        let mut regs = &mut self.regs[base..];
        // Steps the budget still admits: a step that completes with none
        // left is over it.
        let mut left = self.opts.max_steps;
        loop {
            let at = pc;
            pc += 1;
            match ops[at] {
                Op::Const { dst, value } => regs[dst as usize] = value,
                Op::Mov { dst, src } => regs[dst as usize] = regs[src as usize],
                Op::Bin { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(regs[a as usize], regs[b as usize]);
                }
                Op::BinImm { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(regs[a as usize], b);
                }
                Op::ImmBin { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(a, regs[b as usize]);
                }
                Op::Load {
                    dst,
                    addr,
                    width,
                    signed,
                } => {
                    let raw = self
                        .space
                        .load(regs[addr as usize] as u64, width)
                        .map_err(|e| e.in_func(prog, func))?;
                    regs[dst as usize] = extend(raw, width, signed);
                }
                Op::LoadAt {
                    dst,
                    addr,
                    width,
                    signed,
                } => {
                    let raw = self
                        .space
                        .load(addr, width)
                        .map_err(|e| e.in_func(prog, func))?;
                    regs[dst as usize] = extend(raw, width, signed);
                }
                Op::Store { addr, value, width } => self
                    .space
                    .store(
                        regs[addr as usize] as u64,
                        regs[value as usize] as u64,
                        width,
                    )
                    .map_err(|e| e.in_func(prog, func))?,
                Op::StoreImm { addr, value, width } => self
                    .space
                    .store(regs[addr as usize] as u64, value as u64, width)
                    .map_err(|e| e.in_func(prog, func))?,
                Op::StoreAt { addr, value, width } => self
                    .space
                    .store(addr, regs[value as usize] as u64, width)
                    .map_err(|e| e.in_func(prog, func))?,
                Op::StoreImmAt { addr, value, width } => self
                    .space
                    .store(addr, value as u64, width)
                    .map_err(|e| e.in_func(prog, func))?,
                Op::FrameAddr { dst, offset } => {
                    regs[dst as usize] = (self.sp + u64::from(offset)) as i64;
                }
                Op::MemCopy { at, len } => {
                    let at = at as usize;
                    let (d, s) = (srcs[at].read(regs), srcs[at + 1].read(regs));
                    self.space
                        .copy(d as u64, s as u64, len)
                        .map_err(|e| e.in_func(prog, func))?;
                }
                Op::CheckSame { dst, at } => {
                    let at = at as usize;
                    let (v, b) = (srcs[at].read(regs), srcs[at + 1].read(regs));
                    self.space
                        .same_obj(v as u64, b as u64)
                        .map_err(|e| e.in_func(prog, func))?;
                    regs[dst as usize] = v;
                }
                Op::Jump { to } => pc = to.enter(&mut self.counts),
                Op::Branch {
                    cond,
                    if_true,
                    if_false,
                } => {
                    let to = if regs[cond as usize] != 0 {
                        if_true
                    } else {
                        if_false
                    };
                    pc = to.enter(&mut self.counts);
                }
                Op::Ret { value } => {
                    let value = value.map(|v| v.read(regs));
                    let Some(caller) = self.leave(value)? else {
                        break;
                    };
                    (func, pc, base) = caller;
                    (ops, srcs, branches) = code[func].tables();
                    regs = &mut self.regs[base..];
                }
                Op::Call { callee, dst, at, n } => {
                    self.suspend(pc);
                    let args = &srcs[at as usize..][..n as usize];
                    func = callee as usize;
                    base = self.enter(func, args, dst)?;
                    pc = 0;
                    (ops, srcs, branches) = code[func].tables();
                    regs = &mut self.regs[base..];
                }
                Op::CallIndirect { dst, at, n } => {
                    let at = at as usize;
                    let v = srcs[at].read(regs);
                    let Some(callee) = usize::try_from(v.wrapping_sub(FUNC_PTR_BASE))
                        .ok()
                        .filter(|&i| i < code.len())
                    else {
                        return Err(VmError::Malformed(format!(
                            "indirect call through bad function pointer {v:#x}"
                        )));
                    };
                    self.suspend(pc);
                    let args = &srcs[at + 1..][..n as usize];
                    func = callee;
                    base = self.enter(func, args, dst)?;
                    pc = 0;
                    (ops, srcs, branches) = code[func].tables();
                    regs = &mut self.regs[base..];
                }
                Op::CallBuiltin {
                    b,
                    dst,
                    at,
                    n,
                    site,
                } => {
                    // No builtin takes more than three arguments, and the
                    // front end checks every call's arity.
                    let mut argv = [0; 3];
                    let argv = &mut argv[..n as usize];
                    for (v, a) in argv.iter_mut().zip(&srcs[at as usize..]) {
                        *v = a.read(regs);
                    }
                    self.suspend(pc);
                    let ret = self.builtin(b, argv, site)?;
                    if self.exit.is_some() {
                        break;
                    }
                    regs = &mut self.regs[base..];
                    if let Some(d) = dst {
                        regs[d.0 as usize] = ret;
                    }
                }
                Op::FellOff { block } => {
                    return Err(VmError::Malformed(format!(
                        "fell off block bb{block} in '{}'",
                        prog.funcs[func].name
                    )));
                }
                // A fused op is two steps: its first half, which cannot
                // fault, is charged before its second half runs, and the
                // loop charges the second.
                Op::FrameLoad {
                    addr,
                    offset,
                    dst,
                    width,
                    signed,
                } => {
                    let a = self.sp + u64::from(offset);
                    regs[addr as usize] = a as i64;
                    spend(&mut left)?;
                    let raw = self
                        .space
                        .load_frame(a, width)
                        .map_err(|e| e.in_func(prog, func))?;
                    regs[dst as usize] = extend(raw, width, signed);
                    pc += 1;
                }
                Op::FrameStore {
                    addr,
                    offset,
                    value,
                    width,
                } => {
                    let a = self.sp + u64::from(offset);
                    regs[addr as usize] = a as i64;
                    spend(&mut left)?;
                    self.space
                        .store_frame(a, regs[value as usize] as u64, width)
                        .map_err(|e| e.in_func(prog, func))?;
                    pc += 1;
                }
                Op::MovJump { dst, src, to } => {
                    regs[dst as usize] = regs[src as usize];
                    spend(&mut left)?;
                    pc = to.enter(&mut self.counts);
                }
                Op::BinBranch { op, dst, a, b, at } => {
                    let v = op.eval(regs[a as usize], regs[b as usize]);
                    regs[dst as usize] = v;
                    spend(&mut left)?;
                    let (if_true, if_false) = branches[at as usize];
                    pc = if v != 0 { if_true } else { if_false }.enter(&mut self.counts);
                }
                Op::BinImmBranch { op, dst, a, b, at } => {
                    let v = op.eval(regs[a as usize], b);
                    regs[dst as usize] = v;
                    spend(&mut left)?;
                    let (if_true, if_false) = branches[at as usize];
                    pc = if v != 0 { if_true } else { if_false }.enter(&mut self.counts);
                }
            }
            spend(&mut left)?;
        }
        // The step that ended the run counts against the budget too.
        spend(&mut left)?;
        Ok(self.opts.max_steps - left)
    }

    fn run(mut self) -> Result<ExecOutcome, VmError> {
        let steps = self.execute()?;
        self.profile.block_counts = self
            .code
            .iter()
            .map(|c| self.counts[c.first_block as usize..][..c.starts.len()].to_vec())
            .collect();
        for &(_, b) in Builtin::ALL {
            let n = self.builtin_calls[b as usize];
            if n > 0 {
                self.profile.builtin_calls.insert(b, n);
            }
        }
        // Heap-graph snapshots: `begin` was recorded at the first
        // allocation (or now, for a program that never allocated), `end`
        // without collecting first so floating garbage is still visible.
        if self.opts.snap.is_enabled() {
            let roots = self.roots(None);
            let Space { mem, heap, .. } = &self.space;
            if !self.begin_snapped {
                self.begin_snapped = true;
                self.opts
                    .snap
                    .record("begin", || heap.snapshot(mem, &roots, ROOT_LABELS));
            }
            self.opts
                .snap
                .record("end", || heap.snapshot(mem, &roots, ROOT_LABELS));
        }
        if self.opts.snapshot_oracle {
            self.check_snapshot_oracle()?;
        }
        let heap = &self.space.heap;
        // The end-of-run census: live objects/bytes per size class,
        // fragmentation, blacklist pressure. The walk only happens when
        // profiling is enabled.
        self.opts.prof.record_census(|| heap.census());
        let outcome = ExecOutcome {
            output: self.output,
            exit_code: self.exit.unwrap_or(0),
            profile: self.profile,
            heap: heap.stats(),
            steps,
        };
        // Unify the execution profile and the collector stats behind the
        // same sink as the per-collection timeline.
        self.opts.trace.emit(|| {
            let blocks_executed: u64 = outcome.profile.block_counts.iter().flatten().sum();
            let builtin_calls: u64 = outcome.profile.builtin_calls.values().sum();
            gctrace::Event::new("vm", "run")
                .field("exit_code", outcome.exit_code)
                .field("steps", outcome.steps)
                .field("output_bytes", outcome.output.len())
                .field("blocks_executed", blocks_executed)
                .field("dynamic_instrs", outcome.profile.dynamic_instrs(self.prog))
                .field("builtin_calls", builtin_calls)
                .field("builtin_byte_work", outcome.profile.builtin_byte_work)
                .field("collections", outcome.heap.collections)
                .field("total_pause_ns", outcome.heap.total_pause_ns)
        });
        Ok(outcome)
    }

    /// The VM split into its [`RootView`] and the heap and memory a
    /// collection mutates.
    fn split(&mut self) -> (RootView<'_>, &mut GcHeap, &mut Memory) {
        let Vm {
            prog,
            code,
            space: Space { mem, heap, .. },
            frames,
            regs,
            sp,
            ..
        } = self;
        let view = RootView {
            globals_end: GLOBAL_BASE + prog.globals_size + 4096,
            sp: *sp,
            stack_top: mem.stack_top(),
            code,
            frames,
            regs,
        };
        (view, heap, mem)
    }

    /// The current root set (see [`RootView::roots`]).
    fn roots(&mut self, held: Option<u64>) -> RootSet {
        self.split().0.roots(held)
    }

    /// The allocation-site key for `site` under the current shadow call
    /// stack: frame names joined with `;`, ending in the
    /// `primitive@line:col` site label — flamegraph-folded frame order.
    fn site_key(&self, site: Option<u32>) -> String {
        let mut key = String::new();
        for frame in &self.frames {
            key.push_str(&self.prog.funcs[frame.func].name);
            key.push(';');
        }
        match site {
            Some(i) => key.push_str(&self.prog.alloc_sites[i as usize].label()),
            None => key.push_str("alloc@?"),
        }
        key
    }

    /// The snapshot's shadow-liveness cross-check: run a full collection,
    /// so the heap holds exactly what the marker proves live, then
    /// snapshot it with the same roots. Every surviving object must be
    /// reachable in the snapshot graph — the snapshot resolves pointer
    /// words with the marker's own rules, so any floating node here
    /// means the two walks disagree about liveness. (The other direction is structural: reachable nodes are
    /// snapshot nodes, and every snapshot node survived the collection.)
    fn check_snapshot_oracle(&mut self) -> Result<(), VmError> {
        let roots = self.roots(None);
        let Space { mem, heap, .. } = &mut self.space;
        // Two collections on purpose: the first one may merely *finish*
        // an in-flight incremental cycle, whose snapshot-at-the-beginning
        // marks (taken against mid-run roots, plus allocate-black births)
        // legitimately keep mid-cycle garbage alive. The second runs
        // against the retired heap, so afterwards the heap holds exactly
        // what the marker proves live from the end-of-run roots.
        heap.collect(mem, &roots);
        heap.collect(mem, &roots);
        let snap = heap.snapshot(mem, &roots, ROOT_LABELS);
        let a = gcsnap::analyze(&snap);
        if a.floating_objects != 0 {
            let first = snap
                .nodes
                .iter()
                .enumerate()
                .find(|&(i, _)| !a.reachable[i])
                .map(|(i, n)| {
                    let referrers: Vec<u32> = snap
                        .nodes
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| m.edges.contains(&(i as u32)))
                        .map(|(j, _)| j as u32)
                        .collect();
                    format!(
                        "node {i} at {:#x} ({} bytes, marked={}, young={}, site={:?}, \
                         referrers={referrers:?})",
                        n.addr,
                        n.size,
                        n.marked,
                        n.young,
                        snap.site_of(i as u32)
                    )
                })
                .unwrap_or_default();
            return Err(VmError::SnapshotOracle(format!(
                "{} shadow-live objects ({} bytes) are unreachable in the \
                 snapshot graph; first: {first}",
                a.floating_objects, a.floating_bytes
            )));
        }
        Ok(())
    }

    /// Allocates `size` bytes for the builtin running at `site`. `held`
    /// is a pointer the builtin itself still needs after the allocation;
    /// it is rooted for any collection the allocation triggers.
    fn allocate(
        &mut self,
        size: i64,
        site: Option<u32>,
        held: Option<u64>,
    ) -> Result<i64, VmError> {
        let size = size.max(0) as u64;
        if self.opts.snap.is_enabled() && !self.begin_snapped {
            self.begin_snapped = true;
            let roots = self.roots(held);
            let Space { mem, heap, .. } = &self.space;
            self.opts
                .snap
                .record("begin", || heap.snapshot(mem, &roots, ROOT_LABELS));
        }
        // Build the site key eagerly only when an attached trace or
        // profile will consume it — it both attributes the allocation to
        // its stack and labels any collection this request triggers. The
        // uninstrumented hot path pays one branch and builds no string.
        let label = self
            .space
            .heap
            .attribution_enabled()
            .then(|| self.site_key(site));
        // The roots are built only if the allocation collects.
        let (view, heap, mem) = self.split();
        match heap.alloc_with_roots_sited(
            mem,
            size,
            Roots::Lazy(&mut || view.roots(held)),
            label.as_deref(),
        ) {
            Ok(addr) => {
                let prof = self.space.heap.prof().clone();
                match label {
                    Some(l) => prof.record_site(size, move || l),
                    // Unreachable in practice (an enabled profile implies
                    // attribution), kept so the closure contract is
                    // honoured whatever the handle combination.
                    None => prof.record_site(size, || self.site_key(site)),
                }
                Ok(addr as i64)
            }
            Err(_) => Err(VmError::OutOfMemory),
        }
    }

    #[inline(never)]
    fn builtin(&mut self, b: Builtin, args: &[i64], site: Option<u32>) -> Result<i64, VmError> {
        self.builtin_calls[b as usize] += 1;
        match b {
            Builtin::Malloc => self.allocate(args[0], site, None),
            Builtin::Calloc => self.allocate(args[0].saturating_mul(args[1]), site, None),
            Builtin::Realloc => {
                let old = args[0] as u64;
                let new_size = args[1];
                if old == 0 {
                    return self.allocate(new_size, site, None);
                }
                let old_extent = self.space.heap.extent(old).map(|(_, s)| s).unwrap_or(0);
                // The caller may hold `old` nowhere else (`a = realloc(a,
                // n)` kills it), but the copy below still reads it: root
                // it for the allocation, as GC_realloc's own frame would.
                let new = self.allocate(new_size, site, Some(old))? as u64;
                let n = old_extent.min(new_size.max(0) as u64) as usize;
                let Space { mem, heap, .. } = &mut self.space;
                mem.copy(new, old, n)?;
                // The new object is allocated black mid-cycle but never
                // scanned: the copied-in pointers must be greyed.
                if heap.barrier_active() {
                    heap.write_barrier_range(mem, new, n as u64);
                }
                Ok(new as i64)
            }
            Builtin::Free => Ok(0), // the collector reclaims
            // The string builtins read their operands in place, through
            // the checked access; only `strcpy` copies its source, since it
            // writes the bytes one at a time.
            Builtin::Strlen => {
                let n = self
                    .space
                    .read_cstr(args[0] as u64)
                    .map_err(|e| self.charge(e))?
                    .len() as u64;
                self.profile.builtin_byte_work += n + 1;
                Ok(n as i64)
            }
            Builtin::Strcmp => {
                let a = self
                    .space
                    .read_cstr(args[0] as u64)
                    .map_err(|e| self.charge(e))?;
                let b2 = self
                    .space
                    .read_cstr(args[1] as u64)
                    .map_err(|e| self.charge(e))?;
                self.profile.builtin_byte_work += (a.len().min(b2.len()) + 1) as u64;
                Ok(cmp_bytes(&a, &b2))
            }
            Builtin::Strncmp => {
                let n = args[2].max(0) as usize;
                let a = self
                    .space
                    .read_cstr(args[0] as u64)
                    .map_err(|e| self.charge(e))?;
                let b2 = self
                    .space
                    .read_cstr(args[1] as u64)
                    .map_err(|e| self.charge(e))?;
                let a = &a[..a.len().min(n)];
                let b2 = &b2[..b2.len().min(n)];
                self.profile.builtin_byte_work += (a.len().min(b2.len()) + 1) as u64;
                Ok(cmp_bytes(a, b2))
            }
            Builtin::Strcpy => {
                let src = self
                    .space
                    .read_cstr(args[1] as u64)
                    .map_err(|e| self.charge(e))?
                    .into_owned();
                let dst = args[0] as u64;
                let len = src.len() as u64 + 1;
                self.space
                    .check_range(dst, len)
                    .map_err(|e| self.charge(e))?;
                let Space { mem, heap, .. } = &mut self.space;
                for (i, byte) in src.iter().chain([&0]).enumerate() {
                    mem.write(dst + i as u64, 1, *byte as u64)?;
                }
                if heap.barrier_active() {
                    heap.write_barrier_range(mem, dst, len);
                }
                self.profile.builtin_byte_work += len;
                Ok(args[0])
            }
            Builtin::Memcpy => {
                let n = args[2].max(0) as u64;
                self.space
                    .copy(args[0] as u64, args[1] as u64, n)
                    .map_err(|e| self.charge(e))?;
                self.profile.builtin_byte_work += n;
                Ok(args[0])
            }
            Builtin::Memset => {
                let n = args[2].max(0) as u64;
                self.space
                    .fill(args[0] as u64, args[1] as u8, n)
                    .map_err(|e| self.charge(e))?;
                self.profile.builtin_byte_work += n;
                Ok(args[0])
            }
            Builtin::Memcmp => {
                let n = args[2].max(0) as u64;
                self.profile.builtin_byte_work += n;
                for i in 0..n {
                    let byte = |a: i64| self.space.load((a as u64).wrapping_add(i), 1);
                    let (x, y) = match (byte(args[0]), byte(args[1])) {
                        (Ok(x), Ok(y)) => (x, y),
                        (Err(e), _) | (_, Err(e)) => return Err(self.charge(e)),
                    };
                    if x != y {
                        return Ok(if x < y { -1 } else { 1 });
                    }
                }
                Ok(0)
            }
            Builtin::Getchar => {
                if self.input_pos < self.opts.input.len() {
                    let c = self.opts.input[self.input_pos];
                    self.input_pos += 1;
                    Ok(c as i64)
                } else {
                    Ok(-1)
                }
            }
            Builtin::Putchar => {
                self.output.push(args[0] as u8);
                Ok(args[0])
            }
            Builtin::Putstr => {
                let s = self
                    .space
                    .read_cstr(args[0] as u64)
                    .map_err(|e| self.charge(e))?;
                self.profile.builtin_byte_work += s.len() as u64;
                self.output.extend_from_slice(&s);
                Ok(0)
            }
            Builtin::Putint => {
                self.output
                    .extend_from_slice(args[0].to_string().as_bytes());
                Ok(0)
            }
            Builtin::Exit => {
                self.exit = Some(args[0]);
                Ok(0)
            }
            Builtin::Abort => Err(VmError::Aborted),
            Builtin::GcCollect => {
                let roots = self.roots(None);
                let Space { mem, heap, .. } = &mut self.space;
                heap.collect(mem, &roots);
                Ok(0)
            }
            Builtin::GcHeapSize => Ok(self.space.heap.stats().bytes_live as i64),
            Builtin::GcBase => Ok(self.space.heap.base(args[0] as u64).unwrap_or(0) as i64),
            Builtin::GcSameObj => {
                self.space
                    .same_obj(args[0] as u64, args[1] as u64)
                    .map_err(|e| self.charge(e))?;
                Ok(args[0])
            }
            Builtin::KeepLiveFn => Ok(args[0]),
            Builtin::GcPreIncr | Builtin::GcPostIncr => {
                let pp = args[0] as u64;
                let old = self.space.load(pp, 8).map_err(|e| self.charge(e))? as i64;
                let new = old.wrapping_add(args[1]);
                self.space
                    .same_obj(new as u64, old as u64)
                    .map_err(|e| self.charge(e))?;
                let Space { mem, heap, .. } = &mut self.space;
                mem.write(pp, 8, new as u64)?;
                if heap.barrier_active() {
                    heap.write_barrier(pp, new as u64);
                }
                Ok(if b == Builtin::GcPreIncr { new } else { old })
            }
        }
    }
}

fn extend(raw: u64, width: u8, signed: bool) -> i64 {
    match (width, signed) {
        (1, true) => raw as u8 as i8 as i64,
        (1, false) => raw as u8 as i64,
        (2, true) => raw as u16 as i16 as i64,
        (2, false) => raw as u16 as i64,
        (4, true) => raw as u32 as i32 as i64,
        (4, false) => raw as u32 as i64,
        _ => raw as i64,
    }
}

fn cmp_bytes(a: &[u8], b: &[u8]) -> i64 {
    match a.cmp(b) {
        std::cmp::Ordering::Less => -1,
        std::cmp::Ordering::Equal => 0,
        std::cmp::Ordering::Greater => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extend_widths() {
        assert_eq!(extend(0xFF, 1, true), -1);
        assert_eq!(extend(0xFF, 1, false), 255);
        assert_eq!(extend(0xFFFF_FFFF, 4, true), -1);
        assert_eq!(extend(0xFFFF_FFFF, 4, false), 0xFFFF_FFFF);
    }

    #[test]
    fn a_frame_slot_reads_zero_until_a_store_commits_it() {
        let mem = Memory::new(1 << 16, 1 << 16, 1 << 20);
        let heap = GcHeap::new(&mem, HeapConfig::default());
        let mut space = Space {
            mem,
            heap,
            check_base_stores: true,
        };
        let slot = space.mem.stack_top() - 64;
        assert_eq!(space.mem.read_stack(slot, 8), None, "not committed");
        assert_eq!(space.load_frame(slot, 8).ok(), Some(0));
        assert!(space.store_frame(slot, 0xDEAD_BEEF, 8).is_ok());
        assert_eq!(
            space.mem.read_stack(slot, 8),
            Some(0xDEAD_BEEF),
            "committed"
        );
        assert_eq!(space.load_frame(slot, 4).ok(), Some(0xDEAD_BEEF));
        // A committed slot takes the fast path, which stores an interior
        // heap pointer as the checked path does: the stack is not
        // collector-visible.
        let obj = space.heap.alloc(&mut space.mem, 32).unwrap();
        assert!(space.store_frame(slot, obj + 8, 8).is_ok());
        assert_eq!(space.load_frame(slot, 8).ok(), Some(obj + 8));
        assert!(space.store(slot - 8, obj + 8, 8).is_ok());
        assert!(space.store(GLOBAL_BASE, obj + 8, 8).is_err());
    }

    #[test]
    fn cmp_bytes_ordering() {
        assert_eq!(cmp_bytes(b"abc", b"abd"), -1);
        assert_eq!(cmp_bytes(b"abc", b"abc"), 0);
        assert_eq!(cmp_bytes(b"abd", b"abc"), 1);
        assert_eq!(cmp_bytes(b"ab", b"abc"), -1);
    }
}

#[cfg(test)]
mod vm_behavior_tests {
    use super::*;
    use crate::{compile_and_run, CompileOptions};

    /// The step budget of every run here: a few times the longest run's
    /// 13,825 steps (the bounded-pause list reversal), so a change that
    /// breaks a loop exit fails a test at once instead of spinning through
    /// the default budget of two billion steps.
    const MAX_STEPS: u64 = 50_000;

    /// The default options under [`MAX_STEPS`].
    fn opts() -> VmOptions {
        VmOptions {
            max_steps: MAX_STEPS,
            ..VmOptions::default()
        }
    }

    fn run(src: &str, input: &[u8]) -> ExecOutcome {
        let v = VmOptions {
            input: input.to_vec(),
            ..opts()
        };
        compile_and_run(src, &CompileOptions::optimized(), &v).expect("runs")
    }

    fn run_err(src: &str) -> VmError {
        compile_and_run(src, &CompileOptions::optimized(), &opts()).expect_err("must fail")
    }

    #[test]
    fn using_the_result_of_a_valueless_return_is_an_error() {
        // `return;` in a non-void function is accepted by the front end
        // (ANSI C does), but a caller that *uses* the result must not get
        // a silent 0 — that would mask real miscompilations from the
        // differential oracle.
        let src = r#"
            int f(int x) {
                if (x > 0) return;
                return 7;
            }
            int main(void) { return f(1); }
        "#;
        match run_err(src) {
            VmError::MissingReturn { func } => assert_eq!(func, "f"),
            other => panic!("expected MissingReturn, got {other}"),
        }
    }

    #[test]
    fn valueless_return_is_fine_when_the_result_is_unused() {
        let src = r#"
            int f(int x) {
                if (x > 0) return;
                return 7;
            }
            int main(void) { f(1); return 4; }
        "#;
        assert_eq!(run(src, b"").exit_code, 4);
    }

    #[test]
    fn memcpy_memset_memcmp() {
        let src = r#"
            int main(void) {
                char *a = (char *) malloc(32);
                char *b = (char *) malloc(32);
                memset(a, 'x', 10);
                a[10] = 0;
                memcpy(b, a, 11);
                if (memcmp(a, b, 11) != 0) return 1;
                b[3] = 'y';
                if (memcmp(a, b, 11) >= 0) return 2;
                return (int) strlen(b);
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 10);
    }

    #[test]
    fn realloc_preserves_prefix() {
        let src = r#"
            int main(void) {
                long *a = (long *) malloc(2 * sizeof(long));
                a[0] = 11; a[1] = 22;
                a = (long *) realloc(a, 8 * sizeof(long));
                a[7] = 33;
                return (int)(a[0] + a[1] + a[7]);
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 66);
    }

    #[test]
    fn realloc_of_null_is_malloc() {
        let src = r#"
            int main(void) {
                char *p = 0;
                p = (char *) realloc(p, 8);
                p[0] = 5;
                return p[0];
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 5);
    }

    #[test]
    fn free_is_a_no_op_under_the_collector() {
        // "remove all calls to free" — we keep them as no-ops.
        let src = r#"
            int main(void) {
                char *p = (char *) malloc(8);
                p[0] = 9;
                free(p);
                return p[0];  /* still alive: the collector owns lifetime */
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 9);
    }

    #[test]
    fn strcpy_and_strncmp() {
        let src = r#"
            int main(void) {
                char *d = (char *) malloc(16);
                strcpy(d, "hello");
                if (strncmp(d, "help", 3) != 0) return 1;
                if (strncmp(d, "help", 4) == 0) return 2;
                return 0;
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 0);
    }

    #[test]
    fn gc_base_builtin() {
        let src = r#"
            int main(void) {
                char *p = (char *) malloc(100);
                char *interior = p + 57;
                char *base = (char *) GC_base(interior);
                if (base != p) return 1;
                if (GC_base((void *) 1234) != 0) return 2;
                return 0;
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 0);
    }

    #[test]
    fn gc_collect_and_heap_size() {
        let src = r#"
            int main(void) {
                long before;
                long after;
                long i;
                for (i = 0; i < 100; i++) { char *junk = (char *) malloc(64); junk[0] = 1; }
                before = gc_heap_size();
                gc_collect();
                after = gc_heap_size();
                return after < before ? 0 : 1;
            }
        "#;
        assert_eq!(run(src, b"").exit_code, 0);
    }

    #[test]
    fn stack_overflow_detected() {
        let src = "int f(int n) { char big[2048]; big[0] = (char) n; return f(n + 1) + big[0]; }\n\
                   int main(void) { return f(0); }";
        assert_eq!(run_err(src), VmError::StackOverflow);
    }

    #[test]
    fn abort_reported() {
        assert_eq!(
            run_err("int main(void) { abort(); return 0; }"),
            VmError::Aborted
        );
    }

    #[test]
    fn exit_terminates_early_with_code() {
        let src = "int main(void) { putchar('a'); exit(42); putchar('b'); return 0; }";
        let out = run(src, b"");
        assert_eq!(out.exit_code, 42);
        assert_eq!(out.output, b"a");
    }

    #[test]
    fn null_dereference_faults() {
        let src = "int main(void) { char *p = 0; return *p; }";
        assert!(matches!(run_err(src), VmError::Fault(_)));
    }

    #[test]
    fn wild_pointer_write_faults() {
        let src = "int main(void) { long *p = (long *) 0x99999999; *p = 1; return 0; }";
        assert!(matches!(run_err(src), VmError::Fault(_)));
    }

    #[test]
    fn putint_handles_negatives_and_zero() {
        let src = "int main(void) { putint(0); putchar(' '); putint(-12345); return 0; }";
        assert_eq!(run(src, b"").output, b"0 -12345");
    }

    #[test]
    fn profile_reflects_builtin_calls() {
        let src = r#"
            int main(void) {
                long i;
                for (i = 0; i < 10; i++) { char *p = (char *) malloc(8); p[0] = 1; }
                return 0;
            }
        "#;
        let out = run(src, b"");
        assert_eq!(
            out.profile.builtin_calls.get(&Builtin::Malloc).copied(),
            Some(10)
        );
    }

    #[test]
    fn base_store_check_flags_interior_pointers() {
        let src = r#"
            struct h { char *p; };
            int main(void) {
                struct h *x = (struct h *) malloc(sizeof(struct h));
                char *obj = (char *) malloc(64);
                x->p = obj + 8;   /* interior pointer into the heap */
                return 0;
            }
        "#;
        let v = VmOptions {
            check_base_stores: true,
            ..opts()
        };
        let r = compile_and_run(src, &CompileOptions::optimized(), &v);
        assert!(matches!(r, Err(VmError::InteriorStored { .. })), "{r:?}");
    }

    #[test]
    fn base_store_check_accepts_bases_and_non_heap() {
        let src = r#"
            struct h { char *p; long n; };
            char *global_slot;
            int main(void) {
                struct h *x = (struct h *) malloc(sizeof(struct h));
                char *obj = (char *) malloc(64);
                x->p = obj;        /* base pointer: fine */
                x->n = 123456;     /* plain integer: fine */
                global_slot = obj; /* base into statics: fine */
                return 0;
            }
        "#;
        let v = VmOptions {
            check_base_stores: true,
            ..opts()
        };
        compile_and_run(src, &CompileOptions::optimized(), &v).expect("conforming program");
    }

    #[test]
    fn safe_mode_survives_the_bounded_pause_paranoid_collector() {
        // Pointer-churning list reversal: every `->next` store is a heap
        // pointer store, and with `gc_threshold: 1` under the bounded-pause
        // collector, marking is in flight at essentially every store. The
        // write barrier is what keeps the list intact; the VM's
        // use-after-free trap turns any lost node into a hard error.
        let src = r#"
            struct node { struct node *next; long v; };
            int main(void) {
                struct node *head = 0;
                struct node *prev = 0;
                struct node *n;
                struct node *nx;
                long i;
                long sum = 0;
                for (i = 0; i < 200; i++) {
                    n = (struct node *) malloc(sizeof(struct node));
                    n->next = head;
                    n->v = i;
                    head = n;
                }
                while (head) { nx = head->next; head->next = prev; prev = head; head = nx; }
                while (prev) { sum = sum + prev->v; prev = prev->next; }
                putint(sum);
                return 0;
            }
        "#;
        let v = VmOptions {
            heap_config: HeapConfig {
                gc_threshold: 1,
                ..HeapConfig::bounded_pause()
            },
            ..opts()
        };
        let out = compile_and_run(src, &CompileOptions::debug(), &v).expect("runs");
        assert_eq!(out.output, b"19900");
        assert!(out.heap.collections_nursery > 0, "{:?}", out.heap);
        assert!(out.heap.collections_increment_finish > 0, "{:?}", out.heap);
    }

    #[test]
    fn falling_off_an_unterminated_block_is_malformed() {
        // bb0 lacks a terminator; had execution slid on into bb1, the
        // run would end in `abort()` instead.
        let main = FuncIr {
            name: "main".into(),
            blocks: vec![
                Block {
                    instrs: vec![Instr::Const {
                        dst: Temp(0),
                        value: 1,
                    }],
                },
                Block {
                    instrs: vec![
                        Instr::Call {
                            dst: None,
                            target: CallTarget::Builtin(Builtin::Abort),
                            args: vec![],
                            site: None,
                        },
                        Instr::Ret { value: None },
                    ],
                },
            ],
            temp_count: 1,
            param_temps: vec![],
            frame_size: 0,
            returns_value: false,
        };
        let prog = ProgramIr {
            funcs: vec![main],
            main: 0,
            globals_image: vec![],
            globals_size: 0,
            alloc_sites: vec![],
        };
        assert_eq!(
            super::run(&prog, &opts()).unwrap_err(),
            VmError::Malformed("fell off block bb0 in 'main'".into())
        );
    }

    #[test]
    fn step_budget_admits_exactly_max_steps() {
        let src = "int f(int x) { return x + 1; }\n\
                   int main(void) { long i; long s = 0; for (i = 0; i < 5; i++) s = s + f(i); return (int) s; }";
        let prog = crate::compile(src, &CompileOptions::optimized()).expect("compiles");
        let with_budget = |max_steps| {
            super::run(
                &prog,
                &VmOptions {
                    max_steps,
                    ..VmOptions::default()
                },
            )
        };
        let n = with_budget(MAX_STEPS).expect("runs").steps;
        let out = with_budget(n).expect("a run of n steps fits a budget of n");
        assert_eq!((out.steps, out.exit_code), (n, 15));
        assert_eq!(with_budget(n - 1).unwrap_err(), VmError::StepLimit);
    }

    #[test]
    fn varargs_style_indirect_calls_rejected_gracefully() {
        let src = r#"
            int main(void) {
                int (*f)(int, int);
                f = (int (*)(int, int)) 12345; /* not a function pointer */
                return f(1, 2);
            }
        "#;
        assert!(matches!(run_err(src), VmError::Malformed(_)));
    }

    #[test]
    fn indirect_call_through_the_sign_bit_is_malformed() {
        // `v - FUNC_PTR_BASE` overflows for the most negative pointer;
        // debug and release builds must both report the bad pointer.
        let src = r#"
            int main(void) {
                int (*f)(int, int);
                long v = 1;
                v = v << 63;
                f = (int (*)(int, int)) v;
                return f(1, 2);
            }
        "#;
        for copts in [CompileOptions::optimized(), CompileOptions::debug()] {
            assert_eq!(
                compile_and_run(src, &copts, &opts()).unwrap_err(),
                VmError::Malformed(
                    "indirect call through bad function pointer 0x8000000000000000".into()
                )
            );
        }
    }

    /// A `-g` program that allocates `p`, fills it, hides its only
    /// pointer in `q` and collects, then runs `access` on the freed
    /// object at `(char *)(q - 100000)`.
    fn after_free(access: &str) -> Result<ExecOutcome, VmError> {
        let src = format!(
            r#"
            struct pair {{ long a; long b; }};
            int main(void) {{
                char *p = (char *) malloc(100);
                char buf[128];
                struct pair s;
                long q;
                long r = 0;
                strcpy(buf, "abc");
                memset(p, 'a', 99);
                p[99] = 0;
                q = (long) p + 100000;
                p = 0;
                gc_collect();
                {access}
                putint(r);
                return 0;
            }}
        "#
        );
        compile_and_run(&src, &CompileOptions::debug(), &opts())
    }

    #[test]
    fn every_access_to_a_freed_object_traps() {
        let accesses = [
            "r = *(char *)(q - 100000);",
            "*(char *)(q - 100000) = 1;",
            "s = *(struct pair *)(q - 100000);",
            "*(struct pair *)(q - 100000) = s;",
            "memcpy(buf, (char *)(q - 100000), 1); r = buf[0];",
            "memcpy((char *)(q - 100000), buf, 1);",
            "memset((char *)(q - 100000), 0, 1);",
            "r = memcmp(buf, (char *)(q - 100000), 1);",
            "r = strlen((char *)(q - 100000));",
            "r = strcmp(buf, (char *)(q - 100000));",
            "r = strncmp((char *)(q - 100000), buf, 2);",
            "putstr((char *)(q - 100000));",
            "strcpy(buf, (char *)(q - 100000));",
            "strcpy((char *)(q - 100000), buf);",
        ];
        for access in accesses {
            let r = after_free(access);
            assert!(
                matches!(r, Err(VmError::UseAfterFree { ref func, .. }) if func == "main"),
                "{access}: {r:?}"
            );
        }
        // Without the access to the freed object the program runs.
        let live = after_free("r = strlen(buf);").expect("runs");
        assert_eq!(live.output, b"3");
    }

    #[test]
    fn a_range_is_trapped_at_its_far_end() {
        // `a`'s first byte is live; the last byte of each `n`-byte range
        // is 8 bytes into the freed slot after it.
        for access in [
            "memset(a, 'x', n);",
            "memcpy(a, buf, n);",
            "memcpy(buf, a, n);",
            "strcpy(a, buf);",
            "r = strlen(a);",
        ] {
            let src = format!(
                r#"
                int main(void) {{
                    char *a = (char *) malloc(32);
                    char *b = (char *) malloc(32);
                    char buf[128];
                    long qa = (long) a;
                    long qb = (long) b + 100000;
                    long n;
                    long r = 0;
                    b = 0;
                    gc_collect();
                    n = qb - 100000 - qa + 8;
                    if (n > 100) return 99;
                    memset(buf, 'y', n - 1);
                    buf[n - 1] = 0;
                    memset(a, 'z', n - 8);
                    {access}
                    return (int) r;
                }}
            "#
            );
            let r = compile_and_run(&src, &CompileOptions::debug(), &opts());
            assert!(
                matches!(r, Err(VmError::UseAfterFree { .. })),
                "{access}: {r:?}"
            );
        }
    }

    #[test]
    fn string_builtins_agree_on_globals_stack_and_heap_strings() {
        // Literals live in the globals, `s` on the stack and `h` in the
        // heap; each builtin meets each region, and the byte work is
        // strlen len + 1, strcmp/strncmp shorter compared length + 1,
        // strcpy len + 1 and putstr len.
        let src = r#"
            int main(void) {
                char s[16];
                char *h = (char *) malloc(16);
                strcpy(s, "stack");
                strcpy(h, "heap");
                putint(strlen(s)); putchar(' ');
                putint(strlen(h)); putchar(' ');
                putint(strlen("globals")); putchar(' ');
                putint(strcmp(s, h)); putchar(' ');
                putint(strcmp(h, "heap")); putchar(' ');
                putint(strcmp("glob", s)); putchar(' ');
                putint(strncmp(s, "stop", 2)); putchar(' ');
                putint(strncmp(h, s, 9)); putchar(' ');
                putstr(s);
                putstr(h);
                putstr("!");
                return 0;
            }
        "#;
        let work = 6 + 5 + 6 + 5 + 8 + 5 + 5 + 5 + 3 + 5 + (5 + 4 + 1);
        for copts in [CompileOptions::optimized(), CompileOptions::debug()] {
            let out = compile_and_run(src, &copts, &opts()).expect("runs");
            assert_eq!(out.output, b"5 4 7 1 0 -1 0 -1 stackheap!");
            assert_eq!(out.profile.builtin_byte_work, work);
        }
    }

    #[test]
    fn string_operands_are_trapped_at_their_first_byte_and_their_nul() {
        // `a` is live and filled up to the freed `b`, so its NUL is `b`'s
        // first byte; `(char *)(qb - 100000 + 8)` starts inside `b`.
        let run = |access: &str| {
            let src = format!(
                r#"
                int main(void) {{
                    char *a = (char *) malloc(32);
                    char *b = (char *) malloc(32);
                    char live[8];
                    long qa = (long) a;
                    long qb = (long) b + 100000;
                    long r = 0;
                    b = 0;
                    gc_collect();
                    if (qb - 100000 <= qa || qb - 100000 - qa > 100) return 99;
                    live[0] = 'z';
                    live[1] = 0;
                    memset(a, 'z', qb - 100000 - qa);
                    {access}
                    putint(r);
                    return 0;
                }}
            "#
            );
            compile_and_run(&src, &CompileOptions::debug(), &opts())
        };
        let freed = run("r = qb - 100000;").expect("runs");
        let b: u64 = String::from_utf8(freed.output).unwrap().parse().unwrap();
        let first = "(char *)(qb - 100000 + 8)";
        for f in ["strcmp", "strncmp"] {
            let n = if f == "strncmp" { ", 2" } else { "" };
            for (x, y, addr) in [
                (first, "live", b + 8),
                ("live", first, b + 8),
                ("a", "live", b),
                ("live", "a", b),
            ] {
                let access = format!("r = {f}({x}, {y}{n});");
                assert_eq!(
                    run(&access).unwrap_err(),
                    VmError::UseAfterFree {
                        func: "main".into(),
                        addr
                    },
                    "{access}"
                );
            }
        }
    }

    #[test]
    fn a_string_past_the_cap_faults_just_past_it() {
        let src = |tail: &str| {
            format!(
                r#"
                int main(void) {{
                    char *p = (char *) malloc(1048600);
                    memset(p, 'x', 1048590);
                    {tail}
                }}
            "#
            )
        };
        let p = run(&src("putint((long) p); return 0;"), b"");
        let p: u64 = String::from_utf8(p.output).unwrap().parse().unwrap();
        let fault = VmError::Fault(MemFault {
            addr: p + (1 << 20) + 1,
            width: 1,
            write: false,
        });
        for f in ["strlen(p)", "strcmp(p, \"x\")", "strcmp(\"x\", p)"] {
            assert_eq!(run_err(&src(&format!("return (int) {f};"))), fault, "{f}");
        }
    }

    #[test]
    fn regions_that_would_overlap_are_malformed() {
        let big = "char big[4194304]; int main(void) { big[1] = 1; return big[1]; }";
        let small = "char big[4096]; int main(void) { big[1] = 1; return big[1]; }";
        let deep = VmOptions {
            stack_bytes: (gcheap::HEAP_BASE - gcheap::STACK_BASE) as usize + 8,
            ..opts()
        };
        for (src, vm) in [(big, opts()), (small, deep)] {
            let r = compile_and_run(src, &CompileOptions::optimized(), &vm);
            assert!(
                matches!(&r, Err(VmError::Malformed(m)) if m.contains("overlap the next region")),
                "{r:?}"
            );
        }
        let r = compile_and_run(small, &CompileOptions::optimized(), &opts());
        assert_eq!(r.expect("runs").exit_code, 1);
    }

    #[test]
    fn frame_slots_read_zero_until_stored_and_keep_what_is_stored() {
        // `probe`'s frames lie below every byte written so far, so its
        // unwritten `fresh` reads an uncommitted zero; `scribble` then
        // commits the same depths, and the second `probe` reads slots
        // that are committed and were zeroed on entry.
        let src = r#"
            long probe(long depth) {
                long fresh;
                long pad[700];
                if (depth > 0) return probe(depth - 1);
                return fresh;
            }
            long scribble(long depth) {
                long slot = 12345;
                long pad[700];
                pad[699] = slot + depth;
                if (depth > 0) return scribble(depth - 1) + pad[699];
                return slot;
            }
            int main(void) {
                long x = 1;
                long a = probe(3);
                long b = scribble(3);
                long c = probe(3);
                x = x + 41;
                putint(a); putchar(' ');
                putint(b); putchar(' ');
                putint(c); putchar(' ');
                putint(x);
                return 0;
            }
        "#;
        let out = compile_and_run(src, &CompileOptions::debug(), &opts()).expect("runs");
        assert_eq!(out.output, b"0 49386 0 42");
    }

    fn ir_func(name: &str, temp_count: u32, params: &[u32], blocks: Vec<Vec<Instr>>) -> FuncIr {
        FuncIr {
            name: name.into(),
            blocks: blocks.into_iter().map(|instrs| Block { instrs }).collect(),
            temp_count,
            param_temps: params.iter().map(|&t| Temp(t)).collect(),
            frame_size: 0,
            returns_value: true,
        }
    }

    fn run_ir(funcs: Vec<FuncIr>, globals: &[u8], max_steps: u64) -> Result<ExecOutcome, VmError> {
        let prog = ProgramIr {
            funcs,
            main: 0,
            globals_image: globals.to_vec(),
            globals_size: globals.len() as u64,
            alloc_sites: vec![],
        };
        super::run(
            &prog,
            &VmOptions {
                max_steps,
                ..VmOptions::default()
            },
        )
    }

    fn t(n: u32) -> Operand {
        Operand::Temp(Temp(n))
    }

    fn imm(v: i64) -> Operand {
        Operand::Const(v)
    }

    fn builtin(b: Builtin, args: Vec<Operand>) -> Instr {
        Instr::Call {
            dst: None,
            target: CallTarget::Builtin(b),
            args,
            site: None,
        }
    }

    /// `putint(v); putchar(' ');`
    fn print(v: Operand) -> [Instr; 2] {
        [
            builtin(Builtin::Putint, vec![v]),
            builtin(Builtin::Putchar, vec![imm(b' ' as i64)]),
        ]
    }

    #[test]
    fn immediates_in_moves_and_arithmetic() {
        let mut body = vec![
            Instr::Mov {
                dst: Temp(0),
                src: imm(5),
            },
            Instr::KeepLive {
                dst: Temp(1),
                value: imm(7),
                base: Some(imm(1)),
            },
            Instr::Bin {
                dst: Temp(2),
                op: BinIr::Sub,
                a: imm(100),
                b: t(0),
            },
            Instr::Bin {
                dst: Temp(3),
                op: BinIr::Sub,
                a: t(1),
                b: imm(2),
            },
            Instr::Bin {
                dst: Temp(4),
                op: BinIr::Sub,
                a: imm(50),
                b: imm(8),
            },
        ];
        for i in 0..5 {
            body.extend(print(t(i)));
        }
        body.push(Instr::Ret {
            value: Some(imm(0)),
        });
        let out = run_ir(vec![ir_func("main", 5, &[], vec![body])], &[], MAX_STEPS).expect("runs");
        assert_eq!(out.output, b"5 7 95 5 42 ");
    }

    #[test]
    fn immediates_as_memory_addresses_and_stored_values() {
        let g = GLOBAL_BASE as i64;
        let mut body = vec![
            // Address immediate.
            Instr::Load {
                dst: Temp(0),
                addr: imm(g + 1),
                width: 1,
                signed: false,
            },
            // Address and value immediate.
            Instr::Store {
                addr: imm(g + 8),
                value: imm(-3),
                width: 4,
            },
            Instr::Load {
                dst: Temp(1),
                addr: imm(g + 8),
                width: 4,
                signed: true,
            },
            // Value immediate.
            Instr::Const {
                dst: Temp(2),
                value: g + 12,
            },
            Instr::Store {
                addr: t(2),
                value: imm(200),
                width: 1,
            },
            Instr::Load {
                dst: Temp(3),
                addr: t(2),
                width: 1,
                signed: false,
            },
            // Address immediate, value in a temp.
            Instr::Store {
                addr: imm(g + 16),
                value: t(3),
                width: 8,
            },
            Instr::Load {
                dst: Temp(4),
                addr: imm(g + 16),
                width: 8,
                signed: false,
            },
            // Both block-copy addresses immediate.
            Instr::MemCopy {
                dst_addr: imm(g + 24),
                src_addr: imm(g),
                len: 2,
            },
            Instr::Load {
                dst: Temp(5),
                addr: imm(g + 24),
                width: 2,
                signed: false,
            },
        ];
        for i in [0, 1, 3, 4, 5] {
            body.extend(print(t(i)));
        }
        body.push(Instr::Ret {
            value: Some(imm(0)),
        });
        let globals = [0x11, 0x22, 0, 0, 0, 0, 0, 0];
        let out = run_ir(
            vec![ir_func("main", 6, &[], vec![body])],
            &globals,
            MAX_STEPS,
        )
        .expect("runs");
        assert_eq!(out.output, b"34 -3 200 200 8721 ");
    }

    #[test]
    fn immediates_in_checks_branches_calls_and_returns() {
        let h = gcheap::HEAP_BASE as i64;
        // sub(a, b) = a - b; nine() = 9.
        let sub = ir_func(
            "sub",
            3,
            &[0, 1],
            vec![vec![
                Instr::Bin {
                    dst: Temp(2),
                    op: BinIr::Sub,
                    a: t(0),
                    b: t(1),
                },
                Instr::Ret { value: Some(t(2)) },
            ]],
        );
        let nine = ir_func(
            "nine",
            0,
            &[],
            vec![vec![Instr::Ret {
                value: Some(imm(9)),
            }]],
        );
        let call = |dst, target, args| Instr::Call {
            dst: Some(Temp(dst)),
            target,
            args,
            site: None,
        };
        let mut entry = vec![
            call(0, CallTarget::Builtin(Builtin::Malloc), vec![imm(16)]),
            Instr::Bin {
                dst: Temp(1),
                op: BinIr::Sub,
                a: t(0),
                b: imm(h),
            },
            // Both check operands immediate: the first object's base and
            // a pointer 8 bytes into it.
            Instr::CheckSame {
                dst: Temp(2),
                value: imm(h + 8),
                base: imm(h),
            },
            Instr::Bin {
                dst: Temp(2),
                op: BinIr::Sub,
                a: t(2),
                b: imm(h),
            },
            call(3, CallTarget::Func(1), vec![imm(4), imm(15)]),
            call(
                4,
                CallTarget::Indirect(imm(FUNC_PTR_BASE + 1)),
                vec![imm(20), imm(3)],
            ),
            call(5, CallTarget::Func(2), vec![]),
        ];
        for i in 1..6 {
            entry.extend(print(t(i)));
        }
        entry.push(Instr::Branch {
            cond: imm(0),
            if_true: BlockId(3),
            if_false: BlockId(1),
        });
        let blocks = vec![
            entry,
            vec![Instr::Branch {
                cond: imm(7),
                if_true: BlockId(2),
                if_false: BlockId(3),
            }],
            vec![Instr::Ret {
                value: Some(imm(33)),
            }],
            vec![builtin(Builtin::Abort, vec![]), Instr::Ret { value: None }],
        ];
        let out = run_ir(
            vec![ir_func("main", 6, &[], blocks), sub, nine],
            &[],
            MAX_STEPS,
        )
        .expect("runs");
        assert_eq!(
            (out.exit_code, &out.output[..]),
            (33, &b"0 8 -11 17 9 "[..])
        );
        assert_eq!(out.profile.block_counts[0], [1, 1, 1, 0]);

        // An immediate check that fails reports both operands.
        let failing = vec![
            call(0, CallTarget::Builtin(Builtin::Malloc), vec![imm(16)]),
            Instr::CheckSame {
                dst: Temp(1),
                value: imm(h + 40),
                base: imm(h),
            },
            Instr::Ret {
                value: Some(imm(0)),
            },
        ];
        assert_eq!(
            run_ir(vec![ir_func("main", 2, &[], vec![failing])], &[], MAX_STEPS).unwrap_err(),
            VmError::CheckFailed {
                func: "main".into(),
                value: (h + 40) as u64,
                base: h as u64,
            }
        );
    }

    #[test]
    fn a_fault_on_step_k_needs_a_budget_of_k_minus_one() {
        // The load on step 3 faults.
        let main = || {
            ir_func(
                "main",
                2,
                &[],
                vec![vec![
                    Instr::Const {
                        dst: Temp(0),
                        value: 0,
                    },
                    Instr::Const {
                        dst: Temp(1),
                        value: 1,
                    },
                    Instr::Load {
                        dst: Temp(1),
                        addr: t(0),
                        width: 8,
                        signed: false,
                    },
                    Instr::Ret { value: Some(t(1)) },
                ]],
            )
        };
        for budget in [MAX_STEPS, 2] {
            assert!(
                matches!(
                    run_ir(vec![main()], &[], budget),
                    Err(VmError::Fault(MemFault { addr: 0, .. }))
                ),
                "budget {budget}"
            );
        }
        assert_eq!(
            run_ir(vec![main()], &[], 1).unwrap_err(),
            VmError::StepLimit
        );
    }

    #[test]
    fn exit_from_a_nested_frame_needs_exactly_its_steps() {
        // main: t0 = 1; f(); abort.  f: t0 = 3; putchar('x'); exit(t0).
        let funcs = || {
            vec![
                ir_func(
                    "main",
                    1,
                    &[],
                    vec![vec![
                        Instr::Const {
                            dst: Temp(0),
                            value: 1,
                        },
                        Instr::Call {
                            dst: None,
                            target: CallTarget::Func(1),
                            args: vec![],
                            site: None,
                        },
                        builtin(Builtin::Abort, vec![]),
                        Instr::Ret { value: None },
                    ]],
                ),
                ir_func(
                    "f",
                    1,
                    &[],
                    vec![vec![
                        Instr::Const {
                            dst: Temp(0),
                            value: 3,
                        },
                        builtin(Builtin::Putchar, vec![imm(b'x' as i64)]),
                        builtin(Builtin::Exit, vec![t(0)]),
                        Instr::Ret { value: None },
                    ]],
                ),
            ]
        };
        let out = run_ir(funcs(), &[], MAX_STEPS).expect("runs");
        assert_eq!(
            (out.steps, out.exit_code, &out.output[..]),
            (5, 3, &b"x"[..])
        );
        let out = run_ir(funcs(), &[], 5).expect("five steps fit a budget of five");
        assert_eq!((out.steps, out.exit_code), (5, 3));
        assert_eq!(run_ir(funcs(), &[], 4).unwrap_err(), VmError::StepLimit);
    }

    // The fused pairs. Each test runs one program twice: once whole, to
    // read the first half's destination after the pair, and once with a
    // fault placed right after the pair's first half, to pin that the
    // first half is a step of its own, charged before the second runs.

    /// A frame offset past the top of the stack region, so an access
    /// through it faults.
    const OFF_STACK: u32 = 2 << 20;

    /// `main` with a 16-byte frame.
    fn framed_main(temp_count: u32, blocks: Vec<Vec<Instr>>) -> FuncIr {
        FuncIr {
            frame_size: 16,
            ..ir_func("main", temp_count, &[], blocks)
        }
    }

    /// The address of `offset` in `main`'s 16-byte frame.
    fn frame_addr(offset: u32) -> u64 {
        gcheap::STACK_BASE + VmOptions::default().stack_bytes as u64 - 16 + u64::from(offset)
    }

    fn faults_at(r: Result<ExecOutcome, VmError>, addr: u64) -> bool {
        matches!(r, Err(VmError::Fault(MemFault { addr: a, .. })) if a == addr)
    }

    #[test]
    fn a_fused_frame_load_charges_its_address_first_and_keeps_it() {
        // t0 = &frame[8]; *t0 = 42; t1 = &frame[off]; t2 = *t1 (fused,
        // steps 3 and 4); print t1, t2.
        let main = |off| {
            let mut body = vec![
                Instr::FrameAddr {
                    dst: Temp(0),
                    offset: 8,
                },
                Instr::Store {
                    addr: t(0),
                    value: imm(42),
                    width: 8,
                },
                Instr::FrameAddr {
                    dst: Temp(1),
                    offset: off,
                },
                Instr::Load {
                    dst: Temp(2),
                    addr: t(1),
                    width: 8,
                    signed: false,
                },
            ];
            body.extend(print(t(1)));
            body.extend(print(t(2)));
            body.push(Instr::Ret {
                value: Some(imm(0)),
            });
            framed_main(3, vec![body])
        };
        let out = run_ir(vec![main(8)], &[], MAX_STEPS).expect("runs");
        assert_eq!(out.output, format!("{} 42 ", frame_addr(8)).as_bytes());
        assert_eq!(out.steps, 9);
        // The load on step 4 faults: a budget of 3 runs it, and one of 2
        // ends on the fused op's first half.
        let far = frame_addr(OFF_STACK);
        assert!(faults_at(run_ir(vec![main(OFF_STACK)], &[], 3), far));
        assert_eq!(
            run_ir(vec![main(OFF_STACK)], &[], 2).unwrap_err(),
            VmError::StepLimit
        );
    }

    #[test]
    fn a_fused_frame_store_charges_its_address_first_and_can_store_it() {
        // t0 = 42; t1 = &frame[off]; *t1 = t0 (fused, steps 2 and 3);
        // t2 = &frame[8]; *t2 = t2 (fused: stores the address itself);
        // print t1, *t1, t2, *t2.
        let main = |off| {
            let mut body = vec![
                Instr::Const {
                    dst: Temp(0),
                    value: 42,
                },
                Instr::FrameAddr {
                    dst: Temp(1),
                    offset: off,
                },
                Instr::Store {
                    addr: t(1),
                    value: t(0),
                    width: 8,
                },
                Instr::FrameAddr {
                    dst: Temp(2),
                    offset: 8,
                },
                Instr::Store {
                    addr: t(2),
                    value: t(2),
                    width: 8,
                },
            ];
            for (dst, addr) in [(3, 1), (4, 2)] {
                body.push(Instr::Load {
                    dst: Temp(dst),
                    addr: t(addr),
                    width: 8,
                    signed: false,
                });
            }
            for temp in [1, 3, 2, 4] {
                body.extend(print(t(temp)));
            }
            body.push(Instr::Ret {
                value: Some(imm(0)),
            });
            framed_main(5, vec![body])
        };
        let out = run_ir(vec![main(0)], &[], MAX_STEPS).expect("runs");
        let (a0, a8) = (frame_addr(0), frame_addr(8));
        assert_eq!(out.output, format!("{a0} 42 {a8} {a8} ").as_bytes());
        assert_eq!(out.steps, 16);
        // The store on step 3 faults.
        let far = frame_addr(OFF_STACK);
        assert!(faults_at(run_ir(vec![main(OFF_STACK)], &[], 2), far));
        assert_eq!(
            run_ir(vec![main(OFF_STACK)], &[], 1).unwrap_err(),
            VmError::StepLimit
        );
    }

    /// The first op of a fused jump's or branch's target block: a load
    /// from address 0, which faults, or nothing.
    fn target_fault(fault: bool) -> Vec<Instr> {
        if fault {
            vec![Instr::Load {
                dst: Temp(0),
                addr: imm(0),
                width: 8,
                signed: false,
            }]
        } else {
            vec![]
        }
    }

    #[test]
    fn a_fused_move_and_jump_is_two_steps_and_keeps_the_move() {
        // bb0: t0 = 7; t1 = t0; jump bb1 (fused, steps 2 and 3).
        // bb1: t2 = keep_live(t1, t0); branch 1 ? bb2 : bb3 (decoded to a
        // move and a jump, fused, steps 4 and 5).
        // bb2: print t1, t2.  bb3: abort.
        let main = |fault| {
            let mut exit = target_fault(fault);
            exit.extend(print(t(1)));
            exit.extend(print(t(2)));
            exit.push(Instr::Ret {
                value: Some(imm(0)),
            });
            ir_func(
                "main",
                3,
                &[],
                vec![
                    vec![
                        Instr::Const {
                            dst: Temp(0),
                            value: 7,
                        },
                        Instr::Mov {
                            dst: Temp(1),
                            src: t(0),
                        },
                        Instr::Jump { target: BlockId(1) },
                    ],
                    vec![
                        Instr::KeepLive {
                            dst: Temp(2),
                            value: t(1),
                            base: Some(t(0)),
                        },
                        Instr::Branch {
                            cond: imm(1),
                            if_true: BlockId(2),
                            if_false: BlockId(3),
                        },
                    ],
                    exit,
                    vec![builtin(Builtin::Abort, vec![]), Instr::Ret { value: None }],
                ],
            )
        };
        let out = run_ir(vec![main(false)], &[], MAX_STEPS).expect("runs");
        assert_eq!(out.output, b"7 7 ");
        assert_eq!(out.steps, 10);
        assert_eq!(out.profile.block_counts[0], [1, 1, 1, 0]);
        // The fault on step 6 needs a budget of 5; every smaller budget,
        // including those ending on either pair's first half, runs out.
        assert!(faults_at(run_ir(vec![main(true)], &[], 5), 0));
        for budget in 0..5 {
            assert_eq!(
                run_ir(vec![main(true)], &[], budget).unwrap_err(),
                VmError::StepLimit,
                "budget {budget}"
            );
        }
    }

    #[test]
    fn a_fused_compare_and_branch_is_two_steps_and_keeps_the_result() {
        // bb0: t0 = 5; t1 = 3; t2 = 99; t2 = t0 < rhs; branch t2 (fused,
        // steps 4 and 5).  bb1: abort.  bb2: print t2.
        // The compare's right operand is a temp (`Bin`) or an immediate
        // (`BinImm`); either way 5 < 3 is false.
        for rhs in [t(1), imm(3)] {
            let main = |fault| {
                let mut exit = target_fault(fault);
                exit.extend(print(t(2)));
                exit.push(Instr::Ret {
                    value: Some(imm(0)),
                });
                ir_func(
                    "main",
                    3,
                    &[],
                    vec![
                        vec![
                            Instr::Const {
                                dst: Temp(0),
                                value: 5,
                            },
                            Instr::Const {
                                dst: Temp(1),
                                value: 3,
                            },
                            Instr::Const {
                                dst: Temp(2),
                                value: 99,
                            },
                            Instr::Bin {
                                dst: Temp(2),
                                op: BinIr::CmpLt,
                                a: t(0),
                                b: rhs,
                            },
                            Instr::Branch {
                                cond: t(2),
                                if_true: BlockId(1),
                                if_false: BlockId(2),
                            },
                        ],
                        vec![builtin(Builtin::Abort, vec![]), Instr::Ret { value: None }],
                        exit,
                    ],
                )
            };
            let out = run_ir(vec![main(false)], &[], MAX_STEPS).expect("runs");
            assert_eq!(out.output, b"0 ", "{rhs:?}");
            assert_eq!(out.steps, 8);
            assert_eq!(out.profile.block_counts[0], [1, 0, 1]);
            assert!(faults_at(run_ir(vec![main(true)], &[], 5), 0));
            for budget in 0..5 {
                assert_eq!(
                    run_ir(vec![main(true)], &[], budget).unwrap_err(),
                    VmError::StepLimit,
                    "{rhs:?}, budget {budget}"
                );
            }
        }
    }

    #[test]
    fn the_five_hot_pairs_decode_fused() {
        // The programs above exercise the fused ops only if decoding fuses
        // them: count the fused slots of a function holding each pair.
        let func = framed_main(
            4,
            vec![
                vec![
                    Instr::FrameAddr {
                        dst: Temp(0),
                        offset: 0,
                    },
                    Instr::Load {
                        dst: Temp(1),
                        addr: t(0),
                        width: 8,
                        signed: true,
                    },
                    Instr::FrameAddr {
                        dst: Temp(0),
                        offset: 8,
                    },
                    Instr::Store {
                        addr: t(0),
                        value: t(1),
                        width: 8,
                    },
                    Instr::Bin {
                        dst: Temp(2),
                        op: BinIr::CmpEq,
                        a: t(0),
                        b: t(1),
                    },
                    Instr::Branch {
                        cond: t(2),
                        if_true: BlockId(1),
                        if_false: BlockId(2),
                    },
                ],
                vec![
                    Instr::Bin {
                        dst: Temp(3),
                        op: BinIr::CmpNe,
                        a: t(1),
                        b: imm(0),
                    },
                    Instr::Branch {
                        cond: t(3),
                        if_true: BlockId(2),
                        if_false: BlockId(2),
                    },
                ],
                vec![
                    Instr::Mov {
                        dst: Temp(3),
                        src: t(1),
                    },
                    Instr::Jump { target: BlockId(0) },
                ],
            ],
        );
        let code = Code::new(&func, 0);
        let fused: Vec<usize> = (0..code.ops.len())
            .filter(|&at| {
                matches!(
                    code.ops[at],
                    Op::FrameLoad { .. }
                        | Op::FrameStore { .. }
                        | Op::MovJump { .. }
                        | Op::BinBranch { .. }
                        | Op::BinImmBranch { .. }
                )
            })
            .collect();
        assert_eq!(fused, [0, 2, 4, 6, 8]);
        assert_eq!(code.branches.len(), 2);
    }

    #[test]
    fn a_string_ending_with_its_committed_run_ends_at_an_uncommitted_zero() {
        // A globals image of 4,096 nonzero bytes is exactly the run its
        // first byte commits: the byte after it is reserved, uncommitted
        // and zero, so it ends every string that reaches it.
        let g = GLOBAL_BASE as i64;
        let call = |dst, b, args| Instr::Call {
            dst: Some(Temp(dst)),
            target: CallTarget::Builtin(b),
            args,
            site: None,
        };
        let mut body = vec![
            call(0, Builtin::Strlen, vec![imm(g + 4000)]),
            call(1, Builtin::Strcmp, vec![imm(g + 4000), imm(g + 4001)]),
            call(
                2,
                Builtin::Strncmp,
                vec![imm(g + 4001), imm(g + 4000), imm(200)],
            ),
        ];
        for i in 0..3 {
            body.extend(print(t(i)));
        }
        body.push(builtin(Builtin::Putstr, vec![imm(g + 4090)]));
        body.push(Instr::Ret {
            value: Some(imm(0)),
        });
        let out = run_ir(
            vec![ir_func("main", 3, &[], vec![body])],
            &[b'x'; 4096],
            MAX_STEPS,
        )
        .expect("runs");
        assert_eq!(out.output, b"96 1 -1 xxxxxx");
        assert_eq!(out.profile.builtin_byte_work, 97 + 96 + 96 + 6);
    }
}
