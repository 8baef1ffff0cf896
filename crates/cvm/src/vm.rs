//! The executing virtual machine.
//!
//! Runs IR against the simulated address space with the conservative
//! collector attached. Collections are triggered inside allocation
//! builtins (the call-site model); the roots at a collection are:
//!
//! * the globals region and the live portion of the stack (frame slots),
//!   scanned conservatively word-by-word, and
//! * per suspended frame, exactly the temps *live across the active call*
//!   (from [`crate::liveness::gc_root_maps`]) — the VM's "registers".
//!
//! Dead temps are not roots. That is what makes the paper's disguised-
//! pointer hazard reproducible: optimize away the last live copy of a
//! pointer and the object really is collected under your feet.
//!
//! # The interpreter
//!
//! A run first lays each function's blocks end to end in a code table of
//! *borrowed* instructions, so a position in a function is one program
//! counter and dispatching an instruction is one index. A block that does
//! not end in a terminator gets one extra slot, and reaching it is
//! [`VmError::Malformed`] ("fell off block bbN"). Beside the slots, the
//! table keeps each block's first slot (the jump target) and execution
//! count (the block-count profile, handed over when the run ends) and,
//! per `Call` slot, the temps live across that call: the precise roots
//! above.
//!
//! A run pays only for what it touches. Its memory commits bytes as they
//! are written (see [`gcheap::Memory`]), an allocation hands the collector
//! a root builder that runs only if the allocation collects or steps a
//! mark cycle, and a function's per-call root table is solved the first
//! time such a root scan reaches one of its frames, so a run that never
//! collects never solves liveness.
//!
//! All frames' temps live in one register window: a frame owns
//! `regs[base..base + temp_count]`, zeroed when the frame is pushed and
//! truncated away when it returns. The active frame's function, program
//! counter and window base are cached in the VM, so an operand read is
//! one index. Call arguments are read straight from the caller's window,
//! and builtin calls are counted in a fixed array.
//!
//! The step count, the block counts, every error and its text, and the
//! order of root words (globals, then the stack, then each frame's live
//! temps bottom frame first and in ascending temp order) do not depend on
//! this layout; `tests/gc_golden.rs` pins them.

use crate::ir::*;
use crate::liveness::visit_call_roots;
use cfront::sema::Builtin;
use gcheap::{GcHeap, HeapConfig, HeapStats, MemFault, Memory, RootSet, Roots, GLOBAL_BASE};
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
    /// Trap loads/stores that hit heap addresses outside any allocated
    /// object (observes premature collection deterministically).
    pub trap_uaf: bool,
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
    /// run completes (before the final sweep, so floating garbage is
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
            trap_uaf: true,
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
    Vm::new(prog, opts)?.run()
}

/// One function's code table: its blocks' instructions laid end to end,
/// so a position in the function is one program counter.
struct Code<'a> {
    /// The function, whose call-site liveness `roots` is solved from.
    func: &'a FuncIr,
    /// The instructions, borrowed from the program. `None` is the slot
    /// appended after a block that does not end in a terminator:
    /// reaching it is falling off that block.
    slots: Vec<Option<&'a Instr>>,
    /// Per block: the slot of its first instruction, and how many times
    /// it has been entered (the block-count profile).
    blocks: Vec<(usize, u64)>,
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
    fn new(func: &'a FuncIr) -> Self {
        let mut slots = Vec::with_capacity(func.instr_count() + func.blocks.len());
        let mut blocks = Vec::with_capacity(func.blocks.len());
        for b in &func.blocks {
            blocks.push((slots.len(), 0));
            slots.extend(b.instrs.iter().map(Some));
            if !b.instrs.last().is_some_and(Instr::is_terminator) {
                slots.push(None);
            }
        }
        Code {
            func,
            slots,
            blocks,
            roots: OnceCell::new(),
        }
    }

    /// The temps live across the call at slot `pc`.
    fn roots_at(&self, pc: usize) -> &[Temp] {
        let table = self.roots.get_or_init(|| {
            let mut ranges = vec![(0, 0); self.slots.len()];
            let mut temps = Vec::new();
            visit_call_roots(self.func, |block, ip, live| {
                let start = temps.len() as u32;
                temps.extend(live.iter());
                ranges[self.blocks[block].0 + ip] = (start, temps.len() as u32);
            });
            CallRoots { ranges, temps }
        });
        let (start, end) = table.ranges[pc];
        &table.temps[start as usize..end as usize]
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

/// A live activation. The active (top) frame's position is cached in
/// [`Vm`] while it runs; `pc` is written when the frame makes a call.
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
    code: Vec<Code<'a>>,
    mem: Memory,
    heap: GcHeap,
    frames: Vec<Frame>,
    /// Every live frame's temps, bottom frame first: the register window.
    regs: Vec<i64>,
    /// The active frame's function, program counter and window base.
    func: usize,
    pc: usize,
    base: usize,
    sp: u64,
    input_pos: usize,
    output: Vec<u8>,
    profile: Profile,
    /// Builtin invocation counts, indexed by `Builtin as usize`; they
    /// fill [`Profile::builtin_calls`] when the run ends.
    builtin_calls: [u64; Builtin::ALL.len()],
    steps: u64,
    exit: Option<i64>,
    /// Whether the `begin` heap-graph snapshot has been recorded.
    begin_snapped: bool,
}

impl<'a> Vm<'a> {
    fn new(prog: &'a ProgramIr, opts: &'a VmOptions) -> Result<Self, VmError> {
        let mut mem = Memory::new(
            (prog.globals_image.len() + 4096).max(1 << 16),
            opts.stack_bytes,
            opts.heap_bytes,
        );
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
        Ok(Vm {
            prog,
            opts,
            code: prog.funcs.iter().map(Code::new).collect(),
            mem,
            heap,
            frames: Vec::new(),
            regs: Vec::new(),
            func: prog.main,
            pc: 0,
            base: 0,
            sp,
            input_pos: 0,
            output: Vec::new(),
            profile: Profile::default(),
            builtin_calls: [0; Builtin::ALL.len()],
            steps: 0,
            exit: None,
            begin_snapped: false,
        })
    }

    fn cur_func_name(&self) -> String {
        self.frames
            .last()
            .map(|f| self.prog.funcs[f.func].name.clone())
            .unwrap_or_else(|| "<top>".into())
    }

    /// Pushes a frame for `callee`, whose parameters receive `args`
    /// evaluated in the active frame, and makes it the active frame.
    fn call(&mut self, callee: usize, args: &[Operand], dst: Option<Temp>) -> Result<(), VmError> {
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
        self.mem.fill(self.sp, 0, frame_size as usize)?;
        // The window ends at the caller's last temp, so the callee's temps
        // start zeroed.
        let base = self.regs.len();
        self.regs.resize(base + f.temp_count as usize, 0);
        for (pt, a) in f.param_temps.iter().zip(args) {
            self.regs[base + pt.0 as usize] = self.operand(*a);
        }
        self.code[callee].blocks[0].1 += 1;
        self.frames.push(Frame {
            func: callee,
            pc: 0,
            base,
            dst_in_caller: dst,
        });
        (self.func, self.pc, self.base) = (callee, 0, base);
        Ok(())
    }

    /// Pops the active frame and resumes its caller after the call.
    fn ret(&mut self, value: Option<i64>) -> Result<(), VmError> {
        let frame = self.frames.pop().expect("pop with no frame");
        let f = &self.prog.funcs[frame.func];
        self.sp += f.frame_size as u64;
        self.regs.truncate(frame.base);
        let Some(caller) = self.frames.last() else {
            self.exit = Some(value.unwrap_or(0));
            return Ok(());
        };
        (self.func, self.pc, self.base) = (caller.func, caller.pc + 1, caller.base);
        if let Some(dst) = frame.dst_in_caller {
            // A caller-visible destination with no returned value would
            // silently become 0 — refuse, so miscompilations that drop
            // a return path surface instead of masking divergence.
            let Some(v) = value else {
                return Err(VmError::MissingReturn {
                    func: f.name.clone(),
                });
            };
            self.set_temp(dst, v);
        }
        Ok(())
    }

    fn run(mut self) -> Result<ExecOutcome, VmError> {
        self.call(self.prog.main, &[], None)?;
        let max_steps = self.opts.max_steps;
        while self.exit.is_none() {
            self.step()?;
            self.steps += 1;
            if self.steps > max_steps {
                return Err(VmError::StepLimit);
            }
        }
        self.profile.block_counts = self
            .code
            .iter()
            .map(|code| code.blocks.iter().map(|&(_, count)| count).collect())
            .collect();
        for &(_, b) in Builtin::ALL {
            let n = self.builtin_calls[b as usize];
            if n > 0 {
                self.profile.builtin_calls.insert(b, n);
            }
        }
        // Heap-graph snapshots: `begin` was recorded at the first
        // allocation (or now, for a program that never allocated), `end`
        // before the final sweep so floating garbage is still visible.
        if self.opts.snap.is_enabled() {
            let roots = self.roots(None);
            if !self.begin_snapped {
                self.begin_snapped = true;
                self.opts.snap.record("begin", || {
                    self.heap.snapshot(&self.mem, &roots, ROOT_LABELS)
                });
            }
            self.opts
                .snap
                .record("end", || self.heap.snapshot(&self.mem, &roots, ROOT_LABELS));
        }
        if self.opts.snapshot_oracle {
            self.check_snapshot_oracle()?;
        }
        // End-of-run stats barrier: retire outstanding lazy-sweep debt so
        // the final HeapStats and census report no pending queue work.
        self.heap.sweep_all();
        // The end-of-run census: live objects/bytes per size class,
        // fragmentation, blacklist pressure. The walk only happens when
        // profiling is enabled.
        self.opts.prof.record_census(|| self.heap.census());
        let outcome = ExecOutcome {
            output: self.output,
            exit_code: self.exit.unwrap_or(0),
            profile: self.profile,
            heap: self.heap.stats(),
            steps: self.steps,
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
                .field("pages_swept_lazily", outcome.heap.pages_swept_lazily)
                .field("total_pause_ns", outcome.heap.total_pause_ns)
        });
        Ok(outcome)
    }

    fn operand(&self, o: Operand) -> i64 {
        match o {
            Operand::Const(c) => c,
            Operand::Temp(t) => self.regs[self.base + t.0 as usize],
        }
    }

    fn set_temp(&mut self, t: Temp, v: i64) {
        self.regs[self.base + t.0 as usize] = v;
    }

    fn goto(&mut self, target: BlockId) {
        let (start, count) = &mut self.code[self.func].blocks[target.0 as usize];
        *count += 1;
        self.pc = *start;
    }

    fn check_heap_access(&self, addr: u64) -> Result<(), VmError> {
        if self.opts.trap_uaf && self.mem.in_heap(addr) && !self.heap.is_allocated(addr) {
            return Err(VmError::UseAfterFree {
                func: self.cur_func_name(),
                addr,
            });
        }
        Ok(())
    }

    fn frame_addr(&self, offset: u32) -> u64 {
        self.sp + offset as u64
    }

    /// The error for reaching the slot after an unterminated block.
    fn fell_off(&self) -> VmError {
        let block = self.code[self.func]
            .blocks
            .partition_point(|&(start, _)| start <= self.pc)
            - 1;
        VmError::Malformed(format!(
            "fell off block bb{block} in '{}'",
            self.prog.funcs[self.func].name
        ))
    }

    fn step(&mut self) -> Result<(), VmError> {
        let Some(instr) = self.code[self.func].slots[self.pc] else {
            return Err(self.fell_off());
        };
        match *instr {
            Instr::Const { dst, value } => {
                self.set_temp(dst, value);
                self.pc += 1;
            }
            Instr::Mov { dst, src } => {
                let v = self.operand(src);
                self.set_temp(dst, v);
                self.pc += 1;
            }
            Instr::Bin { dst, op, a, b } => {
                let va = self.operand(a);
                let vb = self.operand(b);
                self.set_temp(dst, op.eval(va, vb));
                self.pc += 1;
            }
            Instr::Load {
                dst,
                addr,
                width,
                signed,
            } => {
                let a = self.operand(addr) as u64;
                self.check_heap_access(a)?;
                let raw = self.mem.read(a, width as u32)?;
                let v = extend(raw, width, signed);
                self.set_temp(dst, v);
                self.pc += 1;
            }
            Instr::Store { addr, value, width } => {
                let a = self.operand(addr) as u64;
                self.check_heap_access(a)?;
                let v = self.operand(value) as u64;
                if self.opts.check_base_stores && width == 8 {
                    self.check_base_store(a, v)?;
                }
                self.mem.write(a, width as u32, v)?;
                if self.heap.barrier_active() {
                    if width == 8 {
                        self.heap.write_barrier(a, v);
                    } else {
                        // A narrow store can still turn the containing
                        // word into something the conservative scan reads
                        // as a pointer — re-scan the touched bytes.
                        self.heap.write_barrier_range(&self.mem, a, width as u64);
                    }
                }
                self.pc += 1;
            }
            Instr::FrameAddr { dst, offset } => {
                let a = self.frame_addr(offset) as i64;
                self.set_temp(dst, a);
                self.pc += 1;
            }
            Instr::MemCopy {
                dst_addr,
                src_addr,
                len,
            } => {
                let d = self.operand(dst_addr) as u64;
                let s = self.operand(src_addr) as u64;
                self.check_heap_access(d)?;
                self.check_heap_access(s)?;
                self.mem.copy(d, s, len as usize)?;
                if self.heap.barrier_active() {
                    self.heap.write_barrier_range(&self.mem, d, len);
                }
                self.pc += 1;
            }
            Instr::KeepLive { dst, value, .. } => {
                // Semantically the identity; its force is entirely static.
                let v = self.operand(value);
                self.set_temp(dst, v);
                self.pc += 1;
            }
            Instr::CheckSame { dst, value, base } => {
                let v = self.operand(value) as u64;
                let b = self.operand(base) as u64;
                self.exec_same_obj_check(v, b)?;
                self.set_temp(dst, v as i64);
                self.pc += 1;
            }
            Instr::Ret { value } => {
                let v = value.map(|o| self.operand(o));
                self.ret(v)?;
            }
            Instr::Jump { target } => self.goto(target),
            Instr::Branch {
                cond,
                if_true,
                if_false,
            } => {
                let c = self.operand(cond);
                self.goto(if c != 0 { if_true } else { if_false });
            }
            Instr::Call {
                dst,
                target,
                ref args,
                site,
            } => {
                // Suspend the active frame at this call: the roots of a
                // collection inside the callee are read at `pc`.
                self.frames.last_mut().expect("active frame").pc = self.pc;
                match target {
                    CallTarget::Func(idx) => self.call(idx, args, dst)?,
                    CallTarget::Builtin(b) => {
                        // No builtin takes more than three arguments, and
                        // the front end checks every call's arity.
                        let mut argv = [0; 3];
                        let argv = &mut argv[..args.len()];
                        for (v, a) in argv.iter_mut().zip(args) {
                            *v = self.operand(*a);
                        }
                        let ret = self.builtin(b, argv, site)?;
                        if self.exit.is_some() {
                            return Ok(());
                        }
                        if let Some(d) = dst {
                            self.set_temp(d, ret);
                        }
                        self.pc += 1;
                    }
                    CallTarget::Indirect(o) => {
                        let v = self.operand(o);
                        let idx = v - FUNC_PTR_BASE;
                        if idx < 0 || idx as usize >= self.prog.funcs.len() {
                            return Err(VmError::Malformed(format!(
                                "indirect call through bad function pointer {v:#x}"
                            )));
                        }
                        self.call(idx as usize, args, dst)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The Extensions-section assertion: a pointer-sized store into the
    /// heap or statics must store an object base (or a non-heap value).
    fn check_base_store(&mut self, addr: u64, value: u64) -> Result<(), VmError> {
        use gcheap::Region;
        let collector_visible = matches!(
            self.mem.region_of(addr),
            Some(Region::Heap | Region::Globals)
        );
        if !collector_visible || !self.mem.in_heap(value) {
            return Ok(());
        }
        match self.heap.base(value) {
            Some(b) if b != value => Err(VmError::InteriorStored {
                func: self.cur_func_name(),
                value,
                base: b,
            }),
            _ => Ok(()),
        }
    }

    /// `GC_same_obj` semantics: heap pointers must share an object; pairs
    /// outside the collected heap are not checked (the paper restricts
    /// attention to heap pointers).
    fn exec_same_obj_check(&mut self, value: u64, base: u64) -> Result<(), VmError> {
        if !self.mem.in_heap(base) {
            return Ok(());
        }
        if self.heap.same_obj(value, base) {
            Ok(())
        } else {
            Err(VmError::CheckFailed {
                func: self.cur_func_name(),
                value,
                base,
            })
        }
    }

    /// The VM split into its [`RootView`] and the heap and memory a
    /// collection mutates.
    fn split(&mut self) -> (RootView<'_>, &mut GcHeap, &mut Memory) {
        let Vm {
            prog,
            code,
            mem,
            heap,
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

    /// The snapshot's shadow-liveness cross-check: run a full collection
    /// and retire all sweep debt, so the heap holds exactly what the
    /// marker proves live, then snapshot it with the same roots. Every
    /// surviving object must be reachable in the snapshot graph — the
    /// snapshot resolves pointer words with the marker's own rules, so
    /// any floating node here means the two walks disagree about
    /// liveness. (The other direction is structural: reachable nodes are
    /// snapshot nodes, and every snapshot node survived the collection.)
    fn check_snapshot_oracle(&mut self) -> Result<(), VmError> {
        let roots = self.roots(None);
        // Two collections on purpose: the first one may merely *finish*
        // an in-flight incremental cycle, whose snapshot-at-the-beginning
        // marks (taken against mid-run roots, plus allocate-black births)
        // legitimately keep mid-cycle garbage alive. The second runs
        // against the retired heap, so afterwards the heap holds exactly
        // what the marker proves live from the end-of-run roots.
        self.heap.collect(&mut self.mem, &roots);
        self.heap.collect(&mut self.mem, &roots);
        self.heap.sweep_all();
        let snap = self.heap.snapshot(&self.mem, &roots, ROOT_LABELS);
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
            self.opts.snap.record("begin", || {
                self.heap.snapshot(&self.mem, &roots, ROOT_LABELS)
            });
        }
        // Build the site key eagerly only when an attached trace or
        // profile will consume it — it both attributes the allocation to
        // its stack and labels any collection this request triggers. The
        // uninstrumented hot path pays one branch and builds no string.
        let label = self.heap.attribution_enabled().then(|| self.site_key(site));
        // The roots are built only if the allocation collects.
        let (view, heap, mem) = self.split();
        match heap.alloc_with_roots_sited(
            mem,
            size,
            Roots::Lazy(&mut || view.roots(held)),
            label.as_deref(),
        ) {
            Ok(addr) => {
                let prof = self.heap.prof().clone();
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
                let old_extent = self.heap.extent(old).map(|(_, s)| s).unwrap_or(0);
                // The caller may hold `old` nowhere else (`a = realloc(a,
                // n)` kills it), but the copy below still reads it: root
                // it for the allocation, as GC_realloc's own frame would.
                let new = self.allocate(new_size, site, Some(old))? as u64;
                let n = old_extent.min(new_size.max(0) as u64) as usize;
                self.mem.copy(new, old, n)?;
                // The new object is allocated black mid-cycle but never
                // scanned: the copied-in pointers must be greyed.
                if self.heap.barrier_active() {
                    self.heap.write_barrier_range(&self.mem, new, n as u64);
                }
                Ok(new as i64)
            }
            Builtin::Free => Ok(0), // the collector reclaims
            Builtin::Strlen => {
                let s = self.mem.read_cstr(args[0] as u64)?;
                self.profile.builtin_byte_work += s.len() as u64 + 1;
                Ok(s.len() as i64)
            }
            Builtin::Strcmp => {
                let a = self.mem.read_cstr(args[0] as u64)?;
                let b2 = self.mem.read_cstr(args[1] as u64)?;
                self.profile.builtin_byte_work += (a.len().min(b2.len()) + 1) as u64;
                Ok(cmp_bytes(&a, &b2))
            }
            Builtin::Strncmp => {
                let n = args[2].max(0) as usize;
                let a = self.mem.read_cstr(args[0] as u64)?;
                let b2 = self.mem.read_cstr(args[1] as u64)?;
                let a = &a[..a.len().min(n)];
                let b2 = &b2[..b2.len().min(n)];
                self.profile.builtin_byte_work += (a.len().min(b2.len()) + 1) as u64;
                Ok(cmp_bytes(a, b2))
            }
            Builtin::Strcpy => {
                let src = self.mem.read_cstr(args[1] as u64)?;
                let dst = args[0] as u64;
                self.check_heap_access(dst)?;
                for (i, byte) in src.iter().enumerate() {
                    self.mem.write(dst + i as u64, 1, *byte as u64)?;
                }
                self.mem.write(dst + src.len() as u64, 1, 0)?;
                if self.heap.barrier_active() {
                    self.heap
                        .write_barrier_range(&self.mem, dst, src.len() as u64 + 1);
                }
                self.profile.builtin_byte_work += src.len() as u64 + 1;
                Ok(args[0])
            }
            Builtin::Memcpy => {
                let n = args[2].max(0) as usize;
                self.mem.copy(args[0] as u64, args[1] as u64, n)?;
                if self.heap.barrier_active() {
                    self.heap
                        .write_barrier_range(&self.mem, args[0] as u64, n as u64);
                }
                self.profile.builtin_byte_work += n as u64;
                Ok(args[0])
            }
            Builtin::Memset => {
                let n = args[2].max(0) as usize;
                self.mem.fill(args[0] as u64, args[1] as u8, n)?;
                // No barrier: an 8-byte word of one repeated byte is 0 or
                // ≥ 0x0101…, never inside the heap range, and merely
                // overwriting pointers needs no Dijkstra barrier.
                self.profile.builtin_byte_work += n as u64;
                Ok(args[0])
            }
            Builtin::Memcmp => {
                let n = args[2].max(0) as usize;
                self.profile.builtin_byte_work += n as u64;
                let mut r = 0i64;
                for i in 0..n {
                    let x = self.mem.read(args[0] as u64 + i as u64, 1)? as i64;
                    let y = self.mem.read(args[1] as u64 + i as u64, 1)? as i64;
                    if x != y {
                        r = if x < y { -1 } else { 1 };
                        break;
                    }
                }
                Ok(r)
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
                let s = self.mem.read_cstr(args[0] as u64)?;
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
                self.heap.collect(&mut self.mem, &roots);
                Ok(0)
            }
            Builtin::GcHeapSize => Ok(self.heap.stats().bytes_live as i64),
            Builtin::GcBase => Ok(self.heap.base(args[0] as u64).unwrap_or(0) as i64),
            Builtin::GcSameObj => {
                let v = args[0] as u64;
                let base = args[1] as u64;
                self.exec_same_obj_check(v, base)?;
                Ok(args[0])
            }
            Builtin::KeepLiveFn => Ok(args[0]),
            Builtin::GcPreIncr | Builtin::GcPostIncr => {
                let pp = args[0] as u64;
                let delta = args[1];
                self.check_heap_access(pp)?;
                let old = self.mem.read(pp, 8)? as i64;
                let new = old.wrapping_add(delta);
                if self.mem.in_heap(old as u64) {
                    self.exec_same_obj_check(new as u64, old as u64)?;
                }
                self.mem.write(pp, 8, new as u64)?;
                if self.heap.barrier_active() {
                    self.heap.write_barrier(pp, new as u64);
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

    fn run(src: &str, input: &[u8]) -> ExecOutcome {
        let v = VmOptions {
            input: input.to_vec(),
            ..VmOptions::default()
        };
        compile_and_run(src, &CompileOptions::optimized(), &v).expect("runs")
    }

    fn run_err(src: &str) -> VmError {
        compile_and_run(src, &CompileOptions::optimized(), &VmOptions::default())
            .expect_err("must fail")
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
            ..VmOptions::default()
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
            ..VmOptions::default()
        };
        compile_and_run(src, &CompileOptions::optimized(), &v).expect("conforming program");
    }

    #[test]
    fn safe_mode_survives_the_bounded_pause_paranoid_collector() {
        // Pointer-churning list reversal: every `->next` store is a heap
        // pointer store, and with `gc_threshold: 1` under the bounded-pause
        // collector, marking is in flight at essentially every store. The
        // write barrier is what keeps the list intact; `trap_uaf` (on by
        // default) turns any lost node into a hard error.
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
            ..VmOptions::default()
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
            super::run(&prog, &VmOptions::default()).unwrap_err(),
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
        let n = with_budget(u64::MAX).expect("runs").steps;
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
}
