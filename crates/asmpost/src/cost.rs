//! Cycle and code-size accounting.
//!
//! Running time of a build = Σ over basic blocks of
//! (VM execution count × static block cost under the machine model),
//! plus the runtime-library work (builtins) observed by the VM. Code size
//! counts only the program's own functions — the paper's size table
//! "include\[s\] only the code that was actually processed, not the standard
//! libraries".

pub use cvm::machine::Machine;

use crate::asm::AsmFunc;
use cvm::vm::Profile;

/// Cost summary of one build on one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostReport {
    /// Estimated cycles of the measured run.
    pub cycles: u64,
    /// Static code size in bytes (processed code only).
    pub size_bytes: u64,
}

impl CostReport {
    /// Percentage slowdown of `self` relative to `baseline` (rounded).
    pub fn slowdown_pct(&self, baseline: &CostReport) -> i64 {
        pct(self.cycles, baseline.cycles)
    }

    /// Percentage code-size expansion relative to `baseline`.
    pub fn expansion_pct(&self, baseline: &CostReport) -> i64 {
        pct(self.size_bytes, baseline.size_bytes)
    }
}

fn pct(ours: u64, base: u64) -> i64 {
    if base == 0 {
        return 0;
    }
    ((ours as i128 * 100 / base as i128) - 100) as i64
}

/// Computes the cost report for an assembled program under `machine`,
/// weighting each block by its VM execution count.
pub fn measure(funcs: &[AsmFunc], profile: &Profile, machine: &Machine) -> CostReport {
    let mut cycles: u64 = 0;
    let mut size: u64 = 0;
    for (fi, f) in funcs.iter().enumerate() {
        size += f.size_bytes();
        let counts = profile
            .block_counts
            .get(fi)
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        for (bi, b) in f.blocks.iter().enumerate() {
            let n = counts.get(bi).copied().unwrap_or(0);
            cycles += n * b.cost(machine);
        }
    }
    // Runtime library work (identical across modes except for the extra
    // checking entry points, which carry their own counts).
    for (&b, &n) in &profile.builtin_calls {
        cycles += n * machine.builtin_call_cost(b);
    }
    cycles += profile.builtin_byte_work * machine.byte_work_cost_milli / 1000;
    CostReport {
        cycles,
        size_bytes: size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{AsmBlock, AsmInstr, Reg, RegImm};

    #[test]
    fn percentage_math() {
        let base = CostReport {
            cycles: 100,
            size_bytes: 1000,
        };
        let ours = CostReport {
            cycles: 109,
            size_bytes: 1190,
        };
        assert_eq!(ours.slowdown_pct(&base), 9);
        assert_eq!(ours.expansion_pct(&base), 19);
        assert_eq!(base.slowdown_pct(&base), 0);
    }

    #[test]
    fn measure_weights_blocks_by_profile() {
        let m = Machine::sparc10();
        let f = AsmFunc {
            name: "f".into(),
            blocks: vec![
                AsmBlock {
                    instrs: vec![AsmInstr::Mov {
                        rd: Reg(0),
                        src: RegImm::Imm(1),
                    }],
                },
                AsmBlock {
                    instrs: vec![AsmInstr::Ld {
                        rd: Reg(0),
                        base: Reg(1),
                        off: RegImm::Imm(0),
                        width: 8,
                        signed: false,
                    }],
                },
            ],
            spill_count: 0,
        };
        let profile = Profile {
            block_counts: vec![vec![1, 10]],
            ..Profile::default()
        };
        let r = measure(&[f], &profile, &m);
        assert_eq!(r.cycles, m.alu_cost + 10 * m.load_cost);
        assert_eq!(r.size_bytes, 8);
    }
}
