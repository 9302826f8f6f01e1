//! IR well-formedness verification.
//!
//! The verifier is run after every pass in debug builds and in tests, so a
//! broken transformation fails fast with a precise diagnostic instead of
//! producing garbage timing numbers three crates later.

use crate::cfg::reachable;
use crate::function::{Function, Module};
use crate::inst::Inst;
use crate::types::{BlockId, FuncId};
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the error was found.
    pub func: String,
    /// Offending block, when applicable.
    pub block: Option<BlockId>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.block {
            Some(b) => write!(f, "verify: {} {}: {}", self.func, b, self.message),
            None => write!(f, "verify: {}: {}", self.func, self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

fn err(func: &str, block: Option<BlockId>, message: String) -> VerifyError {
    VerifyError {
        func: func.to_string(),
        block,
        message,
    }
}

/// Verifies a single function against `module` (for call signatures).
///
/// Checked properties:
/// * every block ends with exactly one terminator, and terminators appear
///   nowhere else;
/// * branch targets are in range;
/// * every used register index, parameters included, is `< vreg_count`;
/// * call targets exist and argument counts match the callee;
/// * the entry block exists.
///
/// # Errors
/// Returns the first violation found.
pub fn verify_function(f: &Function, module: &Module) -> Result<(), VerifyError> {
    if f.blocks.is_empty() {
        return Err(err(&f.name, None, "function has no blocks".into()));
    }
    if let Some(p) = f.params.iter().find(|p| p.0 >= f.vreg_count) {
        return Err(err(
            &f.name,
            None,
            format!("parameter {p} out of range (vreg_count {})", f.vreg_count),
        ));
    }
    let nblocks = f.blocks.len() as u32;
    for (bi, block) in f.iter_blocks() {
        if block.insts.is_empty() {
            return Err(err(&f.name, Some(bi), "empty block".into()));
        }
        for (k, inst) in block.insts.iter().enumerate() {
            let last = k + 1 == block.insts.len();
            if inst.is_terminator() != last {
                return Err(err(
                    &f.name,
                    Some(bi),
                    format!("instruction {k} ({inst}) terminator misplacement"),
                ));
            }
            // Register indices in range.
            let mut bad: Option<u32> = None;
            inst.for_each_use(|r| {
                if r.0 >= f.vreg_count {
                    bad = Some(r.0);
                }
            });
            if let Some(d) = inst.def() {
                if d.0 >= f.vreg_count {
                    bad = Some(d.0);
                }
            }
            if let Some(r) = bad {
                return Err(err(
                    &f.name,
                    Some(bi),
                    format!("register v{r} out of range (vreg_count {})", f.vreg_count),
                ));
            }
            match inst {
                Inst::Br { target } => {
                    if target.0 >= nblocks {
                        return Err(err(
                            &f.name,
                            Some(bi),
                            format!("branch to missing {target}"),
                        ));
                    }
                }
                Inst::CondBr { then_, else_, .. } => {
                    for t in [then_, else_] {
                        if t.0 >= nblocks {
                            return Err(err(&f.name, Some(bi), format!("branch to missing {t}")));
                        }
                    }
                }
                Inst::Call { func, args, .. } => {
                    let Some(callee) = module.funcs.get(func.index()) else {
                        return Err(err(&f.name, Some(bi), format!("call to missing {func}")));
                    };
                    if callee.params.len() != args.len() {
                        return Err(err(
                            &f.name,
                            Some(bi),
                            format!(
                                "call to {} with {} args, expected {}",
                                callee.name,
                                args.len(),
                                callee.params.len()
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// Verifies every function in `m`, plus module-level invariants: a valid
/// entry id, unique function names, no global initialiser longer than its
/// global, and globals laid out below [`Module::STACK_BASE`].
///
/// # Errors
/// Returns the first violation found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    if m.funcs.get(m.entry.index()).is_none() {
        return Err(err(&m.name, None, format!("missing entry {}", m.entry)));
    }
    // The layout rule of `Module::global_addrs`, in u64: it sums in u32,
    // which a hostile `words` would overflow.
    let mut base = u64::from(Module::DATA_BASE);
    for g in &m.globals {
        if g.init.len() as u64 > u64::from(g.words) {
            return Err(err(
                &m.name,
                None,
                format!(
                    "global {} has {} initialisers for {} words",
                    g.name,
                    g.init.len(),
                    g.words
                ),
            ));
        }
        let end = base + u64::from(g.words) * 4;
        if end > u64::from(Module::STACK_BASE) {
            return Err(err(
                &m.name,
                None,
                format!(
                    "global {} ends at {end:#x}, past the stack base {:#x}",
                    g.name,
                    Module::STACK_BASE
                ),
            ));
        }
        base = (end + 63) & !63;
    }
    let mut names: Vec<&str> = m.funcs.iter().map(|f| f.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() != m.funcs.len() {
        return Err(err(&m.name, None, "duplicate function names".into()));
    }
    for f in &m.funcs {
        verify_function(f, m)?;
    }
    Ok(())
}

/// Statistics about a module, used in tests and experiment logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleStats {
    /// Total functions.
    pub funcs: usize,
    /// Total basic blocks.
    pub blocks: usize,
    /// Total instructions.
    pub insts: usize,
    /// Blocks unreachable from their function's entry.
    pub unreachable_blocks: usize,
}

/// Computes simple size statistics for `m`.
pub fn module_stats(m: &Module) -> ModuleStats {
    let mut blocks = 0;
    let mut insts = 0;
    let mut unreachable_blocks = 0;
    for f in &m.funcs {
        blocks += f.blocks.len();
        insts += f.inst_count();
        let r = reachable(f);
        unreachable_blocks += r.iter().filter(|&&x| !x).count();
    }
    ModuleStats {
        funcs: m.funcs.len(),
        blocks,
        insts,
        unreachable_blocks,
    }
}

/// Checks whether `f` references `target` in any call.
pub fn calls(f: &Function, target: FuncId) -> bool {
    f.blocks.iter().any(|b| {
        b.insts
            .iter()
            .any(|i| matches!(i, Inst::Call { func, .. } if *func == target))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FuncBuilder, ModuleBuilder};
    use crate::types::{Operand, VReg};

    fn ok_module() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let mut b = FuncBuilder::new("main", 0);
        let x = b.iconst(42);
        b.ret(x);
        let id = mb.add(b.finish());
        mb.entry(id);
        mb.finish()
    }

    #[test]
    fn accepts_valid_module() {
        verify_module(&ok_module()).unwrap();
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut m = ok_module();
        m.funcs[0].blocks[0].insts.pop(); // drop the ret
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("terminator"), "{e}");
    }

    #[test]
    fn rejects_mid_block_terminator() {
        let mut m = ok_module();
        m.funcs[0].blocks[0]
            .insts
            .insert(0, Inst::Ret { val: None });
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut m = ok_module();
        m.funcs[0].blocks[0].insts[0] = Inst::Copy {
            dst: VReg(1000),
            src: Operand::Imm(0),
        };
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
    }

    #[test]
    fn rejects_branch_to_missing_block() {
        let mut m = ok_module();
        m.funcs[0].blocks[0].insts[1] = Inst::Br {
            target: BlockId(99),
        };
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut mb = ModuleBuilder::new("t");
        let callee = {
            let mut b = FuncBuilder::new("callee", 2);
            let s = b.add(b.param(0), b.param(1));
            b.ret(s);
            mb.add(b.finish())
        };
        let mut b = FuncBuilder::new("main", 0);
        let r = b.call(callee, &[Operand::Imm(1)]); // one arg, needs two
        b.ret(r);
        let id = mb.add(b.finish());
        mb.entry(id);
        let m = mb.finish();
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("expected 2"), "{e}");
    }

    #[test]
    fn rejects_parameter_out_of_range() {
        let mut m = ok_module();
        let n = m.funcs[0].vreg_count;
        m.funcs[0].params.push(VReg(n));
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("parameter"), "{e}");
    }

    #[test]
    fn rejects_initialiser_longer_than_its_global() {
        let mut m = ok_module();
        let g = m.add_global("buf", 2);
        m.globals[g].init = vec![1, 2, 3];
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("3 initialisers for 2 words"), "{e}");
    }

    #[test]
    fn rejects_globals_past_the_stack_base() {
        // `a` and `b` end exactly at the stack base; `c` crosses it.
        let half = (Module::STACK_BASE - Module::DATA_BASE) / 8;
        let mut m = ok_module();
        m.add_global("a", half);
        m.add_global("b", half);
        verify_module(&m).unwrap();
        m.add_global("c", half);
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("global c"), "{e}");
        // A size whose byte count overflows u32.
        let mut m = ok_module();
        m.add_global("huge", u32::MAX);
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("past the stack base"), "{e}");
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut m = ok_module();
        let f = m.funcs[0].clone();
        m.funcs.push(f);
        let e = verify_module(&m).unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn stats_counts() {
        let m = ok_module();
        let s = module_stats(&m);
        assert_eq!(s.funcs, 1);
        assert_eq!(s.blocks, 1);
        assert_eq!(s.insts, 2);
        assert_eq!(s.unreachable_blocks, 0);
    }
}
