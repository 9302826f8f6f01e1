//! A reference interpreter for differential testing of compiler passes.
//!
//! This interpreter cares only about *semantics* — it models no caches, no
//! pipeline and collects no profiles (that is `portopt-sim`'s job). Passes
//! are validated by running a module before and after transformation and
//! comparing [`ExecResult`]s.

use crate::function::Module;
use crate::inst::Inst;
use crate::types::{FuncId, Operand};
use std::fmt;

/// Why execution stopped abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The dynamic instruction budget was exhausted (runaway loop).
    FuelExhausted,
    /// Call depth exceeded the interpreter's stack limit.
    StackOverflow,
    /// A memory access fell outside the modelled address space.
    BadAddress {
        /// The offending byte address.
        addr: i64,
    },
    /// A block ended without a terminator (malformed IR).
    FellThrough,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::FuelExhausted => write!(f, "instruction budget exhausted"),
            ExecError::StackOverflow => write!(f, "call stack overflow"),
            ExecError::BadAddress { addr } => write!(f, "bad memory address {addr:#x}"),
            ExecError::FellThrough => write!(f, "block without terminator"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The observable outcome of a program run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecResult {
    /// Value returned by the entry function (0 if it returned nothing).
    pub ret: i64,
    /// FNV-1a hash over the final contents of every global.
    pub mem_hash: u64,
    /// Dynamic instruction count.
    pub dyn_insts: u64,
}

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecLimits {
    /// Maximum dynamic instructions before [`ExecError::FuelExhausted`].
    ///
    /// The reference interpreter charges one unit per executed
    /// instruction. Runs of a compiled `CodeImage` (the profiler and the
    /// detailed simulator) charge per block instead: a block with `body`
    /// instructions before its terminator is refused when fewer than
    /// `body + 2` units remain, and otherwise costs `body + 1`.
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            fuel: 200_000_000,
            max_depth: 10_000,
        }
    }
}

/// Flat program memory: globals at [`Module::DATA_BASE`], stack growing down
/// from [`Module::STACK_BASE`].
#[derive(Debug, Clone)]
pub struct Memory {
    words: Vec<i64>,
}

impl Memory {
    /// Allocates memory and copies in every global's initialiser.
    pub fn for_module(m: &Module) -> Self {
        let mut words = vec![0i64; (Module::STACK_BASE / 4) as usize];
        let addrs = m.global_addrs();
        for (g, a) in m.globals.iter().zip(&addrs) {
            let base = (a.base / 4) as usize;
            words[base..base + g.init.len()].copy_from_slice(&g.init);
        }
        Memory { words }
    }

    /// Reads the word at byte address `addr`.
    ///
    /// Out-of-range loads return 0: loads are non-trapping in this IR
    /// (division is total too), which is what licenses the compiler's
    /// speculative load motion (`-fsched-spec`). Stores remain checked.
    #[inline]
    pub fn load(&self, addr: i64) -> Result<i64, ExecError> {
        Ok(self.try_load(addr).unwrap_or(0))
    }

    /// Reads the word at byte address `addr`, or `None` when `addr` lies
    /// outside memory (where [`load`](Self::load) reads 0).
    #[inline]
    pub fn try_load(&self, addr: i64) -> Option<i64> {
        let idx = addr >> 2;
        if addr < 0 || idx as usize >= self.words.len() {
            return None;
        }
        Some(self.words[idx as usize])
    }

    /// Writes the word at byte address `addr`.
    #[inline]
    pub fn store(&mut self, addr: i64, val: i64) -> Result<(), ExecError> {
        let idx = addr >> 2;
        if addr < 0 || idx as usize >= self.words.len() {
            return Err(ExecError::BadAddress { addr });
        }
        self.words[idx as usize] = val;
        Ok(())
    }

    /// FNV-1a hash of the words covered by the module's globals.
    pub fn hash_globals(&self, m: &Module) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for a in m.global_addrs() {
            let base = (a.base / 4) as usize;
            for w in &self.words[base..base + (a.bytes / 4) as usize] {
                for b in w.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1_0000_01b3);
                }
            }
        }
        h
    }

    /// Direct word access for test setup (index = byte address / 4).
    pub fn word_mut(&mut self, byte_addr: u32) -> &mut i64 {
        &mut self.words[(byte_addr / 4) as usize]
    }
}

/// Runs `m`'s entry function with `args`, on fresh memory, under default
/// limits.
///
/// # Errors
/// Propagates any [`ExecError`] raised during execution.
pub fn run_module(m: &Module, args: &[i64]) -> Result<ExecResult, ExecError> {
    run_module_with(m, args, ExecLimits::default())
}

/// [`run_module`] with explicit limits.
///
/// # Errors
/// Propagates any [`ExecError`] raised during execution.
pub fn run_module_with(
    m: &Module,
    args: &[i64],
    limits: ExecLimits,
) -> Result<ExecResult, ExecError> {
    let mut mem = Memory::for_module(m);
    let mut fuel = limits.fuel;
    let ret = call(
        m,
        m.entry,
        args,
        &mut mem,
        Module::STACK_BASE as i64,
        0,
        limits.max_depth,
        &mut fuel,
    )?;
    Ok(ExecResult {
        ret: ret.unwrap_or(0),
        mem_hash: mem.hash_globals(m),
        dyn_insts: limits.fuel - fuel,
    })
}

#[allow(clippy::too_many_arguments)]
fn call(
    m: &Module,
    fid: FuncId,
    args: &[i64],
    mem: &mut Memory,
    sp: i64,
    depth: usize,
    max_depth: usize,
    fuel: &mut u64,
) -> Result<Option<i64>, ExecError> {
    if depth >= max_depth {
        return Err(ExecError::StackOverflow);
    }
    let f = m.func(fid);
    let frame_bytes = (f.frame_slots as i64) * 4;
    let fp = sp - frame_bytes;
    if fp < Module::DATA_BASE as i64 {
        return Err(ExecError::StackOverflow);
    }
    let mut regs = vec![0i64; f.vreg_count as usize];
    for (p, v) in f.params.iter().zip(args) {
        regs[p.index()] = *v;
    }

    let mut bi = f.entry();
    loop {
        let block = f.block(bi);
        let mut next = None;
        for inst in &block.insts {
            if *fuel == 0 {
                return Err(ExecError::FuelExhausted);
            }
            *fuel -= 1;
            let val = |o: &Operand, regs: &[i64]| -> i64 {
                match o {
                    Operand::Reg(r) => regs[r.index()],
                    Operand::Imm(v) => *v,
                }
            };
            match inst {
                Inst::Bin { op, dst, a, b } => {
                    regs[dst.index()] = op.eval(val(a, &regs), val(b, &regs));
                }
                Inst::Cmp { pred, dst, a, b } => {
                    regs[dst.index()] = pred.eval(val(a, &regs), val(b, &regs));
                }
                Inst::Copy { dst, src } => {
                    regs[dst.index()] = val(src, &regs);
                }
                Inst::Load { dst, addr, offset } => {
                    regs[dst.index()] = mem.load(regs[addr.index()].wrapping_add(*offset))?;
                }
                Inst::Store { src, addr, offset } => {
                    let v = val(src, &regs);
                    mem.store(regs[addr.index()].wrapping_add(*offset), v)?;
                }
                Inst::FrameLoad { dst, slot } => {
                    regs[dst.index()] = mem.load(fp + (*slot as i64) * 4)?;
                }
                Inst::FrameStore { src, slot } => {
                    let v = val(src, &regs);
                    mem.store(fp + (*slot as i64) * 4, v)?;
                }
                Inst::Call {
                    func,
                    args: cargs,
                    dst,
                } => {
                    let argv: Vec<i64> = cargs.iter().map(|a| val(a, &regs)).collect();
                    let r = call(m, *func, &argv, mem, fp, depth + 1, max_depth, fuel)?;
                    if let Some(d) = dst {
                        regs[d.index()] = r.unwrap_or(0);
                    }
                }
                Inst::Br { target } => {
                    next = Some(*target);
                    break;
                }
                Inst::CondBr { cond, then_, else_ } => {
                    next = Some(if regs[cond.index()] != 0 {
                        *then_
                    } else {
                        *else_
                    });
                    break;
                }
                Inst::Ret { val: v } => {
                    return Ok(v.as_ref().map(|o| val(o, &regs)));
                }
            }
        }
        match next {
            Some(b) => bi = b,
            None => return Err(ExecError::FellThrough),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FuncBuilder, ModuleBuilder};
    use crate::types::Pred;

    fn sum_module(n: i64) -> Module {
        let mut mb = ModuleBuilder::new("sum");
        let mut b = FuncBuilder::new("main", 0);
        let acc = b.iconst(0);
        b.counted_loop(0, n, 1, |b, i| {
            let t = b.add(acc, i);
            b.assign(acc, t);
        });
        b.ret(acc);
        let id = mb.add(b.finish());
        mb.entry(id);
        mb.finish()
    }

    #[test]
    fn sums_correctly() {
        let r = run_module(&sum_module(10), &[]).unwrap();
        assert_eq!(r.ret, 45);
        assert!(r.dyn_insts > 30);
    }

    #[test]
    fn empty_range_runs_zero_iterations() {
        let r = run_module(&sum_module(0), &[]).unwrap();
        assert_eq!(r.ret, 0);
    }

    #[test]
    fn memory_and_hash() {
        let mut mb = ModuleBuilder::new("mem");
        let (_, base) = mb.global("buf", 8);
        let mut b = FuncBuilder::new("main", 0);
        let p = b.iconst(base as i64);
        b.counted_loop(0, 8, 1, |b, i| {
            let off = b.shl(i, 2);
            let addr = b.add(p, off);
            let v = b.mul(i, i);
            b.store(v, addr, 0);
        });
        let x = b.load(p, 28); // buf[7] == 49
        b.ret(x);
        let id = mb.add(b.finish());
        mb.entry(id);
        let m = mb.finish();
        let r1 = run_module(&m, &[]).unwrap();
        assert_eq!(r1.ret, 49);
        let r2 = run_module(&m, &[]).unwrap();
        assert_eq!(r1.mem_hash, r2.mem_hash, "determinism");
    }

    #[test]
    fn recursion_with_frames() {
        let mut mb = ModuleBuilder::new("fib");
        let fid = mb.declare("fib", 1);
        let mut b = FuncBuilder::new("fib", 1);
        let n = b.param(0);
        let c = b.cmp(Pred::Lt, n, 2);
        let out = b.fresh();
        b.if_else(
            c,
            |b| b.assign(out, n),
            |b| {
                let n1 = b.sub(n, 1);
                let a = b.call(fid, &[n1.into()]);
                let n2 = b.sub(n, 2);
                let c2 = b.call(fid, &[n2.into()]);
                let s = b.add(a, c2);
                b.assign(out, s);
            },
        );
        b.ret(out);
        mb.define(fid, b.finish());
        mb.entry(fid);
        let m = mb.finish();
        assert_eq!(run_module(&m, &[10]).unwrap().ret, 55);
    }

    #[test]
    fn frame_slots_store_and_reload() {
        let mut mb = ModuleBuilder::new("frame");
        let mut f = FuncBuilder::new("main", 0);
        let x = f.iconst(7);
        f.push(Inst::FrameStore {
            src: Operand::Reg(x),
            slot: 2,
        });
        let y = f.fresh();
        f.push(Inst::FrameLoad { dst: y, slot: 2 });
        f.ret(y);
        let mut func = f.finish();
        func.frame_slots = 4;
        let id = mb.add(func);
        mb.entry(id);
        let m = mb.finish();
        assert_eq!(run_module(&m, &[]).unwrap().ret, 7);
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let mut mb = ModuleBuilder::new("inf");
        let mut b = FuncBuilder::new("main", 0);
        let l = b.block();
        b.br(l);
        b.switch_to(l);
        b.br(l);
        let id = mb.add(b.finish());
        mb.entry(id);
        let m = mb.finish();
        let e = run_module_with(
            &m,
            &[],
            ExecLimits {
                fuel: 1000,
                max_depth: 10,
            },
        )
        .unwrap_err();
        assert_eq!(e, ExecError::FuelExhausted);
    }

    #[test]
    fn stack_overflow_detected() {
        let mut mb = ModuleBuilder::new("rec");
        let fid = mb.declare("r", 1);
        let mut b = FuncBuilder::new("r", 1);
        let n = b.param(0);
        let r = b.call(fid, &[n.into()]);
        b.ret(r);
        mb.define(fid, b.finish());
        mb.entry(fid);
        let m = mb.finish();
        let e = run_module_with(
            &m,
            &[1],
            ExecLimits {
                fuel: 1_000_000,
                max_depth: 64,
            },
        )
        .unwrap_err();
        assert_eq!(e, ExecError::StackOverflow);
    }

    #[test]
    fn wild_load_reads_zero_wild_store_faults() {
        // Loads are non-trapping (they return 0 out of range) so that
        // speculative load motion is semantics-preserving; stores fault.
        let mut mb = ModuleBuilder::new("bad");
        let mut b = FuncBuilder::new("main", 0);
        let p = b.iconst(-8);
        let v = b.load(p, 0);
        b.ret(v);
        let id = mb.add(b.finish());
        mb.entry(id);
        let m = mb.finish();
        assert_eq!(run_module(&m, &[]).unwrap().ret, 0);

        let mut mb = ModuleBuilder::new("bad2");
        let mut b = FuncBuilder::new("main", 0);
        let p = b.iconst(-8);
        b.store(1, p, 0);
        b.ret_void();
        let id = mb.add(b.finish());
        mb.entry(id);
        let m = mb.finish();
        assert!(matches!(
            run_module(&m, &[]).unwrap_err(),
            ExecError::BadAddress { .. }
        ));
    }
}
