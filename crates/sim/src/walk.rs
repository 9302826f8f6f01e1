//! The one interpreter of a compiled [`CodeImage`].
//!
//! [`run`] owns everything about executing the image: registers and
//! frames, the call protocol, the fuel and depth limits, instruction
//! semantics, the lowering of each block's [`TermKind`] into taken and
//! fall-through control flow, and memory. What a simulator measures lives
//! in an [`Observer`], which sees the run as statically dispatched events
//! in execution order. The profiler and the detailed simulator are its two
//! observers.

use portopt_ir::interp::{ExecError, ExecLimits, Memory};
use portopt_ir::{BlockId, FuncId, Function, Inst, Module, Operand, VReg};
use portopt_passes::{BlockLayout, CodeImage, TermKind, INST_BYTES};

/// The events of a run, in the order they happen. Every hook defaults to
/// doing nothing.
pub(crate) trait Observer {
    /// A frame for `f` was pushed.
    fn enter_frame(&mut self, _f: &Function) {}
    /// The innermost frame returned to its caller, whose call writes `dst`
    /// (`None` for the entry frame).
    fn exit_frame(&mut self, _dst: Option<VReg>) {}
    /// Block `b` of `f`, with `body_len` instructions before its
    /// terminator, starts. `by_fall` when it was reached by falling
    /// through, so fetch rolled through its alignment padding.
    fn block(
        &mut self,
        _f: FuncId,
        _b: BlockId,
        _lay: &BlockLayout,
        _body_len: usize,
        _by_fall: bool,
    ) {
    }
    /// The body instruction at `pc` issues, before it executes.
    fn issue(&mut self, _pc: u32, _inst: &Inst) {}
    /// A load into `dst` read `addr`; `None` for a wild load, which reads 0
    /// and touches no modelled memory.
    fn load(&mut self, _addr: Option<i64>, _dst: VReg) {}
    /// A store wrote `addr`.
    fn store(&mut self, _addr: i64) {}
    /// A call in the block at `block_addr` transfers to its callee.
    fn call(&mut self, _block_addr: u32) {}
    /// The return at `pc` executes.
    fn ret(&mut self, _pc: u32, _val: Option<&Operand>) {}
    /// An emitted unconditional jump at `pc` executes.
    fn jump(&mut self, _pc: u32) {}
    /// The conditional branch ending block `b` of `f` executes at `pc`,
    /// reading `cond`. `taken` is the machine direction, after layout.
    fn cond_branch(&mut self, _f: FuncId, _b: BlockId, _pc: u32, _cond: VReg, _taken: bool) {}
}

/// Runs `img`, compiled from `module` (which supplies the global
/// initialisers), with `args`, reporting every event to `obs`. Returns the
/// entry function's result (0 when it returns nothing) and final memory.
///
/// Fuel is charged per block, as [`ExecLimits::fuel`] states.
pub(crate) fn run<O: Observer>(
    img: &CodeImage,
    module: &Module,
    args: &[i64],
    limits: ExecLimits,
    obs: &mut O,
) -> Result<(i64, Memory), ExecError> {
    let mut w = Walker {
        img,
        mem: Memory::for_module(module),
        fuel: limits.fuel,
        max_depth: limits.max_depth,
        obs,
    };
    let ret = w.call(img.entry, args, Module::STACK_BASE as i64, 0)?;
    w.obs.exit_frame(None);
    Ok((ret.unwrap_or(0), w.mem))
}

struct Walker<'a, O> {
    img: &'a CodeImage,
    mem: Memory,
    fuel: u64,
    max_depth: usize,
    obs: &'a mut O,
}

impl<O: Observer> Walker<'_, O> {
    fn call(
        &mut self,
        fid: FuncId,
        args: &[i64],
        sp: i64,
        depth: usize,
    ) -> Result<Option<i64>, ExecError> {
        if depth >= self.max_depth {
            return Err(ExecError::StackOverflow);
        }
        let img = self.img;
        let mf = &img.funcs[fid.index()];
        let f = &mf.func;
        let fp = sp - (f.frame_slots as i64) * 4;
        if fp < Module::DATA_BASE as i64 {
            return Err(ExecError::StackOverflow);
        }
        let mut regs = vec![0i64; f.vreg_count as usize];
        for (p, v) in f.params.iter().zip(args) {
            regs[p.index()] = *v;
        }
        self.obs.enter_frame(f);
        let val = |o: &Operand, regs: &[i64]| -> i64 {
            match o {
                Operand::Reg(r) => regs[r.index()],
                Operand::Imm(v) => *v,
            }
        };

        let mut bi = f.entry();
        let mut by_fall = false;
        loop {
            let lay = &mf.layout[bi.index()];
            let block = &f.blocks[bi.index()];
            let body = block.body();
            let body_len = body.len() as u64;
            if self.fuel < body_len + 2 {
                return Err(ExecError::FuelExhausted);
            }
            self.fuel -= body_len + 1;
            self.obs.block(fid, bi, lay, body.len(), by_fall);

            let mut pc = lay.addr;
            for inst in body {
                self.obs.issue(pc, inst);
                pc += INST_BYTES;
                match inst {
                    Inst::Bin { op, dst, a, b } => {
                        regs[dst.index()] = op.eval(val(a, &regs), val(b, &regs));
                    }
                    Inst::Cmp { pred, dst, a, b } => {
                        regs[dst.index()] = pred.eval(val(a, &regs), val(b, &regs));
                    }
                    Inst::Copy { dst, src } => regs[dst.index()] = val(src, &regs),
                    Inst::Load { dst, addr, offset } => {
                        regs[dst.index()] =
                            self.load(regs[addr.index()].wrapping_add(*offset), *dst);
                    }
                    Inst::Store { src, addr, offset } => {
                        self.store(regs[addr.index()].wrapping_add(*offset), val(src, &regs))?;
                    }
                    Inst::FrameLoad { dst, slot } => {
                        regs[dst.index()] = self.load(fp + (*slot as i64) * 4, *dst);
                    }
                    Inst::FrameStore { src, slot } => {
                        self.store(fp + (*slot as i64) * 4, val(src, &regs))?;
                    }
                    Inst::Call {
                        func,
                        args: cargs,
                        dst,
                    } => {
                        self.obs.call(lay.addr);
                        let argv: Vec<i64> = cargs.iter().map(|a| val(a, &regs)).collect();
                        let r = self.call(*func, &argv, fp, depth + 1)?;
                        self.obs.exit_frame(*dst);
                        if let Some(d) = dst {
                            regs[d.index()] = r.unwrap_or(0);
                        }
                    }
                    Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. } => {
                        unreachable!("terminator in body")
                    }
                }
            }

            // `pc` now addresses the lowered terminator.
            match block.insts.last() {
                Some(Inst::Ret { val: v }) => {
                    self.obs.ret(pc, v.as_ref());
                    return Ok(v.as_ref().map(|o| val(o, &regs)));
                }
                Some(Inst::Br { target }) => {
                    by_fall = lay.term == TermKind::Fall;
                    if !by_fall {
                        self.obs.jump(pc);
                    }
                    bi = *target;
                }
                Some(Inst::CondBr { cond, then_, else_ }) => {
                    let target = if regs[cond.index()] != 0 {
                        *then_
                    } else {
                        *else_
                    };
                    let taken = match lay.term {
                        TermKind::CondFall | TermKind::CondTwoJumps => target == *then_,
                        TermKind::CondFlip => target == *else_,
                        _ => unreachable!("condbr lowered to non-cond term"),
                    };
                    self.obs.cond_branch(fid, bi, pc, *cond, taken);
                    by_fall = !taken && lay.term != TermKind::CondTwoJumps;
                    if !taken && !by_fall {
                        // Fell past the conditional into the jump to `else_`.
                        self.obs.jump(pc + INST_BYTES);
                    }
                    bi = target;
                }
                _ => return Err(ExecError::FellThrough),
            }
        }
    }

    #[inline]
    fn load(&mut self, addr: i64, dst: VReg) -> i64 {
        let v = self.mem.try_load(addr);
        self.obs.load(v.is_some().then_some(addr), dst);
        v.unwrap_or(0)
    }

    #[inline]
    fn store(&mut self, addr: i64, v: i64) -> Result<(), ExecError> {
        self.mem.store(addr, v)?;
        self.obs.store(addr);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{profile, simulate};
    use portopt_ir::interp::{ExecError, ExecLimits};
    use portopt_ir::{FuncBuilder, ModuleBuilder};
    use portopt_passes::{compile, OptConfig};
    use portopt_uarch::MicroArch;

    /// Both simulators charge fuel by the one per-block rule, so the
    /// smallest budget a run fits in is the same for both.
    #[test]
    fn profile_and_simulate_run_out_of_fuel_at_the_same_budget() {
        let mut mb = ModuleBuilder::new("count");
        let mut b = FuncBuilder::new("main", 0);
        let acc = b.iconst(0);
        b.counted_loop(0, 10, 1, |b, i| {
            let t = b.add(acc, i);
            b.assign(acc, t);
        });
        b.ret(acc);
        let id = mb.add(b.finish());
        mb.entry(id);
        let m = mb.finish();
        let img = compile(&m, &OptConfig::o0());
        let limits = |fuel| ExecLimits {
            fuel,
            max_depth: 16,
        };
        let prof = |fuel| profile(&img, &m, &[], limits(fuel)).map(|p| p.ret);
        let sim = |fuel| simulate(&img, &m, &MicroArch::xscale(), &[], limits(fuel)).map(|d| d.ret);

        // The profiler's smallest budget, by bisection: `lo` fails, `hi` runs.
        let (mut lo, mut hi) = (0u64, 10_000u64);
        assert_eq!(prof(hi), Ok(45));
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if prof(mid).is_ok() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        assert_eq!(sim(hi), Ok(45), "simulate needs more fuel than profile");
        assert_eq!(prof(hi - 1), Err(ExecError::FuelExhausted));
        assert_eq!(sim(hi - 1), Err(ExecError::FuelExhausted));
    }
}
