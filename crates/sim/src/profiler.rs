//! The profiling functional simulator.
//!
//! Executes a compiled [`CodeImage`] once, collecting the
//! microarchitecture-independent [`ExecProfile`]: block execution counts,
//! branch statistics, and exact LRU reuse-distance histograms for the
//! instruction stream, the data stream (at every candidate block size) and
//! the branch-PC stream. This is the `portopt` equivalent of running the
//! program once on real hardware and reading the counters afterwards.

use crate::flatsd::FlatStackDistance;
use crate::profile::{ExecProfile, OpCounts, BLOCK_SIZES};
use crate::walk::{self, Observer};
use portopt_ir::interp::{ExecError, ExecLimits};
use portopt_ir::{BlockId, FuncId, Inst, Module, Operand, VReg};
use portopt_passes::{BlockLayout, CodeImage};
use portopt_uarch::{BranchStats, ReuseHistogram};

/// Runs `img` (produced from `module`) and collects its profile.
///
/// `module` supplies global initialisers; `args` are passed to the entry
/// function.
///
/// # Errors
/// Returns the interpreter's [`ExecError`] on runaway execution, stack
/// overflow or wild addresses.
pub fn profile(
    img: &CodeImage,
    module: &Module,
    args: &[i64],
    limits: ExecLimits,
) -> Result<ExecProfile, ExecError> {
    let mut p = Profiler::new(img);
    let (ret, mem) = walk::run(img, module, args, limits, &mut p)?;
    let mut prof = p.prof;
    for (mf, counts) in img.funcs.iter().zip(&prof.block_counts) {
        for (block, &n) in mf.func.blocks.iter().zip(counts) {
            if n > 0 {
                for inst in block.body() {
                    count_body_op(&mut prof.ops, inst, n);
                }
            }
        }
    }
    prof.ret = ret;
    prof.mem_hash = mem.hash_globals(module);
    Ok(prof)
}

/// Adds `n` executions of the body instruction `inst` to `ops`.
///
/// A block's body runs whole every time the block starts, so the profile
/// counts body operations once, after the run, from the block counts.
/// Terminators are counted as they execute: what they cost depends on the
/// path taken.
fn count_body_op(ops: &mut OpCounts, inst: &Inst, n: u64) {
    let mut reads = 0;
    inst.for_each_use(|_| reads += 1);
    ops.reg_reads += reads * n;
    if inst.def().is_some() {
        ops.reg_writes += n;
    }
    match inst {
        Inst::Bin { op, .. } if op.is_long_latency() => ops.div += n,
        Inst::Bin { op, .. } if op.uses_mac() => ops.mac += n,
        Inst::Bin { op, .. } if op.uses_shifter() => ops.shift += n,
        Inst::Bin { .. } | Inst::Cmp { .. } | Inst::Copy { .. } => ops.alu += n,
        Inst::Load { .. } | Inst::FrameLoad { .. } => ops.loads += n,
        Inst::Store { .. } | Inst::FrameStore { .. } => ops.stores += n,
        Inst::Call { .. } => ops.calls += n,
        Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. } => {}
    }
}

struct Profiler {
    prof: ExecProfile,
    /// Stack-distance trackers for the data stream, per block size.
    dsd: Vec<FlatStackDistance>,
    /// Stack-distance trackers for the instruction stream, per block size:
    /// line indices below `group_base`, then one weighted group per block.
    isd: Vec<FlatStackDistance<true>>,
    /// `group_base[k]`: the key of global block 0's group of whole lines
    /// at `BLOCK_SIZES[k]`; block `g`'s group is `group_base[k] + g`.
    group_base: Vec<u32>,
    /// Branch-PC stream tracker.
    bsd: FlatStackDistance,
    /// Previous direction per branch site (for transition counts).
    prev_dir: Vec<Option<bool>>,
    /// Global block-index offset per function.
    block_offset: Vec<usize>,
}

impl Profiler {
    fn new(img: &CodeImage) -> Self {
        let code_end = (portopt_passes::CODE_BASE + img.code_bytes) as usize;
        let mut block_offset = Vec::with_capacity(img.funcs.len());
        let mut total_blocks = 0usize;
        for f in &img.funcs {
            block_offset.push(total_blocks);
            total_blocks += f.func.blocks.len();
        }
        let mut prof = ExecProfile {
            block_counts: img
                .funcs
                .iter()
                .map(|f| vec![0u64; f.func.blocks.len()])
                .collect(),
            branch_stats: vec![BranchStats::default(); total_blocks],
            icache_reuse: BLOCK_SIZES.iter().map(|_| ReuseHistogram::new()).collect(),
            dcache_reuse: BLOCK_SIZES.iter().map(|_| ReuseHistogram::new()).collect(),
            ..ExecProfile::default()
        };
        prof.branch_pc_reuse = ReuseHistogram::new();
        Profiler {
            prof,
            dsd: BLOCK_SIZES
                .iter()
                .map(|&bs| FlatStackDistance::new((Module::STACK_BASE / bs) as usize + 1))
                .collect(),
            isd: BLOCK_SIZES
                .iter()
                .map(|&bs| FlatStackDistance::weighted(code_end / bs as usize + 2 + total_blocks))
                .collect(),
            group_base: BLOCK_SIZES
                .iter()
                .map(|&bs| code_end as u32 / bs + 2)
                .collect(),
            bsd: FlatStackDistance::new(code_end / 4 + 2),
            prev_dir: vec![None; total_blocks],
            block_offset,
        }
    }

    #[inline]
    fn data_access(&mut self, addr: i64) {
        self.prof.dcache_word_accesses += 1;
        for (k, &bs) in BLOCK_SIZES.iter().enumerate() {
            let d = self.dsd[k].access((addr as u64 / bs as u64) as usize);
            self.prof.dcache_reuse[k].record(d);
        }
    }

    /// Fetches the bytes `start..end` of the block with global index
    /// `block`, whose own instructions start at `addr` (`start < addr`
    /// when the fetch rolls in through its padding).
    ///
    /// The distances are those of a fetch line by line, but the lines
    /// wholly inside `addr..end` (the block's *group*) are one weighted
    /// tracker entry. `layout_module` places blocks in disjoint ranges,
    /// each block's padding before its own `addr`, so no other block
    /// touches a group line, and every fetch of the block touches all `w`
    /// of them together. For group line `y`, the lines touched since `y`'s
    /// previous access are those touched since the group's previous access
    /// (the group's weighted distance `dg`) plus the group's other `w - 1`
    /// lines. So each of the `w` lines has distance `dg + w - 1`, or is a
    /// first touch. The partial lines around the group, and blocks with
    /// no whole line, are fetched one line at a time.
    #[inline]
    fn fetch_range(&mut self, start: u32, addr: u32, end: u32, block: u32) {
        for (k, &bs) in BLOCK_SIZES.iter().enumerate() {
            let (sd, hist) = (&mut self.isd[k], &mut self.prof.icache_reuse[k]);
            let first = start / bs;
            let last = (end - 1) / bs;
            let (lo, hi) = (addr.div_ceil(bs), end / bs);
            if hi <= lo {
                for line in first..=last {
                    hist.record(sd.access(line as usize));
                }
                continue;
            }
            for line in first..lo {
                hist.record(sd.access(line as usize));
            }
            let w = hi - lo;
            let dg = sd.access_weighted((self.group_base[k] + block) as usize, w);
            hist.record_n(dg.map(|d| d + u64::from(w - 1)), u64::from(w));
            for line in hi..=last {
                hist.record(sd.access(line as usize));
            }
        }
    }

    #[inline]
    fn branch_pc(&mut self, pc: u32) {
        let d = self.bsd.access((pc / 4) as usize);
        self.prof.branch_pc_reuse.record(d);
    }
}

impl Observer for Profiler {
    #[inline]
    fn block(&mut self, f: FuncId, b: BlockId, lay: &BlockLayout, body_len: usize, by_fall: bool) {
        self.prof.block_counts[f.index()][b.index()] += 1;
        // Instruction fetch: the block's bytes, plus its alignment pad
        // when entered by fall-through (sequential fetch rolls through
        // the padding nops).
        if lay.bytes > 0 || (by_fall && lay.pad > 0) {
            let start = if by_fall {
                lay.addr - lay.pad
            } else {
                lay.addr
            };
            let block = self.block_offset[f.index()] + b.index();
            self.fetch_range(start, lay.addr, lay.addr + lay.bytes, block as u32);
        }
        if by_fall {
            self.prof.pad_fetches += (lay.pad / 4) as u64;
        }
        self.prof.dyn_insts += body_len as u64;
    }

    #[inline]
    fn load(&mut self, addr: Option<i64>, _dst: VReg) {
        match addr {
            Some(a) => self.data_access(a),
            // A wild load still occupies the memory pipe but touches no
            // modelled line.
            None => self.prof.dcache_word_accesses += 1,
        }
    }

    #[inline]
    fn store(&mut self, addr: i64) {
        self.data_access(addr);
    }

    #[inline]
    fn call(&mut self, block_addr: u32) {
        self.prof.taken_transfers += 1;
        // The call instruction's PC is approximated by the block start
        // (calls occupy BTB entries; set conflicts are what matter).
        self.branch_pc(block_addr);
    }

    #[inline]
    fn ret(&mut self, pc: u32, val: Option<&Operand>) {
        self.prof.dyn_insts += 1;
        self.prof.ops.rets += 1;
        self.prof.taken_transfers += 1;
        self.branch_pc(pc);
        // Return-value register reads count too.
        if val.and_then(|o| o.as_reg()).is_some() {
            self.prof.ops.reg_reads += 1;
        }
    }

    #[inline]
    fn jump(&mut self, pc: u32) {
        self.prof.dyn_insts += 1;
        self.prof.ops.jumps += 1;
        self.prof.taken_transfers += 1;
        self.branch_pc(pc);
    }

    #[inline]
    fn cond_branch(&mut self, f: FuncId, b: BlockId, pc: u32, _cond: VReg, taken: bool) {
        self.prof.ops.reg_reads += 1;
        self.prof.dyn_insts += 1;
        self.prof.ops.cond_branches += 1;
        self.branch_pc(pc);
        let site = self.block_offset[f.index()] + b.index();
        self.prof.branch_stats[site].record(taken, self.prev_dir[site]);
        self.prev_dir[site] = Some(taken);
        if taken {
            self.prof.taken_transfers += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portopt_ir::interp::run_module;
    use portopt_ir::{FuncBuilder, ModuleBuilder};
    use portopt_passes::{compile, OptConfig};

    fn walker(n_words: u32, reps: i64) -> Module {
        let mut mb = ModuleBuilder::new("walker");
        let (_, base) = mb.global("buf", n_words);
        let mut b = FuncBuilder::new("main", 0);
        let p = b.iconst(base as i64);
        let acc = b.iconst(0);
        b.counted_loop(0, reps, 1, |b, _r| {
            b.counted_loop(0, n_words as i64, 1, |b, i| {
                let off = b.shl(i, 2);
                let a = b.add(p, off);
                let v = b.load(a, 0);
                let w = b.add(v, 1);
                b.store(w, a, 0);
                let t = b.add(acc, w);
                b.assign(acc, t);
            });
        });
        b.ret(acc);
        let id = mb.add(b.finish());
        mb.entry(id);
        mb.finish()
    }

    /// A module with every operation class: a callee doing div, rem, a
    /// multiply and shifts, called in a loop from `main`. The register
    /// allocator saves `main`'s live values to its frame around the call.
    fn op_mix() -> Module {
        let mut mb = ModuleBuilder::new("op_mix");
        let (_, base) = mb.global("buf", 4);
        let mut k = FuncBuilder::new("kernel", 2);
        let (x, y) = (k.param(0), k.param(1));
        let q = k.div(x, y);
        let r = k.rem(x, y);
        let m = k.mul(q, r);
        let s = k.shl(m, 2);
        let t = k.sar(s, 1);
        let u = k.add(t, x);
        k.ret(u);
        let kernel = mb.add(k.finish());
        let mut b = FuncBuilder::new("main", 0);
        let p = b.iconst(base as i64);
        let acc = b.iconst(0);
        b.counted_loop(1, 20, 1, |b, i| {
            let v = b.call(kernel, &[i.into(), 3.into()]);
            let l = b.load(p, 4);
            let a = b.add(l, v);
            b.store(a, p, 0);
            b.assign(acc, a);
        });
        b.ret(acc);
        let id = mb.add(b.finish());
        mb.entry(id);
        mb.finish()
    }

    /// Counts operations one instruction at a time, as each issues.
    #[derive(Default)]
    struct PerIssue(OpCounts);

    impl Observer for PerIssue {
        fn issue(&mut self, _pc: u32, inst: &Inst) {
            let ops = &mut self.0;
            inst.for_each_use(|_| ops.reg_reads += 1);
            if inst.def().is_some() {
                ops.reg_writes += 1;
            }
            match inst {
                Inst::Bin { op, .. } if op.is_long_latency() => ops.div += 1,
                Inst::Bin { op, .. } if op.uses_mac() => ops.mac += 1,
                Inst::Bin { op, .. } if op.uses_shifter() => ops.shift += 1,
                Inst::Bin { .. } | Inst::Cmp { .. } | Inst::Copy { .. } => ops.alu += 1,
                Inst::Load { .. } | Inst::FrameLoad { .. } => ops.loads += 1,
                Inst::Store { .. } | Inst::FrameStore { .. } => ops.stores += 1,
                Inst::Call { .. } => ops.calls += 1,
                Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. } => {}
            }
        }

        fn ret(&mut self, _pc: u32, val: Option<&Operand>) {
            self.0.rets += 1;
            if val.and_then(|o| o.as_reg()).is_some() {
                self.0.reg_reads += 1;
            }
        }

        fn jump(&mut self, _pc: u32) {
            self.0.jumps += 1;
        }

        fn cond_branch(&mut self, _f: FuncId, _b: BlockId, _pc: u32, _c: VReg, _t: bool) {
            self.0.reg_reads += 1;
            self.0.cond_branches += 1;
        }
    }

    /// Fetches every block one line at a time at each block size, with
    /// unit-weight trackers: the instruction stream by its definition. It
    /// also tallies the fetch shapes it saw, so a test can check that it
    /// covered them.
    struct PerLineFetch {
        sd: Vec<FlatStackDistance>,
        hist: Vec<ReuseHistogram>,
        /// Fetches that rolled in through padding.
        through_pad: usize,
        /// Fetches of non-empty blocks that fit in one line, at some size.
        single_line: usize,
        /// Fetches of non-empty blocks ending on a line boundary, at some size.
        ends_on_boundary: usize,
        /// Entries to empty blocks.
        empty: usize,
    }

    impl PerLineFetch {
        fn new(img: &CodeImage) -> Self {
            let code_end = (portopt_passes::CODE_BASE + img.code_bytes) as usize;
            PerLineFetch {
                sd: BLOCK_SIZES
                    .iter()
                    .map(|&bs| FlatStackDistance::new(code_end / bs as usize + 2))
                    .collect(),
                hist: BLOCK_SIZES.iter().map(|_| ReuseHistogram::new()).collect(),
                through_pad: 0,
                single_line: 0,
                ends_on_boundary: 0,
                empty: 0,
            }
        }
    }

    impl Observer for PerLineFetch {
        fn block(&mut self, _f: FuncId, _b: BlockId, lay: &BlockLayout, _n: usize, by_fall: bool) {
            if lay.bytes == 0 {
                self.empty += 1;
            }
            if !(lay.bytes > 0 || (by_fall && lay.pad > 0)) {
                return;
            }
            let start = if by_fall {
                lay.addr - lay.pad
            } else {
                lay.addr
            };
            let end = lay.addr + lay.bytes;
            self.through_pad += usize::from(start < lay.addr);
            for (k, &bs) in BLOCK_SIZES.iter().enumerate() {
                if lay.bytes > 0 {
                    self.single_line += usize::from(lay.addr / bs == (end - 1) / bs);
                    self.ends_on_boundary += usize::from(end.is_multiple_of(bs));
                }
                for line in start / bs..=(end - 1) / bs {
                    self.hist[k].record(self.sd[k].access(line as usize));
                }
            }
        }
    }

    /// A loop over a diamond, a one-armed branch into an empty join, a
    /// call and a short inner loop: blocks of many lengths, several of
    /// them entered by fall-through.
    fn branchy() -> Module {
        let mut mb = ModuleBuilder::new("branchy");
        let mut k = FuncBuilder::new("leaf", 1);
        let x = k.param(0);
        let y = k.mul(x, 3);
        k.ret(y);
        let leaf = mb.add(k.finish());
        let mut b = FuncBuilder::new("main", 0);
        let acc = b.iconst(0);
        b.counted_loop(0, 60, 1, |b, i| {
            let m = b.and(i, 3);
            let z = b.cmp(portopt_ir::Pred::Eq, m, 0);
            b.if_else(
                z,
                |b| {
                    let v = b.call(leaf, &[i.into()]);
                    let t = b.add(acc, v);
                    b.assign(acc, t);
                },
                |b| {
                    let t = b.sub(acc, 1);
                    let u = b.xor(t, i);
                    let w = b.or(u, 5);
                    let v = b.add(w, i);
                    b.assign(acc, v);
                },
            );
            let odd = b.and(i, 1);
            b.if_then(odd, |b| {
                let t = b.add(acc, 2);
                b.assign(acc, t);
            });
            b.counted_loop(0, 3, 1, |b, j| {
                let t = b.add(acc, j);
                b.assign(acc, t);
            });
        });
        b.ret(acc);
        let id = mb.add(b.finish());
        mb.entry(id);
        mb.finish()
    }

    #[test]
    fn grouped_fetch_matches_a_per_line_fetch() {
        let mut seen = (0, 0, 0, 0);
        for m in [branchy(), op_mix(), walker(16, 2)] {
            for base in [OptConfig::o0(), OptConfig::o3()] {
                for flags in 0..16u32 {
                    let cfg = OptConfig {
                        align_labels: flags & 1 != 0,
                        align_jumps: flags & 2 != 0,
                        align_loops: flags & 4 != 0,
                        align_functions: flags & 8 != 0,
                        ..base
                    };
                    let img = compile(&m, &cfg);
                    let mut per_line = PerLineFetch::new(&img);
                    walk::run(&img, &m, &[], ExecLimits::default(), &mut per_line).unwrap();
                    let p = profile(&img, &m, &[], ExecLimits::default()).unwrap();
                    assert_eq!(p.icache_reuse, per_line.hist, "{} flags {flags}", m.name);
                    seen.0 += per_line.through_pad;
                    seen.1 += per_line.single_line;
                    seen.2 += per_line.ends_on_boundary;
                    seen.3 += per_line.empty;
                }
            }
        }
        let (through_pad, single_line, ends_on_boundary, empty) = seen;
        assert!(through_pad > 0, "no fetch through padding");
        assert!(single_line > 0, "no single-line block");
        assert!(ends_on_boundary > 0, "no block ending on a line boundary");
        assert!(empty > 0, "no empty block entered");
    }

    #[test]
    fn op_counts_match_a_per_instruction_count() {
        let m = op_mix();
        let count = |cfg: &OptConfig| {
            let img = compile(&m, cfg);
            let mut per_issue = PerIssue::default();
            walk::run(&img, &m, &[], ExecLimits::default(), &mut per_issue).unwrap();
            let ops = profile(&img, &m, &[], ExecLimits::default()).unwrap().ops;
            assert_eq!(ops, per_issue.0);
            (img, ops)
        };
        // `-O0` keeps every class, frame traffic included; `-O3` inlines
        // the call and hoists the load, and must agree all the same.
        let (img, ops) = count(&OptConfig::o0());
        let frame_ops = img
            .funcs
            .iter()
            .flat_map(|mf| &mf.func.blocks)
            .flat_map(|b| b.body())
            .filter(|i| matches!(i, Inst::FrameLoad { .. } | Inst::FrameStore { .. }))
            .count();
        assert!(frame_ops >= 2, "no frame loads or stores to count");
        for n in [ops.div, ops.mac, ops.shift, ops.calls, ops.rets, ops.loads] {
            assert!(n >= 19, "{ops:?}");
        }
        count(&OptConfig::o3());
    }

    #[test]
    fn profile_matches_reference_semantics() {
        let m = walker(64, 3);
        let reference = run_module(&m, &[]).unwrap();
        let img = compile(&m, &OptConfig::o0());
        let p = profile(&img, &m, &[], ExecLimits::default()).unwrap();
        assert_eq!(p.ret, reference.ret);
        assert_eq!(p.mem_hash, reference.mem_hash);
    }

    #[test]
    fn counts_are_consistent() {
        let m = walker(64, 3);
        let img = compile(&m, &OptConfig::o0());
        let p = profile(&img, &m, &[], ExecLimits::default()).unwrap();
        // 64 words touched 3 times: 2*64*3 word accesses (load+store).
        assert_eq!(p.dcache_word_accesses, 2 * 64 * 3);
        assert_eq!(p.ops.loads, 64 * 3);
        assert_eq!(p.ops.stores, 64 * 3);
        // Branch sites: inner and outer loop headers execute.
        let hot: Vec<&BranchStats> = p.branch_stats.iter().filter(|s| s.execs > 0).collect();
        assert!(hot.len() >= 2);
        // The inner loop header runs (64+1)*3 times. Its machine branch is
        // lowered as CondFlip (body is the fall-through), so it is *taken*
        // only on the 3 loop exits — layout determines taken-ness.
        let inner = hot.iter().max_by_key(|s| s.execs).unwrap();
        assert_eq!(inner.execs, 65 * 3);
        assert_eq!(inner.taken, 3);
        assert!(inner.transitions <= 2 * 3 + 1);
        // Block counts sum: entry executed once.
        assert_eq!(p.block_counts[0][0], 1);
    }

    #[test]
    fn dcache_reuse_sees_working_set() {
        // 4KB working set = 1024 words; with 8-byte blocks = 512 blocks.
        let m = walker(1024, 4);
        let img = compile(&m, &OptConfig::o0());
        let p = profile(&img, &m, &[], ExecLimits::default()).unwrap();
        // A cache with plenty of space (4096 sets x 4 ways x 8B) holds it.
        let big = p.dcache_misses(4096, 4, 8);
        // Cold misses only: 512 blocks.
        assert!(big < 600.0, "big: {big}");
        // A 32-set x 4-way x 8B cache (1KB) thrashes on a 8KB working set.
        let small = p.dcache_misses(32, 4, 8);
        assert!(small > 2000.0, "small: {small}");
        // Bigger blocks mean fewer accesses.
        assert!(p.icache_accesses(64) < p.icache_accesses(8));
    }

    #[test]
    fn fuel_limit_enforced() {
        let m = walker(64, 1_000_000);
        let img = compile(&m, &OptConfig::o0());
        let e = profile(
            &img,
            &m,
            &[],
            ExecLimits {
                fuel: 10_000,
                max_depth: 16,
            },
        )
        .unwrap_err();
        assert_eq!(e, ExecError::FuelExhausted);
    }

    #[test]
    fn unrolling_cuts_dynamic_branches() {
        let m = walker(256, 4);
        let img0 = compile(&m, &OptConfig::o0());
        let unrolled = OptConfig {
            unroll_loops: true,
            ..OptConfig::o1()
        };
        let img_u = compile(&m, &unrolled);
        let p0 = profile(&img0, &m, &[], ExecLimits::default()).unwrap();
        let pu = profile(&img_u, &m, &[], ExecLimits::default()).unwrap();
        assert_eq!(p0.ret, pu.ret);
        assert!(pu.dyn_insts < p0.dyn_insts);
        assert!(pu.ops.cond_branches < p0.ops.cond_branches);
    }

    #[test]
    fn o3_preserves_semantics_with_different_cost() {
        // O3 is NOT uniformly better (the paper's premise): it must agree
        // semantically; its instruction count may go either way.
        let m = walker(256, 4);
        let img0 = compile(&m, &OptConfig::o0());
        let img3 = compile(&m, &OptConfig::o3());
        let p0 = profile(&img0, &m, &[], ExecLimits::default()).unwrap();
        let p3 = profile(&img3, &m, &[], ExecLimits::default()).unwrap();
        assert_eq!(p0.ret, p3.ret);
        assert_eq!(p0.mem_hash, p3.mem_hash);
        assert!(p3.dyn_insts > 0);
    }
}
