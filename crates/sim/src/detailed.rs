//! The detailed cycle-level simulator — the `Xtrem` stand-in.
//!
//! Executes a [`CodeImage`] instruction by instruction against *stateful*
//! cache arrays (true LRU, set-associative), a BTB with 2-bit counters and
//! an in-order scoreboarded pipeline. It is orders of magnitude slower than
//! the first-order model in [`crate::timing`] and exists to validate it:
//! tests assert that the fast model tracks this reference on miss rates
//! and on relative cycle counts across configurations.

use crate::walk::{self, Observer};
use portopt_ir::interp::{ExecError, ExecLimits};
use portopt_ir::{BlockId, FuncId, Function, Inst, Module, Operand, VReg};
use portopt_passes::{BlockLayout, CodeImage};
use portopt_uarch::{latencies, Latencies, MicroArch, PerfCounters};

/// A true-LRU set-associative cache model.
#[derive(Debug, Clone)]
struct Cache {
    sets: u32,
    assoc: u32,
    block: u32,
    /// tags[set] = (tag, last-used stamp)
    tags: Vec<Vec<(u64, u64)>>,
    stamp: u64,
    /// Statistics.
    accesses: u64,
    misses: u64,
}

impl Cache {
    fn new(size: u32, assoc: u32, block: u32) -> Self {
        let sets = (size / (block * assoc)).max(1);
        Cache {
            sets,
            assoc,
            block,
            tags: vec![Vec::new(); sets as usize],
            stamp: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns `true` on hit.
    fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.stamp += 1;
        let blk = addr / self.block as u64;
        let set = (blk % self.sets as u64) as usize;
        let tag = blk / self.sets as u64;
        let ways = &mut self.tags[set];
        if let Some(w) = ways.iter_mut().find(|(t, _)| *t == tag) {
            w.1 = self.stamp;
            return true;
        }
        self.misses += 1;
        if ways.len() as u32 >= self.assoc {
            // Evict LRU.
            let lru = ways
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(i, _)| i)
                .expect("non-empty ways");
            ways.remove(lru);
        }
        ways.push((tag, self.stamp));
        false
    }
}

/// BTB with per-entry 2-bit saturating direction counters.
#[derive(Debug, Clone)]
struct Btb {
    sets: u32,
    assoc: u32,
    /// entries[set] = (tag, counter, stamp)
    entries: Vec<Vec<(u64, u8, u64)>>,
    stamp: u64,
}

impl Btb {
    fn new(n_entries: u32, assoc: u32) -> Self {
        let sets = (n_entries / assoc).max(1);
        Btb {
            sets,
            assoc,
            entries: vec![Vec::new(); sets as usize],
            stamp: 0,
        }
    }

    /// Looks up the branch at `pc`, predicts, then updates with the actual
    /// direction. Returns `true` when the prediction was correct.
    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        self.stamp += 1;
        let idx = pc / 4;
        let set = (idx % self.sets as u64) as usize;
        let tag = idx / self.sets as u64;
        let ways = &mut self.entries[set];
        if let Some(e) = ways.iter_mut().find(|(t, _, _)| *t == tag) {
            e.2 = self.stamp;
            let predicted = e.1 >= 2;
            e.1 = match (e.1, taken) {
                (c, true) => (c + 1).min(3),
                (0, false) => 0,
                (c, false) => c - 1,
            };
            predicted == taken
        } else {
            // BTB miss: static not-taken. Allocate on taken branches.
            if taken {
                if ways.len() as u32 >= self.assoc {
                    let lru = ways
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (_, _, s))| *s)
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    ways.remove(lru);
                }
                ways.push((tag, 2, self.stamp));
            }
            !taken
        }
    }
}

/// Outcome of a detailed simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetailedResult {
    /// Simulated execution cycles.
    pub cycles: u64,
    /// Executed machine instructions.
    pub dyn_insts: u64,
    /// Program return value.
    pub ret: i64,
    /// Measured counters.
    pub counters: PerfCounters,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Data-cache misses.
    pub dcache_misses: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
}

/// The detailed simulator's state: caches, BTB and the in-order
/// scoreboard, with the counters it reports.
struct Machine {
    lat: Latencies,
    width: u64,
    icache: Cache,
    dcache: Cache,
    btb: Btb,
    cycles: u64,
    dyn_insts: u64,
    pad_fetches: u64,
    mispredicts: u64,
    taken: u64,
    bpred_accesses: u64,
    alu: u64,
    mac: u64,
    shift: u64,
    reg_reads: u64,
    reg_writes: u64,
    /// Issue slots taken in the current cycle.
    slot: u64,
    /// Whether the memory pipe / the MAC unit is taken in the current cycle.
    mem_busy: bool,
    mac_busy: bool,
    /// Cycle at which each register is ready, for every live frame; the
    /// innermost frame's registers start at `base`.
    ready: Vec<u64>,
    base: usize,
    /// Each live caller's `base`, `mem_busy` and `mac_busy`, innermost last.
    callers: Vec<(usize, bool, bool)>,
}

impl Machine {
    fn new(cfg: &MicroArch) -> Self {
        Machine {
            lat: latencies(cfg),
            width: cfg.width.max(1) as u64,
            icache: Cache::new(cfg.il1_size, cfg.il1_assoc, cfg.il1_block),
            dcache: Cache::new(cfg.dl1_size, cfg.dl1_assoc, cfg.dl1_block),
            btb: Btb::new(cfg.btb_entries, cfg.btb_assoc),
            cycles: 0,
            dyn_insts: 0,
            pad_fetches: 0,
            mispredicts: 0,
            taken: 0,
            bpred_accesses: 0,
            alu: 0,
            mac: 0,
            shift: 0,
            reg_reads: 0,
            reg_writes: 0,
            slot: 0,
            mem_busy: false,
            mac_busy: false,
            ready: Vec::new(),
            base: 0,
            callers: Vec::new(),
        }
    }

    /// Fetches the instruction at `addr`, charging icache behaviour.
    fn fetch(&mut self, addr: u32) {
        if !self.icache.access(addr as u64) {
            self.cycles += self.lat.mem_penalty as u64;
        }
    }

    fn data_access(&mut self, addr: i64) {
        if !self.dcache.access(addr as u64) {
            self.cycles += self.lat.mem_penalty as u64;
        }
    }

    /// Moves issue on to a fresh cycle.
    fn new_cycle(&mut self) {
        self.slot = 0;
        self.mem_busy = false;
        self.mac_busy = false;
    }

    /// A taken transfer: one branch-predictor access and a fetch redirect.
    fn redirect(&mut self) {
        self.taken += 1;
        self.bpred_accesses += 1;
        self.cycles += self.lat.il1_access as u64;
    }
}

impl Observer for Machine {
    fn enter_frame(&mut self, f: &Function) {
        self.callers.push((self.base, self.mem_busy, self.mac_busy));
        self.base = self.ready.len();
        self.ready.resize(self.base + f.vreg_count as usize, 0);
    }

    fn exit_frame(&mut self, dst: Option<VReg>) {
        self.ready.truncate(self.base);
        (self.base, self.mem_busy, self.mac_busy) = self.callers.pop().expect("a live frame");
        self.slot = 0;
        if let Some(d) = dst {
            self.ready[self.base + d.index()] = self.cycles + 1;
        }
    }

    fn block(
        &mut self,
        _f: FuncId,
        _b: BlockId,
        lay: &BlockLayout,
        _body_len: usize,
        by_fall: bool,
    ) {
        if by_fall && lay.pad > 0 {
            // Padding nops consume fetch slots.
            self.pad_fetches += (lay.pad / 4) as u64;
            self.cycles += (lay.pad as u64 / 4).div_ceil(self.width);
            for a in (lay.addr - lay.pad..lay.addr).step_by(4) {
                self.fetch(a);
            }
        }
        self.new_cycle();
    }

    fn issue(&mut self, pc: u32, inst: &Inst) {
        self.fetch(pc);
        self.dyn_insts += 1;
        // Issue: wait for operands, one slot, structural limits.
        let mut start = self.cycles;
        let mut reads = 0;
        let ready = &self.ready[self.base..];
        inst.for_each_use(|r| {
            start = start.max(ready[r.index()]);
            reads += 1;
        });
        let needs_mem = inst.is_memory();
        let needs_mac = matches!(inst, Inst::Bin { op, .. } if op.uses_mac());
        if start > self.cycles {
            self.cycles = start;
            self.new_cycle();
        }
        while self.slot >= self.width
            || (needs_mem && self.mem_busy)
            || (needs_mac && self.mac_busy)
        {
            self.cycles += 1;
            self.new_cycle();
        }
        self.slot += 1;
        self.mem_busy |= needs_mem;
        self.mac_busy |= needs_mac;
        self.reg_reads += reads;
        if inst.def().is_some() {
            self.reg_writes += 1;
        }

        // Loads become ready in `load`, call results in `exit_frame`.
        let latency = match inst {
            Inst::Bin { op, .. } if op.is_long_latency() => {
                self.alu += 1;
                16
            }
            Inst::Bin { op, .. } if op.uses_mac() => {
                self.mac += 1;
                2
            }
            Inst::Bin { op, .. } if op.uses_shifter() => {
                self.shift += 1;
                1
            }
            Inst::Bin { .. } | Inst::Cmp { .. } | Inst::Copy { .. } => {
                self.alu += 1;
                1
            }
            _ => return,
        };
        if let Some(d) = inst.def() {
            self.ready[self.base + d.index()] = self.cycles + latency;
        }
    }

    fn load(&mut self, addr: Option<i64>, dst: VReg) {
        if let Some(a) = addr {
            self.data_access(a);
        }
        self.ready[self.base + dst.index()] = self.cycles + self.lat.dl1_load_use as u64;
    }

    fn store(&mut self, addr: i64) {
        self.data_access(addr);
    }

    fn call(&mut self, _block_addr: u32) {
        self.redirect();
    }

    fn ret(&mut self, pc: u32, _val: Option<&Operand>) {
        self.jump(pc);
    }

    fn jump(&mut self, pc: u32) {
        self.fetch(pc);
        self.dyn_insts += 1;
        self.redirect();
    }

    fn cond_branch(&mut self, _f: FuncId, _b: BlockId, pc: u32, cond: VReg, taken: bool) {
        self.fetch(pc);
        self.dyn_insts += 1;
        self.reg_reads += 1;
        self.bpred_accesses += 1;
        // Wait on the condition register.
        self.cycles = self.cycles.max(self.ready[self.base + cond.index()]);
        if !self.btb.predict_and_update(pc as u64, taken) {
            self.mispredicts += 1;
            self.cycles += self.lat.mispredict as u64;
        } else if taken {
            self.cycles += self.lat.il1_access as u64;
        }
        if taken {
            self.taken += 1;
        }
    }
}

/// Runs the detailed simulation of `img` on `cfg`.
///
/// # Errors
/// Returns the interpreter's [`ExecError`] on runaway execution, stack
/// overflow or wild addresses.
pub fn simulate(
    img: &CodeImage,
    module: &Module,
    cfg: &MicroArch,
    args: &[i64],
    limits: ExecLimits,
) -> Result<DetailedResult, ExecError> {
    let mut m = Machine::new(cfg);
    let (ret, _) = walk::run(img, module, args, limits, &mut m)?;
    let cycles = m.cycles.max(1);
    let counters = PerfCounters {
        ipc: m.dyn_insts as f64 / cycles as f64,
        decoder_access_rate: (m.dyn_insts + m.pad_fetches) as f64 / cycles as f64,
        regfile_access_rate: (m.reg_reads + m.reg_writes) as f64 / cycles as f64,
        bpred_access_rate: m.bpred_accesses as f64 / cycles as f64,
        icache_access_rate: m.icache.accesses as f64 / cycles as f64,
        icache_miss_rate: if m.icache.accesses > 0 {
            m.icache.misses as f64 / m.icache.accesses as f64
        } else {
            0.0
        },
        dcache_access_rate: m.dcache.accesses as f64 / cycles as f64,
        dcache_miss_rate: if m.dcache.accesses > 0 {
            m.dcache.misses as f64 / m.dcache.accesses as f64
        } else {
            0.0
        },
        alu_usage: m.alu as f64 / cycles as f64,
        mac_usage: m.mac as f64 / cycles as f64,
        shifter_usage: m.shift as f64 / cycles as f64,
    };
    Ok(DetailedResult {
        cycles,
        dyn_insts: m.dyn_insts,
        ret,
        counters,
        icache_misses: m.icache.misses,
        dcache_misses: m.dcache.misses,
        mispredicts: m.mispredicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile;
    use crate::timing::evaluate;
    use portopt_ir::{FuncBuilder, ModuleBuilder};
    use portopt_passes::{compile, OptConfig};
    use rand::SeedableRng;

    fn workload() -> Module {
        let mut mb = ModuleBuilder::new("wl");
        let (_, base) = mb.global("buf", 4096);
        let mut b = FuncBuilder::new("main", 0);
        let p = b.iconst(base as i64);
        let acc = b.iconst(0);
        b.counted_loop(0, 3, 1, |b, _| {
            b.counted_loop(0, 4096, 1, |b, i| {
                let off = b.shl(i, 2);
                let a = b.add(p, off);
                let v = b.load(a, 0);
                let x = b.mul(v, 3);
                let y = b.add(x, i);
                b.store(y, a, 0);
                let t = b.add(acc, y);
                b.assign(acc, t);
            });
        });
        b.ret(acc);
        let id = mb.add(b.finish());
        mb.entry(id);
        mb.finish()
    }

    #[test]
    fn detailed_matches_functional_semantics() {
        let m = workload();
        let img = compile(&m, &OptConfig::o2());
        let reference = profile(&img, &m, &[], Default::default()).unwrap();
        let d = simulate(&img, &m, &MicroArch::xscale(), &[], Default::default()).unwrap();
        assert_eq!(d.ret, reference.ret);
        assert_eq!(d.dyn_insts, reference.dyn_insts);
    }

    #[test]
    fn fast_model_tracks_detailed_sim() {
        let m = workload();
        let img = compile(&m, &OptConfig::o2());
        let prof = profile(&img, &m, &[], Default::default()).unwrap();

        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let cfgs: Vec<MicroArch> = (0..8)
            .map(|_| portopt_uarch::MicroArchSpace::base().sample(&mut rng))
            .collect();
        let mut fast: Vec<f64> = Vec::new();
        let mut slow: Vec<f64> = Vec::new();
        for c in &cfgs {
            fast.push(evaluate(&img, &prof, c).cycles);
            slow.push(
                simulate(&img, &m, c, &[], Default::default())
                    .unwrap()
                    .cycles as f64,
            );
        }
        // Within a factor of 2 pointwise…
        for (f, s) in fast.iter().zip(&slow) {
            let ratio = f / s;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "fast {f} vs detailed {s} (ratio {ratio})"
            );
        }
        // …and strongly rank-correlated (Spearman via Pearson on ranks).
        let rank = |v: &[f64]| -> Vec<f64> {
            let mut idx: Vec<usize> = (0..v.len()).collect();
            idx.sort_by(|&a, &b| v[a].partial_cmp(&v[b]).unwrap());
            let mut r = vec![0.0; v.len()];
            for (k, &i) in idx.iter().enumerate() {
                r[i] = k as f64;
            }
            r
        };
        let (ra, rb) = (rank(&fast), rank(&slow));
        let n = ra.len() as f64;
        let mean = (n - 1.0) / 2.0;
        let mut num = 0.0;
        let mut da = 0.0;
        let mut db = 0.0;
        for (a, b) in ra.iter().zip(&rb) {
            num += (a - mean) * (b - mean);
            da += (a - mean) * (a - mean);
            db += (b - mean) * (b - mean);
        }
        let rho = num / (da * db).sqrt();
        assert!(rho > 0.7, "rank correlation {rho}");
    }

    #[test]
    fn cache_lru_behaviour() {
        let mut c = Cache::new(64, 2, 8); // 4 sets x 2 ways
                                          // Fill one set with 2 blocks, then a third evicts the LRU.
        assert!(!c.access(0)); // set 0
        assert!(!c.access(32)); // set 0 (4 sets * 8B = 32 stride)
        assert!(c.access(0)); // hit, refreshes 0
        assert!(!c.access(64)); // evicts 32
        assert!(c.access(0));
        assert!(!c.access(32)); // was evicted
    }

    #[test]
    fn btb_learns_biased_branch() {
        let mut b = Btb::new(16, 1);
        let mut wrong = 0;
        for i in 0..100 {
            let taken = i % 10 != 9;
            if !b.predict_and_update(0x1000, taken) {
                wrong += 1;
            }
        }
        // Biased 90/10: 2-bit counter mispredicts around transitions only.
        assert!(wrong <= 25, "wrong = {wrong}");
    }

    #[test]
    fn mispredicts_hurt() {
        let m = workload();
        let img = compile(&m, &OptConfig::o2());
        let mut tiny_btb = MicroArch::xscale();
        tiny_btb.btb_entries = 128;
        let d1 = simulate(&img, &m, &MicroArch::xscale(), &[], Default::default()).unwrap();
        let d2 = simulate(&img, &m, &tiny_btb, &[], Default::default()).unwrap();
        // Same program: smaller BTB cannot mispredict less.
        assert!(d2.mispredicts >= d1.mispredicts);
    }
}
