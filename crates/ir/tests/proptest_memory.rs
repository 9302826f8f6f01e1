//! Differential property tests: the paged [`Memory`] against a flat
//! word array over the whole address space, the layout it replaced.
//! Random loads and stores aim at the edges of the modelled space (address
//! 0, the word below the data base, the gap between the last global and
//! the stack, the words around the stack base), at page boundaries, inside
//! the globals, and at negative and unaligned addresses, and loads read
//! back words stored before. Loads, store errors and the globals' hash
//! must agree.

use portopt_ir::interp::{ExecError, Memory};
use portopt_ir::{paged, Module, ModuleBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Words in the modelled space `[0, STACK_BASE)`.
const WORDS: usize = (Module::STACK_BASE / 4) as usize;

/// Bytes of address space per page of the paged memory.
const PAGE_BYTES: i64 = 4 * paged::PAGE as i64;

/// The reference: one `i64` per 4-byte word of the whole space.
struct Flat(Vec<i64>);

impl Flat {
    fn for_module(m: &Module) -> Self {
        let mut words = vec![0i64; WORDS];
        for (g, a) in m.globals.iter().zip(m.global_addrs()) {
            let base = (a.base / 4) as usize;
            words[base..base + g.init.len()].copy_from_slice(&g.init);
        }
        Flat(words)
    }

    fn index(addr: i64) -> Option<usize> {
        let idx = addr >> 2;
        (addr >= 0 && (idx as usize) < WORDS).then_some(idx as usize)
    }

    fn try_load(&self, addr: i64) -> Option<i64> {
        Flat::index(addr).map(|i| self.0[i])
    }

    fn store(&mut self, addr: i64, val: i64) -> Result<(), ExecError> {
        let i = Flat::index(addr).ok_or(ExecError::BadAddress { addr })?;
        self.0[i] = val;
        Ok(())
    }

    fn hash_globals(&self, m: &Module) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for a in m.global_addrs() {
            let base = (a.base / 4) as usize;
            for w in &self.0[base..base + (a.bytes / 4) as usize] {
                for b in w.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x1_0000_01b3);
                }
            }
        }
        h
    }
}

/// One to four globals of up to 3000 words, each with a partial
/// initialiser that mixes zero and non-zero words.
fn module(rng: &mut StdRng) -> Module {
    let mut mb = ModuleBuilder::new("mem");
    for g in 0..rng.gen_range(1..=4) {
        let words = rng.gen_range(1u32..3000);
        let init = (0..rng.gen_range(0..=words))
            .map(|_| {
                if rng.gen_bool(0.3) {
                    0
                } else {
                    rng.gen_range(-1000i64..1000)
                }
            })
            .collect();
        mb.global_init(format!("g{g}"), words, init);
    }
    mb.finish()
}

/// An address drawn from the edges of the space, page boundaries, the
/// globals, the gap below the stack, negative values and the far end of
/// the `i64` range, shifted off word alignment a quarter of the time.
fn address(rng: &mut StdRng, globals_end: i64) -> i64 {
    let stack = i64::from(Module::STACK_BASE);
    let data = i64::from(Module::DATA_BASE);
    let base = match rng.gen_range(0u32..9) {
        0 => 0,
        1 => data - 4,
        2 => stack - 4,
        3 => stack,
        4 => rng.gen_range(data..globals_end),
        5 => rng.gen_range(globals_end..stack),
        6 => rng.gen_range(0..stack / PAGE_BYTES) * PAGE_BYTES + rng.gen_range(-8i64..8),
        7 => -rng.gen_range(1i64..1 << 40),
        _ => *[i64::MIN, i64::MAX, stack + 4, -1, -4]
            .get(rng.gen_range(0..5))
            .unwrap(),
    };
    if rng.gen_bool(0.25) {
        base.wrapping_add(rng.gen_range(1..4))
    } else {
        base
    }
}

fn check(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = module(&mut rng);
    let last = m.global_addrs().last().copied().unwrap();
    let globals_end = i64::from(last.base + last.bytes);
    let mut paged = Memory::for_module(&m);
    let mut flat = Flat::for_module(&m);
    prop_assert_eq!(paged.hash_globals(&m), flat.hash_globals(&m));
    // Addresses stored to, so that loads also read back written words.
    let mut written = Vec::new();
    for op in 0..2_000 {
        let mut addr = address(&mut rng, globals_end);
        if rng.gen_bool(0.5) {
            if !written.is_empty() && rng.gen_bool(0.4) {
                addr = written[rng.gen_range(0..written.len())];
            }
            let want = flat.try_load(addr);
            prop_assert_eq!(paged.try_load(addr), want, "op {} load {:#x}", op, addr);
            prop_assert_eq!(paged.load(addr), Ok(want.unwrap_or(0)));
        } else {
            let val = if rng.gen_bool(0.3) {
                0
            } else {
                rng.gen::<i64>()
            };
            written.push(addr);
            prop_assert_eq!(
                paged.store(addr, val),
                flat.store(addr, val),
                "op {} store {:#x}",
                op,
                addr
            );
        }
        if op % 200 == 0 {
            prop_assert_eq!(paged.hash_globals(&m), flat.hash_globals(&m), "op {}", op);
        }
    }
    prop_assert_eq!(paged.hash_globals(&m), flat.hash_globals(&m));
    Ok(())
}

proptest! {
    #[test]
    fn paged_memory_matches_a_flat_word_array(seed in 0u64..1_000_000) {
        check(seed)?;
    }
}
