//! The microarchitectural design space of Table 2, plus the §7 extension.
//!
//! Eight parameters vary as powers of two around the Intel XScale
//! configuration: 6 × 5 × 4 choices for each L1 cache and 5 × 4 for the
//! BTB give exactly the paper's 288 000 configurations. The extended space
//! (§7) adds clock frequency (200–600 MHz) and issue width (1–2).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Instruction/data L1 size menu (bytes): 4 KB … 128 KB.
pub const SIZES: [u32; 6] = [4096, 8192, 16384, 32768, 65536, 131072];
/// L1 associativity menu: 4 … 64.
pub const ASSOCS: [u32; 5] = [4, 8, 16, 32, 64];
/// L1 block-size menu (bytes): 8 … 64.
pub const BLOCKS: [u32; 4] = [8, 16, 32, 64];
/// BTB entry-count menu: 128 … 2048.
pub const BTB_ENTRIES: [u32; 5] = [128, 256, 512, 1024, 2048];
/// BTB associativity menu: 1 … 8.
pub const BTB_ASSOCS: [u32; 4] = [1, 2, 4, 8];
/// Clock-frequency menu for the extended space (MHz): 200 … 600.
pub const FREQS: [u32; 5] = [200, 300, 400, 500, 600];
/// Issue-width menu for the extended space.
pub const WIDTHS: [u32; 2] = [1, 2];

/// One microarchitectural configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MicroArch {
    /// Instruction-cache size in bytes.
    pub il1_size: u32,
    /// Instruction-cache associativity.
    pub il1_assoc: u32,
    /// Instruction-cache block size in bytes.
    pub il1_block: u32,
    /// Data-cache size in bytes.
    pub dl1_size: u32,
    /// Data-cache associativity.
    pub dl1_assoc: u32,
    /// Data-cache block size in bytes.
    pub dl1_block: u32,
    /// Branch-target-buffer entries.
    pub btb_entries: u32,
    /// Branch-target-buffer associativity.
    pub btb_assoc: u32,
    /// Core clock in MHz (400 in the base space).
    pub freq_mhz: u32,
    /// Issue width (1 in the base space).
    pub width: u32,
}

impl MicroArch {
    /// The XScale baseline configuration (Table 2's reference column).
    pub fn xscale() -> Self {
        MicroArch {
            il1_size: 32768,
            il1_assoc: 32,
            il1_block: 32,
            dl1_size: 32768,
            dl1_assoc: 32,
            dl1_block: 32,
            btb_entries: 512,
            btb_assoc: 1,
            freq_mhz: 400,
            width: 1,
        }
    }

    /// Number of instruction-cache sets.
    pub fn il1_sets(&self) -> u32 {
        (self.il1_size / (self.il1_block * self.il1_assoc)).max(1)
    }

    /// Number of data-cache sets.
    pub fn dl1_sets(&self) -> u32 {
        (self.dl1_size / (self.dl1_block * self.dl1_assoc)).max(1)
    }

    /// Number of BTB sets.
    pub fn btb_sets(&self) -> u32 {
        (self.btb_entries / self.btb_assoc).max(1)
    }

    /// Clock period in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        1000.0 / self.freq_mhz as f64
    }

    /// The 8-element microarchitecture descriptor `d` of the paper
    /// (log2-scaled parameter values, in Table 2 order).
    pub fn descriptors(&self) -> [f64; 8] {
        [
            (self.il1_size as f64).log2(),
            (self.il1_assoc as f64).log2(),
            (self.il1_block as f64).log2(),
            (self.dl1_size as f64).log2(),
            (self.dl1_assoc as f64).log2(),
            (self.dl1_block as f64).log2(),
            (self.btb_entries as f64).log2(),
            (self.btb_assoc as f64).log2(),
        ]
    }

    /// Checks every field against its menu (`SIZES`, `ASSOCS`, `BLOCKS`,
    /// `BTB_ENTRIES`, `BTB_ASSOCS`, `FREQS`, `WIDTHS`). The timing model
    /// prices only configurations drawn from them: a profile holds cache
    /// histograms for the menu's block sizes alone.
    ///
    /// # Errors
    /// Names the first field outside its menu, with its value and the menu.
    pub fn check_menus(&self) -> Result<(), String> {
        let fields: [(&str, u32, &[u32]); 10] = [
            ("il1_size", self.il1_size, &SIZES),
            ("il1_assoc", self.il1_assoc, &ASSOCS),
            ("il1_block", self.il1_block, &BLOCKS),
            ("dl1_size", self.dl1_size, &SIZES),
            ("dl1_assoc", self.dl1_assoc, &ASSOCS),
            ("dl1_block", self.dl1_block, &BLOCKS),
            ("btb_entries", self.btb_entries, &BTB_ENTRIES),
            ("btb_assoc", self.btb_assoc, &BTB_ASSOCS),
            ("freq_mhz", self.freq_mhz, &FREQS),
            ("width", self.width, &WIDTHS),
        ];
        match fields.iter().find(|(_, v, menu)| !menu.contains(v)) {
            Some((name, v, menu)) => Err(format!("`{name}` is {v}, not in its menu {menu:?}")),
            None => Ok(()),
        }
    }

    /// Descriptor names, for the Figure 9 Hinton diagram.
    pub fn descriptor_names() -> [&'static str; 8] {
        [
            "i_size",
            "i_assoc",
            "i_block",
            "d_size",
            "d_assoc",
            "d_block",
            "btb_size",
            "btb_assoc",
        ]
    }
}

impl Default for MicroArch {
    fn default() -> Self {
        Self::xscale()
    }
}

/// The sampled design space (base Table 2 space or extended §7 space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroArchSpace {
    /// Whether frequency and issue width also vary (§7).
    pub extended: bool,
}

impl MicroArchSpace {
    /// The base Table 2 space.
    pub fn base() -> Self {
        MicroArchSpace { extended: false }
    }

    /// The §7 extended space.
    pub fn extended() -> Self {
        MicroArchSpace { extended: true }
    }

    /// Total number of configurations in the space.
    pub fn total_configs(&self) -> u64 {
        let cache = (SIZES.len() * ASSOCS.len() * BLOCKS.len()) as u64;
        let base = cache * cache * (BTB_ENTRIES.len() * BTB_ASSOCS.len()) as u64;
        if self.extended {
            base * (FREQS.len() * WIDTHS.len()) as u64
        } else {
            base
        }
    }

    /// Draws one configuration uniformly at random.
    pub fn sample(&self, rng: &mut impl Rng) -> MicroArch {
        let pick = |rng: &mut dyn rand::RngCore, v: &[u32]| v[rng.gen_range(0..v.len())];
        MicroArch {
            il1_size: pick(rng, &SIZES),
            il1_assoc: pick(rng, &ASSOCS),
            il1_block: pick(rng, &BLOCKS),
            dl1_size: pick(rng, &SIZES),
            dl1_assoc: pick(rng, &ASSOCS),
            dl1_block: pick(rng, &BLOCKS),
            btb_entries: pick(rng, &BTB_ENTRIES),
            btb_assoc: pick(rng, &BTB_ASSOCS),
            freq_mhz: if self.extended {
                pick(rng, &FREQS)
            } else {
                400
            },
            width: if self.extended { pick(rng, &WIDTHS) } else { 1 },
        }
    }

    /// Draws `n` distinct configurations (uniform random without
    /// replacement, as the paper's 200-configuration sample).
    pub fn sample_n(&self, n: usize, rng: &mut impl Rng) -> Vec<MicroArch> {
        let mut out: Vec<MicroArch> = Vec::with_capacity(n);
        let mut guard = 0;
        while out.len() < n {
            let c = self.sample(rng);
            if !out.contains(&c) {
                out.push(c);
            }
            guard += 1;
            assert!(guard < n * 1000, "space exhausted");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn base_space_matches_paper_count() {
        assert_eq!(MicroArchSpace::base().total_configs(), 288_000);
    }

    #[test]
    fn extended_space_is_ten_x() {
        assert_eq!(MicroArchSpace::extended().total_configs(), 2_880_000);
    }

    #[test]
    fn xscale_values_match_table_2() {
        let x = MicroArch::xscale();
        assert_eq!(x.il1_size, 32 * 1024);
        assert_eq!(x.il1_assoc, 32);
        assert_eq!(x.il1_block, 32);
        assert_eq!(x.btb_entries, 512);
        assert_eq!(x.btb_assoc, 1);
        assert_eq!(x.freq_mhz, 400);
        assert_eq!(x.width, 1);
        assert_eq!(x.il1_sets(), 32);
        assert_eq!(x.btb_sets(), 512);
    }

    #[test]
    fn sampling_stays_in_menus_and_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(42);
        let sp = MicroArchSpace::base();
        let a = sp.sample_n(50, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(42);
        let b = sp.sample_n(50, &mut rng2);
        assert_eq!(a, b);
        for c in &a {
            assert!(SIZES.contains(&c.il1_size));
            assert!(ASSOCS.contains(&c.dl1_assoc));
            assert!(BLOCKS.contains(&c.il1_block));
            assert!(BTB_ENTRIES.contains(&c.btb_entries));
            assert!(BTB_ASSOCS.contains(&c.btb_assoc));
            assert_eq!(c.freq_mhz, 400);
            assert_eq!(c.width, 1);
        }
        // Distinctness.
        for (i, x) in a.iter().enumerate() {
            assert!(!a[i + 1..].contains(x));
        }
    }

    #[test]
    fn extended_sampling_varies_freq_and_width() {
        let mut rng = StdRng::seed_from_u64(7);
        let cs = MicroArchSpace::extended().sample_n(100, &mut rng);
        assert!(cs.iter().any(|c| c.freq_mhz != 400));
        assert!(cs.iter().any(|c| c.width == 2));
    }

    #[test]
    fn check_menus_names_the_first_field_outside_its_menu() {
        assert_eq!(MicroArch::xscale().check_menus(), Ok(()));
        let mut rng = StdRng::seed_from_u64(3);
        for c in MicroArchSpace::extended().sample_n(50, &mut rng) {
            assert_eq!(c.check_menus(), Ok(()), "{c:?}");
        }
        let odd = MicroArch {
            il1_block: 12,
            width: 3,
            ..MicroArch::xscale()
        };
        assert_eq!(
            odd.check_menus(),
            Err("`il1_block` is 12, not in its menu [8, 16, 32, 64]".to_string())
        );
        let odd = MicroArch {
            btb_assoc: 16,
            ..MicroArch::xscale()
        };
        assert!(odd.check_menus().unwrap_err().contains("btb_assoc"));
    }

    #[test]
    fn descriptors_are_log2() {
        let d = MicroArch::xscale().descriptors();
        assert_eq!(d[0], 15.0); // log2(32768)
        assert_eq!(d[1], 5.0);
        assert_eq!(d[6], 9.0); // log2(512)
        assert_eq!(d[7], 0.0);
    }
}
