//! Golden pins for the two `CodeImage` simulators.
//!
//! `profile` feeds every dataset and every served module request, and
//! `simulate` is the cycle-level reference the fast model is checked
//! against. Their outputs are pinned bit for bit by checked-in files under
//! `tests/golden/`:
//!
//! * `sim_profiles.txt`: for every suite program at `-O0`, `-O3` and two
//!   sampled settings, the `StableHasher` digest of the `ExecProfile` JSON;
//! * `sim_detailed.txt`: the whole `DetailedResult` (counters as f64 bits)
//!   for three programs at `-O2` on three microarchitectures.
//!
//! Regenerate them with the `#[ignore]`d writer below, and only after an
//! intended change to what the simulators compute.

use portopt_ir::StableHasher;
use portopt_mibench::{suite, Workload};
use portopt_passes::{compile, OptConfig};
use portopt_sim::{profile, simulate};
use portopt_uarch::MicroArch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hash::Hasher;

const PROFILES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_profiles.txt");
const DETAILED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_detailed.txt");

/// One line per (program, setting): `name setting digest`.
fn profile_lines() -> String {
    let mut rng = StdRng::seed_from_u64(2009);
    let settings = [
        ("O0", OptConfig::o0()),
        ("O3", OptConfig::o3()),
        ("S1", OptConfig::sample(&mut rng)),
        ("S2", OptConfig::sample(&mut rng)),
    ];
    let mut out = String::new();
    for p in suite(Workload::default()) {
        for (label, cfg) in &settings {
            let img = compile(&p.module, cfg);
            let prof = profile(&img, &p.module, &[], Default::default())
                .unwrap_or_else(|e| panic!("{} {label}: {e}", p.name));
            let mut h = StableHasher::new();
            h.write(serde_json::to_string(&prof).unwrap().as_bytes());
            out.push_str(&format!("{} {label} {:016x}\n", p.name, h.finish()));
        }
    }
    out
}

/// One line per (program, μarch): every `DetailedResult` field, f64s as
/// their bit patterns.
fn detailed_lines() -> String {
    // The three machines of `end_to_end::fast_model_tracks_detailed_sim`.
    let mut tiny = MicroArch::xscale();
    tiny.il1_size = 4096;
    tiny.dl1_size = 4096;
    tiny.il1_assoc = 4;
    tiny.dl1_assoc = 4;
    tiny.btb_entries = 128;
    let mut huge = MicroArch::xscale();
    huge.il1_size = 131_072;
    huge.dl1_size = 131_072;
    huge.btb_entries = 2048;
    huge.btb_assoc = 8;
    let cfgs = [
        ("tiny", tiny),
        ("xscale", MicroArch::xscale()),
        ("huge", huge),
    ];

    let mut out = String::new();
    for name in ["dijkstra", "tiff2bw", "sha"] {
        let p = portopt_mibench::by_name(name, Workload::default()).unwrap();
        let img = compile(&p.module, &OptConfig::o2());
        for (label, cfg) in &cfgs {
            let d = simulate(&img, &p.module, cfg, &[], Default::default()).unwrap();
            let counters: Vec<String> = d
                .counters
                .to_vec()
                .iter()
                .map(|c| format!("{:016x}", c.to_bits()))
                .collect();
            out.push_str(&format!(
                "{name} {label} cycles={} dyn_insts={} ret={} icache_misses={} \
                 dcache_misses={} mispredicts={} counters={}\n",
                d.cycles,
                d.dyn_insts,
                d.ret,
                d.icache_misses,
                d.dcache_misses,
                d.mispredicts,
                counters.join(",")
            ));
        }
    }
    out
}

fn assert_matches_golden(path: &str, actual: &str) {
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run the ignored `regenerate_golden`)"));
    let (golden, actual): (Vec<&str>, Vec<&str>) =
        (golden.lines().collect(), actual.lines().collect());
    for (g, a) in golden.iter().zip(&actual) {
        assert_eq!(a, g, "simulator output drifted from {path}");
    }
    assert_eq!(actual.len(), golden.len(), "line count differs from {path}");
}

#[test]
fn profiles_match_golden() {
    assert_matches_golden(PROFILES, &profile_lines());
}

#[test]
fn detailed_results_match_golden() {
    assert_matches_golden(DETAILED, &detailed_lines());
}

#[test]
#[ignore = "writes tests/golden/sim_*.txt; run once after an intended simulator change"]
fn regenerate_golden() {
    std::fs::create_dir_all(std::path::Path::new(PROFILES).parent().unwrap()).unwrap();
    std::fs::write(PROFILES, profile_lines()).unwrap();
    std::fs::write(DETAILED, detailed_lines()).unwrap();
}
