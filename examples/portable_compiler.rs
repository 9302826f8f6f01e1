//! The paper's headline flow (Figure 2): train the portable optimising
//! compiler on a few programs and microarchitectures, then deploy it on a
//! program and a microarchitecture it has never seen.
//!
//! ```sh
//! cargo run --release --example portable_compiler
//! ```

use portopt::prelude::*;
use portopt_core::{generate, GenOptions, PortableCompiler, SweepScale, TrainOptions};
use portopt_mibench::{suite, Workload};

fn main() {
    // Training population: 8 programs (the unseen test program is held out).
    let all = suite(Workload::default());
    let test_name = "sha";
    let training: Vec<(String, portopt_ir::Module)> = all
        .iter()
        .filter(|p| p.name != test_name)
        .take(8)
        .map(|p| (p.name.to_string(), p.module.clone()))
        .collect();
    let test = all.iter().find(|p| p.name == test_name).unwrap();

    // One-off training sweep (small scale so the example runs in ~a minute).
    println!("generating training data ({} programs)…", training.len());
    let ds = generate(
        &training,
        &GenOptions {
            scale: SweepScale {
                n_uarch: 8,
                n_opts: 60,
            },
            seed: 42,
            extended_space: false,
            threads: 0, // auto: all available cores
        },
    );
    let pc = PortableCompiler::train(&ds, None, None, &TrainOptions::default());
    println!("trained on {} program/uarch pairs", pc.model().len());

    // A brand-new microarchitecture, never sampled during training: a
    // small-cache variant of the XScale.
    let mut target = MicroArch::xscale();
    target.il1_size = 8192;
    target.dl1_size = 8192;
    assert!(!ds.uarchs.contains(&target), "target must be unseen");

    // Deploy: one O3 profiling run -> counters -> predicted passes.
    let (img, cfg, t_o3) = pc
        .optimise(&test.module, &target)
        .unwrap_or_else(|e| panic!("cannot deploy `{}`: {e}", test.name));
    let prof = profile(&img, &test.module, &[], Default::default()).unwrap();
    let t_pred = evaluate(&img, &prof, &target);

    println!(
        "\ndeploying on unseen program `{}` / unseen uarch (8K caches):",
        test.name
    );
    println!("  O3 cycles:        {:.0}", t_o3.cycles);
    println!("  predicted cycles: {:.0}", t_pred.cycles);
    println!("  speedup over O3:  {:.3}x", t_o3.cycles / t_pred.cycles);
    println!("\npredicted setting (differences from O3):");
    let (o3c, pc_choices) = (OptConfig::o3().to_choices(), cfg.to_choices());
    for (dim, (a, b)) in OptSpace::dims().iter().zip(o3c.iter().zip(&pc_choices)) {
        if a != b {
            println!("  {:<30} {} -> {}", dim.name, a, b);
        }
    }
}
