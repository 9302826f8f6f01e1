//! Criterion micro-benchmarks for the portopt components: compilation,
//! profiling, the fast timing model, model training/prediction, and the
//! search baselines. (Figure regeneration lives in the `--bin` targets.)

use criterion::{criterion_group, criterion_main, Criterion};
use portopt_core::{
    generate, sweep_program, GenOptions, ModelKind, PortableCompiler, SweepScale, TrainOptions,
};
use portopt_exec::Executor;
use portopt_mibench::{by_name, suite, Workload};
use portopt_passes::{compile, OptConfig};
use portopt_sim::{evaluate, profile, simulate, PreparedEval};
use portopt_uarch::{MicroArch, MicroArchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_compile(c: &mut Criterion) {
    let p = by_name("crc", Workload::default()).unwrap();
    let mut g = c.benchmark_group("compile");
    g.sample_size(20);
    g.bench_function("crc_o3", |b| {
        b.iter(|| compile(&p.module, &OptConfig::o3()))
    });
    g.bench_function("crc_o0", |b| {
        b.iter(|| compile(&p.module, &OptConfig::o0()))
    });
    let big = by_name("rijndael_e", Workload::default()).unwrap();
    g.bench_function("rijndael_e_o3", |b| {
        b.iter(|| compile(&big.module, &OptConfig::o3()))
    });
    g.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let p = by_name("crc", Workload::default()).unwrap();
    let img = compile(&p.module, &OptConfig::o3());
    let prof = profile(&img, &p.module, &[], Default::default()).unwrap();
    let x = MicroArch::xscale();
    let mut g = c.benchmark_group("simulation");
    g.sample_size(10);
    g.bench_function("profile_crc", |b| {
        b.iter(|| profile(&img, &p.module, &[], Default::default()).unwrap())
    });
    g.bench_function("fast_timing_model", |b| {
        b.iter(|| evaluate(&img, &prof, &x))
    });
    g.bench_function("fast_timing_model_prepared", |b| {
        let pe = PreparedEval::new(&img, &prof);
        b.iter(|| pe.evaluate(&x))
    });
    g.bench_function("detailed_sim_crc", |b| {
        b.iter(|| simulate(&img, &p.module, &x, &[], Default::default()).unwrap())
    });
    g.finish();
}

fn bench_model(c: &mut Criterion) {
    // A small dataset to train against.
    let progs: Vec<_> = suite(Workload::default()).into_iter().take(4).collect();
    let pairs: Vec<_> = progs
        .iter()
        .map(|p| (p.name.to_string(), p.module.clone()))
        .collect();
    let ds = generate(
        &pairs,
        &GenOptions {
            scale: SweepScale {
                n_uarch: 4,
                n_opts: 24,
            },
            seed: 1,
            extended_space: false,
            threads: 0,
        },
    );
    let mut g = c.benchmark_group("model");
    g.sample_size(20);
    g.bench_function("train", |b| {
        b.iter(|| PortableCompiler::train(&ds, None, None, &TrainOptions::default()))
    });
    let pc = PortableCompiler::train(&ds, None, None, &TrainOptions::default());
    g.bench_function("predict", |b| b.iter(|| pc.predict(&ds.features[0][0])));
    // The same query through the retained naive kernel (per-point Vec
    // walk + full sort) vs the blocked-SoA + partial-select path that
    // `predict` uses — the pair quantifies the hot-path rebuild and
    // guards against the oracle silently becoming the fast path again.
    let x = &ds.features[0][0].values;
    let knn = pc.knn().expect("default training is kNN");
    g.bench_function("predict_mode_soa", |b| b.iter(|| knn.predict_mode(x)));
    g.bench_function("predict_mode_oracle", |b| {
        b.iter(|| knn.predict_mode_oracle(x))
    });
    // The rest of the zoo through the same query, so per-kind serve costs
    // are tracked side by side with the paper's kNN.
    for kind in [ModelKind::Linear, ModelKind::Clustered] {
        let opts = TrainOptions {
            model: kind,
            ..TrainOptions::default()
        };
        let zoo = PortableCompiler::train(&ds, None, None, &opts);
        g.bench_function(&format!("predict_mode_{kind}"), |b| {
            b.iter(|| zoo.model().predict_mode(x))
        });
    }
    g.finish();
}

fn bench_sweep(c: &mut Criterion) {
    // The smoke-scale per-program sweep (6 uarchs × 40 settings) through
    // the executor — the unit of dataset-generation
    // throughput that `BENCH_*.json` tracks across PRs.
    let p = by_name("crc", Workload::default()).unwrap();
    let scale = SweepScale::smoke();
    let mut rng = StdRng::seed_from_u64(2009);
    let uarchs = MicroArchSpace::base().sample_n(scale.n_uarch, &mut rng);
    // The exact setting sample generate() would draw at this seed, so the
    // tracked number measures the real workload.
    let configs = portopt_core::dataset::sample_configs(scale.n_opts, 2009);
    let exec = Executor::new(0);
    let mut g = c.benchmark_group("sweep");
    g.sample_size(10);
    g.bench_function("sweep_program_crc_smoke", |b| {
        b.iter(|| sweep_program(&p.module, &uarchs, &configs, &exec))
    });
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    // Search against the pre-priced dataset grid (no recompilation): pure
    // algorithm cost.
    let progs: Vec<_> = suite(Workload::default()).into_iter().take(1).collect();
    let pairs: Vec<_> = progs
        .iter()
        .map(|p| (p.name.to_string(), p.module.clone()))
        .collect();
    let ds = generate(
        &pairs,
        &GenOptions {
            scale: SweepScale {
                n_uarch: 1,
                n_opts: 8,
            },
            seed: 2,
            extended_space: false,
            threads: 0,
        },
    );
    let base = ds.o3_cycles[0][0];
    let synthetic = move |cfg: &OptConfig| -> f64 {
        // Cheap stand-in cost keyed off the config bits, anchored to a real
        // baseline magnitude.
        let c = cfg.to_choices();
        base * (1.0 + c.iter().map(|&v| v as f64).sum::<f64>() / 100.0)
    };
    let mut g = c.benchmark_group("search");
    g.sample_size(20);
    g.bench_function("random_200", |b| {
        b.iter(|| portopt_search::random_search(200, 7, synthetic))
    });
    g.bench_function("genetic_200", |b| {
        b.iter(|| portopt_search::genetic_search(200, 7, synthetic))
    });
    g.bench_function("hill_200", |b| {
        b.iter(|| portopt_search::hill_climb(200, 7, synthetic))
    });
    g.finish();
}

fn bench_serve(c: &mut Criterion) {
    // Batched predictions through the full serving path — JSON parse,
    // queue, executor drain, reply struct — at smoke scale. The
    // `serve_predict` predictions/sec number is tracked in
    // BENCH_sweep.json alongside the sweep trajectory.
    use portopt_serve::{PredictionService, RequestInput, ServeRequest, ServiceStats, Snapshot};

    let progs: Vec<_> = suite(Workload::default()).into_iter().take(4).collect();
    let pairs: Vec<_> = progs
        .iter()
        .map(|p| (p.name.to_string(), p.module.clone()))
        .collect();
    let ds = generate(
        &pairs,
        &GenOptions {
            scale: SweepScale {
                n_uarch: 6,
                n_opts: 40,
            },
            seed: 2009,
            extended_space: false,
            threads: 0,
        },
    );
    let service = PredictionService::new(Snapshot::train(&ds, &TrainOptions::default()), 0);
    let lines: Vec<String> = (0..64)
        .map(|i| {
            let (p, u) = (i % ds.n_programs(), i % ds.n_uarchs());
            let req = ServeRequest {
                id: Some(i as u64),
                input: RequestInput::Features(ds.features[p][u].values.clone()),
                uarch: ds.uarchs[u],
                apply: false,
            };
            serde_json::to_string(&req).unwrap()
        })
        .collect();
    let mut g = c.benchmark_group("serve");
    g.sample_size(20);
    g.bench_function("serve_predict_batch64", |b| {
        b.iter(|| {
            let mut stats = ServiceStats::default();
            for line in &lines {
                service.submit_line(line);
            }
            service.drain(&mut stats)
        })
    });

    // The same 64-request batch answered by the rest of the model zoo —
    // identical harness, only the snapshot's model kind differs, so the
    // per-kind serving cost is directly comparable with the kNN number.
    for kind in [ModelKind::Linear, ModelKind::Clustered] {
        let opts = TrainOptions {
            model: kind,
            ..TrainOptions::default()
        };
        let zoo_service = PredictionService::new(Snapshot::train(&ds, &opts), 0);
        g.bench_function(&format!("serve_predict_batch64_{kind}"), |b| {
            b.iter(|| {
                let mut stats = ServiceStats::default();
                for line in &lines {
                    zoo_service.submit_line(line);
                }
                zoo_service.drain(&mut stats)
            })
        });
    }

    // The same 64 predictions arriving interleaved on two registered
    // connections (the PR 5 concurrent path): classify + conn-tagged
    // queue + registry bookkeeping + dead-connection filter + routed
    // drain. Measured at the same boundary as `serve_predict_batch64`
    // (replies computed and routed, delivery excluded), so the two
    // numbers are directly comparable in BENCH_sweep.json.
    use portopt_serve::ConnectionRegistry;
    let registry: ConnectionRegistry<Vec<u8>> = ConnectionRegistry::new(4);
    let conn_a = registry.register(Vec::new()).expect("capacity 4");
    let conn_b = registry.register(Vec::new()).expect("capacity 4");
    g.bench_function("serve_concurrent_2conn_batch64", |b| {
        b.iter(|| {
            let mut stats = ServiceStats::default();
            for (i, line) in lines.iter().enumerate() {
                let conn = if i % 2 == 0 { conn_a } else { conn_b };
                registry.note_submitted(conn);
                service.classify_and_submit(conn, line);
            }
            service.discard_dead(|conn| !registry.live(conn));
            service.drain_routed(&mut stats)
        })
    });

    // Saturation: the same 64 lines thrown at a queue capped well below
    // the burst size. Admission accepts the first 16, refuses the other
    // 48 out-of-band, then one drain empties the queue — so the number
    // measures the refusal fast path (typed error + formatted reply,
    // no batch pipeline) alongside the usual accept/drain cost. Tracked
    // in BENCH_sweep.json as the overload-mode counterpart of
    // `serve_predict_batch64`.
    let saturated = PredictionService::new(Snapshot::train(&ds, &TrainOptions::default()), 0)
        .with_queue_cap(16);
    g.bench_function("serve_saturated_cap16_burst64", |b| {
        b.iter(|| {
            let mut stats = ServiceStats::default();
            let mut refused = 0u32;
            for line in &lines {
                if let portopt_serve::LineAction::Refused { .. } =
                    saturated.classify_and_submit(portopt_serve::LOCAL_CONN, line)
                {
                    refused += 1;
                }
            }
            let replies = saturated.drain(&mut stats);
            assert_eq!(replies.len() + refused as usize, lines.len());
            (replies, refused)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_simulation,
    bench_model,
    bench_sweep,
    bench_search,
    bench_serve
);
criterion_main!(benches);
