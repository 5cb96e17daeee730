//! Substrate microbenches: the building blocks every experiment leans on
//! — vendor parsing and printing, BDD construction, symbolic behaviour
//! extraction, and BGP simulation convergence.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Vendor front ends.
    let cisco = cosynth_bench::BORDER_CFG;
    let (junos, _) = config_ir::reference_translate_cisco_to_juniper(cisco);
    let mut g = c.benchmark_group("parse");
    g.throughput(Throughput::Bytes(cisco.len() as u64));
    g.bench_function("cisco", |b| b.iter(|| cisco_cfg::parse(black_box(cisco))));
    g.throughput(Throughput::Bytes(junos.len() as u64));
    g.bench_function("juniper", |b| {
        b.iter(|| juniper_cfg::parse(black_box(&junos)))
    });
    // The whole as-graph-512 reference snapshot at seed 1: 512 routers,
    // the texts every repair job of that network breaks and re-parses.
    let scenario = scenario_gen::generate_family("as-graph-512", 1, 0);
    let snapshot = cosynth::reference_configs(&cosynth::Modularizer::assign_scenario(&scenario));
    let bytes: usize = snapshot.values().map(String::len).sum();
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("cisco-as512", |b| {
        b.iter(|| {
            for text in snapshot.values() {
                black_box(cisco_cfg::parse(black_box(text)));
            }
        })
    });
    g.finish();
    let asts: Vec<_> = snapshot.values().map(|t| cisco_cfg::parse(t).0).collect();
    let mut g = c.benchmark_group("print");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("cisco-as512", |b| {
        b.iter(|| {
            for ast in &asts {
                black_box(cisco_cfg::print(black_box(ast)));
            }
        })
    });
    g.finish();

    // Reference translation end to end.
    c.bench_function("translate/reference", |b| {
        b.iter(|| config_ir::reference_translate_cisco_to_juniper(black_box(cisco)))
    });

    // BDD engine: n-variable parity function.
    let mut g = c.benchmark_group("bdd_parity");
    for n in [16u32, 32, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut m = bdd::Manager::new();
                let vars = m.new_vars(n);
                let mut acc = m.bot();
                for v in vars {
                    let lit = m.var(v);
                    acc = m.xor(acc, lit);
                }
                m.node_count()
            })
        });
    }
    g.finish();

    // Symbolic policy behaviour extraction on the border config.
    let (cast, _) = cisco_cfg::parse(cisco);
    let (device, _) = config_ir::from_cisco(&cast);
    c.bench_function("symbolic/effective_export_behavior", |b| {
        b.iter(|| {
            let mut space = policy_symbolic::RouteSpace::for_devices(&[&device]);
            let beh = policy_symbolic::effective_export_behavior(
                &mut space,
                &device,
                "2.3.4.5".parse().unwrap(),
            );
            black_box(beh.permit)
        })
    });

    // Campion compare (original vs reference translation).
    let (jast, _) = juniper_cfg::parse(&junos);
    let (translated, _) = config_ir::from_juniper(&jast);
    c.bench_function("campion/compare", |b| {
        b.iter(|| campion_lite::compare(black_box(&device), black_box(&translated)))
    });

    // BGP simulation convergence on stars.
    let mut g = c.benchmark_group("bgp_sim");
    for n in [2usize, 6, 12] {
        let (topology, roles) = topo_model::star(n);
        let mut configs = std::collections::BTreeMap::new();
        for a in cosynth::Modularizer::assign(&topology, &roles) {
            let draft = llm_sim::synth_task::SynthesisDraft::new(
                &a.prompt,
                std::collections::BTreeSet::new(),
            );
            configs.insert(a.name.clone(), draft.render());
        }
        let mut devices = Vec::new();
        for spec in topology.internal_routers() {
            devices.push(bf_lite::parse_config(&configs[&spec.name], None).device);
        }
        for spec in topology.stubs() {
            devices.push(cosynth::composer::device_from_spec(spec));
        }
        g.bench_with_input(BenchmarkId::new("fixed_point", n), &n, |b, _| {
            b.iter(|| {
                let snap = bf_lite::sim::Snapshot::new(black_box(devices.clone()));
                bf_lite::sim::run(&snap).rounds
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
