//! `publish-internet`: the paper's deliverable at the scale of the
//! paper world. Every allocated /24 is published twice — with the
//! baseline evidence ladder and with the fused ladder — and both datasets
//! are encoded to `.igds`, written, and reopened from disk.

use crate::checks;
use crate::report::{median, secs, timed, RunResult, Trace};
use crate::{Args, Layers};
use geo_hints::{build_dataset_fused, FusedConfig};
use geo_model::ip::Prefix24;
use geo_model::rng::Seed;
use geo_serve::{format, DatasetStore};
use ipgeo::publish::{build_dataset_resilient, DatasetEntry};
use ipgeo::two_step::greedy_coverage;
use ipgeo::{CampaignReport, Resilience};
use net_sim::Network;
use std::time::Instant;
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

/// The CLI's defaults: coverage-mesh size, measurement nonce, and the
/// fused tier's hint coverage and truthfulness.
const MESH: usize = 300;
const NONCE: u64 = 1;
const HINT_COVERAGE: f64 = 0.6;
const HINT_TRUTHFULNESS: f64 = 0.9;
/// Set-ups timed for `setup_s` (median reported).
const SETUP_REPEATS: usize = 3;

/// The world, the VP mesh and the prefixes to publish.
struct Setup {
    world: World,
    mesh: Vec<HostId>,
}

fn setup(seed: Seed, mut trace: Option<&mut Trace>) -> Setup {
    let world = timed(trace.as_deref_mut(), "world-sim.generate", || {
        World::generate(WorldConfig::paper(seed)).expect("paper preset is valid")
    });
    let mesh = timed(trace, "ipgeo.vp_selection", || {
        let vps: Vec<HostId> = world
            .probes
            .iter()
            .copied()
            .filter(|&p| !world.host(p).is_mis_geolocated())
            .collect();
        greedy_coverage(&world, &vps, MESH.min(vps.len()))
    });
    Setup { world, mesh }
}

/// What one publish round produced, for the checks and the trace.
struct Round {
    base: Vec<DatasetEntry>,
    fused: Vec<DatasetEntry>,
    base_report: CampaignReport,
    verify_requested: u64,
    reopened: [DatasetStore; 2],
    snapshot_bytes: usize,
}

fn round(args: &Args, s: &Setup, prefixes: &[Prefix24], mut trace: Option<&mut Trace>) -> Round {
    let net = Network::new(Seed(args.seed));
    let res = Resilience::none();
    let (base, base_report) = timed(trace.as_deref_mut(), "ipgeo.build_dataset", || {
        build_dataset_resilient(&s.world, &net, &res, &s.mesh, prefixes, NONCE)
    });
    let cfg = FusedConfig::new(HINT_COVERAGE, HINT_TRUTHFULNESS);
    let (fused, fused_report) = timed(trace.as_deref_mut(), "geo-hints.build_fused", || {
        build_dataset_fused(&s.world, &net, &res, &s.mesh, prefixes, NONCE, &cfg)
    });

    let mut snapshot_bytes = 0;
    let mut reopened = Vec::new();
    for (name, entries) in [("baseline", &base), ("fused", &fused)] {
        let path = args
            .out_dir
            .join(format!("publish-{name}-{}.igds", std::process::id()));
        let bytes = timed(trace.as_deref_mut(), "geo-serve.format.encode", || {
            format::encode(entries, args.seed, NONCE)
        });
        snapshot_bytes += bytes.len();
        std::fs::write(&path, &bytes).expect("write snapshot under the output directory");
        let store = timed(trace.as_deref_mut(), "geo-serve.store.open", || {
            DatasetStore::open(&path)
        });
        let _ = std::fs::remove_file(&path);
        reopened.push(store.expect("written snapshot reopens"));
    }
    let reopened: [DatasetStore; 2] = reopened.try_into().expect("two snapshots");
    Round {
        base,
        fused,
        base_report,
        verify_requested: fused_report.hints.requested,
        reopened,
        snapshot_bytes,
    }
}

/// Checks one round; returns the number of published prefixes that
/// failed (out of `2 * prefixes.len()`).
fn check(res: &mut RunResult, s: &Setup, prefixes: &[Prefix24], r: &Round) -> u64 {
    let mut failed = 0;
    for (name, entries, store) in [
        ("baseline", &r.base, &r.reopened[0]),
        ("fused", &r.fused, &r.reopened[1]),
    ] {
        let (problems, bad) = checks::published(&s.world, prefixes, entries);
        for p in problems {
            res.fail_check(&format!("{name}: {p}"));
        }
        let mut bad = bad;
        if store.entries() != entries.as_slice() {
            res.fail_check(&format!(
                "{name}: reopened .igds differs from the built entries"
            ));
            bad = prefixes.len();
        }
        failed += bad as u64;
    }
    failed
}

/// Median error (km) per method against the world's ground truth: the
/// true location of the prefix's first live host, else its PoP city.
fn error_by_method(world: &World, entries: &[DatasetEntry]) -> Vec<(&'static str, usize, f64)> {
    let mut by: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for e in entries {
        let truth = match e.prefix.addresses().find_map(|ip| world.host_by_ip(ip)) {
            Some(h) => h.location,
            None => match world.plan.owner(e.prefix) {
                Some((_, city)) => world.city(city).center,
                None => continue,
            },
        };
        by.entry(e.evidence.method()).or_default().push(checks::km(
            (truth.lat(), truth.lon()),
            (e.location.lat(), e.location.lon()),
        ));
    }
    by.into_iter()
        .map(|(m, v)| (m, v.len(), median(&v)))
        .collect()
}

fn allocated(world: &World) -> Vec<Prefix24> {
    world.plan.prefixes().map(|(p, _)| p).collect()
}

pub fn run(args: &Args) -> RunResult {
    let mut res = RunResult::new();
    let seed = Seed(args.seed);
    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        s = Some(setup(seed, None));
        setups.push(secs(t));
    }
    let s = s.expect("at least one set-up");
    let prefixes = allocated(&s.world);

    let noise = crate::host::NoiseWindow::start();
    let sampler = crate::host::ThreadSampler::start();
    let window = Instant::now();
    let mut rounds = Vec::new();
    let mut last = None;
    while rounds.is_empty() || secs(window) < args.seconds {
        // Only one round's datasets are alive at a time, so the memory
        // high-water mark does not depend on the number of rounds.
        drop(last.take());
        let t = Instant::now();
        let r = round(args, &s, &prefixes, None);
        rounds.push(secs(t));
        let failed = check(&mut res, &s, &prefixes, &r);
        res.attempted += 2 * prefixes.len() as u64;
        res.failed += failed;
        last = Some(r);
    }
    let (_, busy) = sampler.finish();
    let (steal, cpu) = noise.finish();
    crate::noise(&mut res, steal, cpu, busy, rounds.len() as u64);

    if let Some(r) = &last {
        println!(
            "reference: {} allocated /24s, mesh {} VPs, {} rounds",
            prefixes.len(),
            s.mesh.len(),
            rounds.len()
        );
        for (name, entries) in [("baseline", &r.base), ("fused", &r.fused)] {
            for (method, n, err) in error_by_method(&s.world, entries) {
                println!("reference {name} {method}: {n} entries, median error {err:.1} km");
            }
        }
    }
    res.metric("setup_s", median(&setups), "s");
    res.metric("op_p50_ms", median(&rounds) * 1e3, "ms");
    res.metric("peak_rss_mb", crate::host::peak_rss_mib(), "MiB");
    res
}

pub fn run_traced(args: &Args, trace: &mut Trace) -> (RunResult, Layers) {
    let mut res = RunResult::new();
    let noise = crate::host::NoiseWindow::start();
    let sampler = crate::host::ThreadSampler::start();
    let s = setup(Seed(args.seed), Some(trace));
    let prefixes = allocated(&s.world);
    let r = round(args, &s, &prefixes, Some(trace));
    let (_, busy) = sampler.finish();
    let (steal, cpu) = noise.finish();
    crate::noise(&mut res, steal, cpu, busy, 1);
    let failed = check(&mut res, &s, &prefixes, &r);
    res.attempted += 2 * prefixes.len() as u64;
    res.failed += failed;
    let latency = r
        .base
        .iter()
        .filter(|e| e.evidence.method() == "latency-cbg")
        .count();
    let layers = vec![
        (
            "world-sim.generate_s",
            trace.total_s("world-sim.generate"),
            "s",
        ),
        (
            "ipgeo.vp_selection_s",
            trace.total_s("ipgeo.vp_selection"),
            "s",
        ),
        (
            "ipgeo.build_dataset_s",
            trace.total_s("ipgeo.build_dataset"),
            "s",
        ),
        ("ipgeo.latency_prefixes", latency as f64, "count"),
        (
            "ipgeo.probes_requested",
            r.base_report.requested as f64,
            "count",
        ),
        (
            "ipgeo.probes_delivered",
            r.base_report.delivered as f64,
            "count",
        ),
        (
            "geo-hints.build_fused_s",
            trace.total_s("geo-hints.build_fused"),
            "s",
        ),
        (
            "geo-hints.verify_probes_requested",
            r.verify_requested as f64,
            "count",
        ),
        (
            "geo-serve.format.encode_s",
            trace.total_s("geo-serve.format.encode"),
            "s",
        ),
        (
            "geo-serve.format.snapshot_bytes",
            r.snapshot_bytes as f64,
            "bytes",
        ),
        (
            "geo-serve.store.open_s",
            trace.total_s("geo-serve.store.open"),
            "s",
        ),
    ];
    (res, layers)
}
