//! `build-quick`: the paper's §4 measurement pipeline at quick scale —
//! `eval::Dataset::load(EvalScale::quick(seed))` on the paper-scale world.
//!
//! The traced run composes the same public steps `Dataset::load` runs,
//! each inside a span, checks that the result is bit-identical to
//! `Dataset::load`'s, and reports the load time the spans leave
//! unexplained as `eval.unattributed_s`.

use crate::checks;
use crate::report::{median, secs, RunResult, Trace};
use crate::{Args, Layers};
use eval::{Dataset, EvalScale};
use geo_model::matrix::{DelayMatrix, RttMatrix};
use geo_model::rng::Seed;
use geo_model::soi::SpeedOfInternet;
use ipgeo::{sanitize_anchors, sanitize_probes};
use net_sim::{Network, RowScratch};
use std::time::Instant;
use web_sim::ecosystem::{WebConfig, WebEcosystem};
use world_sim::hitlist::HitlistEntry;
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

/// World generations timed for `setup_s` (median reported).
const SETUP_REPEATS: usize = 7;

pub fn run(args: &Args) -> RunResult {
    let mut res = RunResult::new();
    let seed = Seed(args.seed);

    // Set-up: generating the simulated Internet the campaigns measure.
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            let world = World::generate(WorldConfig::paper(seed)).expect("paper preset is valid");
            let s = secs(t);
            drop(std::hint::black_box(world));
            s
        })
        .collect();

    let noise = crate::host::NoiseWindow::start();
    let sampler = crate::host::ThreadSampler::start();
    let window = Instant::now();
    let mut builds = Vec::new();
    while builds.is_empty() || secs(window) < args.seconds {
        let t = Instant::now();
        let d = Dataset::load(EvalScale::quick(seed));
        builds.push(secs(t));
        let problems = checks::quick_dataset(&d);
        for p in &problems {
            res.fail_check(p);
        }
        res.op(problems.is_empty());
    }
    let (threads, busy) = sampler.finish();
    let (steal, cpu) = noise.finish();
    println!("reference: threads_max={threads} (sampler not counted)");
    crate::noise(&mut res, steal, cpu, busy, builds.len() as u64);

    res.metric("setup_s", median(&setups), "s");
    res.metric("op_p50_ms", median(&builds) * 1e3, "ms");
    res.metric("peak_rss_mb", crate::host::peak_rss_mib(), "MiB");
    res
}

/// Positions of an in-order subset within its source list (the
/// sanitizers' kept lists preserve input order).
fn positions_of(subset: &[HostId], all: &[HostId]) -> Vec<usize> {
    let mut out = Vec::with_capacity(subset.len());
    let mut i = 0;
    for &want in subset {
        while all[i] != want {
            i += 1;
        }
        out.push(i);
        i += 1;
    }
    out
}

/// The pieces of a dataset the traced composition produces.
struct Composed {
    targets: Vec<HostId>,
    anchors: Vec<HostId>,
    vps: Vec<HostId>,
    removed_anchors: Vec<HostId>,
    removed_probes: Vec<HostId>,
    rtt: RttMatrix,
    anchor_rtt: RttMatrix,
    reps: Vec<Vec<HitlistEntry>>,
    cells: usize,
}

/// `Dataset::load(EvalScale::quick(seed))`, step by step through the
/// layers' public functions, one span per call into a layer.
fn compose(trace: &mut Trace, seed: Seed) -> Composed {
    let scale = EvalScale::quick(seed);
    let mut world = trace.span("world-sim.generate", || {
        World::generate(WorldConfig::paper(scale.seed)).expect("paper preset is valid")
    });
    let eco = trace.span("web-sim.generate", || {
        WebEcosystem::generate(&mut world, &WebConfig::default()).expect("default web config")
    });
    drop(std::hint::black_box(eco));
    let world = world;
    let soi = SpeedOfInternet::CBG;

    let (net, raw_anchors, mesh) = trace.span("net-sim.mesh", || {
        let net = Network::new(scale.seed.derive("network"));
        let raw_anchors = world.anchors.clone();
        let n = raw_anchors.len();
        let lane = net.target_lane(&world, &raw_anchors);
        let mesh = DelayMatrix::par_build_with(n, n, RowScratch::new, {
            let (world, net, raw_anchors, lane) = (&world, &net, &raw_anchors, &lane);
            move |scratch, i, row| {
                net.campaign_row(
                    world,
                    lane,
                    scratch,
                    raw_anchors[i],
                    3,
                    |j| 0x4E5A ^ ((i as u64) << 24 | j as u64),
                    Some(i),
                    |j, out| row[j] = DelayMatrix::cell(out.rtt()),
                );
            }
        });
        (net, raw_anchors, mesh)
    });
    let anchor_report = trace.span("ipgeo.sanitize_anchors", || {
        sanitize_anchors(&world, &raw_anchors, &mesh, soi)
    });
    let anchors = anchor_report.kept.clone();

    let raw_probes = world.probes.clone();
    let probe_rtts = trace.span("net-sim.campaign", || {
        let lane = net.target_lane(&world, &anchors);
        let mut order: Vec<u32> = (0..raw_probes.len() as u32).collect();
        order.sort_by_key(|&p| (net.attach_group(&world, raw_probes[p as usize]), p));
        let grouped =
            DelayMatrix::par_build_with(raw_probes.len(), anchors.len(), RowScratch::new, {
                let (world, net, raw_probes, lane, order) =
                    (&world, &net, &raw_probes, &lane, &order);
                move |scratch, k, row| {
                    let p = order[k] as usize;
                    net.campaign_row(
                        world,
                        lane,
                        scratch,
                        raw_probes[p],
                        3,
                        |_| 0x9A11 ^ (p as u64) << 20,
                        None,
                        |a, out| row[a] = DelayMatrix::cell(out.rtt()),
                    );
                }
            });
        let mut pos = vec![0u32; order.len()];
        for (k, &p) in order.iter().enumerate() {
            pos[p as usize] = k as u32;
        }
        DelayMatrix::par_build(raw_probes.len(), anchors.len(), |p, row| {
            row.copy_from_slice(grouped.row(pos[p] as usize));
        })
    });
    let cells = raw_probes.len() * anchors.len();
    let probe_report = trace.span("ipgeo.sanitize_probes", || {
        sanitize_probes(&world, &raw_probes, &anchors, &probe_rtts, soi)
    });
    let vps = probe_report.kept.clone();

    let (targets, rtt, anchor_rtt, reps) = trace.span("eval.assemble", || {
        let target_cols: Vec<usize> = match scale.target_sample {
            Some(n) if n < anchors.len() => {
                let stride = anchors.len() as f64 / n as f64;
                (0..n).map(|i| (i as f64 * stride) as usize).collect()
            }
            _ => (0..anchors.len()).collect(),
        };
        let targets: Vec<HostId> = target_cols.iter().map(|&c| anchors[c]).collect();
        let vp_rows = positions_of(&vps, &raw_probes);
        let rtt = RttMatrix::par_build(vps.len(), targets.len(), |vi, out| {
            let row = probe_rtts.row(vp_rows[vi]);
            for (slot, &col) in out.iter_mut().zip(&target_cols) {
                *slot = row[col] as f32;
            }
        });
        let anchor_rows = positions_of(&anchors, &raw_anchors);
        let anchor_rtt = RttMatrix::par_build(anchors.len(), anchors.len(), |i, out| {
            let row = mesh.row(anchor_rows[i]);
            for (slot, &col) in out.iter_mut().zip(&anchor_rows) {
                *slot = row[col] as f32;
            }
        });
        let reps: Vec<Vec<HitlistEntry>> = targets
            .iter()
            .map(|&t| {
                let prefix = world.host(t).ip.prefix24();
                world
                    .hitlist
                    .representatives(prefix, ipgeo::million::REPRESENTATIVES)
            })
            .collect();
        (targets, rtt, anchor_rtt, reps)
    });

    Composed {
        targets,
        anchors,
        vps,
        removed_anchors: anchor_report.removed,
        removed_probes: probe_report.removed,
        rtt,
        anchor_rtt,
        reps,
        cells,
    }
}

fn same_bits(a: &RttMatrix, b: &RttMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && (0..a.rows()).all(|r| {
            a.row(r)
                .iter()
                .zip(b.row(r))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Where the composition differs from `Dataset::load`, if anywhere.
fn differences(c: &Composed, d: &Dataset) -> Vec<&'static str> {
    let mut out = Vec::new();
    let pairs = [
        ("targets", c.targets == d.targets),
        ("anchors", c.anchors == d.anchors),
        ("vps", c.vps == d.vps),
        ("removed anchors", c.removed_anchors == d.removed_anchors),
        ("removed probes", c.removed_probes == d.removed_probes),
        ("rtt matrix bits", same_bits(&c.rtt, &d.rtt)),
        (
            "anchor matrix bits",
            same_bits(&c.anchor_rtt, &d.anchor_rtt),
        ),
        ("representatives", c.reps == d.reps),
    ];
    for (what, same) in pairs {
        if !same {
            out.push(what);
        }
    }
    out
}

/// Passes of the traced run: each runs `Dataset::load` and the
/// composition once, and the per-layer figures are means over the passes.
const TRACE_PASSES: usize = 2;

pub fn run_traced(args: &Args, trace: &mut Trace) -> (RunResult, Layers) {
    let mut res = RunResult::new();
    let seed = Seed(args.seed);
    let mut load_s = 0.0;
    let mut cells = 0;
    let noise = crate::host::NoiseWindow::start();
    let sampler = crate::host::ThreadSampler::start();
    for pass in 0..TRACE_PASSES {
        // Alternate which runs first, so that neither gains from going
        // second (warm allocator, page cache) in every pass.
        let mut loaded = None;
        let mut load = || {
            let t = Instant::now();
            loaded = Some(Dataset::load(EvalScale::quick(seed)));
            load_s += secs(t);
        };
        if pass % 2 == 0 {
            load();
        }
        let composed = compose(trace, seed);
        if pass % 2 == 1 {
            load();
        }
        let loaded = loaded.expect("loaded in this pass");
        cells = composed.cells;
        for what in differences(&composed, &loaded) {
            res.fail_check(&format!(
                "traced composition differs from Dataset::load in {what}"
            ));
        }
        let problems = checks::quick_dataset(&loaded);
        for p in &problems {
            res.fail_check(p);
        }
        res.op(problems.is_empty());
    }

    let (_, busy) = sampler.finish();
    let (steal, cpu) = noise.finish();
    crate::noise(&mut res, steal, cpu, busy, TRACE_PASSES as u64);
    let per_pass = |name: &str| trace.total_s(name) / TRACE_PASSES as f64;
    let campaign_s = per_pass("net-sim.campaign");
    let spans_s = trace.all_s() / TRACE_PASSES as f64;
    let load_s = load_s / TRACE_PASSES as f64;
    let layers = vec![
        ("world-sim.generate_s", per_pass("world-sim.generate"), "s"),
        ("web-sim.generate_s", per_pass("web-sim.generate"), "s"),
        ("net-sim.mesh_s", per_pass("net-sim.mesh"), "s"),
        ("net-sim.campaign_s", campaign_s, "s"),
        (
            "net-sim.campaign_ns_per_cell",
            campaign_s * 1e9 / cells as f64,
            "ns",
        ),
        (
            "ipgeo.sanitize_s",
            per_pass("ipgeo.sanitize_anchors") + per_pass("ipgeo.sanitize_probes"),
            "s",
        ),
        ("eval.assemble_s", per_pass("eval.assemble"), "s"),
        ("eval.unattributed_s", load_s - spans_s, "s"),
    ];
    println!("reference: Dataset::load untraced {load_s:.3} s, spans sum {spans_s:.3} s (means of {TRACE_PASSES} passes)");
    (res, layers)
}
