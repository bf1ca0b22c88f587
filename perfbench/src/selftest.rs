//! Self-test of the output checkers: each one first accepts a correct
//! answer, then is fed one altered answer and must reject it. Runs on
//! the miniature world so it takes seconds.

use crate::checks::{self, Table};
use crate::synth;
use eval::{Dataset, EvalScale};
use geo_model::ip::{Ipv4, Prefix24};
use geo_model::point::GeoPoint;
use geo_model::rng::Seed;
use geo_model::units::Ms;
use geo_serve::LocateRecord;
use ipgeo::publish::{build_dataset, DatasetEntry, Evidence};
use ipgeo::two_step::greedy_coverage;
use net_sim::Network;
use world_sim::{World, WorldConfig};

struct Tally {
    failures: Vec<String>,
    cases: usize,
}

impl Tally {
    /// `accepts` must be true for the correct answer and `rejects` false
    /// for the altered one.
    fn case(&mut self, name: &str, accepts: bool, rejects: bool) {
        self.cases += 1;
        let verdict = if accepts && rejects { "ok" } else { "FAILED" };
        println!("selftest {name}: {verdict}");
        if !(accepts && rejects) {
            self.failures.push(name.to_string());
        }
    }
}

fn quick_checker(t: &mut Tally) {
    let fresh = || Dataset::load(EvalScale::tiny(Seed(2023)));
    let d = fresh();
    let clean = checks::quick_dataset(&d).is_empty();

    let mut split = fresh();
    let moved = split.removed_anchors.pop().or_else(|| split.anchors.pop());
    if let Some(a) = moved {
        split.removed_probes.push(world_sim::ids::HostId(a.0));
    }
    t.case(
        "build-quick: host missing from the kept/removed split",
        clean,
        !checks::quick_dataset(&split).is_empty(),
    );

    let mut fast = fresh();
    fast.rtt.set(0, 0, Some(Ms(1e-3)));
    t.case(
        "build-quick: RTT below the fibre floor",
        clean,
        !checks::quick_dataset(&fast).is_empty(),
    );

    let mut infinite = fresh();
    infinite.anchor_rtt.set(0, 1, Some(Ms(f64::INFINITY)));
    t.case(
        "build-quick: RTT not finite",
        clean,
        !checks::quick_dataset(&infinite).is_empty(),
    );
}

fn publish_checker(t: &mut Tally) {
    let world = World::generate(WorldConfig::small(Seed(2023))).expect("small preset is valid");
    let net = Network::new(Seed(2023));
    let vps: Vec<_> = world
        .probes
        .iter()
        .copied()
        .filter(|&p| !world.host(p).is_mis_geolocated())
        .collect();
    let mesh = greedy_coverage(&world, &vps, 40.min(vps.len()));
    let prefixes: Vec<Prefix24> = world.plan.prefixes().map(|(p, _)| p).collect();
    let entries = build_dataset(&world, &net, &mesh, &prefixes, 1);
    let clean = checks::published(&world, &prefixes, &entries).0.is_empty();
    let rejects =
        |altered: &[DatasetEntry]| !checks::published(&world, &prefixes, altered).0.is_empty();

    let mut dropped = entries.clone();
    dropped.pop();
    t.case(
        "publish: a prefix without an entry",
        clean,
        rejects(&dropped),
    );

    let mut dup = entries.clone();
    dup[1] = dup[0].clone();
    t.case("publish: a duplicated prefix", clean, rejects(&dup));

    let alter = |pick: fn(&Evidence) -> bool, f: &dyn Fn(&mut DatasetEntry)| {
        let mut v = entries.clone();
        let i = v.iter().position(|e| pick(&e.evidence));
        if let Some(i) = i {
            f(&mut v[i]);
        }
        (i.is_some(), v)
    };
    let (found, geofeed) = alter(|e| matches!(e, Evidence::Geofeed), &|e| {
        e.location = GeoPoint::new(e.location.lat() + 1.0, e.location.lon());
    });
    t.case(
        "publish: geofeed entry off its city centre",
        clean && found,
        rejects(&geofeed),
    );

    let (found, floor) = alter(|e| matches!(e, Evidence::Latency { .. }), &|e| {
        if let Evidence::Latency { best_rtt, .. } = &mut e.evidence {
            *best_rtt = Ms(1e-3);
        }
    });
    t.case(
        "publish: best_rtt below the fibre floor",
        clean && found,
        rejects(&floor),
    );

    let (found, far) = alter(|e| matches!(e, Evidence::Latency { .. }), &|e| {
        e.location = GeoPoint::new(-e.location.lat(), e.location.lon() + 180.0);
    });
    t.case(
        "publish: estimate outside the best VP's circle",
        clean && found,
        rejects(&far),
    );
}

fn serve_checkers(t: &mut Tally) {
    let (table, absent): (Table, Vec<u32>) = synth::table(7, 1000);
    let row = 10;
    let ip = table.prefixes[row] << 8 | 9;
    let good = LocateRecord {
        hit: true,
        prefix: Prefix24(table.prefixes[row]),
        lat_bits: table.lat[row].to_bits(),
        lon_bits: table.lon[row].to_bits(),
        method: table.method[row],
        distance: 0,
        confidence_bits: 0,
    };
    let want = table.expect(ip, false);
    let ok = table.check_record(ip, want, &good).is_ok();
    let mut moved = good;
    moved.lat_bits = (table.lat[row] + 1e-9).to_bits();
    t.case(
        "binary: moved coordinates",
        ok,
        table.check_record(ip, want, &moved).is_err(),
    );
    let mut method = good;
    method.method = (good.method + 1) % 5;
    t.case(
        "binary: wrong method",
        ok,
        table.check_record(ip, want, &method).is_err(),
    );
    let miss_ip = absent[0] << 8 | 3;
    let miss = LocateRecord::miss(Ipv4(miss_ip));
    let miss_ok = table
        .check_record(miss_ip, table.expect(miss_ip, false), &miss)
        .is_ok();
    t.case(
        "binary: hit reported for an absent /24",
        miss_ok,
        table
            .check_record(miss_ip, table.expect(miss_ip, false), &good)
            .is_err(),
    );
    // NEAREST of an absent /24 between two present ones: the benchmark's
    // own search, ties to the lower prefix.
    let near = table
        .expect(miss_ip, true)
        .expect("a non-empty table has a nearest entry");
    let mut rec = good;
    rec.prefix = Prefix24(table.prefixes[near.0]);
    rec.lat_bits = table.lat[near.0].to_bits();
    rec.lon_bits = table.lon[near.0].to_bits();
    rec.method = table.method[near.0];
    rec.distance = near.1;
    let near_ok = table.check_record(miss_ip, Some(near), &rec).is_ok();
    let mut far = rec;
    far.distance += 1;
    t.case(
        "binary: wrong NEAREST distance",
        near_ok,
        table.check_record(miss_ip, Some(near), &far).is_err(),
    );

    let line = format!(
        "OK {},{:.4},{:.4},{},0.95,-",
        checks::prefix_text(table.prefixes[row]),
        table.lat[row],
        table.lon[row],
        checks::method_label(table.method[row])
    );
    let line_ok = table.check_line(ip, false, want, &line).is_ok();
    let bad_lat = line.replacen(
        &format!("{:.4}", table.lat[row]),
        &format!("{:.4}", table.lat[row] + 0.001),
        1,
    );
    t.case(
        "line: moved coordinates",
        line_ok,
        table.check_line(ip, false, want, &bad_lat).is_err(),
    );
    t.case(
        "line: ERR instead of an answer",
        line_ok,
        table.check_line(ip, false, want, "ERR busy").is_err(),
    );
    let near_line = format!(
        "OK {},{:.4},{:.4},{},0.95,- distance={}",
        checks::prefix_text(table.prefixes[near.0]),
        table.lat[near.0],
        table.lon[near.0],
        checks::method_label(table.method[near.0]),
        near.1
    );
    let near_line_ok = table
        .check_line(miss_ip, true, Some(near), &near_line)
        .is_ok();
    let off = near_line.replace(
        &format!("distance={}", near.1),
        &format!("distance={}", near.1 + 1),
    );
    t.case(
        "line: wrong NEAREST distance",
        near_line_ok,
        table.check_line(miss_ip, true, Some(near), &off).is_err(),
    );
}

/// Runs every case; returns the process exit code.
pub fn run() -> i32 {
    let mut t = Tally {
        failures: Vec::new(),
        cases: 0,
    };
    serve_checkers(&mut t);
    publish_checker(&mut t);
    quick_checker(&mut t);
    println!(
        "selftest: {} of {} cases passed",
        t.cases - t.failures.len(),
        t.cases
    );
    i32::from(!t.failures.is_empty())
}
