//! `perfbench mix --seed <n>`: the share of queries the serve workloads
//! send to /24s absent from the snapshot, measured on the paper world.
//!
//! The published dataset holds one entry per /24 the world allocated when
//! it was generated (`publish-internet`). `web-sim` then adds the
//! landmark web servers, and some of them open /24s of their own: a
//! snapshot published before them does not know those prefixes. A client
//! that enriches every address of the world after `web-sim` misses on
//! exactly those hosts. This prints that share, and the share of all
//! allocated /24s those new prefixes make up. The serve workloads use a
//! miss share of 1/4 and an absent-slot share of 1/2, the simple
//! fractions nearest to the figures at seeds 1, 2 and 2023 (0.21-0.23
//! and 0.48-0.51).

use std::collections::BTreeSet;
use web_sim::ecosystem::{WebConfig, WebEcosystem};
use world_sim::{World, WorldConfig};

pub fn run(seed: u64) {
    let mut world =
        World::generate(WorldConfig::paper(geo_model::rng::Seed(seed))).expect("paper preset");
    let published: BTreeSet<u32> = world.plan.prefixes().map(|(p, _)| p.0).collect();
    let hosts_before = world.hosts.len();
    WebEcosystem::generate(&mut world, &WebConfig::default()).expect("default web config");
    let absent = world
        .hosts
        .iter()
        .filter(|h| !published.contains(&h.ip.prefix24().0))
        .count();
    let new_prefixes = world.plan.allocated() - published.len();
    println!(
        "seed={seed} published_prefixes={} hosts_at_publication={hosts_before} hosts_after_web_sim={} \
         new_prefixes={new_prefixes} hosts_in_new_prefixes={absent} miss_share={:.4} absent_prefix_share={:.4}",
        published.len(),
        world.hosts.len(),
        absent as f64 / world.hosts.len() as f64,
        new_prefixes as f64 / world.plan.allocated() as f64,
    );
}
