//! The repository benchmark's measuring binary. `perfbench/run.py` builds
//! it and runs one workload per process:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! perfbench synth --seed <n> --entries <n> --out <file>
//! perfbench selftest
//! perfbench mix --seed <n>
//! ```
//!
//! A run prints its noise figures and every metric on lines of their
//! own, then one JSON result line: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the traced variant, reports the per-layer metrics and writes the
//! spans to `<out>/spans-<workload>-<seed>.json`.

// The benchmark times with the wall clock by design.
#![allow(clippy::disallowed_methods)]

mod build_quick;
mod checks;
mod host;
mod mix;
mod publish;
mod report;
mod selftest;
mod serve_binary;
mod serve_line;
mod synth;

use report::{RunResult, Trace};
use std::path::PathBuf;

/// Parsed command line of a workload run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

const WORKLOADS: [&str; 4] = [
    "build-quick",
    "publish-internet",
    "serve-1m-binary",
    "serve-line-hot",
];

/// Every per-layer metric, in report order; a traced run reports each
/// one, with 0 for the layers its workload never calls.
const LAYERS: [(&str, &str); 26] = [
    ("world-sim.generate_s", "s"),
    ("web-sim.generate_s", "s"),
    ("net-sim.mesh_s", "s"),
    ("net-sim.campaign_s", "s"),
    ("net-sim.campaign_ns_per_cell", "ns"),
    ("ipgeo.sanitize_s", "s"),
    ("eval.assemble_s", "s"),
    ("eval.unattributed_s", "s"),
    ("ipgeo.vp_selection_s", "s"),
    ("ipgeo.build_dataset_s", "s"),
    ("ipgeo.latency_prefixes", "count"),
    ("ipgeo.probes_requested", "count"),
    ("ipgeo.probes_delivered", "count"),
    ("geo-hints.build_fused_s", "s"),
    ("geo-hints.verify_probes_requested", "count"),
    ("geo-serve.format.encode_s", "s"),
    ("geo-serve.format.snapshot_bytes", "bytes"),
    ("geo-serve.store.open_s", "s"),
    ("geo-serve.store.rss_mb", "MiB"),
    ("geo-serve.store.lookup_ns", "ns"),
    ("geo-serve.store.nearest_ns", "ns"),
    ("geo-serve.proto.decode_ns", "ns"),
    ("geo-serve.proto.encode_ns", "ns"),
    ("geo-serve.cache.hit_ratio", "ratio"),
    ("geo-serve.cache.evictions_per_query", "ratio"),
    ("geo-serve.server.cpu_us_per_query", "us"),
];

/// Per-layer figures a traced run measured: name, value, unit.
pub type Layers = Vec<(&'static str, f64, &'static str)>;

/// Prints the host-noise figures of a timed window (for reference, not
/// gated) and checks the run's busy threads against the CPU count.
pub fn noise(res: &mut RunResult, steal_s: f64, cpu_s: f64, busy_threads: usize, ops: u64) {
    let nproc = host::nproc();
    println!(
        "noise: steal_s={steal_s:.3} process_cpu_s={cpu_s:.3} busy_threads={busy_threads} nproc={nproc} ops={ops}"
    );
    if busy_threads > nproc {
        res.fail_check(&format!("{busy_threads} busy threads on {nproc} CPUs"));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> --out <dir>\n       perfbench synth --seed <n> --entries <n> --out <file>\n       perfbench selftest\n       perfbench mix --seed <n>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn flag<'a>(argv: &'a [String], name: &str) -> Option<&'a str> {
    argv.iter()
        .position(|a| a == name)
        .and_then(|i| argv.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(argv: &[String], name: &str) -> T {
    flag(argv, name)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("synth") => {
            let seed: u64 = parse(&argv, "--seed");
            let entries: usize = parse(&argv, "--entries");
            let out: PathBuf = parse(&argv, "--out");
            synth::write_snapshot(seed, entries, &out);
            return;
        }
        Some("selftest") => std::process::exit(selftest::run()),
        Some("mix") => {
            mix::run(parse(&argv, "--seed"));
            return;
        }
        _ => {}
    }
    let args = Args {
        workload: parse(&argv, "--workload"),
        seed: parse(&argv, "--seed"),
        seconds: parse(&argv, "--seconds"),
        trace: parse::<u8>(&argv, "--trace") == 1,
        out_dir: parse(&argv, "--out"),
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    std::fs::create_dir_all(&args.out_dir).expect("create the output directory");

    let result = if args.trace {
        let mut trace = Trace::new();
        let (mut res, layers) = match args.workload.as_str() {
            "build-quick" => build_quick::run_traced(&args, &mut trace),
            "publish-internet" => publish::run_traced(&args, &mut trace),
            "serve-1m-binary" => serve_binary::run_traced(&args, &mut trace),
            _ => serve_line::run_traced(&args, &mut trace),
        };
        for (name, unit) in LAYERS {
            let value = layers
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0.0, |(_, v, _)| *v);
            res.metric(name, value, unit);
        }
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.json", args.workload, args.seed));
        trace.write_json(&path).expect("write the span file");
        println!("spans written to {}", path.display());
        res
    } else {
        match args.workload.as_str() {
            "build-quick" => build_quick::run(&args),
            "publish-internet" => publish::run(&args),
            "serve-1m-binary" => serve_binary::run(&args),
            _ => serve_line::run(&args),
        }
    };
    finish(result);
}

fn finish(result: RunResult) {
    result.print();
    if !result.correct {
        std::process::exit(1);
    }
}
