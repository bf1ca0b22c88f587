//! `serve-line-hot`: interactive users with skewed popularity.
//!
//! A snapshot the size of the paper world's published dataset (5,094
//! entries, all of which fit the answer cache) is served by one worker.
//! One client thread sends single-address line LOCATE / NEAREST requests
//! on one connection, open loop at `RATE` lines per second; each line's
//! latency is timed from its scheduled send. Addresses follow zipf s=1.0
//! over the prefixes; every fourth address lies in an absent /24, and the
//! client follows each such LOCATE with a NEAREST for it. Every
//! `RELOAD_EVERY` lines of the schedule the client installs a fresh
//! generation with identical content through `QueryServer::reload`,
//! which empties the per-generation cache.

use crate::checks::{ip_text, Expected, Table};
use crate::report::{median, quantile, secs, RunResult, Trace};
use crate::serve_binary::spawn_one_worker;
use crate::synth::{self, Mix};
use crate::{host, Args, Layers};
use geo_serve::{DatasetStore, QueryServer};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Entries in the snapshot: the allocated /24s of the paper world at
/// seed 2023.
pub const ENTRIES: usize = 5_094;
/// Offered load, lines per second.
const RATE: f64 = 20_000.0;
/// Every fourth address lies in an absent /24: the share measured on the
/// paper world by `perfbench mix` (see `mix.rs`). The client LOCATEs every
/// address and asks NEAREST for each one that missed, as `ipgeo query`
/// advises on a miss.
const MISS_EVERY: usize = 4;
/// A generation install every two seconds of the schedule.
const RELOAD_EVERY: usize = 40_000;
/// Distinct pre-formatted lines the client cycles through.
const POOL: usize = 65_536;
/// How long the client waits for the last replies once all are sent.
const DRAIN: Duration = Duration::from_secs(2);
/// Set-ups timed for `setup_s` (median reported).
const SETUP_REPEATS: usize = 5;

struct Pool {
    lines: Vec<String>,
    ips: Vec<u32>,
    nearest: Vec<bool>,
    expected: Vec<Expected>,
}

/// Zipf(s = 1) draws over the table's rows, ranked by a seeded
/// permutation, plus the fixed share of misses.
fn pool(seed: u64, table: &Table, absent: &[u32]) -> Pool {
    let n = table.prefixes.len();
    let mut rng = Mix::new(seed ^ 0x21F5_11E0);
    let mut rank_to_row: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        rank_to_row.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for r in 1..=n {
        acc += 1.0 / r as f64;
        cdf.push(acc);
    }
    let mut p = Pool {
        lines: Vec::with_capacity(POOL),
        ips: Vec::with_capacity(POOL),
        nearest: Vec::with_capacity(POOL),
        expected: Vec::with_capacity(POOL),
    };
    let push = |p: &mut Pool, ip: u32, nearest: bool| {
        let verb = if nearest { "NEAREST" } else { "LOCATE" };
        p.lines.push(format!("{verb} {}\n", ip_text(ip)));
        p.ips.push(ip);
        p.nearest.push(nearest);
        p.expected.push(table.expect(ip, nearest));
    };
    let mut i = 0;
    while p.lines.len() < POOL {
        let miss = i % MISS_EVERY == MISS_EVERY - 1;
        let slot = if miss {
            absent[rng.below(absent.len() as u64) as usize]
        } else {
            let u = rng.unit() * acc;
            let rank = cdf.partition_point(|&c| c < u).min(n - 1);
            table.prefixes[rank_to_row[rank]]
        };
        let ip = slot << 8 | rng.below(256) as u32;
        push(&mut p, ip, false);
        if miss && p.lines.len() < POOL {
            push(&mut p, ip, true);
        }
        i += 1;
    }
    p
}

/// Opens the snapshot, starts one worker, and warms its cache with one
/// LOCATE per entry, each sent after the previous reply; returns the
/// server, its worker thread and the time. The client polls without
/// sleeping, like the measured window, so the warm-up does not pay a
/// vCPU wake-up per line.
fn set_up(path: &Path, table: &Table, res: &mut RunResult) -> (QueryServer, Option<u32>, f64) {
    let t = Instant::now();
    let store = DatasetStore::open(path).expect("the synthetic snapshot opens");
    let (server, worker) = spawn_one_worker(Arc::new(store));
    let mut stream = TcpStream::connect(server.addr()).expect("connect to the local server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_nonblocking(true)
        .expect("nonblocking client socket");
    let mut reply = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut bad = 0;
    for &p in &table.prefixes {
        let ip = p << 8 | 1;
        let line = format!("LOCATE {}\n", ip_text(ip));
        let mut rest = line.as_bytes();
        while !rest.is_empty() {
            match stream.write(rest) {
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => panic!("send a warm-up line: {e}"),
            }
        }
        reply.clear();
        while reply.last() != Some(&b'\n') {
            match stream.read(&mut chunk) {
                Ok(0) => panic!("server closed the warm-up connection"),
                Ok(n) => reply.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => panic!("read a warm-up reply: {e}"),
            }
        }
        let text = std::str::from_utf8(&reply).unwrap_or("<non-UTF-8>");
        if table
            .check_line(ip, false, table.locate(p), text.trim_end())
            .is_err()
        {
            bad += 1;
        }
    }
    let took = secs(t);
    if bad > 0 {
        res.fail_check(&format!("{bad} warm-up replies differ from the table"));
    }
    (server, worker, took)
}

struct Window {
    lines: u64,
    failed: u64,
    latencies_us: Vec<f64>,
    lateness_us: Vec<f64>,
    installs_us: Vec<f64>,
    install_failures: u64,
    wall_s: f64,
    worker_cpu_s: f64,
    threads: usize,
    steal_s: f64,
    cpu_s: f64,
}

fn window(
    args: &Args,
    server: &QueryServer,
    worker: Option<u32>,
    fresh: &[Arc<DatasetStore>],
    table: &Table,
    pool: &Pool,
    res: &mut RunResult,
) -> Window {
    let total = (args.seconds * RATE).ceil() as usize;
    let stream = TcpStream::connect(server.addr()).expect("connect to the local server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_nonblocking(true)
        .expect("nonblocking client socket");
    let mut stream = stream;
    let noise = host::NoiseWindow::start();
    let worker_cpu0 = worker.map_or(f64::NAN, host::thread_cpu_s);
    let gap_ns = 1e9 / RATE;
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut out_pos = 0;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut fifo: VecDeque<(usize, f64)> = VecDeque::with_capacity(1 << 12);
    let mut latencies_us = Vec::with_capacity(total);
    let mut lateness_us = Vec::with_capacity(total);
    let mut installs_us = Vec::new();
    let mut install_failures = 0;
    let (mut sent, mut lines, mut failed) = (0usize, 0u64, 0u64);
    let mut threads = 0;
    let mut generation = server.generation();
    let t0 = Instant::now();
    let mut drain_from = None;
    loop {
        let now_ns = t0.elapsed().as_nanos() as f64;
        while sent < total && sent as f64 * gap_ns <= now_ns {
            if sent > 0 && sent % RELOAD_EVERY == 0 {
                let store = Arc::clone(&fresh[sent / RELOAD_EVERY - 1]);
                let t = Instant::now();
                let got = server.reload(store);
                installs_us.push(t.elapsed().as_secs_f64() * 1e6);
                generation += 1;
                res.op(got == generation);
                if got != generation {
                    install_failures += 1;
                    res.fail_check(&format!(
                        "reload installed generation {got}, want {generation}"
                    ));
                    generation = got;
                }
            }
            let k = sent % POOL;
            out.extend_from_slice(pool.lines[k].as_bytes());
            let due = sent as f64 * gap_ns;
            lateness_us.push((t0.elapsed().as_nanos() as f64 - due) / 1e3);
            fifo.push_back((k, due));
            sent += 1;
        }
        if out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("send lines: {e}"),
            }
            if out_pos == out.len() {
                out.clear();
                out_pos = 0;
            }
        }
        let mut chunk = [0u8; 16 * 1024];
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = t0.elapsed().as_nanos() as f64;
                inbuf.extend_from_slice(&chunk[..n]);
                let mut start = 0;
                while let Some(nl) = inbuf[start..].iter().position(|&b| b == b'\n') {
                    let reply =
                        std::str::from_utf8(&inbuf[start..start + nl]).unwrap_or("<non-UTF-8>");
                    start += nl + 1;
                    let Some((k, due)) = fifo.pop_front() else {
                        res.fail_check(&format!("reply `{reply}` to no request"));
                        continue;
                    };
                    latencies_us.push((at - due) / 1e3);
                    lines += 1;
                    if let Err(e) =
                        table.check_line(pool.ips[k], pool.nearest[k], pool.expected[k], reply)
                    {
                        failed += 1;
                        res.fail_check(&e);
                    }
                }
                inbuf.drain(..start);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => panic!("read replies: {e}"),
        }
        if sent == total {
            if threads == 0 {
                threads = host::threads();
            }
            if fifo.is_empty() {
                break;
            }
            let since = *drain_from.get_or_insert_with(Instant::now);
            if since.elapsed() > DRAIN {
                break;
            }
        }
        std::hint::spin_loop();
    }
    // Lines never answered count as failed operations.
    let missing = fifo.len() as u64;
    if missing > 0 {
        res.fail_check(&format!("{missing} lines never answered"));
    }
    let wall_s = secs(t0);
    let worker_cpu_s = worker.map_or(f64::NAN, host::thread_cpu_s) - worker_cpu0;
    let (steal_s, cpu_s) = noise.finish();
    Window {
        lines: lines + missing,
        failed: failed + missing,
        latencies_us,
        lateness_us,
        installs_us,
        install_failures,
        wall_s,
        worker_cpu_s,
        threads,
        steal_s,
        cpu_s,
    }
}

/// Runs set-ups and the window; returns the window and the server's
/// cache counters and generation.
fn measure(
    args: &Args,
    res: &mut RunResult,
) -> (Window, Vec<f64>, geo_serve::cache::CacheCounters, u64, u64) {
    let (path, bytes) = synth::snapshot_file(args, ENTRIES);
    let (table, absent) = synth::table(args.seed, ENTRIES);
    let pool = pool(args.seed, &table, &absent);
    let reloads = (args.seconds * RATE).ceil() as usize / RELOAD_EVERY + 1;
    let base = DatasetStore::open(&path).expect("the synthetic snapshot opens");
    let fresh: Vec<Arc<DatasetStore>> = (0..reloads).map(|_| Arc::new(base.clone())).collect();
    drop(base);

    let mut setups = Vec::new();
    let mut live: Option<(QueryServer, Option<u32>)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((server, _)) = live.take() {
            server.shutdown();
        }
        let (server, worker, took) = set_up(&path, &table, res);
        setups.push(took);
        live = Some((server, worker));
    }
    let _ = std::fs::remove_file(&path);
    let (server, worker) = live.expect("a live server");
    let cache0 = server.cache_stats();
    let w = window(args, &server, worker, &fresh, &table, &pool, res);
    let cache1 = server.cache_stats();
    let cache = geo_serve::cache::CacheCounters {
        hits: cache1.hits - cache0.hits,
        misses: cache1.misses - cache0.misses,
        evictions: cache1.evictions - cache0.evictions,
    };
    let generation = server.generation();
    server.shutdown();

    res.attempted += w.lines;
    res.failed += w.failed;
    crate::noise(res, w.steal_s, w.cpu_s, w.threads, w.lines);
    println!(
        "reference: offered={RATE:.0}/s achieved={:.0}/s p99_us={:.1} (n={}) generator_late_us p50={:.1} p99={:.1} max={:.1} installs={} install_failures={}",
        w.lines as f64 / w.wall_s,
        quantile(&w.latencies_us, 0.99),
        w.latencies_us.len(),
        median(&w.lateness_us),
        quantile(&w.lateness_us, 0.99),
        quantile(&w.lateness_us, 1.0),
        w.installs_us.len(),
        w.install_failures
    );
    println!(
        "reference: window cache hits={} misses={} evictions={} generation={generation}",
        cache.hits, cache.misses, cache.evictions
    );
    (w, setups, cache, generation, bytes)
}

pub fn run(args: &Args) -> RunResult {
    let mut res = RunResult::new();
    let (w, setups, _, _, _) = measure(args, &mut res);
    res.metric("setup_s", median(&setups), "s");
    res.metric("op_p50_ms", median(&w.latencies_us) / 1e3, "ms");
    res.metric("peak_rss_mb", host::peak_rss_mib(), "MiB");
    res
}

pub fn run_traced(args: &Args, trace: &mut Trace) -> (RunResult, Layers) {
    let mut res = RunResult::new();
    let (w, _, cache, generation, bytes) =
        trace.span("geo-serve.window", || measure(args, &mut res));
    // Reloads and their cost are reference figures: the gated workloads
    // never reload.
    println!(
        "reference: reloads={} install_us_p50={:.1}",
        generation - 1,
        median(&w.installs_us)
    );
    let layers = vec![
        ("geo-serve.format.snapshot_bytes", bytes as f64, "bytes"),
        (
            "geo-serve.cache.hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
            "ratio",
        ),
        (
            "geo-serve.cache.evictions_per_query",
            cache.evictions as f64 / (w.lines as f64).max(1.0),
            "ratio",
        ),
        (
            "geo-serve.server.cpu_us_per_query",
            w.worker_cpu_s * 1e6 / (w.lines as f64).max(1.0),
            "us",
        ),
    ];
    (res, layers)
}
