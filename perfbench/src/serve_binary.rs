//! `serve-1m-binary`: bulk enrichment over a 1,000,000-entry snapshot.
//!
//! One `QueryServer` worker serves the snapshot from disk; one client
//! thread on one connection keeps `IN_FLIGHT` pre-encoded binary frames
//! of 64 addresses outstanding (closed loop). Addresses are uniform over
//! the snapshot's entries; a quarter of every LOCATE frame falls in /24s
//! absent from it, and every fifth frame asks NEAREST for the addresses
//! the four LOCATE frames before it missed. The working set is about 15
//! times the server's 65,536-slot answer cache.

use crate::checks::{Expected, Table};
use crate::report::{median, quantile, secs, timed, RunResult, Trace};
use crate::synth::{self, Mix};
use crate::{host, Args, Layers};
use geo_model::ip::Ipv4;
use geo_serve::cache::CacheCounters;
use geo_serve::proto::{self, Decoded, Opcode, Response, ResponseWriter};
use geo_serve::{DatasetStore, LocateRecord, QueryServer};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Entries in the synthetic snapshot.
pub const ENTRIES: usize = 1_000_000;
/// Addresses per frame, and frames outstanding on the connection: the
/// defaults of `bench::loadgen` (`batch` 64, `pipeline_depth` 8), the
/// repository's own binary client.
const BATCH: usize = 64;
const IN_FLIGHT: usize = 8;
/// Every fourth address of a LOCATE frame lies in an absent /24: the
/// share measured on the paper world by `perfbench mix` (see `mix.rs`).
const MISS_EVERY: usize = 4;
/// LOCATE frames per NEAREST frame. The client asks NEAREST for exactly
/// the addresses its LOCATE frames missed, as `ipgeo query` advises on a
/// miss; `BATCH / MISS_EVERY` misses per frame fill one NEAREST frame
/// every `MISS_EVERY` LOCATE frames.
const GROUP: usize = MISS_EVERY + 1;
/// Frames in the pre-encoded pool the client cycles through: whole
/// groups, 1,048,640 addresses.
const POOL_FRAMES: usize = 3_277 * GROUP;
/// Set-ups timed for `setup_s` (median reported).
const SETUP_REPEATS: usize = 5;

/// The client's pre-encoded frames and the answer each address expects.
struct Pool {
    frames: Vec<Vec<u8>>,
    ips: Vec<u32>,
    expected: Vec<Expected>,
}

fn is_nearest(frame: usize) -> bool {
    frame % GROUP == GROUP - 1
}

fn pool(seed: u64, table: &Table, absent: &[u32]) -> Pool {
    let mut rng = Mix::new(seed ^ 0xB1AA_5EED);
    let mut frames = Vec::with_capacity(POOL_FRAMES);
    let mut ips = Vec::with_capacity(POOL_FRAMES * BATCH);
    let mut expected = Vec::with_capacity(POOL_FRAMES * BATCH);
    let mut missed = Vec::with_capacity(BATCH);
    for f in 0..POOL_FRAMES {
        let start = ips.len();
        if is_nearest(f) {
            // The addresses the group's LOCATE frames missed, in order.
            for &ip in &missed {
                ips.push(ip);
                expected.push(table.expect(ip, true));
            }
            missed.clear();
        } else {
            for i in 0..BATCH {
                let ip = if i % MISS_EVERY == MISS_EVERY - 1 {
                    let ip = absent[rng.below(absent.len() as u64) as usize] << 8
                        | rng.below(256) as u32;
                    missed.push(ip);
                    ip
                } else {
                    table.prefixes[rng.below(table.prefixes.len() as u64) as usize] << 8
                        | rng.below(256) as u32
                };
                ips.push(ip);
                expected.push(table.expect(ip, false));
            }
        }
        let batch: Vec<Ipv4> = ips[start..].iter().map(|&ip| Ipv4(ip)).collect();
        let op = if is_nearest(f) {
            Opcode::Nearest
        } else {
            Opcode::Locate
        };
        let mut frame = Vec::new();
        proto::encode_request(&mut frame, op, &batch).expect("64 addresses fit a frame");
        frames.push(frame);
    }
    Pool {
        frames,
        ips,
        expected,
    }
}

/// Checks one response against the pool frame it answers.
fn check_frame(table: &Table, pool: &Pool, f: usize, resp: &Response) -> Result<(), String> {
    let want_op = if is_nearest(f) {
        Opcode::Nearest
    } else {
        Opcode::Locate
    };
    let records: &[LocateRecord] = match resp {
        Response::Records { opcode, records } if *opcode == want_op => records,
        other => return Err(format!("frame {f}: unexpected response {other:?}")),
    };
    if records.len() != BATCH {
        return Err(format!(
            "frame {f}: {} records for {BATCH} addresses",
            records.len()
        ));
    }
    for (i, rec) in records.iter().enumerate() {
        let k = f * BATCH + i;
        table.check_record(pool.ips[k], pool.expected[k], rec)?;
    }
    Ok(())
}

/// A client connection with a receive buffer. The socket is polled
/// without blocking, so the client thread never sleeps between frames:
/// a sleeping vCPU's wake-ups show up as host steal and would make the
/// figures follow the host's load rather than the server's.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    chunk: Vec<u8>,
}

impl Conn {
    fn connect(server: &QueryServer) -> Conn {
        let stream = TcpStream::connect(server.addr()).expect("connect to the local server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream
            .set_nonblocking(true)
            .expect("nonblocking client socket");
        Conn {
            stream,
            buf: Vec::with_capacity(1 << 20),
            start: 0,
            chunk: vec![0; 64 * 1024],
        }
    }

    fn send(&mut self, mut frame: &[u8]) {
        while !frame.is_empty() {
            match self.stream.write(frame) {
                Ok(n) => frame = &frame[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => panic!("send a frame: {e}"),
            }
        }
    }

    /// Polls until one response frame is buffered and decodes it.
    fn recv(&mut self) -> Response {
        loop {
            match proto::try_decode_response(&self.buf[self.start..]) {
                Ok(Decoded::Frame(resp, used)) => {
                    self.start += used;
                    return resp;
                }
                Ok(Decoded::NeedMore) => {}
                Err(e) => panic!("undecodable response: {e}"),
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => panic!("server closed the connection"),
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => panic!("read responses: {e}"),
            }
        }
    }
}

/// Starts a server with one worker; returns it and the thread id of the
/// worker the spawn added to this process.
pub fn spawn_one_worker(store: Arc<DatasetStore>) -> (QueryServer, Option<u32>) {
    let before = host::thread_ids();
    let server = QueryServer::spawn_with_workers(store, 0, 1).expect("spawn the query server");
    let worker = host::thread_ids().into_iter().find(|t| !before.contains(t));
    (server, worker)
}

/// Opens the snapshot, starts one worker, and waits for the first
/// answered frame; returns the server, its worker thread and the time.
fn set_up(
    path: &Path,
    table: &Table,
    pool: &Pool,
    trace: Option<&mut Trace>,
    res: &mut RunResult,
) -> (QueryServer, Option<u32>, Conn, f64) {
    let t = Instant::now();
    let store = timed(trace, "geo-serve.store.open", || DatasetStore::open(path))
        .expect("the synthetic snapshot opens");
    let (server, worker) = spawn_one_worker(Arc::new(store));
    let mut conn = Conn::connect(&server);
    conn.send(&pool.frames[0]);
    let resp = conn.recv();
    let took = secs(t);
    if let Err(e) = check_frame(table, pool, 0, &resp) {
        res.fail_check(&format!("first answered frame: {e}"));
    }
    (server, worker, conn, took)
}

/// The measured window: closed loop over the pool for `seconds`.
struct Window {
    frames: u64,
    cache: CacheCounters,
    failed: u64,
    latencies_us: Vec<f64>,
    wall_s: f64,
    worker_cpu_s: f64,
    threads: usize,
    steal_s: f64,
    cpu_s: f64,
}

fn window(
    args: &Args,
    conn: &mut Conn,
    server: &QueryServer,
    worker: Option<u32>,
    table: &Table,
    pool: &Pool,
    res: &mut RunResult,
) -> Window {
    let noise = host::NoiseWindow::start();
    let worker_cpu0 = worker.map_or(f64::NAN, host::thread_cpu_s);
    let cache0 = server.cache_stats();
    let mut sent_at = std::collections::VecDeque::with_capacity(IN_FLIGHT);
    let mut next = 1usize; // frame 0 answered the set-up
    let t0 = Instant::now();
    for _ in 0..IN_FLIGHT {
        conn.send(&pool.frames[next % POOL_FRAMES]);
        sent_at.push_back((next % POOL_FRAMES, Instant::now()));
        next += 1;
    }
    let threads = host::threads();
    let mut latencies_us = Vec::with_capacity(1 << 20);
    let (mut frames, mut failed) = (0u64, 0u64);
    while let Some((f, at)) = sent_at.pop_front() {
        let resp = conn.recv();
        latencies_us.push(at.elapsed().as_secs_f64() * 1e6);
        frames += 1;
        if let Err(e) = check_frame(table, pool, f, &resp) {
            failed += 1;
            res.fail_check(&e);
        }
        if secs(t0) < args.seconds {
            conn.send(&pool.frames[next % POOL_FRAMES]);
            sent_at.push_back((next % POOL_FRAMES, Instant::now()));
            next += 1;
        }
    }
    let wall_s = secs(t0);
    let worker_cpu_s = worker.map_or(f64::NAN, host::thread_cpu_s) - worker_cpu0;
    let cache1 = server.cache_stats();
    let (steal_s, cpu_s) = noise.finish();
    Window {
        frames,
        cache: CacheCounters {
            hits: cache1.hits - cache0.hits,
            misses: cache1.misses - cache0.misses,
            evictions: cache1.evictions - cache0.evictions,
        },
        failed,
        latencies_us,
        wall_s,
        worker_cpu_s,
        threads,
        steal_s,
        cpu_s,
    }
}

/// Inputs shared by the plain and the traced run.
struct Inputs {
    path: std::path::PathBuf,
    bytes: u64,
    table: Table,
    pool: Pool,
}

fn inputs(args: &Args) -> Inputs {
    let (path, bytes) = synth::snapshot_file(args, ENTRIES);
    let (table, absent) = synth::table(args.seed, ENTRIES);
    let pool = pool(args.seed, &table, &absent);
    Inputs {
        path,
        bytes,
        table,
        pool,
    }
}

fn report_window(res: &mut RunResult, w: &Window) {
    res.attempted += w.frames;
    res.failed += w.failed;
    let queries = w.frames as f64 * BATCH as f64;
    crate::noise(res, w.steal_s, w.cpu_s, w.threads, w.frames);
    println!(
        "reference: qps={:.0} frames={} frame_p99_us={:.1} worker_cpu_s={:.3} window_s={:.3}",
        queries / w.wall_s,
        w.frames,
        quantile(&w.latencies_us, 0.99),
        w.worker_cpu_s,
        w.wall_s
    );
    println!(
        "reference: window cache hits={} misses={} evictions={}",
        w.cache.hits, w.cache.misses, w.cache.evictions
    );
}

pub fn run(args: &Args) -> RunResult {
    let mut res = RunResult::new();
    let inp = inputs(args);
    // The benchmark's own table and frame pool are resident from here
    // on; the memory metric is what the server adds on top of them.
    let rss0 = host::rss_mib();
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((server, _, _)) = live.take() {
            QueryServer::shutdown(server);
        }
        let (server, worker, conn, took) = set_up(&inp.path, &inp.table, &inp.pool, None, &mut res);
        setups.push(took);
        live = Some((server, worker, conn));
    }
    let (server, worker, mut conn) = live.expect("a live server");
    let w = window(
        args, &mut conn, &server, worker, &inp.table, &inp.pool, &mut res,
    );
    report_window(&mut res, &w);
    drop(conn);
    server.shutdown();
    let _ = std::fs::remove_file(&inp.path);

    res.metric("setup_s", median(&setups), "s");
    res.metric("op_p50_ms", median(&w.latencies_us) / 1e3, "ms");
    res.metric("peak_rss_mb", host::peak_rss_mib() - rss0, "MiB");
    res
}

/// Mean nanoseconds per call of `f` over `n` calls.
fn ns_per(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

pub fn run_traced(args: &Args, trace: &mut Trace) -> (RunResult, Layers) {
    let mut res = RunResult::new();
    let inp = inputs(args);
    let rss0 = host::rss_mib();
    let (server, worker, mut conn, _) =
        set_up(&inp.path, &inp.table, &inp.pool, Some(trace), &mut res);
    let rss_store = host::rss_mib() - rss0;
    let w = trace.span("geo-serve.window", || {
        window(
            args, &mut conn, &server, worker, &inp.table, &inp.pool, &mut res,
        )
    });
    report_window(&mut res, &w);
    drop(conn);
    server.shutdown();

    // In-process timings of the layers a frame passes through, over the
    // run's own address stream and frames.
    let store = DatasetStore::open(&inp.path).expect("the synthetic snapshot opens");
    let _ = std::fs::remove_file(&inp.path);
    let n = inp.pool.ips.len();
    let lookup_ns = trace.span("geo-serve.store.lookup", || {
        ns_per(n, |i| {
            std::hint::black_box(store.lookup(Ipv4(inp.pool.ips[i])));
        })
    });
    let nearest_ns = trace.span("geo-serve.store.nearest", || {
        ns_per(n, |i| {
            std::hint::black_box(store.lookup_nearest(Ipv4(inp.pool.ips[i])));
        })
    });
    let decode_ns = trace.span("geo-serve.proto.decode", || {
        ns_per(POOL_FRAMES, |f| {
            std::hint::black_box(proto::try_decode_request(&inp.pool.frames[f]).ok());
        })
    });
    let miss = LocateRecord::miss(Ipv4(0));
    let mut out = Vec::with_capacity(BATCH * proto::RECORD_LEN + 64);
    let encode_ns = trace.span("geo-serve.proto.encode", || {
        ns_per(POOL_FRAMES, |_| {
            out.clear();
            let wr = ResponseWriter::begin(&mut out, Opcode::Locate);
            for _ in 0..BATCH {
                wr.push_record(&mut out, std::hint::black_box(&miss));
            }
            wr.finish(&mut out);
        })
    });
    let queries = (w.frames as f64 * BATCH as f64).max(1.0);
    let layers = vec![
        ("geo-serve.format.snapshot_bytes", inp.bytes as f64, "bytes"),
        (
            "geo-serve.store.open_s",
            trace.total_s("geo-serve.store.open"),
            "s",
        ),
        ("geo-serve.store.rss_mb", rss_store, "MiB"),
        ("geo-serve.store.lookup_ns", lookup_ns, "ns"),
        ("geo-serve.store.nearest_ns", nearest_ns, "ns"),
        ("geo-serve.proto.decode_ns", decode_ns, "ns"),
        ("geo-serve.proto.encode_ns", encode_ns, "ns"),
        (
            "geo-serve.cache.hit_ratio",
            w.cache.hits as f64 / (w.cache.hits + w.cache.misses).max(1) as f64,
            "ratio",
        ),
        (
            "geo-serve.cache.evictions_per_query",
            w.cache.evictions as f64 / queries,
            "ratio",
        ),
        (
            "geo-serve.server.cpu_us_per_query",
            w.worker_cpu_s * 1e6 / queries,
            "us",
        ),
    ];
    (res, layers)
}
