//! The synthetic `.igds` snapshots of the serve workloads, and the
//! benchmark's own table of what they hold.
//!
//! Recipe (every draw is a pure function of the seed and the /24 slot,
//! so the serving process can rebuild its table without reading the
//! file the program wrote):
//!
//! - slots are consecutive /24s from 1.0.0.0; a slot is present with
//!   probability 1/2 until `n` entries exist, so half of the /24s in the
//!   covered range are absent from the snapshot. On the paper world, the
//!   /24s `web-sim` opens after publication are 48-51% of all allocated
//!   ones (`perfbench mix`, seeds 1, 2 and 2023);
//! - coordinates are uniform in latitude [-55, 70) and longitude
//!   [-180, 180) on a grid of 2^-16 degrees, so that `GeoPoint`'s
//!   longitude wrapping is exact and the bits the server returns can be
//!   compared with the table's;
//! - the evidence mix pools the two datasets `publish-internet` builds at
//!   seed 2023 (10,188 entries): geofeed 20.6%, DNS hint 24.4%, latency
//!   15.3%, fused 39.7%, no WHOIS;
//! - DNS-hint hostnames are 31-36 characters long; 7.5% of fused entries
//!   carry a 24-33 character hostname; latency and fused entries carry
//!   299-300 VPs, and fused source masks split cbg 89% / cbg+hint 3.3% /
//!   cbg+db 3.4% / cbg+hint+db 4.2%, as in that dataset.

use crate::checks::{self, Table};
use geo_model::ip::Prefix24;
use geo_model::point::GeoPoint;
use geo_model::units::Ms;
use ipgeo::publish::{DatasetEntry, Evidence};
use std::path::Path;
use world_sim::ids::HostId;

/// First /24 of the synthetic address range (1.0.0.0/24).
pub const FIRST_SLOT: u32 = 1 << 16;

/// SplitMix64: the benchmark's own generator, independent of the
/// program's RNG.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

/// The generator of one slot's draws.
fn slot_rng(seed: u64, slot: u32, stream: u64) -> Mix {
    let mut m = Mix::new(seed ^ stream.rotate_left(32));
    Mix::new(m.next() ^ u64::from(slot).wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// What the table needs of one entry: drawn first from the slot stream.
fn head(rng: &mut Mix) -> (f64, f64, u8) {
    const STEPS: f64 = 65_536.0;
    let lat = -55.0 + rng.below(125 * 65_536) as f64 / STEPS;
    let lon = -180.0 + rng.below(360 * 65_536) as f64 / STEPS;
    let r = rng.below(1000);
    let tag = match r {
        0..=205 => checks::TAG_GEOFEED,
        206..=449 => checks::TAG_DNS,
        450..=602 => checks::TAG_LATENCY,
        _ => checks::TAG_FUSED,
    };
    (lat, lon, tag)
}

/// Walks the slots, calling `f(slot)` for each present one, until `n`
/// entries exist; returns every absent slot in the covered range.
fn walk(seed: u64, n: usize, mut f: impl FnMut(u32)) -> Vec<u32> {
    let mut absent = Vec::new();
    let mut present = 0;
    let mut slot = FIRST_SLOT;
    while present < n {
        if slot_rng(seed, slot, 1).below(2) == 0 {
            f(slot);
            present += 1;
        } else {
            absent.push(slot);
        }
        slot += 1;
    }
    absent
}

/// The benchmark's table of the `n`-entry snapshot for `seed`, and the
/// /24s absent from it inside the covered range.
pub fn table(seed: u64, n: usize) -> (Table, Vec<u32>) {
    let mut t = Table {
        prefixes: Vec::with_capacity(n),
        lat: Vec::with_capacity(n),
        lon: Vec::with_capacity(n),
        method: Vec::with_capacity(n),
    };
    let absent = walk(seed, n, |slot| {
        let (lat, lon, tag) = head(&mut slot_rng(seed, slot, 2));
        t.prefixes.push(slot);
        t.lat.push(lat);
        t.lon.push(lon);
        t.method.push(tag);
    });
    (t, absent)
}

fn hostname(rng: &mut Mix, len: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut s: Vec<u8> = (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
        .collect();
    // Label boundaries where real router names have them.
    for i in [4, 9, len.saturating_sub(12), len.saturating_sub(4)] {
        if i > 0 && i + 1 < len {
            s[i] = b'.';
        }
    }
    String::from_utf8(s).expect("ASCII")
}

/// The full entries of the `n`-entry snapshot for `seed`.
pub fn entries(seed: u64, n: usize) -> Vec<DatasetEntry> {
    let mut out = Vec::with_capacity(n);
    walk(seed, n, |slot| {
        let mut rng = slot_rng(seed, slot, 2);
        let (lat, lon, tag) = head(&mut rng);
        let vps = 299 + rng.below(2) as usize;
        let best_rtt = Ms(0.5 + 150.0 * rng.unit());
        let best_vp = HostId(rng.below(10_000) as u32);
        let evidence = match tag {
            checks::TAG_GEOFEED => Evidence::Geofeed,
            checks::TAG_DNS => {
                let len = 31 + rng.below(6) as usize;
                Evidence::DnsHint {
                    hostname: hostname(&mut rng, len),
                }
            }
            checks::TAG_LATENCY => Evidence::Latency {
                vps,
                best_rtt,
                best_vp,
            },
            _ => {
                let (sources, confidence) = match rng.below(1000) {
                    0..=889 => (1, 0.70),
                    890..=922 => (3, 0.97),
                    923..=956 => (5, 0.85),
                    _ => (7, 0.985),
                };
                let hostname = (rng.below(1000) < 75).then(|| {
                    let len = 24 + rng.below(10) as usize;
                    hostname(&mut rng, len)
                });
                Evidence::Fused {
                    confidence,
                    sources,
                    vps,
                    best_rtt,
                    best_vp,
                    hostname,
                }
            }
        };
        out.push(DatasetEntry {
            prefix: Prefix24(slot),
            location: GeoPoint::new(lat, lon),
            evidence,
        });
    });
    out
}

/// Encodes the snapshot with the program's `.igds` writer and saves it.
pub fn write_snapshot(seed: u64, n: usize, out: &Path) {
    let bytes = geo_serve::format::encode(&entries(seed, n), seed, 0);
    std::fs::write(out, bytes).expect("write the synthetic snapshot");
}

/// Synthesises the `n`-entry snapshot for the run's seed in a child
/// process (so its encoding never counts towards the serving process's
/// memory high-water mark) and returns the file and its size.
pub fn snapshot_file(args: &crate::Args, n: usize) -> (std::path::PathBuf, u64) {
    let path = args.out_dir.join(format!(
        "synth-{}-{}-{}.igds",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let status = std::process::Command::new(exe)
        .args([
            "synth",
            "--seed",
            &args.seed.to_string(),
            "--entries",
            &n.to_string(),
            "--out",
        ])
        .arg(&path)
        .status()
        .expect("run the snapshot synthesiser");
    assert!(status.success(), "snapshot synthesis failed: {status}");
    let bytes = std::fs::metadata(&path)
        .expect("synthesised snapshot exists")
        .len();
    (path, bytes)
}
