//! Output checks computed apart from the program: the benchmark's own
//! geometry, its own table of the snapshot entries it generated, and its
//! own search. Each checker returns the problems it found (empty = pass);
//! `selftest` feeds each one an altered answer and expects a complaint.

use eval::Dataset;
use geo_model::ip::Prefix24;
use geo_serve::LocateRecord;
use ipgeo::publish::{DatasetEntry, Evidence};
use world_sim::ids::HostId;
use world_sim::World;

/// Speed of light in vacuum, km/ms.
const C_KM_PER_MS: f64 = 299.792_458;
/// Mean Earth radius, km.
const EARTH_KM: f64 = 6371.0088;
/// Relative slack on the fibre floor: RTT cells are stored as `f32`.
const FLOOR_SLACK: f64 = 1e-5;
/// How far (km) a latency entry's estimate may sit outside its best
/// VP's constraint circle: CBG places the estimate at the centroid of a
/// sampled intersection region whose boundary is approximated.
pub const CIRCLE_TOLERANCE_KM: f64 = 25.0;
/// A fused entry may move to a verified hint that agrees with the
/// constraint region within 50 km (the hint gate), so it gets that much
/// more slack.
pub const FUSED_TOLERANCE_KM: f64 = CIRCLE_TOLERANCE_KM + 50.0;

/// Great-circle distance between two (lat, lon) points in degrees, by
/// the angle between their unit vectors.
pub fn km(a: (f64, f64), b: (f64, f64)) -> f64 {
    let unit = |(lat, lon): (f64, f64)| {
        let (la, lo) = (lat.to_radians(), lon.to_radians());
        [la.cos() * lo.cos(), la.cos() * lo.sin(), la.sin()]
    };
    let (u, v) = (unit(a), unit(b));
    let cross = [
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ];
    let sin = (cross[0].powi(2) + cross[1].powi(2) + cross[2].powi(2)).sqrt();
    let cos = u[0] * v[0] + u[1] * v[1] + u[2] * v[2];
    EARTH_KM * sin.atan2(cos)
}

/// The smallest round trip light in fibre (2/3 c) allows over `d_km`.
pub fn fibre_floor_ms(d_km: f64) -> f64 {
    2.0 * d_km / (C_KM_PER_MS * 2.0 / 3.0)
}

fn ll(p: &geo_model::point::GeoPoint) -> (f64, f64) {
    (p.lat(), p.lon())
}

/// Checks every present cell of a `rows x cols` RTT matrix: finite and
/// at least the fibre floor between the two hosts' true locations.
fn rtt_cells_ok(
    world: &World,
    m: &geo_model::matrix::RttMatrix,
    rows: &[HostId],
    cols: &[HostId],
    what: &str,
    out: &mut Vec<String>,
) {
    let col_ll: Vec<(f64, f64)> = cols.iter().map(|&c| ll(&world.host(c).location)).collect();
    let mut bad = 0usize;
    let mut first = None;
    for (r, &host) in rows.iter().enumerate() {
        let here = ll(&world.host(host).location);
        for (c, &v) in m.row(r).iter().enumerate() {
            if v.is_nan() {
                continue;
            }
            let floor = fibre_floor_ms(km(here, col_ll[c]));
            if !v.is_finite() || f64::from(v) < floor * (1.0 - FLOOR_SLACK) {
                bad += 1;
                first.get_or_insert((r, c, v, floor));
            }
        }
    }
    if let Some((r, c, v, floor)) = first {
        out.push(format!(
            "{what}: {bad} cells below the fibre floor or not finite (first [{r},{c}] = {v} ms < {floor:.4} ms)"
        ));
    }
}

/// `true` when `kept ∪ removed` is exactly `all`, with no overlap.
fn splits_exactly(all: &[HostId], kept: &[HostId], removed: &[HostId]) -> bool {
    let mut a: Vec<u32> = all.iter().map(|h| h.0).collect();
    let mut b: Vec<u32> = kept.iter().chain(removed).map(|h| h.0).collect();
    a.sort_unstable();
    b.sort_unstable();
    a == b && b.windows(2).all(|w| w[0] != w[1])
}

/// The `build-quick` output checks.
pub fn quick_dataset(d: &Dataset) -> Vec<String> {
    let mut out = Vec::new();
    let w = &d.world;
    if !splits_exactly(&w.anchors, &d.anchors, &d.removed_anchors) {
        out.push("anchors do not split exactly into kept and removed".into());
    }
    if !splits_exactly(&w.probes, &d.vps, &d.removed_probes) {
        out.push("probes do not split exactly into kept and removed".into());
    }
    let sample = 240.min(d.anchors.len());
    if d.targets.len() != sample || !d.targets.iter().all(|t| d.anchors.contains(t)) {
        out.push(format!(
            "target sample has {} hosts (want {sample} kept anchors)",
            d.targets.len()
        ));
    }
    if (d.rtt.rows(), d.rtt.cols()) != (d.vps.len(), d.targets.len()) {
        out.push(format!(
            "rtt matrix is {}x{}, want {}x{}",
            d.rtt.rows(),
            d.rtt.cols(),
            d.vps.len(),
            d.targets.len()
        ));
    } else {
        rtt_cells_ok(w, &d.rtt, &d.vps, &d.targets, "rtt matrix", &mut out);
    }
    let n = d.anchors.len();
    if (d.anchor_rtt.rows(), d.anchor_rtt.cols()) != (n, n) {
        out.push(format!(
            "anchor matrix is {}x{}, want {n}x{n}",
            d.anchor_rtt.rows(),
            d.anchor_rtt.cols()
        ));
    } else {
        rtt_cells_ok(
            w,
            &d.anchor_rtt,
            &d.anchors,
            &d.anchors,
            "anchor matrix",
            &mut out,
        );
    }
    if d.reps.len() != d.targets.len() {
        out.push("one representative list per target expected".into());
    }
    out
}

/// The `publish-internet` output checks for one built dataset: one entry
/// per allocated /24 in order, geofeed entries at their city centre, and
/// latency evidence consistent with the fibre floor and the best VP's
/// constraint circle. Returns the problems and the number of prefixes
/// whose entry failed (all of them when the entry list itself is wrong).
pub fn published(
    world: &World,
    prefixes: &[Prefix24],
    entries: &[DatasetEntry],
) -> (Vec<String>, usize) {
    let mut out = Vec::new();
    if entries.len() != prefixes.len()
        || entries.iter().zip(prefixes).any(|(e, p)| e.prefix != *p)
        || !entries.windows(2).all(|w| w[0].prefix < w[1].prefix)
    {
        out.push(format!(
            "{} entries for {} allocated /24s: not exactly one per prefix, sorted and unique",
            entries.len(),
            prefixes.len()
        ));
        return (out, prefixes.len());
    }
    let mut bad_geofeed = 0;
    let mut bad_floor = 0;
    let mut bad_circle = 0;
    let mut bad_entries = 0;
    let mut worst_circle_km: f64 = 0.0;
    for e in entries {
        let before = bad_geofeed + bad_floor + bad_circle;
        let est = ll(&e.location);
        let (rtt, vp, slack) = match &e.evidence {
            Evidence::Geofeed => {
                let want = world
                    .metadata
                    .geofeed_city(e.prefix)
                    .map(|c| ll(&world.city(c).center));
                if want != Some(est) {
                    bad_geofeed += 1;
                    bad_entries += 1;
                }
                continue;
            }
            Evidence::Latency {
                best_rtt, best_vp, ..
            } => (best_rtt.value(), *best_vp, CIRCLE_TOLERANCE_KM),
            Evidence::Fused {
                best_rtt, best_vp, ..
            } => (best_rtt.value(), *best_vp, FUSED_TOLERANCE_KM),
            Evidence::DnsHint { .. } | Evidence::Whois => continue,
        };
        // The host the campaign pinged: the prefix's first live address.
        let target = e.prefix.addresses().find_map(|ip| world.host_by_ip(ip));
        let vp_host = world.host(vp);
        if let Some(t) = target {
            let floor = fibre_floor_ms(km(ll(&vp_host.location), ll(&t.location)));
            if rtt < floor * (1.0 - FLOOR_SLACK) {
                bad_floor += 1;
            }
        } else {
            bad_floor += 1;
        }
        let radius = rtt / 2.0 * (C_KM_PER_MS * 2.0 / 3.0);
        let off = km(ll(&vp_host.registered_location), est) - radius;
        worst_circle_km = worst_circle_km.max(off);
        if off > slack {
            bad_circle += 1;
        }
        if bad_geofeed + bad_floor + bad_circle > before {
            bad_entries += 1;
        }
    }
    if bad_geofeed > 0 {
        out.push(format!(
            "{bad_geofeed} geofeed entries not at their geofeed city centre"
        ));
    }
    if bad_floor > 0 {
        out.push(format!(
            "{bad_floor} latency entries with best_rtt below the fibre floor"
        ));
    }
    if bad_circle > 0 {
        out.push(format!(
            "{bad_circle} latency entries outside their best VP's circle (worst by {worst_circle_km:.1} km)"
        ));
    }
    (out, bad_entries)
}

/// The on-disk / on-wire method tag of each evidence class.
pub const TAG_GEOFEED: u8 = 0;
pub const TAG_DNS: u8 = 1;
pub const TAG_LATENCY: u8 = 2;
pub const TAG_WHOIS: u8 = 3;
pub const TAG_FUSED: u8 = 4;

/// The line-protocol label of a method tag.
pub fn method_label(tag: u8) -> &'static str {
    match tag {
        TAG_GEOFEED => "geofeed",
        TAG_DNS => "dns-hint",
        TAG_LATENCY => "latency-cbg",
        TAG_WHOIS => "whois",
        TAG_FUSED => "fused",
        _ => "?",
    }
}

/// `a.b.c.0/24` for a /24 number.
pub fn prefix_text(p: u32) -> String {
    format!("{}.{}.{}.0/24", (p >> 16) & 0xFF, (p >> 8) & 0xFF, p & 0xFF)
}

/// `a.b.c.d` for an address.
pub fn ip_text(ip: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        ip >> 24,
        (ip >> 16) & 0xFF,
        (ip >> 8) & 0xFF,
        ip & 0xFF
    )
}

/// The benchmark's own table of the snapshot entries it generated:
/// prefix column (sorted, unique), coordinates and method tag.
pub struct Table {
    pub prefixes: Vec<u32>,
    pub lat: Vec<f64>,
    pub lon: Vec<f64>,
    pub method: Vec<u8>,
}

/// The answer a query should get: `Some((row, distance))` or a miss.
pub type Expected = Option<(usize, u32)>;

impl Table {
    /// Exact /24 search.
    pub fn locate(&self, prefix: u32) -> Expected {
        let i = self.prefixes.partition_point(|&p| p < prefix);
        (self.prefixes.get(i) == Some(&prefix)).then_some((i, 0))
    }

    /// Nearest prefix in address space; a tie prefers the lower prefix.
    pub fn nearest(&self, prefix: u32) -> Expected {
        let i = self.prefixes.partition_point(|&p| p < prefix);
        let above = self.prefixes.get(i).map(|&p| (i, p - prefix));
        let below = i.checked_sub(1).map(|j| (j, prefix - self.prefixes[j]));
        match (below, above) {
            (Some(b), Some(a)) => Some(if b.1 <= a.1 { b } else { a }),
            (b, a) => b.or(a),
        }
    }

    /// What a LOCATE or NEAREST of `ip` should answer.
    pub fn expect(&self, ip: u32, nearest: bool) -> Expected {
        if nearest {
            self.nearest(ip >> 8)
        } else {
            self.locate(ip >> 8)
        }
    }

    /// Compares one binary answer record with the expected answer.
    pub fn check_record(&self, ip: u32, want: Expected, rec: &LocateRecord) -> Result<(), String> {
        let ok = match want {
            None => !rec.hit && rec.prefix.0 == ip >> 8,
            Some((row, dist)) => {
                rec.hit
                    && rec.prefix.0 == self.prefixes[row]
                    && rec.lat_bits == self.lat[row].to_bits()
                    && rec.lon_bits == self.lon[row].to_bits()
                    && rec.method == self.method[row]
                    && rec.distance == dist
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{} answered {rec:?}, expected {want:?}",
                ip_text(ip)
            ))
        }
    }

    /// Compares one line-protocol reply with the expected answer.
    pub fn check_line(
        &self,
        ip: u32,
        nearest: bool,
        want: Expected,
        reply: &str,
    ) -> Result<(), String> {
        let ok = match want {
            None => reply == format!("MISS {}", ip_text(ip)),
            Some((row, dist)) => {
                let body = reply.strip_prefix("OK ");
                let (row_text, tail_ok) = match body {
                    Some(b) if nearest => match b.rsplit_once(" distance=") {
                        Some((r, d)) => (Some(r), d == dist.to_string()),
                        None => (None, false),
                    },
                    Some(b) => (Some(b), true),
                    None => (None, false),
                };
                let fields: Vec<&str> = row_text.map_or_else(Vec::new, |r| r.split(',').collect());
                tail_ok
                    && fields.len() >= 5
                    && fields[0] == prefix_text(self.prefixes[row])
                    && fields[1] == format!("{:.4}", self.lat[row])
                    && fields[2] == format!("{:.4}", self.lon[row])
                    && fields[3] == method_label(self.method[row])
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{} answered `{reply}`, expected {want:?}",
                ip_text(ip)
            ))
        }
    }
}
