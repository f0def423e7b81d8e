//! Vantage points: generating per-site routing-table snapshots.
//!
//! §3.1.1 of the paper collects BGP snapshots from 12 sites (AADS,
//! MAE-EAST, MAE-WEST, PACBELL, PAIX, AT&T-BGP, AT&T-Forw, CANET, CERFNET,
//! OREGON, SINGAREN, VBNS) plus two registry network dumps (ARIN, NLANR).
//! No single table sees every route; the union does much better.
//!
//! Each synthetic [`VantageSpec`] sees an announced route with a
//! site-specific probability (calibrated to the relative table sizes in the
//! paper's Table 1) and sometimes sees an AS aggregate in place of an org's
//! specific route (extra aggregation along the propagation path). Snapshots
//! vary by `day` and intra-day `tick` (tables were dumped every ~2 hours),
//! reproducing the BGP dynamics that §3.4 measures.

use netclust_prefix::Ipv4Net;
use netclust_rtable::{MergedTable, RoutingTable, TableKind};

use crate::rng::unit_f64;
use crate::universe::{Announcement, Universe};

/// Snapshots per day (the paper's sites dump roughly every 2 hours).
pub const TICKS_PER_DAY: u32 = 12;

/// A BGP vantage point's sampling behaviour.
#[derive(Debug, Clone)]
pub struct VantageSpec {
    /// Site name (e.g. `"MAE-WEST"`).
    pub name: String,
    /// Probability of carrying any given announced route.
    pub visibility: f64,
    /// Probability that an org's specific route is replaced by its AS
    /// aggregate at this site.
    pub aggregation: f64,
}

impl VantageSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, visibility: f64, aggregation: f64) -> Self {
        VantageSpec {
            name: name.into(),
            visibility,
            aggregation,
        }
    }
}

/// The 12 BGP vantage points of the paper's Table 1, with visibilities
/// proportional to the reported table sizes (AT&T-BGP, the largest at 74 K
/// entries, sees nearly everything; CANET at 1.7 K sees very little).
pub fn standard_vantages() -> Vec<VantageSpec> {
    [
        ("AADS", 0.23, 0.06),
        ("AT&T-BGP", 0.97, 0.03),
        ("AT&T-Forw", 0.87, 0.04),
        ("CANET", 0.023, 0.10),
        ("CERFNET", 0.67, 0.05),
        ("MAE-EAST", 0.62, 0.05),
        ("MAE-WEST", 0.41, 0.06),
        ("OREGON", 0.94, 0.03),
        ("PACBELL", 0.34, 0.06),
        ("PAIX", 0.14, 0.08),
        ("SINGAREN", 0.91, 0.04),
        ("VBNS", 0.025, 0.10),
    ]
    .into_iter()
    .map(|(n, v, a)| VantageSpec::new(n, v, a))
    .collect()
}

// Stream tags for stateless draws.
const S_BIRTH: u64 = 0xB1;
const S_BASE: u64 = 0xB2;
const S_AGG: u64 = 0xB3;
const S_TOGGLE: u64 = 0xB4;
const S_TICK: u64 = 0xB5;
const S_FLAP: u64 = 0xB6;
const S_REG: u64 = 0xB7;
const S_PRONE: u64 = 0xB8;

/// Probability a route is "new" (born after day 0) — table growth.
const P_NEW: f64 = 0.03;
/// Latest birth day for new routes.
const MAX_BIRTH_DAY: u32 = 15;
/// Per-day probability that a carried route's state toggles persistently
/// (withdrawn, or re-announced after a withdrawal) — day-scale churn.
const P_TOGGLE: f64 = 0.001;
/// Fraction of carried routes that are flutter-prone at a given vantage
/// point: they bounce between the ~2-hourly snapshots every day. This is
/// the dominant term of the paper's period-0 "maximum effect"
/// (711 of 16,595 AADS entries ≈ 4.3 %).
const P_FLUTTER_PRONE: f64 = 0.045;
/// Probability a flutter-prone route is absent from any given snapshot.
const P_FLUTTER_ABSENT: f64 = 0.3;
/// Probability a flappy org's route is up on a given day.
const P_FLAP_UP: f64 = 0.9;

fn route_key(prefix: Ipv4Net) -> u64 {
    ((prefix.addr_u32() as u64) << 8) | prefix.len() as u64
}

fn vp_key(spec: &VantageSpec) -> u64 {
    // FNV-1a over the name: stable across runs.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in spec.name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Day a route first exists (0 for the stable ~95 %).
#[allow(clippy::cast_possible_truncation, reason = "the product lies in [0, MAX_BIRTH_DAY).")]
fn birth_day(seed: u64, route: u64) -> u32 {
    if unit_f64(seed, &[S_BIRTH, route]) < P_NEW {
        1 + (unit_f64(seed, &[S_BIRTH, route, 1]) * (MAX_BIRTH_DAY as f64)) as u32
    } else {
        0
    }
}

/// Whether a vantage point carries `ann` at (day, tick).
///
/// Churn is modelled only on routes the vantage point carries at all
/// (`base` visibility), so the dynamic prefix set stays proportional to the
/// table size — as in the paper's Table 4 — rather than to the whole
/// announcement population:
///
/// * **birth**: ~3 % of routes appear after day 0 (table growth),
/// * **toggles**: persistent per-day withdrawals/re-announcements,
/// * **flutter**: a small set of flutter-prone routes bounces between
///   intra-day snapshots,
/// * **flaps**: routes of flappy orgs go down for whole days at a time.
fn carries(u: &Universe, spec: &VantageSpec, ann: &Announcement, day: u32, tick: u32) -> bool {
    let seed = u.config().seed;
    let route = route_key(ann.prefix);
    let vp = vp_key(spec);
    if day < birth_day(seed, route) {
        return false;
    }
    if unit_f64(seed, &[S_BASE, vp, route]) >= spec.visibility {
        return false;
    }
    if let Some(org) = ann.org {
        if u.org(org).flappy && unit_f64(seed, &[S_FLAP, route, day as u64]) >= P_FLAP_UP {
            return false;
        }
    }
    // Persistent day-scale toggles: XOR of per-day toggle events.
    let mut up = true;
    for d in 1..=day {
        if unit_f64(seed, &[S_TOGGLE, vp, route, d as u64]) < P_TOGGLE {
            up = !up;
        }
    }
    if !up {
        return false;
    }
    // Intra-day flutter on the flutter-prone subset.
    if unit_f64(seed, &[S_PRONE, vp, route]) < P_FLUTTER_PRONE
        && unit_f64(seed, &[S_TICK, vp, route, day as u64, tick as u64]) < P_FLUTTER_ABSENT
    {
        return false;
    }
    true
}

/// Generates the routing-table snapshot a vantage point dumps at
/// `(day, tick)`. `tick` ranges over `0..TICKS_PER_DAY`.
pub fn snapshot(u: &Universe, spec: &VantageSpec, day: u32, tick: u32) -> RoutingTable {
    let seed = u.config().seed;
    let vp = vp_key(spec);
    let mut prefixes = Vec::new();
    for ann in u.announcements(day) {
        if !carries(u, spec, &ann, day, tick) {
            continue;
        }
        match ann.org {
            Some(org_id) => {
                // Site-local aggregation: sometimes only the AS aggregate
                // survives propagation to this vantage point.
                let aggregated = unit_f64(seed, &[S_AGG, vp, org_id as u64]) < spec.aggregation;
                if aggregated {
                    prefixes.push(u.ases()[ann.as_id as usize].aggregate);
                } else {
                    prefixes.push(ann.prefix);
                }
            }
            None => prefixes.push(ann.prefix),
        }
    }
    RoutingTable::new(
        &spec.name,
        format!("day{day}.t{tick}"),
        TableKind::Bgp,
        prefixes,
    )
}

/// Per-route attributes, as seen in Table 2 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAttrs {
    /// Human-readable description of the destination network.
    pub description: String,
    /// Next-hop router name or address.
    pub next_hop: String,
    /// AS path (origin last).
    pub as_path: Vec<u32>,
}

/// Generates a snapshot beside its Table 2-style route attributes (next
/// hop, AS path, org description), one per prefix in the table's order,
/// for presentation experiments.
pub fn snapshot_with_attrs(
    u: &Universe,
    spec: &VantageSpec,
    day: u32,
    tick: u32,
) -> (RoutingTable, Vec<(Ipv4Net, RouteAttrs)>) {
    let plain = snapshot(u, spec, day, tick);
    let routes = plain
        .prefixes()
        .iter()
        .map(|&p| {
            let (description, asn) = match u.owner(p.first()) {
                Some(org_id) => {
                    let org = u.org(org_id);
                    (org.domain.clone(), u.ases()[org.as_id as usize].asn)
                }
                None => ("(aggregate)".to_string(), 0),
            };
            let next_hop = format!("cs.{}.example.net", spec.name.to_lowercase());
            (
                p,
                RouteAttrs {
                    description,
                    next_hop,
                    as_path: vec![asn],
                },
            )
        })
        .collect();
    (plain, routes)
}

/// Generates a registry network dump (ARIN/NLANR-like): allocation-level
/// entries for registered orgs (coverage < 1 models registry staleness —
/// the paper's NLANR dump was two years old).
pub fn registry_dump(u: &Universe, name: &str, coverage: f64) -> RoutingTable {
    let seed = u.config().seed;
    let vp = {
        let mut h = 0x9E37_79B9u64;
        for b in name.bytes() {
            h = h.wrapping_mul(31).wrapping_add(b as u64);
        }
        h
    };
    let mut prefixes = Vec::new();
    for org in u.orgs() {
        if org.registered && unit_f64(seed, &[S_REG, vp, org.id as u64]) < coverage {
            prefixes.push(org.network);
        }
    }
    // Registries also record the AS-level allocations.
    for asys in u.ases() {
        if unit_f64(seed, &[S_REG, vp, 1 << 40 | asys.id as u64]) < coverage * 0.6 {
            prefixes.push(asys.aggregate);
        }
    }
    RoutingTable::new(name, "registry", TableKind::NetworkDump, prefixes)
}

/// Convenience: all 12 BGP snapshots for `(day, tick)` plus the ARIN and
/// NLANR registry dumps — the paper's full Table 1 collection.
pub fn standard_collection(u: &Universe, day: u32, tick: u32) -> Vec<RoutingTable> {
    let mut tables: Vec<RoutingTable> = standard_vantages()
        .iter()
        .map(|spec| snapshot(u, spec, day, tick))
        .collect();
    tables.push(registry_dump(u, "ARIN", 0.97));
    tables.push(registry_dump(u, "NLANR", 0.62));
    tables
}

/// Builds the merged two-tier lookup table from the standard collection.
pub fn standard_merged(u: &Universe, day: u32) -> MergedTable {
    let tables = standard_collection(u, day, 0);
    MergedTable::merge(tables.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UniverseConfig;
    use std::collections::BTreeSet;

    fn universe() -> Universe {
        Universe::generate(UniverseConfig::small(7))
    }

    #[test]
    fn snapshots_are_deterministic() {
        let u = universe();
        let spec = VantageSpec::new("MAE-WEST", 0.41, 0.06);
        let a = snapshot(&u, &spec, 0, 0);
        let b = snapshot(&u, &spec, 0, 0);
        assert_eq!(a.prefixes(), b.prefixes());
        assert!(!a.is_empty());
    }

    #[test]
    fn visibility_controls_size() {
        let u = universe();
        let big = snapshot(&u, &VantageSpec::new("BIG", 0.95, 0.02), 0, 0);
        let small = snapshot(&u, &VantageSpec::new("SMALL", 0.05, 0.02), 0, 0);
        assert!(
            big.len() > small.len() * 3,
            "{} vs {}",
            big.len(),
            small.len()
        );
    }

    #[test]
    fn union_beats_any_single_table() {
        let u = universe();
        let tables = standard_collection(&u, 0, 0);
        let merged = MergedTable::merge(tables.iter());
        let max_single = tables
            .iter()
            .filter(|t| t.kind == TableKind::Bgp)
            .map(|t| t.len())
            .max()
            .unwrap();
        assert!(
            merged.bgp_len() > max_single,
            "{} vs {max_single}",
            merged.bgp_len()
        );
    }

    #[test]
    fn ticks_cause_small_flutter() {
        let u = universe();
        let spec = VantageSpec::new("AADS", 0.23, 0.06);
        let t0 = snapshot(&u, &spec, 0, 0);
        let t1 = snapshot(&u, &spec, 0, 1);
        let set = |t: &RoutingTable| t.prefixes().iter().copied().collect::<BTreeSet<_>>();
        let churn = set(&t0).symmetric_difference(&set(&t1)).count();
        // Some flutter but far less than the table size.
        assert!(churn < t0.len() / 10, "churn {churn} size {}", t0.len());
    }

    #[test]
    fn tables_grow_over_days() {
        let u = universe();
        let spec = VantageSpec::new("OREGON", 0.94, 0.03);
        let d0 = snapshot(&u, &spec, 0, 0);
        let d14 = snapshot(&u, &spec, 14, 0);
        assert!(d14.len() > d0.len(), "{} vs {}", d14.len(), d0.len());
        // Growth is modest (paper: AADS +4 % over 14 days).
        assert!((d14.len() as f64) < d0.len() as f64 * 1.15);
    }

    #[test]
    fn registry_dump_is_allocation_level() {
        let u = universe();
        let arin = registry_dump(&u, "ARIN", 0.97);
        assert_eq!(arin.kind, TableKind::NetworkDump);
        // Covers almost all registered orgs.
        let registered = u.orgs().iter().filter(|o| o.registered).count();
        assert!(
            arin.len() >= registered * 9 / 10,
            "{} vs {registered}",
            arin.len()
        );
        // Unregistered orgs are absent.
        for org in u.orgs().iter().filter(|o| !o.registered) {
            assert!(!arin.prefixes().contains(&org.network));
        }
    }

    #[test]
    fn standard_collection_shape() {
        let u = universe();
        let tables = standard_collection(&u, 0, 0);
        assert_eq!(tables.len(), 14);
        assert_eq!(
            tables
                .iter()
                .filter(|t| t.kind == TableKind::NetworkDump)
                .count(),
            2
        );
        let names: Vec<&str> = tables.iter().map(|t| t.name.as_str()).collect();
        assert!(names.contains(&"MAE-WEST") && names.contains(&"ARIN"));
    }

    #[test]
    fn attrs_snapshot_describes_org_routes() {
        let u = universe();
        let spec = VantageSpec::new("VBNS", 0.4, 0.05);
        let (t, routes) = snapshot_with_attrs(&u, &spec, 0, 0);
        assert!(!t.is_empty());
        let prefixes: Vec<Ipv4Net> = routes.iter().map(|(p, _)| *p).collect();
        assert_eq!(prefixes, t.prefixes());
        assert!(routes.iter().all(|(_, a)| !a.description.is_empty()));
    }
}
