//! Address allocation: carving the synthetic IPv4 space into ASes and orgs.
//!
//! Allocation is deterministic given the universe seed. ASes draw their
//! organizations' network sizes from a prefix-length distribution calibrated
//! to the paper's Figure 1 (≈50 % `/24`, short prefixes outnumbering long
//! ones among the rest), then pack them into a covering aggregate block
//! allocated bump-style from one of three pools (in historical Class A, B
//! and C space, so the classful baseline of §2 is meaningfully exercised).

use netclust_prefix::Ipv4Net;
use rand::Rng;

use crate::config::UniverseConfig;
use crate::names;
use crate::net::num_addresses;
use crate::org::{AnnouncePolicy, AutonomousSystem, Org, OrgKind};
use crate::rng::{stream_rng, unit_f64};

/// Prefix-length weights for regional-AS organizations, calibrated to the
/// Mae-West histogram in Figure 1 (length, relative weight).
const REGIONAL_LEN_WEIGHTS: &[(u8, u32)] = &[
    (15, 5),
    (16, 100),
    (17, 12),
    (18, 25),
    (19, 75),
    (20, 36),
    (21, 46),
    (22, 65),
    (23, 80),
    (24, 500),
    (25, 8),
    (26, 6),
    (27, 4),
    (28, 10),
];

/// Backbone-AS organizations are large ISP blocks.
const BACKBONE_LEN_WEIGHTS: &[(u8, u32)] = &[(13, 1), (14, 3), (15, 4), (16, 6)];

/// Allocation pools. Each pool is a `(start, end)` range of `u32` address
/// space sitting in historical Class A, B and C space respectively.
const POOLS: &[(u32, u32)] = &[
    (0x1000_0000, 0x7F00_0000), // 16.0.0.0  .. 127.0.0.0 (Class A space)
    (0x8C00_0000, 0xC000_0000), // 140.0.0.0 .. 192.0.0.0 (Class B space)
    (0xC400_0000, 0xE000_0000), // 196.0.0.0 .. 224.0.0.0 (Class C space)
];

/// Draws a prefix length from a weighted table.
fn draw_len(rng: &mut impl Rng, weights: &[(u8, u32)]) -> u8 {
    let total: u32 = weights.iter().map(|&(_, w)| w).sum();
    let mut pick = rng.gen_range(0..total);
    for &(len, w) in weights {
        if pick < w {
            return len;
        }
        pick -= w;
    }
    unreachable!("weights are non-empty")
}

/// Draws an org kind appropriate to a network size.
fn draw_kind(rng: &mut impl Rng, len: u8) -> OrgKind {
    if len <= 16 {
        if rng.gen_bool(0.7) {
            OrgKind::Isp
        } else {
            OrgKind::University
        }
    } else if len <= 22 {
        match rng.gen_range(0..10) {
            0..=3 => OrgKind::Corporate,
            4..=6 => OrgKind::University,
            7..=8 => OrgKind::Isp,
            _ => OrgKind::Government,
        }
    } else {
        match rng.gen_range(0..10) {
            0..=6 => OrgKind::Corporate,
            7..=8 => OrgKind::Government,
            _ => OrgKind::University,
        }
    }
}

/// Active-host cap per org, by kind and network size. ISPs have dense
/// client populations; corporate networks are sparse.
fn active_hosts(rng: &mut impl Rng, kind: OrgKind, net: Ipv4Net) -> u32 {
    #[allow(clippy::cast_possible_truncation, reason = "num_addresses() - 2 <= 2^32 - 2.")]
    let space = (num_addresses(net).saturating_sub(2)).max(1) as u32;
    let cap = match kind {
        OrgKind::Isp => 6000,
        OrgKind::University => 1500,
        OrgKind::Corporate => 150,
        OrgKind::Government => 150,
    };
    // Striped host addressing places at most 255 hosts per /24 stripe.
    #[allow(clippy::cast_possible_truncation, reason = "num_addresses() / 256 <= 2^24.")]
    let physical_stripes = ((num_addresses(net) / 256) as u32).max(1);
    let cap = cap.min(space).min(physical_stripes * 255);
    // Log-uniform population in [cap/8, cap], at least 1.
    let lo = (cap / 8).max(1);
    rng.gen_range(lo..=cap)
}

/// Result of allocation: the AS and org tables of a universe.
pub struct Allocation {
    /// All autonomous systems.
    pub ases: Vec<AutonomousSystem>,
    /// All organizations, indexed by [`crate::org::OrgId`].
    pub orgs: Vec<Org>,
}

/// Runs the allocator for a configuration.
///
/// # Panics
///
/// Panics if the configuration is so large that an allocation pool is
/// exhausted (the paper-scale preset uses well under 10 % of each pool).
pub fn allocate(config: &UniverseConfig) -> Allocation {
    let seed = config.seed;
    let mut rng = stream_rng(seed, &[0xA110C]);
    let mut ases = Vec::with_capacity(config.num_ases);
    let mut orgs: Vec<Org> = Vec::with_capacity(config.expected_orgs());
    let mut cursors: Vec<u32> = POOLS.iter().map(|&(start, _)| start).collect();
    // Newly-allocated (post-snapshot) space comes from a fresh pool outside
    // every AS aggregate — real new allocations are invisible to old
    // routing-table dumps, which is what makes their clients unclusterable.
    let mut fresh_cursor: u32 = 0x0B00_0000; // 11.0.0.0, below pool A
    let num_countries = names::country_count();

    for as_idx in 0..config.num_ases {
        #[allow(clippy::cast_possible_truncation, reason = "AS ids are u32 by design.")]
        let as_id = as_idx as u32;
        let is_backbone = rng.gen_bool(0.08);
        let is_gateway = !is_backbone && rng.gen_bool(config.national_gateway_fraction);
        let gateway_country = is_gateway.then(|| rng.gen_range(0..num_countries));

        // Draw this AS's org network lengths.
        let n_orgs = if is_backbone {
            rng.gen_range(1..=3)
        } else {
            let mean = config.orgs_per_as.max(2);
            rng.gen_range(mean / 2..=mean + mean / 2).max(1)
        };
        let weights = if is_backbone {
            BACKBONE_LEN_WEIGHTS
        } else {
            REGIONAL_LEN_WEIGHTS
        };
        let mut lens: Vec<u8> = (0..n_orgs).map(|_| draw_len(&mut rng, weights)).collect();
        // Pack biggest first so bump allocation stays aligned.
        lens.sort();

        // Aggregate must cover the sum of the org blocks with 2x slack for
        // alignment holes.
        let total: u64 = lens.iter().map(|&l| 1u64 << (32 - u32::from(l))).sum();
        let agg_size = (total * 2).next_power_of_two().max(1 << 10);
        #[allow(clippy::cast_possible_truncation, reason = "agg_size <= 2^32, so <= 32 zeros.")]
        let agg_len = 32 - (agg_size.trailing_zeros() as u8);

        // Allocate the aggregate from the pool for this AS.
        let pool = as_idx % POOLS.len();
        #[allow(clippy::cast_possible_truncation, reason = "agg_size <= the 32-bit pool span.")]
        let agg_span = agg_size as u32;
        let aligned = align_up(cursors[pool], agg_span);
        let (_, pool_end) = POOLS[pool];
        assert!(
            aligned
                .checked_add(agg_span)
                .map(|e| e <= pool_end)
                .unwrap_or(false),
            "allocation pool {pool} exhausted at AS {as_idx}"
        );
        cursors[pool] = aligned + agg_span;
        let aggregate = Ipv4Net::new(aligned, agg_len).expect("valid aggregate length");

        // Pack org networks inside the aggregate, biggest first.
        let mut org_ids = Vec::with_capacity(lens.len());
        let mut inner = aligned;
        let mut has_aggregated_only = false;
        for &len in &lens {
            let size = 1u32 << (32 - u32::from(len));
            // Fresh allocations are small CIDR blocks; a giant ISP block is
            // never brand-new.
            let newly_allocated = len >= 22 && rng.gen_bool(config.unregistered_fraction);
            let network = if newly_allocated {
                // Carve from the fresh pool: outside the AS aggregate.
                let start = align_up(fresh_cursor, size);
                assert!(
                    start.saturating_add(size) <= 0x1000_0000,
                    "fresh pool exhausted"
                );
                fresh_cursor = start + size;
                Ipv4Net::new(start, len).expect("valid org length")
            } else {
                let inner_aligned = align_up(inner, size);
                if inner_aligned.saturating_add(size) > aligned + agg_span {
                    // Slack exhausted (rare) — drop remaining orgs of this AS.
                    break;
                }
                inner = inner_aligned + size;
                Ipv4Net::new(inner_aligned, len).expect("valid org length")
            };

            #[allow(clippy::cast_possible_truncation, reason = "org ids are u32 by design.")]
            let org_id = orgs.len() as u32;
            let kind = draw_kind(&mut rng, len);
            let policy = if newly_allocated {
                // Fresh space gets its own specific route — once it is
                // finally announced (after the snapshots were taken).
                AnnouncePolicy::Exact
            } else if is_gateway {
                AnnouncePolicy::Gateway
            } else if rng.gen_bool(config.aggregated_only_fraction) {
                has_aggregated_only = true;
                AnnouncePolicy::AggregatedOnly
            } else if rng.gen_bool(config.more_specific_fraction) && len < 30 {
                AnnouncePolicy::MoreSpecifics
            } else {
                AnnouncePolicy::Exact
            };
            let domain = names::org_domain(seed, org_id as u64, kind, gateway_country);
            let org = Org {
                id: org_id,
                as_id,
                kind,
                network,
                domain,
                policy,
                resolvable: unit_f64(seed, &[0x9E5, org_id as u64]) < config.org_resolvable_prob,
                registered: !newly_allocated,
                activation_day: if newly_allocated { u32::MAX } else { 0 },
                active_hosts: active_hosts(&mut rng, kind, network),
                flappy: rng.gen_bool(0.02),
                hosts_customers: kind == OrgKind::Isp && rng.gen_bool(config.isp_customer_sharing),
            };
            orgs.push(org);
            org_ids.push(org_id);
        }

        ases.push(AutonomousSystem {
            id: as_id,
            asn: 1000 + as_id * 7 % 60000,
            aggregate,
            gateway_country,
            announces_aggregate: is_gateway || has_aggregated_only || rng.gen_bool(0.3),
            orgs: org_ids,
        });
    }

    Allocation { ases, orgs }
}

/// Rounds `value` up to the next multiple of `align` (a power of two).
fn align_up(value: u32, align: u32) -> u32 {
    debug_assert!(align.is_power_of_two());
    value
        .checked_add(align - 1)
        .expect("allocation cursor overflow")
        & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::covers;

    fn small() -> Allocation {
        allocate(&UniverseConfig::small(7))
    }

    #[test]
    fn deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.orgs.len(), b.orgs.len());
        for (x, y) in a.orgs.iter().zip(&b.orgs) {
            assert_eq!(x.network, y.network);
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.policy, y.policy);
        }
    }

    #[test]
    fn org_networks_are_disjoint_and_inside_aggregates() {
        let alloc = small();
        let mut nets: Vec<Ipv4Net> = alloc.orgs.iter().map(|o| o.network).collect();
        nets.sort();
        for pair in nets.windows(2) {
            assert!(
                !covers(pair[0], pair[1]) && u32::from(pair[0].last()) < pair[1].addr_u32(),
                "overlap: {} vs {}",
                pair[0],
                pair[1]
            );
        }
        for org in &alloc.orgs {
            let asys = &alloc.ases[org.as_id as usize];
            if org.registered {
                assert!(
                    covers(asys.aggregate, org.network),
                    "{} not in {}",
                    org.network,
                    asys.aggregate
                );
            } else {
                // Newly-allocated space lives outside the old aggregate.
                assert!(
                    !covers(asys.aggregate, org.network),
                    "{} fresh",
                    org.network
                );
            }
        }
    }

    #[test]
    fn aggregates_are_disjoint() {
        let alloc = small();
        let mut aggs: Vec<Ipv4Net> = alloc.ases.iter().map(|a| a.aggregate).collect();
        aggs.sort();
        for pair in aggs.windows(2) {
            assert!(
                u32::from(pair[0].last()) < pair[1].addr_u32(),
                "{} vs {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn prefix_length_mix_matches_fig1() {
        let alloc = allocate(&UniverseConfig::paper(11));
        let total = alloc.orgs.len() as f64;
        let frac24 = alloc.orgs.iter().filter(|o| o.network.len() == 24).count() as f64 / total;
        assert!((0.35..0.65).contains(&frac24), "/24 fraction {frac24}");
        let shorter = alloc.orgs.iter().filter(|o| o.network.len() < 24).count() as f64 / total;
        let longer = alloc.orgs.iter().filter(|o| o.network.len() > 24).count() as f64 / total;
        assert!(shorter > longer, "short {shorter} vs long {longer}");
    }

    #[test]
    fn gateway_orgs_follow_their_as() {
        let alloc = allocate(&UniverseConfig::paper(3));
        for asys in &alloc.ases {
            for &oid in &asys.orgs {
                let org = &alloc.orgs[oid as usize];
                assert_eq!(org.as_id, asys.id);
                if asys.is_gateway() && org.registered {
                    // Newly-allocated orgs announce their own (future)
                    // route even behind a gateway.
                    assert_eq!(org.policy, AnnouncePolicy::Gateway);
                    assert!(asys.announces_aggregate);
                }
            }
        }
        let gateways = alloc.ases.iter().filter(|a| a.is_gateway()).count();
        assert!(
            gateways > 0,
            "paper-scale universe should have national gateways"
        );
    }

    #[test]
    fn error_sources_present_at_paper_scale() {
        let alloc = allocate(&UniverseConfig::paper(5));
        let agg_only = alloc
            .orgs
            .iter()
            .filter(|o| o.policy == AnnouncePolicy::AggregatedOnly)
            .count();
        let more_spec = alloc
            .orgs
            .iter()
            .filter(|o| o.policy == AnnouncePolicy::MoreSpecifics)
            .count();
        let unregistered = alloc.orgs.iter().filter(|o| !o.registered).count();
        assert!(agg_only > 0 && more_spec > 0 && unregistered > 0);
        // All small fractions.
        let total = alloc.orgs.len();
        assert!(agg_only * 8 < total);
        assert!(unregistered * 100 < total);
    }

    #[test]
    fn active_hosts_within_network() {
        let alloc = small();
        for org in &alloc.orgs {
            assert!(org.active_hosts >= 1);
            assert!(
                (org.active_hosts as u64) <= num_addresses(org.network).saturating_sub(2).max(1)
            );
        }
    }

    #[test]
    fn align_up_works() {
        assert_eq!(align_up(0, 256), 0);
        assert_eq!(align_up(1, 256), 256);
        assert_eq!(align_up(256, 256), 256);
        assert_eq!(align_up(257, 256), 512);
    }
}
