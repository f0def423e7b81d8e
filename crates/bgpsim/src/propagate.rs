//! Valley-free (Gao-Rexford) route propagation.
//!
//! For each announced prefix, routes spread from the origin AS in the
//! classic three phases:
//!
//! 1. **up** — along customer→provider links (everyone exports routes
//!    learned from customers to everyone, so providers keep relaying
//!    upward),
//! 2. **across** — one peer hop (peer routes are exported to customers
//!    only, so at most one lateral step),
//! 3. **down** — along provider→customer links (peer/provider-learned
//!    routes go to customers only, continuing downward).
//!
//! The result per AS is whether it hears the prefix at all, through which
//! neighbor, and by which route class — enough to materialize the routing
//! table any vantage AS would dump, with link failures causing realistic
//! partial visibility (single-homed stubs go dark, multihomed ones
//! reroute).

use netclust_netgen::{unit_f64, Universe};
use netclust_prefix::Ipv4Net;
use netclust_rtable::{RoutingTable, TableKind};

use crate::topology::Topology;

/// How an AS learned a route (also its Gao-Rexford preference order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RouteClass {
    /// The AS originates the prefix.
    Origin,
    /// Learned from a customer (most preferred).
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider (least preferred).
    Provider,
}

/// Per-AS result of propagating one prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// How the route was learned.
    pub class: RouteClass,
    /// AS-path length from the origin.
    pub dist: u16,
    /// The neighbor the route was learned from (self for the origin).
    pub parent: u32,
}

/// Per-day link-failure probability for each provider link.
const P_LINK_DOWN: f64 = 0.01;

/// A propagation model over a universe and an AS topology.
pub struct PropagationModel<'u> {
    universe: &'u Universe,
    topology: Topology,
    seed: u64,
}

impl<'u> PropagationModel<'u> {
    /// Creates a model; `seed` drives link-failure draws.
    pub fn new(universe: &'u Universe, topology: Topology, seed: u64) -> Self {
        assert_eq!(
            topology.len(),
            universe.ases().len(),
            "topology must cover every AS"
        );
        PropagationModel {
            universe,
            topology,
            seed,
        }
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Whether the provider link `customer → provider` is up at
    /// `(day, tick)`. Deterministic per (seed, link, day): failures last a
    /// whole day (maintenance/outage scale), with a small intra-day
    /// flutter component.
    pub fn link_up(&self, customer: u32, provider: u32, day: u32, tick: u32) -> bool {
        let key = [(customer as u64) << 32 | provider as u64, day as u64];
        if unit_f64(self.seed, &[0x11F, key[0], key[1]]) < P_LINK_DOWN {
            return false;
        }
        // Intra-day flutter on a small subset of links.
        unit_f64(self.seed, &[0x11F + 1, key[0], key[1], tick as u64]) >= 0.002
    }

    /// Propagates one prefix from `origin`, returning each AS's best route
    /// (or `None` if unreachable under current link state).
    pub fn propagate(&self, origin: u32, day: u32, tick: u32) -> Vec<Option<RouteEntry>> {
        let n = self.topology.len();
        let mut best: Vec<Option<RouteEntry>> = vec![None; n];
        best[origin as usize] = Some(RouteEntry {
            class: RouteClass::Origin,
            dist: 0,
            parent: origin,
        });

        // Phase 1: up along customer→provider links.
        let mut frontier = vec![origin];
        while let Some(next) = {
            let mut next = Vec::new();
            for &a in &frontier {
                let dist = best[a as usize].expect("frontier is reached").dist;
                for &p in &self.topology.providers[a as usize] {
                    if best[p as usize].is_none() && self.link_up(a, p, day, tick) {
                        best[p as usize] = Some(RouteEntry {
                            class: RouteClass::Customer,
                            dist: dist + 1,
                            parent: a,
                        });
                        next.push(p);
                    }
                }
            }
            if next.is_empty() {
                None
            } else {
                Some(next)
            }
        } {
            frontier = next;
        }

        // Phase 2: one peer hop from every up-reachable AS.
        #[allow(clippy::cast_possible_truncation, reason = "AS ids are u32 by design.")]
        let up_reached: Vec<u32> = (0..n as u32)
            .filter(|&a| best[a as usize].is_some())
            .collect();
        for &a in &up_reached {
            let dist = best[a as usize].expect("reached").dist;
            for &q in &self.topology.peers[a as usize] {
                if best[q as usize].is_none() {
                    best[q as usize] = Some(RouteEntry {
                        class: RouteClass::Peer,
                        dist: dist + 1,
                        parent: a,
                    });
                }
            }
        }

        // Phase 3: down along provider→customer links from everything
        // reached so far.
        #[allow(clippy::cast_possible_truncation, reason = "AS ids are u32 by design.")]
        let mut frontier: Vec<u32> = (0..n as u32)
            .filter(|&a| best[a as usize].is_some())
            .collect();
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &a in &frontier {
                let dist = best[a as usize].expect("reached").dist;
                for &c in &self.topology.customers[a as usize] {
                    if best[c as usize].is_none() && self.link_up(c, a, day, tick) {
                        best[c as usize] = Some(RouteEntry {
                            class: RouteClass::Provider,
                            dist: dist + 1,
                            parent: a,
                        });
                        next.push(c);
                    }
                }
            }
            frontier = next;
        }
        best
    }

    /// Reconstructs the AS path (origin first) from a propagation result.
    pub fn as_path(entries: &[Option<RouteEntry>], dest: u32) -> Option<Vec<u32>> {
        let mut path = vec![dest];
        let mut cur = dest;
        loop {
            let e = entries[cur as usize]?;
            if e.class == RouteClass::Origin {
                path.reverse();
                return Some(path);
            }
            cur = e.parent;
            path.push(cur);
            if path.len() > entries.len() {
                return None; // cycle guard (cannot happen with BFS parents)
            }
        }
    }

    /// Materializes the routing tables the given vantage ASes would dump
    /// at `(day, tick)`. `visibility` models partial feeds (1.0 = full
    /// table); prefixes are the universe's announcements for `day`.
    pub fn vantage_tables(
        &self,
        vantages: &[(String, u32, f64)],
        day: u32,
        tick: u32,
    ) -> Vec<RoutingTable> {
        let mut per_vantage: Vec<Vec<Ipv4Net>> = vec![Vec::new(); vantages.len()];
        for ann in self.universe.announcements(day) {
            let reach = self.propagate(ann.as_id, day, tick);
            for (vi, (name, vantage_as, visibility)) in vantages.iter().enumerate() {
                if reach[*vantage_as as usize].is_none() {
                    continue;
                }
                // Partial-feed filter, stable per (vantage, prefix).
                let key = ((ann.prefix.addr_u32() as u64) << 8) | ann.prefix.len() as u64;
                let vp = name.len() as u64 ^ (*vantage_as as u64) << 8;
                if unit_f64(self.seed, &[0xFEED5, vp, key]) < *visibility {
                    per_vantage[vi].push(ann.prefix);
                }
            }
        }
        vantages
            .iter()
            .zip(per_vantage)
            .map(|((name, _, _), prefixes)| {
                RoutingTable::new(
                    name.clone(),
                    format!("day{day}.t{tick}"),
                    TableKind::Bgp,
                    prefixes,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclust_netgen::UniverseConfig;

    fn setup() -> (Universe, Topology) {
        let u = Universe::generate(UniverseConfig::small(7));
        let t = Topology::generate(&u, 3);
        (u, t)
    }

    #[test]
    fn everyone_reaches_everything_without_failures() {
        let (u, t) = setup();
        let model = PropagationModel::new(&u, t, 0);
        // With links up (tick far from flutter draws we can't control, so
        // just require near-complete reachability on day 0).
        let mut unreachable = 0usize;
        for origin in 0..u.ases().len() as u32 {
            let reach = model.propagate(origin, 0, 0);
            unreachable += reach.iter().filter(|r| r.is_none()).count();
        }
        let total = u.ases().len() * u.ases().len();
        assert!(
            (unreachable as f64) < total as f64 * 0.1,
            "{unreachable} of {total} unreachable"
        );
    }

    #[test]
    fn paths_are_valley_free() {
        let (u, t) = setup();
        let model = PropagationModel::new(&u, t, 0);
        for origin in (0..u.ases().len() as u32).step_by(5) {
            let reach = model.propagate(origin, 0, 0);
            for dest in 0..u.ases().len() as u32 {
                let Some(path) = PropagationModel::as_path(&reach, dest) else {
                    continue;
                };
                assert_eq!(path[0], origin);
                assert_eq!(*path.last().unwrap(), dest);
                // Classify each hop walking from origin: must match
                // up* peer? down*.
                let topo = model.topology();
                let mut phase = 0; // 0 = up, 1 = after peer, 2 = down
                for w in path.windows(2) {
                    let (from, to) = (w[0], w[1]);
                    let up = topo.providers[from as usize].contains(&to);
                    let peer = topo.peers[from as usize].contains(&to);
                    let down = topo.customers[from as usize].contains(&to);
                    assert!(up || peer || down, "no link {from}->{to}");
                    if up {
                        assert_eq!(phase, 0, "uphill after leaving phase 0: {path:?}");
                    } else if peer {
                        assert_eq!(phase, 0, "second lateral move: {path:?}");
                        phase = 1;
                    } else {
                        phase = 2;
                    }
                }
            }
        }
    }

    #[test]
    fn route_classes_follow_preference_semantics() {
        let (u, t) = setup();
        let model = PropagationModel::new(&u, t, 0);
        let reach = model.propagate(0, 0, 0);
        assert_eq!(reach[0].unwrap().class, RouteClass::Origin);
        // Providers of the origin hear a customer route.
        for &p in &model.topology().providers[0] {
            if let Some(e) = reach[p as usize] {
                assert_eq!(e.class, RouteClass::Customer);
                assert_eq!(e.dist, 1);
                assert_eq!(e.parent, 0);
            }
        }
    }

    #[test]
    fn link_failures_cause_partial_visibility() {
        let (u, t) = setup();
        let model = PropagationModel::new(&u, t, 99);
        // Over many days, some (origin, day) pairs lose reachability
        // somewhere — and single-homed stubs are the usual victims.
        let mut lost = 0usize;
        for day in 0..15 {
            let reach = model.propagate(0, day, 0);
            lost += reach.iter().filter(|r| r.is_none()).count();
        }
        assert!(lost > 0, "expected some failure-induced unreachability");
    }

    #[test]
    fn vantage_tables_vary_with_feed_quality() {
        let (u, t) = setup();
        let model = PropagationModel::new(&u, t, 1);
        let vantages = vec![
            ("FULL".to_string(), 1u32, 1.0),
            ("PARTIAL".to_string(), 2u32, 0.3),
        ];
        let tables = model.vantage_tables(&vantages, 0, 0);
        assert_eq!(tables.len(), 2);
        assert!(
            tables[0].len() > tables[1].len() * 2,
            "{} vs {}",
            tables[0].len(),
            tables[1].len()
        );
        // Some day within two weeks differs from day 0 (link churn plus
        // announcement births); a single-day comparison can coincide.
        let changed = (1..15).any(|day| {
            let later = model.vantage_tables(&vantages, day, 0);
            later[0].prefixes() != tables[0].prefixes()
        });
        assert!(changed, "no churn over 14 days");
    }

    #[test]
    fn deterministic() {
        let (u, t) = setup();
        let model = PropagationModel::new(&u, t.clone(), 5);
        let a = model.propagate(3, 2, 1);
        let b = model.propagate(3, 2, 1);
        assert_eq!(a, b);
    }
}
