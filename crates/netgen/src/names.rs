//! Synthetic naming: organization domains, departments, and router names.
//!
//! Names matter because the paper's nslookup validation (§3.3) works by
//! *suffix matching* fully-qualified domain names. Each organization gets a
//! stable domain; hosts get `host-N[.dept].domain` names so the suffix rule
//! (last 3 components when the name has ≥4, else last 2) groups hosts of
//! the same org together and separates different orgs.

use crate::org::OrgKind;
use crate::rng::{uniform_index, uniform_u64};

const CORP_STEMS: &[&str] = &[
    "acme",
    "globex",
    "initech",
    "umbrella",
    "wayne",
    "stark",
    "tyrell",
    "cyberdyne",
    "hooli",
    "vandelay",
    "wonka",
    "dunder",
    "sterling",
    "pied",
    "oscorp",
    "massive",
    "virtucon",
    "zorg",
    "gringotts",
    "monarch",
    "aperture",
    "blackmesa",
    "weyland",
    "nakatomi",
    "gekko",
    "duff",
    "paper",
    "prestige",
    "octan",
    "spacely",
];

const EDU_STEMS: &[&str] = &[
    "northfield",
    "eastlake",
    "westbrook",
    "southgate",
    "riverdale",
    "hillcrest",
    "lakeside",
    "stonebridge",
    "fairview",
    "oakmont",
    "maplewood",
    "cedarhurst",
    "brookhaven",
    "elmwood",
    "ashford",
    "kingsley",
    "harborview",
    "summit",
    "clearwater",
    "pinehurst",
];

const ISP_STEMS: &[&str] = &[
    "fastlink",
    "netwave",
    "skyline",
    "metronet",
    "coastal",
    "prairie",
    "summitnet",
    "bluebird",
    "ironport",
    "lighthouse",
    "crossroads",
    "highplains",
    "bayline",
    "ridgenet",
    "stormfiber",
    "quicksilver",
    "tundra",
    "mesa",
    "canyon",
    "delta",
];

const GOV_STEMS: &[&str] = &[
    "interior",
    "commerce",
    "transit",
    "harbor",
    "landsurvey",
    "treasury",
    "archives",
    "census",
    "forestry",
    "aviation",
];

const DEPTS: &[&str] = &[
    "cs", "ee", "math", "phys", "bio", "eng", "med", "law", "lib", "admin", "hr", "sales", "it",
    "ops", "dev", "lab", "mkt", "fin",
];

const COUNTRIES: &[&str] = &["hr", "fr", "jp", "za", "br", "in", "au", "de", "kr", "mx"];

/// The registrable domain for organization `org_id` of the given kind.
///
/// Corporate orgs get `.com`, universities `.edu`, ISPs `.net`, government
/// `.gov`; organizations behind a national gateway get two-label
/// country-code domains (`wits.ac.za` style, 3 components) so the suffix
/// rule still has enough components to discriminate.
pub fn org_domain(seed: u64, org_id: u64, kind: OrgKind, country: Option<usize>) -> String {
    let pick = |stems: &[&str], tld: &str| -> String {
        let i = uniform_index(seed, &[0xD0_17, org_id, 1], stems.len());
        let n = uniform_u64(seed, &[0xD0_17, org_id, 2], 9000) + 1;
        format!("{}{}.{}", stems[i], n, tld)
    };
    match (kind, country) {
        (_, Some(c)) => {
            let cc = COUNTRIES[c % COUNTRIES.len()];
            let i = uniform_index(seed, &[0xD0_17, org_id, 1], EDU_STEMS.len());
            let n = uniform_u64(seed, &[0xD0_17, org_id, 2], 9000) + 1;
            format!("{}{}.ac.{}", EDU_STEMS[i], n, cc)
        }
        (OrgKind::Corporate, None) => pick(CORP_STEMS, "com"),
        (OrgKind::University, None) => pick(EDU_STEMS, "edu"),
        (OrgKind::Isp, None) => pick(ISP_STEMS, "net"),
        (OrgKind::Government, None) => pick(GOV_STEMS, "gov"),
    }
}

/// The domain of the customer organization occupying stripe `stripe` of an
/// ISP's delegated (provider-aggregatable) space. Customers are small
/// businesses, so they get `.com` domains distinct from the ISP's `.net`.
pub fn customer_domain(seed: u64, org_id: u64, stripe: u64) -> String {
    let i = uniform_index(seed, &[0xC057, org_id, stripe, 1], CORP_STEMS.len());
    let n = uniform_u64(seed, &[0xC057, org_id, stripe, 2], 9000) + 1;
    format!("{}{}.com", CORP_STEMS[i], n)
}

/// A department label for multi-department organizations.
pub fn dept_name(seed: u64, org_id: u64) -> &'static str {
    DEPTS[uniform_index(seed, &[0xDE_97, org_id], DEPTS.len())]
}

/// Host name for the `host_idx`-th address of an org.
///
/// Universities put a department label in the name (≥4 components, suffix
/// rule uses 3); other orgs use flat `host-N.domain` names.
pub fn host_name(seed: u64, org_id: u64, domain: &str, kind: OrgKind, host_idx: u64) -> String {
    match kind {
        OrgKind::University => {
            format!("h{}.{}.{}", host_idx, dept_name(seed, org_id), domain)
        }
        OrgKind::Isp => format!("client-{}.{}", host_idx, domain),
        _ => format!("host-{}.{}", host_idx, domain),
    }
}

/// Name of the `i`-th backbone core router.
pub fn core_router_name(i: u64) -> String {
    format!("core{}.backbone.net", i)
}

/// Name of an AS border router.
pub fn border_router_name(as_id: u64) -> String {
    format!("br{}.transit.net", as_id)
}

/// Name of an organization's gateway (the org-wide hop traceroute sees).
pub fn org_gateway_name(org_id: u64, domain: &str) -> String {
    format!("gw{}.{}", org_id, domain)
}

/// Name of a national gateway router for country index `c`.
pub fn national_gateway_name(c: usize) -> String {
    format!("intl-gw.{}", COUNTRIES[c % COUNTRIES.len()])
}

/// Number of country codes available for national gateways.
pub fn country_count() -> usize {
    COUNTRIES.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_are_stable_and_kind_typed() {
        let d1 = org_domain(7, 42, OrgKind::Corporate, None);
        let d2 = org_domain(7, 42, OrgKind::Corporate, None);
        assert_eq!(d1, d2);
        assert!(d1.ends_with(".com"), "{d1}");
        assert!(org_domain(7, 1, OrgKind::University, None).ends_with(".edu"));
        assert!(org_domain(7, 1, OrgKind::Isp, None).ends_with(".net"));
        assert!(org_domain(7, 1, OrgKind::Government, None).ends_with(".gov"));
    }

    #[test]
    fn gateway_countries_get_cc_domains() {
        let d = org_domain(7, 9, OrgKind::University, Some(3));
        let parts: Vec<&str> = d.split('.').collect();
        assert_eq!(parts.len(), 3, "{d}");
        assert_eq!(parts[1], "ac");
    }

    #[test]
    fn different_orgs_usually_differ() {
        let mut distinct = std::collections::BTreeSet::new();
        for org in 0..200u64 {
            distinct.insert(org_domain(7, org, OrgKind::Corporate, None));
        }
        // Stem×number space is large; collisions should be rare.
        assert!(distinct.len() > 190, "{}", distinct.len());
    }

    #[test]
    fn host_names_follow_kind_shapes() {
        let uni = host_name(7, 1, "wits1.edu", OrgKind::University, 5);
        assert_eq!(uni.split('.').count(), 4, "{uni}");
        let isp = host_name(7, 2, "fastlink1.net", OrgKind::Isp, 5);
        assert!(isp.starts_with("client-5."), "{isp}");
        let corp = host_name(7, 3, "acme1.com", OrgKind::Corporate, 5);
        assert_eq!(corp, "host-5.acme1.com");
    }

    #[test]
    fn router_names() {
        assert_eq!(core_router_name(2), "core2.backbone.net");
        assert_eq!(border_router_name(17), "br17.transit.net");
        assert_eq!(org_gateway_name(4, "acme1.com"), "gw4.acme1.com");
        assert!(national_gateway_name(0).starts_with("intl-gw."));
    }
}
