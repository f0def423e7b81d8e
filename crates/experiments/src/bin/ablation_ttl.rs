//! Ablation: PCV TTL sensitivity (§4.1.5: "Varying ttl to 5, 10, and 15
//! minutes yields similar results" to the 1-hour default).

use netclust_cachesim::{simulate, ResourceModel, SimConfig};
use netclust_core::{Assigner, Clustering};
use netclust_experiments::{nagano_env, pct, print_table};

fn main() {
    let (_u, log, merged) = nagano_env();
    let clustering = Clustering::by(log.hits(), Assigner::NetworkAware(&merged.compile()));

    let mut rows = Vec::new();
    for (label, ttl) in [
        ("5 min", 300u32),
        ("10 min", 600),
        ("15 min", 900),
        ("1 h", 3_600),
        ("4 h", 14_400),
    ] {
        let cfg = SimConfig {
            cache_bytes: 16 << 20,
            ttl_s: ttl,
            model: ResourceModel::default_web(0xFEED),
            min_url_accesses: 10,
        };
        let result = simulate(&log, &clustering, &cfg);
        let validated: u64 = result.proxies.iter().map(|p| p.validated_hits).sum();
        let msgs: u64 = result.proxies.iter().map(|p| p.server_messages).sum();
        rows.push(vec![
            label.to_string(),
            pct(result.server_hit_ratio()),
            pct(result.server_byte_hit_ratio()),
            validated.to_string(),
            msgs.to_string(),
        ]);
    }
    print_table(
        "Ablation: PCV TTL sensitivity (nagano, 16MB proxies)",
        &[
            "ttl",
            "hit ratio",
            "byte-hit ratio",
            "IMS validations",
            "server msgs",
        ],
        &rows,
    );
    println!("\npaper: 5/10/15-minute TTLs yield results similar to the 1-hour default;");
    println!("shorter TTLs trade extra validation messages for (slightly) fresher content");
}
