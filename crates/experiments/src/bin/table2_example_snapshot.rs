//! Table 2: an example snapshot of a (VBNS-like) BGP routing table, with
//! prefix, destination description, next hop, and AS path columns.

use netclust_experiments::{paper_universe, print_table};
use netclust_netgen::{snapshot_with_attrs, VantageSpec};

fn main() {
    let universe = paper_universe();
    let spec = VantageSpec::new("VBNS", 0.025, 0.10);
    let (table, routes) = snapshot_with_attrs(&universe, &spec, 0, 0);

    let rows: Vec<Vec<String>> = routes
        .into_iter()
        .take(12)
        .map(|(net, attrs)| {
            vec![
                net.to_string(),
                attrs.description,
                attrs.next_hop,
                attrs
                    .as_path
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(" ")
                    + " (IGP)",
            ]
        })
        .collect();
    print_table(
        "Table 2: example snapshot of a BGP routing table (VBNS-like)",
        &["prefix", "prefix description", "next hop", "AS path"],
        &rows,
    );
    println!(
        "\n(total {} entries in this snapshot; first 12 shown)",
        table.len()
    );
    println!("paper: table rows look like `12.0.48.0/20  Harvard University  cs.cht.vbns.net  1742 (IGP)`");
}
