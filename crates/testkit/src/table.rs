use std::path::{Path, PathBuf};

use netclust_prefix::Ipv4Net;

/// Writes the tiers `bgp` and `dump` as the table files `t.bgp` and
/// `t.dump` in `dir`, one prefix a line, with `malformed` lines in every
/// `records` content lines that are no entry: the BGP file repeats its
/// first prefix, then adds the malformed lines, until the two files hold a
/// whole multiple of `records` content lines. A repeated prefix is read
/// once, so the files load as the tiers given, with parse noise of
/// exactly that ratio. Returns the two paths.
pub fn noisy_table_files(
    dir: &Path,
    bgp: &[Ipv4Net],
    dump: &[Ipv4Net],
    records: usize,
    malformed: usize,
) -> (PathBuf, PathBuf) {
    let lines =
        |tier: &[Ipv4Net]| -> String { tier.iter().map(|net| format!("{net}\n")).collect() };
    let clean = records.checked_sub(malformed).filter(|&clean| clean > 0);
    let clean = clean.expect("some content lines must be entries");
    let times = (bgp.len() + dump.len()).div_ceil(clean).max(1);
    let repeat = times * clean - bgp.len() - dump.len();
    let mut text = lines(bgp);
    if repeat > 0 {
        let first = bgp.first().expect("a BGP prefix to repeat");
        text.push_str(&lines(&[*first]).repeat(repeat));
    }
    text.push_str(&"not-a-prefix\n".repeat(times * malformed));
    let write = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write a table file");
        path
    };
    (write("t.bgp", text), write("t.dump", lines(dump)))
}
