use std::net::Ipv4Addr;

use netclust_prefix::Ipv4Net;

/// Parses one prefix spec, `a.b.c.d/len`.
pub fn net(spec: &str) -> Ipv4Net {
    spec.parse().expect("test prefix spec")
}

/// Parses a list of prefix specs.
pub fn nets(specs: &[&str]) -> Vec<Ipv4Net> {
    specs.iter().map(|s| net(s)).collect()
}

/// Parses one dotted-quad address.
pub fn addr(spec: &str) -> Ipv4Addr {
    spec.parse().expect("test address spec")
}

/// ASCII digits only, leading zeros allowed, no greater than `max`.
pub fn number(s: &str, max: u32) -> Option<u32> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let s = s.trim_start_matches('0');
    let v = match s.len() {
        0 => 0,
        1..=3 => s.parse().ok()?,
        _ => return None,
    };
    (v <= max).then_some(v)
}

/// `0`, or one to three digits without a leading zero, no greater than
/// 255: an octet as `Ipv4Addr` reads it.
pub fn octet(s: &str) -> Option<u32> {
    number(s, 255).filter(|_| s == "0" || !s.starts_with('0'))
}

/// `min` to four dotted parts, each read by `part`, as an address; the
/// missing trailing parts are zero.
pub fn dotted(s: &str, min: usize, part: fn(&str) -> Option<u32>) -> Option<u32> {
    let parts: Vec<&str> = s.split('.').collect();
    if !(min..=4).contains(&parts.len()) {
        return None;
    }
    (parts.iter().zip([24, 16, 8, 0])).try_fold(0, |addr, (p, at)| Some(addr | part(p)? << at))
}
