//! Parsing and unification of routing-table prefix/netmask entry formats.
//!
//! §3.1.2 of the paper lists three textual formats found across the
//! collected routing-table and registry dump files:
//!
//! 1. `x1.x2.x3.x4/k1.k2.k3.k4` — dotted prefix and dotted netmask, with
//!    trailing zero octets optionally dropped (`12.65.128/255.255.224`),
//! 2. `x1.x2.x3.x4/l` — prefix with numeric netmask length,
//! 3. `x1.x2.x3.0` — bare address, an abbreviation for the classful
//!    network it belongs to (Class A → `/8`, B → `/16`, C → `/24`).
//!
//! [`parse_table_entry`] accepts all three and returns the one canonical
//! [`Ipv4Net`] — the paper's "standard format" unification step. Reading a
//! whole table file is `netclust_rtable::RoutingTable::parse`.

use std::net::Ipv4Addr;

use crate::class::classful_network;
use crate::error::PrefixError;
use crate::net::Ipv4Net;

/// Parses a single routing-table entry in any of the three formats.
///
/// Leading/trailing whitespace is ignored. Trailing zero octets may be
/// dropped from both the address and a dotted netmask, as some table dumps
/// do (`12.65.128/255.255.224` ≡ `12.65.128.0/255.255.224.0`).
///
/// ```
/// use netclust_prefix::parse_table_entry;
/// assert_eq!(
///     parse_table_entry("12.65.128/255.255.224").unwrap().to_string(),
///     "12.65.128.0/19"
/// );
/// assert_eq!(parse_table_entry("18.0.0.0").unwrap().to_string(), "18.0.0.0/8");
/// ```
pub fn parse_table_entry(entry: &str) -> Result<Ipv4Net, PrefixError> {
    let entry = entry.trim();
    if entry.is_empty() {
        return Err(PrefixError::MalformedEntry(entry.to_string()));
    }
    match entry.split_once('/') {
        None => {
            // Format (iii): bare address, classful abbreviation.
            let addr = parse_padded_addr(entry)?;
            classful_network(addr).ok_or_else(|| PrefixError::MalformedEntry(entry.to_string()))
        }
        Some((addr_part, mask_part)) => {
            if addr_part.is_empty() || mask_part.is_empty() {
                return Err(PrefixError::MalformedEntry(entry.to_string()));
            }
            let addr = parse_padded_addr(addr_part)?;
            let len = if mask_part.contains('.') {
                // Format (i): dotted netmask.
                let mask = parse_padded_addr(mask_part)?;
                mask_to_len(mask)
                    .ok_or_else(|| PrefixError::NonContiguousMask(mask_part.to_string()))?
            } else {
                // Format (ii): numeric length.
                let len: u32 = decimal(mask_part)
                    .ok_or_else(|| PrefixError::MalformedEntry(entry.to_string()))?;
                // `from_addr` refuses what fits a `u8` but exceeds 32.
                u8::try_from(len).map_err(|_| PrefixError::InvalidLength(len))?
            };
            Ipv4Net::from_addr(addr, len)
        }
    }
}

/// Parses a dotted quad that may have trailing zero octets dropped
/// (`12.65.128` → `12.65.128.0`).
fn parse_padded_addr(s: &str) -> Result<Ipv4Addr, PrefixError> {
    let mut octets = [0u8; 4];
    let mut count = 0usize;
    for part in s.split('.') {
        if count == 4 {
            return Err(PrefixError::InvalidAddress(s.to_string()));
        }
        octets[count] = decimal(part).ok_or_else(|| PrefixError::InvalidAddress(s.to_string()))?;
        count += 1;
    }
    if count == 0 {
        return Err(PrefixError::InvalidAddress(s.to_string()));
    }
    Ok(Ipv4Addr::from(octets))
}

/// A number written in ASCII digits only: `str::parse` alone also takes
/// a leading `+`.
pub(crate) fn decimal<T: std::str::FromStr>(s: &str) -> Option<T> {
    let digits = !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    digits.then(|| s.parse().ok()).flatten()
}

/// Converts a dotted netmask to a prefix length, or `None` when the mask's
/// bit pattern is not contiguous (`255.0.255.0`).
fn mask_to_len(mask: Ipv4Addr) -> Option<u8> {
    let m = u32::from(mask);
    let len = m.leading_ones();
    // Contiguous means the ones are exactly the leading `len` bits.
    if len == 32 || m << len == 0 {
        u8::try_from(len).ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_formats_unify() {
        let a = parse_table_entry("12.65.128.0/255.255.224.0").unwrap();
        let b = parse_table_entry("12.65.128.0/19").unwrap();
        let c = parse_table_entry("12.65.128/255.255.224").unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.to_string(), "12.65.128.0/19");
    }

    #[test]
    fn classful_abbreviation() {
        assert_eq!(
            parse_table_entry("18.0.0.0").unwrap().to_string(),
            "18.0.0.0/8"
        );
        assert_eq!(
            parse_table_entry("151.198.0.0").unwrap().to_string(),
            "151.198.0.0/16"
        );
        assert_eq!(
            parse_table_entry("199.1.2.0").unwrap().to_string(),
            "199.1.2.0/24"
        );
        // Dropped trailing zeroes in the bare form too.
        assert_eq!(parse_table_entry("18").unwrap().to_string(), "18.0.0.0/8");
        // Class D/E space has no classful network.
        assert!(parse_table_entry("224.0.0.0").is_err());
    }

    #[test]
    fn a_sign_is_not_a_digit() {
        for entry in [
            "+12.65.128.0/19",
            "12.65.+128.0/19",
            "12.65.128.0/+19",
            "12/+255.0",
        ] {
            assert!(parse_table_entry(entry).is_err(), "{entry}");
        }
    }

    #[test]
    fn numeric_length_bounds() {
        assert!(parse_table_entry("1.2.3.0/32").is_ok());
        assert!(parse_table_entry("1.2.3.0/0").is_ok());
        assert_eq!(
            parse_table_entry("1.2.3.0/33"),
            Err(PrefixError::InvalidLength(33))
        );
    }

    #[test]
    fn non_contiguous_masks_rejected() {
        assert!(matches!(
            parse_table_entry("1.2.3.0/255.0.255.0"),
            Err(PrefixError::NonContiguousMask(_))
        ));
        assert!(matches!(
            parse_table_entry("1.2.3.0/0.255.0.0"),
            Err(PrefixError::NonContiguousMask(_))
        ));
    }

    #[test]
    fn all_contiguous_masks_roundtrip() {
        for len in 0u8..=32 {
            let net = Ipv4Net::new(0x0A00_0000, len).unwrap();
            let mask = std::net::Ipv4Addr::from(net.netmask_u32());
            let entry = format!("10.0.0.0/{mask}");
            assert_eq!(parse_table_entry(&entry).unwrap().len(), len, "mask {mask}");
        }
    }

    #[test]
    fn malformed_entries() {
        for bad in [
            "",
            "/",
            "1.2.3.4/",
            "/8",
            "a.b.c.d/8",
            "1.2.3.4.5/8",
            "1.2.3.4/8/9",
            "256.1.1.0/24",
        ] {
            assert!(parse_table_entry(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn padded_addr_variants() {
        assert_eq!(parse_table_entry("10/8").unwrap().to_string(), "10.0.0.0/8");
        assert_eq!(
            parse_table_entry("10.1/16").unwrap().to_string(),
            "10.1.0.0/16"
        );
        assert_eq!(
            parse_table_entry("10.1.2/24").unwrap().to_string(),
            "10.1.2.0/24"
        );
    }
}
