//! Seeded `undocumented_unsafe_blocks` violation: a bare unsafe block
//! next to a compliant one.

pub fn bare_unsafe_block(p: &u8) -> u8 {
    let p: *const u8 = p;
    unsafe { *p } // finding: no SAFETY comment
}

pub fn commented_unsafe(p: &u8) -> u8 {
    let p: *const u8 = p;
    // SAFETY: the pointer was derived from a live reference one line up,
    // so the read is in bounds (no finding here).
    unsafe { *p }
}
