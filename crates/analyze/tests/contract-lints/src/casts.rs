//! Seeded `cast_possible_truncation` violations, plus the waiver-hygiene
//! case for `allow_attributes_without_reason`.

pub fn narrowing(x: u64) -> u32 {
    x as u32 // finding: narrowing cast, no waiver
}

pub fn to_index(x: u64) -> usize {
    x as usize // finding: truncates on a 32-bit target
}

#[allow(clippy::cast_possible_truncation, reason = "x < 2^20 by the caller's contract.")]
pub fn justified(x: u64) -> u32 {
    (x & 0xF_FFFF) as u32
}

#[allow(clippy::cast_possible_truncation)] // finding: a waiver carries a reason
pub fn reasonless(x: u64) -> u32 {
    x as u32
}

pub fn widening(x: u8) -> u32 {
    x as u32 // no finding: the lint sees the source type
}
