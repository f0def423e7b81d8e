//! One module per contract; each seeds the violations its lint must name
//! next to the compliant and the waived shape of the same code.

pub mod casts;
pub mod det;
pub mod helper;
pub mod hot;
pub mod unsafe_code;
