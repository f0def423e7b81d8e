//! Seeded `typed-errors` violations: public `Result` APIs with stringly
//! error types — plus the `allow-marker` hygiene cases: a marker naming
//! an unknown rule, and one naming a rule that is a clippy lint now.

pub fn stringly() -> Result<(), String> {
    // finding: public Result with String error
    Ok(())
}

pub fn boxed(flag: bool) -> Result<u8, Box<dyn std::error::Error>> {
    // finding: public Result with Box<dyn Error>
    if flag {
        Ok(1)
    } else {
        Err("nope".into())
    }
}

/// A typed error: the compliant shape (no finding).
#[derive(Debug)]
pub struct TypedError;

impl std::fmt::Display for TypedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("typed failure")
    }
}

impl std::error::Error for TypedError {}

pub fn typed() -> Result<(), TypedError> {
    Ok(())
}

fn private_stringly() -> Result<(), String> {
    // no finding: private APIs may stay stringly
    Ok(())
}

pub fn uses_private() -> bool {
    // analyze:allow(no-such-rule) finding: markers must name catalog rules
    private_stringly().is_ok()
}

pub fn narrowing(x: u64) -> u32 {
    // analyze:allow(cast-truncation) finding: retired rule, waives nothing
    x as u32
}
