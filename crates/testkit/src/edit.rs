use proptest::prelude::*;

/// What an [`Edit`] does to the byte at its place.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Inserts the edit's byte before it.
    Insert,
    /// Removes it.
    Remove,
    /// Flips its bits under the edit's byte with the lowest bit set, so
    /// it always changes.
    Xor,
    /// Overwrites it with the edit's byte.
    Set,
}

/// One byte edit: where (taken modulo the length + 1), what, the byte.
pub type Edit = (usize, Op, u8);

/// Edits anywhere, by one of `ops`, with a byte drawn from `alphabet`.
pub fn arb_edit(
    ops: &'static [Op],
    alphabet: impl Strategy<Value = u8>,
) -> impl Strategy<Value = Edit> {
    (any::<usize>(), 0..ops.len(), alphabet).prop_map(move |(at, op, byte)| (at, ops[op], byte))
}

/// `bytes` with `edits` applied in turn. An edit placed just past the
/// last byte appends its byte, whatever its op.
pub fn apply(bytes: &[u8], edits: &[Edit]) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
    for &(at, op, byte) in edits {
        let at = at % (bytes.len() + 1);
        if at == bytes.len() {
            bytes.push(byte);
            continue;
        }
        match op {
            Op::Insert => bytes.insert(at, byte),
            Op::Remove => {
                bytes.remove(at);
            }
            Op::Xor => bytes[at] ^= byte | 1,
            Op::Set => bytes[at] = byte,
        }
    }
    bytes
}
