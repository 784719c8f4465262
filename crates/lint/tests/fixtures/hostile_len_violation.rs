//! Fixture: decoders sizing a buffer from a length they just read, with
//! no cap check in the same function — both must produce a
//! `hostile-len` finding.

pub fn decode(prefix: [u8; 4]) -> Vec<u8> {
    let len = u32::from_le_bytes(prefix) as usize;
    Vec::with_capacity(len)
}

pub fn decode_zeroed(prefix: [u8; 4]) -> Vec<u8> {
    let len = u32::from_le_bytes(prefix) as usize;
    vec![0u8; len]
}
