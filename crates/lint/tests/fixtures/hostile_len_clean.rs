//! Fixture: the clean twin — a `MAX_*` cap, a `.remaining()` cap, an
//! all-constant size (safe by construction), and an encoder sizing its
//! buffer from a slice it already holds (no byte reader in sight).

pub const MAX_FRAME_BYTES: usize = 1 << 20;

pub fn decode(prefix: [u8; 4]) -> Option<Vec<u8>> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return None;
    }
    Some(Vec::with_capacity(len))
}

pub struct Reader {
    len: usize,
}

impl Reader {
    pub fn remaining(&self) -> usize {
        self.len
    }
}

pub fn decode_counted(r: &Reader, prefix: [u8; 4]) -> Option<Vec<u8>> {
    let count = u32::from_le_bytes(prefix) as usize;
    if count > r.remaining() / 8 {
        return None;
    }
    Some(Vec::with_capacity(count))
}

pub fn header() -> Vec<u8> {
    Vec::with_capacity(16)
}

pub fn encode(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(payload);
    frame
}
