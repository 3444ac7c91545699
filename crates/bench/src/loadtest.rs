//! FNV-1a report digests.
//!
//! `perfbench` prints and compares report digests with [`fnv1a_hex`] and
//! imports it from this path (`perfbench/src/stats.rs`). The benchmark
//! package only changes together with a benchmark change, so the function
//! stays at this path until the next one moves it next to the telemetry code.
//!
//! Load against the serve daemon is driven by `perfbench --workload
//! serve-mix` (the measured request mix); CI's concurrent serve smoke uses
//! parallel `geattack-serve submit` clients.

/// FNV-1a 64-bit digest, hex — enough to compare served reports for
/// byte-identity without a hashing dependency.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_digest_separates_bytes_and_is_stable() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"report"), fnv1a_hex(b"report"));
        assert_ne!(fnv1a_hex(b"report"), fnv1a_hex(b"report "));
    }
}
