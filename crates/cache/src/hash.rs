//! Stable 128-bit FNV-1a hashing for cache keys and spec fingerprints.
//!
//! The whole point of an on-disk cache shared across processes (and, per the
//! roadmap, machines) is that two independent runs derive the *same* key for
//! the same inputs, so the hash must be fully specified: FNV-1a with the
//! standard 128-bit offset basis and prime, fed field-by-field through
//! [`KeyHasher`] with tag bytes and length prefixes so adjacent fields can
//! never alias (`"ab" + "c"` hashes differently from `"a" + "bc"`).

/// The FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// The FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Hashes a byte slice with 128-bit FNV-1a.
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut state = FNV_OFFSET;
    for &b in bytes {
        state ^= b as u128;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Renders a 128-bit hash as 32 lower-case hex characters (the on-disk entry
/// file stem).
pub fn hex128(hash: u128) -> String {
    format!("{hash:032x}")
}

/// Incremental, field-tagged hasher for building cache keys.
///
/// Every `write_*` method prepends a type tag (and a length for variable-size
/// fields), so the final digest is a function of the *sequence of typed
/// fields*, not just the concatenated bytes.
#[derive(Clone, Debug)]
pub struct KeyHasher {
    state: u128,
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyHasher {
    /// A hasher starting from the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes a UTF-8 string field (tag + length + bytes).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.mix(&[0x01]);
        self.mix(&(s.len() as u64).to_le_bytes());
        self.mix(s.as_bytes());
        self
    }

    /// Hashes an unsigned integer field.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.mix(&[0x02]);
        self.mix(&v.to_le_bytes());
        self
    }

    /// Hashes a `usize` field (widened to `u64` so 32- and 64-bit hosts
    /// agree).
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Hashes an `f64` field by its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.mix(&[0x03]);
        self.mix(&v.to_bits().to_le_bytes());
        self
    }

    /// Hashes an optional integer field; `None` and `Some` are distinct.
    pub fn write_opt_u64(&mut self, v: Option<u64>) -> &mut Self {
        match v {
            None => self.mix(&[0x05]),
            Some(v) => {
                self.mix(&[0x06]);
                self.mix(&v.to_le_bytes());
            }
        }
        self
    }

    /// Hashes an optional float field; `None` and `Some` are distinct.
    pub fn write_opt_f64(&mut self, v: Option<f64>) -> &mut Self {
        match v {
            None => self.mix(&[0x07]),
            Some(v) => {
                self.mix(&[0x08]);
                self.mix(&v.to_bits().to_le_bytes());
            }
        }
        self
    }

    /// Final digest as 32 hex characters.
    pub fn finish(&self) -> String {
        hex128(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a128_matches_published_vectors() {
        // The canonical FNV-1a test vectors (Noll's reference tables).
        assert_eq!(fnv1a128(b""), FNV_OFFSET);
        assert_eq!(fnv1a128(b"a"), 0xd228cb696f1a8caf78912b704e4a8964);
    }

    #[test]
    fn hex_is_zero_padded_and_stable() {
        assert_eq!(hex128(0xff), format!("{:0>32}", "ff"));
        assert_eq!(hex128(fnv1a128(b"")).len(), 32);
    }

    #[test]
    fn key_hasher_is_deterministic_and_field_sensitive() {
        let digest = |f: &dyn Fn(&mut KeyHasher)| {
            let mut h = KeyHasher::new();
            f(&mut h);
            h.finish()
        };
        let base = digest(&|h| {
            h.write_str("family").write_u64(3).write_f64(0.1);
        });
        assert_eq!(
            base,
            digest(&|h| {
                h.write_str("family").write_u64(3).write_f64(0.1);
            }),
            "same fields must give the same key"
        );
        assert_ne!(
            base,
            digest(&|h| {
                h.write_str("family").write_u64(4).write_f64(0.1);
            })
        );
        assert_ne!(
            base,
            digest(&|h| {
                h.write_str("family").write_f64(0.1).write_u64(3);
            }),
            "field order matters"
        );
    }

    #[test]
    fn adjacent_strings_cannot_alias() {
        let ab_c = {
            let mut h = KeyHasher::new();
            h.write_str("ab").write_str("c");
            h.finish()
        };
        let a_bc = {
            let mut h = KeyHasher::new();
            h.write_str("a").write_str("bc");
            h.finish()
        };
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn none_and_some_are_distinct() {
        let none = {
            let mut h = KeyHasher::new();
            h.write_opt_u64(None).write_opt_f64(None);
            h.finish()
        };
        let some = {
            let mut h = KeyHasher::new();
            h.write_opt_u64(Some(0)).write_opt_f64(Some(0.0));
            h.finish()
        };
        assert_ne!(none, some);
        let negated = {
            let mut h = KeyHasher::new();
            h.write_f64(0.0);
            h.finish()
        };
        let negative_zero = {
            let mut h = KeyHasher::new();
            h.write_f64(-0.0);
            h.finish()
        };
        assert_ne!(negated, negative_zero, "floats hash by bit pattern");
    }
}
