//! Length-checked little-endian binary codec for cached payloads.
//!
//! Cached experiments carry trained-model weight matrices; the cache contract
//! (a warm sweep is byte-identical to a cold one) therefore demands *exact*
//! `f64` round-trips, which text formats cannot guarantee without heroics.
//! [`Encoder`] writes primitives little-endian into a growable buffer;
//! [`Decoder`] reads them back with bounds checks and returns `Err` — never
//! panics — on truncated or malformed input, so a corrupted cache entry
//! degrades into a recomputation instead of a crash.

/// Serializes primitives into a byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64` so 32- and 64-bit hosts agree.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` by its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed `f64` slice (exact bits).
    pub fn put_f64_slice(&mut self, values: &[f64]) {
        self.put_usize(values.len());
        for &v in values {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Appends a length-prefixed `usize` slice.
    pub fn put_usize_slice(&mut self, values: &[usize]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_usize(v);
        }
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Deserializes primitives from a byte slice, in the order they were encoded.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `data`, positioned at the start.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| format!("truncated payload: need {n} bytes at offset {}", self.pos))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads a raw byte.
    pub fn get_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that do not fit.
    pub fn get_usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.get_u64()?).map_err(|_| "encoded size exceeds the address space".to_string())
    }

    /// Reads a `usize` that must also be a plausible element count for the
    /// remaining input (each element at least one byte), so corrupted length
    /// prefixes fail fast instead of attempting huge allocations.
    fn get_len(&mut self, bytes_per_element: usize) -> Result<usize, String> {
        let len = self.get_usize()?;
        let available = self.data.len() - self.pos;
        if len
            .checked_mul(bytes_per_element.max(1))
            .is_none_or(|need| need > available.max(1) * 8)
        {
            return Err(format!("implausible length prefix {len} with {available} bytes left"));
        }
        Ok(len)
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, String> {
        let len = self.get_len(8)?;
        let bytes = self.take(len * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }

    /// Reads a length-prefixed `usize` slice.
    pub fn get_usize_vec(&mut self) -> Result<Vec<usize>, String> {
        let len = self.get_len(8)?;
        (0..len).map(|_| self.get_usize()).collect()
    }

    /// Number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), String> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after payload", self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_exactly() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(0xdeadbeef);
        enc.put_u64(u64::MAX);
        enc.put_usize(42);
        enc.put_f64(-0.0);
        enc.put_f64(f64::MIN_POSITIVE);
        enc.put_f64_slice(&[1.0, 0.1 + 0.2, f64::NAN]);
        enc.put_usize_slice(&[3, 1, 4]);
        let bytes = enc.finish();

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert_eq!(dec.get_u32().unwrap(), 0xdeadbeef);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX);
        assert_eq!(dec.get_usize().unwrap(), 42);
        assert_eq!(dec.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(dec.get_f64().unwrap(), f64::MIN_POSITIVE);
        let floats = dec.get_f64_vec().unwrap();
        assert_eq!(floats[0], 1.0);
        assert_eq!(floats[1].to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(floats[2].is_nan());
        assert_eq!(dec.get_usize_vec().unwrap(), vec![3, 1, 4]);
        dec.finish().unwrap();
    }

    #[test]
    fn truncation_and_garbage_error_instead_of_panicking() {
        let mut enc = Encoder::new();
        enc.put_f64_slice(&[1.0, 2.0, 3.0]);
        let bytes = enc.finish();
        // Truncated mid-slice.
        let err = Decoder::new(&bytes[..bytes.len() - 4]).get_f64_vec().unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        // A length prefix claiming far more elements than bytes exist.
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX / 2);
        let bytes = enc.finish();
        let err = Decoder::new(&bytes).get_f64_vec().unwrap_err();
        assert!(err.contains("implausible length"), "{err}");
        // Trailing garbage.
        let mut dec = Decoder::new(&[0, 1]);
        assert_eq!(dec.get_u8().unwrap(), 0);
        assert!(dec.finish().unwrap_err().contains("trailing"));
    }

    #[test]
    fn empty_input_is_rejected_cleanly() {
        assert!(Decoder::new(&[]).get_u8().is_err());
        assert!(Decoder::new(&[]).get_u64().is_err());
        Decoder::new(&[]).finish().unwrap();
    }
}
