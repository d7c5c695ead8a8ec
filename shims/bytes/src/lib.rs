//! Offline shim for [bytes](https://crates.io/crates/bytes).
//!
//! Implements the subset this workspace uses: a cheaply-clonable immutable
//! [`Bytes`] buffer, a growable [`BytesMut`] builder, and the little-endian
//! [`Buf`]/[`BufMut`] accessor traits.

use std::ops::Deref;
use std::sync::Arc;

/// Immutable, cheaply clonable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Wrap a static byte slice.
    pub fn from_static(b: &'static [u8]) -> Self {
        Self { data: Arc::from(b) }
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(b: &[u8]) -> Self {
        Self { data: Arc::from(b) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Self { data: Arc::from(v) }
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(b: &'static [u8]) -> Self {
        Self::from_static(b)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.data[..] == other.data[..]
    }
}
impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// Growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Debug, Default)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// New empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Convert into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Little-endian read access over a shrinking byte slice.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);
    /// Read one byte.
    fn get_u8(&mut self) -> u8;
    /// Read a little-endian u32.
    fn get_u32_le(&mut self) -> u32;
    /// Read a little-endian u64.
    fn get_u64_le(&mut self) -> u64;
    /// Read a little-endian f64.
    fn get_f64_le(&mut self) -> f64;
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "Buf::advance past end");
        *self = &self[n..];
    }

    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        *self = &self[1..];
        v
    }

    fn get_u32_le(&mut self) -> u32 {
        let v = u32::from_le_bytes(self[..4].try_into().unwrap());
        *self = &self[4..];
        v
    }

    fn get_u64_le(&mut self) -> u64 {
        let v = u64::from_le_bytes(self[..8].try_into().unwrap());
        *self = &self[8..];
        v
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Little-endian append access.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, b: &[u8]);
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append `count` copies of `val`.
    fn put_bytes(&mut self, val: u8, count: usize);
    /// Append a little-endian u32.
    fn put_u32_le(&mut self, v: u32);
    /// Append a little-endian u64.
    fn put_u64_le(&mut self, v: u64);
    /// Append a little-endian f64.
    fn put_f64_le(&mut self, v: f64);
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, b: &[u8]) {
        self.data.extend_from_slice(b);
    }

    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_bytes(&mut self, val: u8, count: usize) {
        self.data.extend(std::iter::repeat_n(val, count));
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_le_fields() {
        let mut m = BytesMut::with_capacity(32);
        m.put_u64_le(0xDEAD_BEEF);
        m.put_u32_le(7);
        m.put_u8(3);
        m.put_f64_le(1.5);
        m.put_bytes(0, 3);
        let b = m.freeze();
        let mut r: &[u8] = &b;
        assert_eq!(r.get_u64_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u32_le(), 7);
        assert_eq!(r.get_u8(), 3);
        assert_eq!(r.get_f64_le(), 1.5);
        r.advance(3);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytes_clone_is_shallow_and_equal() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(&c[..2], &[1, 2]);
        assert_eq!(Bytes::from_static(b"abc").len(), 3);
    }
}
