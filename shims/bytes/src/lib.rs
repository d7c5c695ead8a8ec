//! Offline shim for [bytes](https://crates.io/crates/bytes).
//!
//! Implements the subset this workspace uses: a cheaply-clonable immutable
//! [`Bytes`] buffer. It adopts the `Vec<u8>` it is made from, so a payload
//! encoded into a `Vec` and a frame sealed into one are never copied again.

use std::ops::Deref;
use std::sync::Arc;

/// Immutable, cheaply clonable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// Wrap a static byte slice.
    pub fn from_static(b: &'static [u8]) -> Self {
        Self::copy_from_slice(b)
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(b: &[u8]) -> Self {
        Self::from(b.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The heap buffer back, when this is its only handle; `self` otherwise.
    /// A sender that kept a frame through its exchange reuses the buffer
    /// for its next frame this way.
    pub fn try_into_vec(self) -> Result<Vec<u8>, Bytes> {
        Arc::try_unwrap(self.data).map_err(|data| Self { data })
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
    /// Adopts `v`'s heap buffer: no copy.
    fn from(v: Vec<u8>) -> Self {
        Self { data: Arc::new(v) }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_adopts_the_heap_buffer() {
        let v = vec![7u8; 1000];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "Bytes::from(Vec) must not copy");
        assert_eq!(b.clone().as_ptr(), ptr, "clones share the buffer");
    }

    #[test]
    fn the_only_handle_gives_its_buffer_back() {
        let b = Bytes::from(vec![5u8; 64]);
        let ptr = b.as_ptr();
        let c = b.clone();
        let b = b.try_into_vec().expect_err("a clone still holds the buffer");
        drop(c);
        let v = b.try_into_vec().expect("the last handle owns the buffer");
        assert_eq!((v.as_ptr(), v.len()), (ptr, 64));
    }

    #[test]
    fn bytes_clone_is_shallow_and_equal() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(&c[..2], &[1, 2]);
        assert_eq!(Bytes::from_static(b"abc").len(), 3);
        assert_eq!(Bytes::copy_from_slice(&b[1..]), Bytes::from(vec![2u8, 3]));
    }
}
