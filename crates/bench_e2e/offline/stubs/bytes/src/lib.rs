//! Offline stand-in for the `bytes` crate.
//!
//! The sandbox has no crates.io access, so the benchmark builds the
//! repository's crates against this file instead. It provides the part
//! of [`Bytes`] that `gremlin-http` uses: an immutable byte buffer whose
//! clones share one allocation, created from a `Vec<u8>` or `String`
//! without copying.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

impl Bytes {
    /// An empty buffer; allocates nothing.
    pub const fn new() -> Bytes {
        Bytes {
            repr: Repr::Static(&[]),
        }
    }

    /// A buffer over a static slice; allocates nothing.
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            repr: Repr::Static(bytes),
        }
    }

    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes held.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` when no bytes are held.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(bytes) => bytes,
            Repr::Shared(bytes) => bytes.as_slice(),
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(bytes: Vec<u8>) -> Bytes {
        Bytes {
            repr: Repr::Shared(Arc::new(bytes)),
        }
    }
}

impl From<String> for Bytes {
    fn from(text: String) -> Bytes {
        Bytes::from(text.into_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(bytes: Box<[u8]>) -> Bytes {
        Bytes::from(bytes.into_vec())
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(bytes: &'static [u8]) -> Bytes {
        Bytes::from_static(bytes)
    }
}

impl From<&'static str> for Bytes {
    fn from(text: &'static str) -> Bytes {
        Bytes::from_static(text.as_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(bytes: Bytes) -> Vec<u8> {
        match bytes.repr {
            Repr::Static(slice) => slice.to_vec(),
            Repr::Shared(shared) => Arc::try_unwrap(shared).unwrap_or_else(|arc| (*arc).clone()),
        }
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &byte in self.as_slice() {
            for escaped in std::ascii::escape_default(byte) {
                write!(f, "{}", escaped as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_slice() == other.as_bytes()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_and_compare() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..2], &[1, 2]);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from("ok"), "ok");
        assert_eq!(Vec::from(a), vec![1, 2, 3]);
    }
}
