//! Serialization half: [`Serialize`] types drive a [`Serializer`].

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Errors a [`Serializer`] can raise.
pub trait Error: Sized + std::error::Error {
    /// An error carrying a caller-supplied message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A data structure that can be written by any [`Serializer`].
pub trait Serialize {
    /// Writes `self` to `serializer`.
    ///
    /// # Errors
    ///
    /// Whatever the serializer's sink reports.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A data format's writer. Structs are written as maps with string
/// keys, tuples as sequences.
pub trait Serializer: Sized {
    /// What a finished value yields.
    type Ok;
    /// The format's error type.
    type Error: Error;
    /// State while a sequence is open.
    type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// State while a map is open.
    type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;

    /// Writes a boolean.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    /// Writes a signed integer.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    /// Writes an unsigned integer.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    /// Writes a float.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    /// Writes a string.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// Writes the absent value (`None`, `()`).
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    /// Opens a sequence.
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    /// Opens a map.
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;

    /// Writes `None`.
    fn serialize_none(self) -> Result<Self::Ok, Self::Error> {
        self.serialize_unit()
    }

    /// Writes `Some(value)` as the value itself.
    fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<Self::Ok, Self::Error> {
        value.serialize(self)
    }

    /// Writes an `i8`.
    fn serialize_i8(self, v: i8) -> Result<Self::Ok, Self::Error> {
        self.serialize_i64(i64::from(v))
    }
    /// Writes an `i16`.
    fn serialize_i16(self, v: i16) -> Result<Self::Ok, Self::Error> {
        self.serialize_i64(i64::from(v))
    }
    /// Writes an `i32`.
    fn serialize_i32(self, v: i32) -> Result<Self::Ok, Self::Error> {
        self.serialize_i64(i64::from(v))
    }
    /// Writes a `u8`.
    fn serialize_u8(self, v: u8) -> Result<Self::Ok, Self::Error> {
        self.serialize_u64(u64::from(v))
    }
    /// Writes a `u16`.
    fn serialize_u16(self, v: u16) -> Result<Self::Ok, Self::Error> {
        self.serialize_u64(u64::from(v))
    }
    /// Writes a `u32`.
    fn serialize_u32(self, v: u32) -> Result<Self::Ok, Self::Error> {
        self.serialize_u64(u64::from(v))
    }
    /// Writes an `f32`.
    fn serialize_f32(self, v: f32) -> Result<Self::Ok, Self::Error> {
        self.serialize_f64(f64::from(v))
    }
    /// Writes a `char` as a one-character string.
    fn serialize_char(self, v: char) -> Result<Self::Ok, Self::Error> {
        self.serialize_str(v.encode_utf8(&mut [0u8; 4]))
    }
    /// Writes a value's `Display` form as a string.
    fn collect_str<T: ?Sized + Display>(self, value: &T) -> Result<Self::Ok, Self::Error> {
        self.serialize_str(&value.to_string())
    }
}

/// An open sequence.
pub trait SerializeSeq {
    /// What the finished sequence yields.
    type Ok;
    /// The format's error type.
    type Error: Error;
    /// Writes the next element.
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Closes the sequence.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// An open map.
pub trait SerializeMap {
    /// What the finished map yields.
    type Ok;
    /// The format's error type.
    type Error: Error;
    /// Writes the next key.
    fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<(), Self::Error>;
    /// Writes the value of the key just written.
    fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Writes one key and its value.
    fn serialize_entry<K: ?Sized + Serialize, V: ?Sized + Serialize>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), Self::Error> {
        self.serialize_key(key)?;
        self.serialize_value(value)
    }
    /// Closes the map.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

macro_rules! primitive {
    ($($ty:ty => $method:ident),*) => {$(
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.$method(*self)
            }
        }
    )*};
}

primitive!(
    bool => serialize_bool,
    i8 => serialize_i8, i16 => serialize_i16, i32 => serialize_i32, i64 => serialize_i64,
    u8 => serialize_u8, u16 => serialize_u16, u32 => serialize_u32, u64 => serialize_u64,
    f32 => serialize_f32, f64 => serialize_f64, char => serialize_char
);

impl Serialize for usize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_u64(*self as u64)
    }
}

impl Serialize for isize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_i64(*self as i64)
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl Serialize for Path {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self.to_str() {
            Some(text) => serializer.serialize_str(text),
            None => Err(Error::custom("path contains invalid UTF-8 characters")),
        }
    }
}

impl Serialize for PathBuf {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_path().serialize(serializer)
    }
}

/// `Duration` uses the published crate's layout: `{"secs": …, "nanos": …}`.
impl Serialize for Duration {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(2))?;
        map.serialize_entry("secs", &self.as_secs())?;
        map.serialize_entry("nanos", &self.subsec_nanos())?;
        map.end()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(value) => serializer.serialize_some(value),
            None => serializer.serialize_none(),
        }
    }
}

macro_rules! deref {
    ($($ty:ty),*) => {$(
        impl<T: ?Sized + Serialize> Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                (**self).serialize(serializer)
            }
        }
    )*};
}

deref!(&T, &mut T, Box<T>, Rc<T>, Arc<T>);

fn serialize_iter<S: Serializer, I>(serializer: S, iter: I) -> Result<S::Ok, S::Error>
where
    I: ExactSizeIterator,
    I::Item: Serialize,
{
    let mut seq = serializer.serialize_seq(Some(iter.len()))?;
    for item in iter {
        seq.serialize_element(&item)?;
    }
    seq.end()
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_iter(serializer, self.iter())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_iter(serializer, self.iter())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_iter(serializer, self.iter())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_iter(serializer, self.iter())
    }
}

impl<T: Serialize, H> Serialize for HashSet<T, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_iter(serializer, self.iter())
    }
}

fn serialize_pairs<'a, S: Serializer, K: Serialize + 'a, V: Serialize + 'a>(
    serializer: S,
    pairs: impl ExactSizeIterator<Item = (&'a K, &'a V)>,
) -> Result<S::Ok, S::Error> {
    let mut map = serializer.serialize_map(Some(pairs.len()))?;
    for (key, value) in pairs {
        map.serialize_entry(key, value)?;
    }
    map.end()
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_pairs(serializer, self.iter())
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_pairs(serializer, self.iter())
    }
}

macro_rules! tuple {
    ($($len:expr => ($($name:ident $idx:tt),+)),*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut seq = serializer.serialize_seq(Some($len))?;
                $(seq.serialize_element(&self.$idx)?;)+
                seq.end()
            }
        }
    )*};
}

tuple!(
    1 => (A 0),
    2 => (A 0, B 1),
    3 => (A 0, B 1, C 2),
    4 => (A 0, B 1, C 2, D 3)
);
