//! Deserialization half: a [`Deserializer`] drives the [`Visitor`] a
//! [`Deserialize`] type hands it.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt::{self, Display};
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Errors a [`Deserializer`] can raise.
pub trait Error: Sized + std::error::Error {
    /// An error carrying a caller-supplied message.
    fn custom<T: Display>(msg: T) -> Self;

    /// The input held a value of another type than the visitor takes.
    fn invalid_type(found: &str, expected: &dyn Expected) -> Self {
        Error::custom(format_args!("invalid type: {found}, expected {expected}"))
    }

    /// A required field was absent.
    fn missing_field(field: &'static str) -> Self {
        Error::custom(format_args!("missing field `{field}`"))
    }

    /// A field appeared twice.
    fn duplicate_field(field: &'static str) -> Self {
        Error::custom(format_args!("duplicate field `{field}`"))
    }

    /// An enum tag named no variant.
    fn unknown_variant(variant: &str, expected: &'static [&'static str]) -> Self {
        Error::custom(format_args!(
            "unknown variant `{variant}`, expected one of {expected:?}"
        ))
    }
}

/// What a visitor expected, for error messages. Every [`Visitor`] is one.
pub trait Expected {
    /// Writes the expectation, e.g. "a string".
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

impl<'de, V: Visitor<'de>> Expected for V {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.expecting(f)
    }
}

impl Display for dyn Expected + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Expected::fmt(self, f)
    }
}

/// A data structure that any [`Deserializer`] can build.
pub trait Deserialize<'de>: Sized {
    /// Builds a value from `deserializer`.
    ///
    /// # Errors
    ///
    /// Malformed input, or input of the wrong shape.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A type deserializable from any lifetime, so it borrows nothing.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// [`Deserialize`] with state: what `#[serde(with)]` fields and enum
/// variant bodies are read through.
pub trait DeserializeSeed<'de>: Sized {
    /// The value produced.
    type Value;
    /// Builds the value from `deserializer`.
    ///
    /// # Errors
    ///
    /// Malformed input, or input of the wrong shape.
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;

    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

/// A data format's reader. The format is self-describing, so every
/// hint but `deserialize_option` defaults to `deserialize_any`.
pub trait Deserializer<'de>: Sized {
    /// The format's error type.
    type Error: Error;

    /// Reads whatever comes next and hands it to the visitor.
    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    /// Reads an optional value: `visit_none` for the absent value,
    /// `visit_some` otherwise.
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;

    /// Hint: a boolean follows.
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }
    /// Hint: a signed integer follows.
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }
    /// Hint: an unsigned integer follows.
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }
    /// Hint: a float follows.
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }
    /// Hint: a string follows.
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }
    /// Hint: a string follows and the visitor wants to own it.
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }
    /// Hint: the absent value follows.
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }
    /// Hint: a sequence follows.
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }
    /// Hint: a map follows.
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }
    /// Hint: a field or variant name follows.
    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }
    /// Hint: the value will be discarded.
    fn deserialize_ignored_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        self.deserialize_any(visitor)
    }
}

/// Receives whatever a [`Deserializer`] finds. Every `visit_*` method
/// defaults to an "invalid type" error naming [`Visitor::expecting`].
pub trait Visitor<'de>: Sized {
    /// The value built.
    type Value;

    /// Describes what this visitor takes, e.g. "a string".
    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;

    /// The input holds a boolean.
    fn visit_bool<E: Error>(self, v: bool) -> Result<Self::Value, E> {
        Err(E::invalid_type(&format!("boolean `{v}`"), &self))
    }
    /// The input holds a signed integer.
    fn visit_i64<E: Error>(self, v: i64) -> Result<Self::Value, E> {
        Err(E::invalid_type(&format!("integer `{v}`"), &self))
    }
    /// The input holds an unsigned integer.
    fn visit_u64<E: Error>(self, v: u64) -> Result<Self::Value, E> {
        Err(E::invalid_type(&format!("integer `{v}`"), &self))
    }
    /// The input holds a float.
    fn visit_f64<E: Error>(self, v: f64) -> Result<Self::Value, E> {
        Err(E::invalid_type(&format!("floating point `{v}`"), &self))
    }
    /// The input holds a string the deserializer keeps.
    fn visit_str<E: Error>(self, v: &str) -> Result<Self::Value, E> {
        Err(E::invalid_type(&format!("string {v:?}"), &self))
    }
    /// The input holds a string the visitor may keep.
    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }
    /// The input holds the absent value.
    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(E::invalid_type("null", &self))
    }
    /// An optional value is absent.
    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(E::invalid_type("Option value", &self))
    }
    /// An optional value is present.
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::invalid_type("Option value", &self))
    }
    /// The input holds a sequence.
    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
        let _ = seq;
        Err(Error::invalid_type("sequence", &self))
    }
    /// The input holds a map.
    fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<Self::Value, A::Error> {
        let _ = map;
        Err(Error::invalid_type("map", &self))
    }
}

/// The elements of a sequence being read.
pub trait SeqAccess<'de> {
    /// The format's error type.
    type Error: Error;

    /// Reads the next element through `seed`; `None` at the end.
    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error>;

    /// Reads the next element; `None` at the end.
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }

    /// Elements left, when known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// The entries of a map being read.
pub trait MapAccess<'de> {
    /// The format's error type.
    type Error: Error;

    /// Reads the next key through `seed`; `None` at the end.
    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;

    /// Reads the value of the key just read through `seed`.
    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, Self::Error>;

    /// Reads the next key; `None` at the end.
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }

    /// Reads the value of the key just read.
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error> {
        self.next_value_seed(PhantomData)
    }

    /// Entries left, when known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Accepts and discards any value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IgnoredAny;

impl<'de> Visitor<'de> for IgnoredAny {
    type Value = IgnoredAny;

    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("anything at all")
    }
    fn visit_bool<E: Error>(self, _: bool) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_i64<E: Error>(self, _: i64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_u64<E: Error>(self, _: u64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_f64<E: Error>(self, _: f64) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_str<E: Error>(self, _: &str) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_unit<E: Error>(self) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_none<E: Error>(self) -> Result<IgnoredAny, E> {
        Ok(IgnoredAny)
    }
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<IgnoredAny, D::Error> {
        IgnoredAny::deserialize(deserializer)
    }
    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<IgnoredAny, A::Error> {
        while seq.next_element::<IgnoredAny>()?.is_some() {}
        Ok(IgnoredAny)
    }
    fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<IgnoredAny, A::Error> {
        while map.next_key::<IgnoredAny>()?.is_some() {
            map.next_value::<IgnoredAny>()?;
        }
        Ok(IgnoredAny)
    }
}

impl<'de> Deserialize<'de> for IgnoredAny {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<IgnoredAny, D::Error> {
        deserializer.deserialize_ignored_any(IgnoredAny)
    }
}

macro_rules! integer {
    ($($ty:ty),*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$ty, D::Error> {
                struct IntVisitor;

                impl Visitor<'_> for IntVisitor {
                    type Value = $ty;

                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(stringify!($ty))
                    }
                    fn visit_i64<E: Error>(self, v: i64) -> Result<$ty, E> {
                        <$ty>::try_from(v)
                            .map_err(|_| E::invalid_type(&format!("integer `{v}`"), &self))
                    }
                    fn visit_u64<E: Error>(self, v: u64) -> Result<$ty, E> {
                        <$ty>::try_from(v)
                            .map_err(|_| E::invalid_type(&format!("integer `{v}`"), &self))
                    }
                }

                deserializer.deserialize_i64(IntVisitor)
            }
        }
    )*};
}

integer!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! float {
    ($($ty:ty),*) => {$(
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$ty, D::Error> {
                struct FloatVisitor;

                impl Visitor<'_> for FloatVisitor {
                    type Value = $ty;

                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        f.write_str(stringify!($ty))
                    }
                    fn visit_i64<E: Error>(self, v: i64) -> Result<$ty, E> {
                        Ok(v as $ty)
                    }
                    fn visit_u64<E: Error>(self, v: u64) -> Result<$ty, E> {
                        Ok(v as $ty)
                    }
                    fn visit_f64<E: Error>(self, v: f64) -> Result<$ty, E> {
                        Ok(v as $ty)
                    }
                }

                deserializer.deserialize_f64(FloatVisitor)
            }
        }
    )*};
}

float!(f32, f64);

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<bool, D::Error> {
        struct BoolVisitor;

        impl Visitor<'_> for BoolVisitor {
            type Value = bool;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a boolean")
            }
            fn visit_bool<E: Error>(self, v: bool) -> Result<bool, E> {
                Ok(v)
            }
        }

        deserializer.deserialize_bool(BoolVisitor)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<String, D::Error> {
        struct StringVisitor;

        impl Visitor<'_> for StringVisitor {
            type Value = String;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a string")
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<String, E> {
                Ok(v.to_owned())
            }
            fn visit_string<E: Error>(self, v: String) -> Result<String, E> {
                Ok(v)
            }
        }

        deserializer.deserialize_string(StringVisitor)
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<char, D::Error> {
        let text = String::deserialize(deserializer)?;
        let mut chars = text.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom(format_args!(
                "invalid value: string {text:?}, expected a character"
            ))),
        }
    }
}

impl<'de> Deserialize<'de> for PathBuf {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<PathBuf, D::Error> {
        String::deserialize(deserializer).map(PathBuf::from)
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<(), D::Error> {
        struct UnitVisitor;

        impl Visitor<'_> for UnitVisitor {
            type Value = ();

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("unit")
            }
            fn visit_unit<E: Error>(self) -> Result<(), E> {
                Ok(())
            }
        }

        deserializer.deserialize_unit(UnitVisitor)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Option<T>, D::Error> {
        struct OptionVisitor<T>(PhantomData<T>);

        impl<'de, T: Deserialize<'de>> Visitor<'de> for OptionVisitor<T> {
            type Value = Option<T>;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("option")
            }
            fn visit_unit<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_none<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<Option<T>, D::Error> {
                T::deserialize(d).map(Some)
            }
        }

        deserializer.deserialize_option(OptionVisitor(PhantomData))
    }
}

macro_rules! boxed {
    ($($ty:ident),*) => {$(
        impl<'de, T: Deserialize<'de>> Deserialize<'de> for $ty<T> {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$ty<T>, D::Error> {
                T::deserialize(deserializer).map($ty::new)
            }
        }
    )*};
}

boxed!(Box, Rc, Arc);

/// `Duration` uses the published crate's layout: `{"secs": …, "nanos": …}`.
impl<'de> Deserialize<'de> for Duration {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Duration, D::Error> {
        struct DurationVisitor;

        impl<'de> Visitor<'de> for DurationVisitor {
            type Value = Duration;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("struct Duration")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Duration, A::Error> {
                let secs: u64 = seq
                    .next_element()?
                    .ok_or_else(|| Error::missing_field("secs"))?;
                let nanos: u32 = seq
                    .next_element()?
                    .ok_or_else(|| Error::missing_field("nanos"))?;
                Ok(Duration::new(secs, nanos))
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Duration, A::Error> {
                let mut secs: Option<u64> = None;
                let mut nanos: Option<u32> = None;
                while let Some(key) = map.next_key::<String>()? {
                    match key.as_str() {
                        "secs" => secs = Some(map.next_value()?),
                        "nanos" => nanos = Some(map.next_value()?),
                        _ => {
                            map.next_value::<IgnoredAny>()?;
                        }
                    }
                }
                let secs = secs.ok_or_else(|| Error::missing_field("secs"))?;
                let nanos = nanos.ok_or_else(|| Error::missing_field("nanos"))?;
                Ok(Duration::new(secs, nanos))
            }
        }

        deserializer.deserialize_map(DurationVisitor)
    }
}

/// Caps a length read from input before allocating for it.
fn cautious(hint: Option<usize>) -> usize {
    hint.unwrap_or(0).min(4096)
}

/// Visitor building the collection `C`; one definition serves every
/// sequence and map type below.
struct CollectionVisitor<C>(PhantomData<C>);

macro_rules! sequence {
    ([$($generics:tt)*] $ty:ty, $new:expr, $push:ident) => {
        impl<'de, $($generics)*> Visitor<'de> for CollectionVisitor<$ty> {
            type Value = $ty;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a sequence")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<$ty, A::Error> {
                let new: fn(usize) -> $ty = $new;
                let mut out = new(cautious(seq.size_hint()));
                while let Some(item) = seq.next_element()? {
                    out.$push(item);
                }
                Ok(out)
            }
        }

        impl<'de, $($generics)*> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$ty, D::Error> {
                deserializer.deserialize_seq(CollectionVisitor::<$ty>(PhantomData))
            }
        }
    };
}

sequence!([T: Deserialize<'de>] Vec<T>, Vec::with_capacity, push);
sequence!([T: Deserialize<'de> + Ord] BTreeSet<T>, |_| BTreeSet::new(), insert);
sequence!(
    [T: Deserialize<'de> + Eq + Hash, H: BuildHasher + Default] HashSet<T, H>,
    |n| HashSet::with_capacity_and_hasher(n, H::default()),
    insert
);

macro_rules! map {
    ([$($generics:tt)*] $ty:ty, $new:expr) => {
        impl<'de, $($generics)*> Visitor<'de> for CollectionVisitor<$ty> {
            type Value = $ty;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("a map")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<$ty, A::Error> {
                let new: fn(usize) -> $ty = $new;
                let mut out = new(cautious(map.size_hint()));
                while let Some(key) = map.next_key()? {
                    out.insert(key, map.next_value()?);
                }
                Ok(out)
            }
        }

        impl<'de, $($generics)*> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<$ty, D::Error> {
                deserializer.deserialize_map(CollectionVisitor::<$ty>(PhantomData))
            }
        }
    };
}

map!(
    [K: Deserialize<'de> + Ord, V: Deserialize<'de>] BTreeMap<K, V>,
    |_| BTreeMap::new()
);
map!(
    [K: Deserialize<'de> + Eq + Hash, V: Deserialize<'de>, H: BuildHasher + Default] HashMap<K, V, H>,
    |n| HashMap::with_capacity_and_hasher(n, H::default())
);

macro_rules! tuple {
    ($($len:expr => ($($name:ident),+)),*) => {$(
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<De: Deserializer<'de>>(deserializer: De) -> Result<Self, De::Error> {
                struct TupleVisitor<$($name),+>(PhantomData<($($name,)+)>);

                impl<'de, $($name: Deserialize<'de>),+> Visitor<'de> for TupleVisitor<$($name),+> {
                    type Value = ($($name,)+);

                    fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                        write!(f, "a tuple of size {}", $len)
                    }
                    fn visit_seq<Acc: SeqAccess<'de>>(self, mut seq: Acc) -> Result<Self::Value, Acc::Error> {
                        let value = ($(
                            match seq.next_element::<$name>()? {
                                Some(item) => item,
                                None => return Err(Error::custom(format_args!(
                                    "invalid length, expected a tuple of size {}", $len
                                ))),
                            },
                        )+);
                        Ok(value)
                    }
                }

                deserializer.deserialize_seq(TupleVisitor(PhantomData))
            }
        }
    )*};
}

tuple!(1 => (A), 2 => (A, B), 3 => (A, B, C), 4 => (A, B, C, D));
