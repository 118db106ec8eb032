//! [`Value`]: any JSON document as a tree.

use std::collections::{btree_map, BTreeMap};
use std::fmt;
use std::ops;

use serde::de::{
    self, DeserializeOwned, DeserializeSeed, Deserializer, MapAccess, SeqAccess, Visitor,
};
use serde::ser::{self, Serialize, Serializer};
use serde::Deserialize;

use crate::error::{Error, Result};
use crate::ser::Impossible;

/// A JSON number: an integer kept exactly, or a finite float.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Number(N);

#[derive(Clone, Copy, Debug, PartialEq)]
enum N {
    Unsigned(u64),
    /// Always negative; non-negative integers are `Unsigned`.
    Negative(i64),
    Float(f64),
}

impl Number {
    /// The number as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::Unsigned(v) => Some(v),
            _ => None,
        }
    }

    /// The number as `i64`, when it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::Unsigned(v) => i64::try_from(v).ok(),
            N::Negative(v) => Some(v),
            N::Float(_) => None,
        }
    }

    /// The number as `f64`; integers convert (possibly rounding).
    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            N::Unsigned(v) => v as f64,
            N::Negative(v) => v as f64,
            N::Float(v) => v,
        })
    }

    /// `true` for integers representable as `u64`.
    pub fn is_u64(&self) -> bool {
        matches!(self.0, N::Unsigned(_))
    }

    /// `true` for integers representable as `i64`.
    pub fn is_i64(&self) -> bool {
        self.as_i64().is_some()
    }

    /// `true` for floats.
    pub fn is_f64(&self) -> bool {
        matches!(self.0, N::Float(_))
    }

    /// A float number; `None` for NaN and the infinities, which JSON
    /// cannot carry.
    pub fn from_f64(v: f64) -> Option<Number> {
        v.is_finite().then_some(Number(N::Float(v)))
    }
}

impl From<u64> for Number {
    fn from(v: u64) -> Number {
        Number(N::Unsigned(v))
    }
}

impl From<i64> for Number {
    fn from(v: i64) -> Number {
        match u64::try_from(v) {
            Ok(v) => Number(N::Unsigned(v)),
            Err(_) => Number(N::Negative(v)),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            N::Unsigned(v) => write!(f, "{v}"),
            N::Negative(v) => write!(f, "{v}"),
            N::Float(v) => write!(f, "{v:?}"),
        }
    }
}

impl Serialize for Number {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        match self.0 {
            N::Unsigned(v) => serializer.serialize_u64(v),
            N::Negative(v) => serializer.serialize_i64(v),
            N::Float(v) => serializer.serialize_f64(v),
        }
    }
}

/// A JSON object. Keys iterate in sorted order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Map<K = String, V = Value> {
    entries: BTreeMap<K, V>,
}

impl Map<String, Value> {
    /// An empty object.
    pub fn new() -> Map<String, Value> {
        Map {
            entries: BTreeMap::new(),
        }
    }

    /// Sets `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: String, value: Value) -> Option<Value> {
        self.entries.insert(key, value)
    }

    /// The value of `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.get(key)
    }

    /// The value of `key`, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.entries.get_mut(key)
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.entries.remove(key)
    }

    /// `true` when `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in key order.
    pub fn iter(&self) -> btree_map::Iter<'_, String, Value> {
        self.entries.iter()
    }

    /// Keys in order.
    pub fn keys(&self) -> btree_map::Keys<'_, String, Value> {
        self.entries.keys()
    }

    /// Values in key order.
    pub fn values(&self) -> btree_map::Values<'_, String, Value> {
        self.entries.values()
    }
}

impl FromIterator<(String, Value)> for Map<String, Value> {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Map<String, Value> {
        Map {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, Value)> for Map<String, Value> {
    fn extend<I: IntoIterator<Item = (String, Value)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

impl IntoIterator for Map<String, Value> {
    type Item = (String, Value);
    type IntoIter = btree_map::IntoIter<String, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a Map<String, Value> {
    type Item = (&'a String, &'a Value);
    type IntoIter = btree_map::Iter<'a, String, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl ops::Index<&str> for Map<String, Value> {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.entries.get(key).unwrap_or(&NULL)
    }
}

/// Any JSON value.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map<String, Value>),
}

static NULL: Value = Value::Null;

impl Value {
    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// `true` for booleans.
    pub fn is_boolean(&self) -> bool {
        matches!(self, Value::Bool(_))
    }

    /// `true` for numbers.
    pub fn is_number(&self) -> bool {
        matches!(self, Value::Number(_))
    }

    /// `true` for strings.
    pub fn is_string(&self) -> bool {
        matches!(self, Value::String(_))
    }

    /// `true` for arrays.
    pub fn is_array(&self) -> bool {
        matches!(self, Value::Array(_))
    }

    /// `true` for objects.
    pub fn is_object(&self) -> bool {
        matches!(self, Value::Object(_))
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(v) => Some(v),
            _ => None,
        }
    }

    /// The number as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The number as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The elements, mutably, if this is an array.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The entries, if this is an object.
    pub fn as_object(&self) -> Option<&Map<String, Value>> {
        match self {
            Value::Object(v) => Some(v),
            _ => None,
        }
    }

    /// The entries, mutably, if this is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(v) => Some(v),
            _ => None,
        }
    }

    /// The member `index` names: a key of an object or a position in an
    /// array.
    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    /// Replaces the value with `null`, returning it.
    pub fn take(&mut self) -> Value {
        std::mem::take(self)
    }
}

/// What can index a [`Value`]: `&str`/`String` keys and `usize`
/// positions.
pub trait Index {
    /// The member this index names in `value`.
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value>;
}

impl Index for usize {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_array()?.get(*self)
    }
}

impl Index for str {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        value.as_object()?.get(self)
    }
}

impl Index for String {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(value)
    }
}

impl<T: ?Sized + Index> Index for &T {
    fn index_into<'v>(&self, value: &'v Value) -> Option<&'v Value> {
        (**self).index_into(value)
    }
}

/// `value["key"]` and `value[0]`; a missing member reads as `null`.
impl<I: Index> ops::Index<I> for Value {
    type Output = Value;

    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

/// Compact JSON.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = if f.alternate() {
            crate::to_string_pretty(self)
        } else {
            crate::to_string(self)
        };
        f.write_str(&text.map_err(|_| fmt::Error)?)
    }
}

macro_rules! from_integer {
    ($($ty:ty => $wide:ty),*) => {$(
        impl From<$ty> for Value {
            fn from(v: $ty) -> Value {
                Value::Number(Number::from(v as $wide))
            }
        }

        impl PartialEq<$ty> for Value {
            fn eq(&self, other: &$ty) -> bool {
                matches!(self, Value::Number(n) if *n == Number::from(*other as $wide))
            }
        }
    )*};
}

from_integer!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64
);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Number::from_f64(v).map_or(Value::Null, Value::Number)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Value {
        Value::from(f64::from(v))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::String(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::String(v)
    }
}

impl From<Number> for Value {
    fn from(v: Number) -> Value {
        Value::Number(v)
    }
}

impl From<Map<String, Value>> for Value {
    fn from(v: Map<String, Value>) -> Value {
        Value::Object(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

// ---------------------------------------------------------------------
// Value <-> serde
// ---------------------------------------------------------------------

impl Serialize for Map<String, Value> {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        self.entries.serialize(serializer)
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        match self {
            Value::Null => serializer.serialize_unit(),
            Value::Bool(v) => serializer.serialize_bool(*v),
            Value::Number(v) => v.serialize(serializer),
            Value::String(v) => serializer.serialize_str(v),
            Value::Array(v) => v.serialize(serializer),
            Value::Object(v) => v.serialize(serializer),
        }
    }
}

impl<'de> Deserialize<'de> for Map<String, Value> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        BTreeMap::deserialize(deserializer).map(|entries| Map { entries })
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Value, D::Error> {
        struct ValueVisitor;

        impl<'de> Visitor<'de> for ValueVisitor {
            type Value = Value;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("any valid JSON value")
            }
            fn visit_bool<E: de::Error>(self, v: bool) -> std::result::Result<Value, E> {
                Ok(Value::Bool(v))
            }
            fn visit_i64<E: de::Error>(self, v: i64) -> std::result::Result<Value, E> {
                Ok(Value::from(v))
            }
            fn visit_u64<E: de::Error>(self, v: u64) -> std::result::Result<Value, E> {
                Ok(Value::from(v))
            }
            fn visit_f64<E: de::Error>(self, v: f64) -> std::result::Result<Value, E> {
                Ok(Value::from(v))
            }
            fn visit_str<E: de::Error>(self, v: &str) -> std::result::Result<Value, E> {
                Ok(Value::String(v.to_owned()))
            }
            fn visit_string<E: de::Error>(self, v: String) -> std::result::Result<Value, E> {
                Ok(Value::String(v))
            }
            fn visit_unit<E: de::Error>(self) -> std::result::Result<Value, E> {
                Ok(Value::Null)
            }
            fn visit_none<E: de::Error>(self) -> std::result::Result<Value, E> {
                Ok(Value::Null)
            }
            fn visit_some<D: Deserializer<'de>>(
                self,
                d: D,
            ) -> std::result::Result<Value, D::Error> {
                Value::deserialize(d)
            }
            fn visit_seq<A: SeqAccess<'de>>(
                self,
                mut seq: A,
            ) -> std::result::Result<Value, A::Error> {
                let mut items = Vec::new();
                while let Some(item) = seq.next_element()? {
                    items.push(item);
                }
                Ok(Value::Array(items))
            }
            fn visit_map<A: MapAccess<'de>>(
                self,
                mut map: A,
            ) -> std::result::Result<Value, A::Error> {
                let mut entries = Map::new();
                while let Some(key) = map.next_key::<String>()? {
                    entries.insert(key, map.next_value()?);
                }
                Ok(Value::Object(entries))
            }
        }

        deserializer.deserialize_any(ValueVisitor)
    }
}

/// Converts any `Serialize` value into a [`Value`].
///
/// # Errors
///
/// A `Serialize` impl failed, or a map key was not a string or integer.
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    value.serialize(TreeBuilder)
}

/// Interprets a [`Value`] as a `T`.
///
/// # Errors
///
/// The value has a shape `T` does not accept.
pub fn from_value<T: DeserializeOwned>(value: Value) -> Result<T> {
    T::deserialize(value)
}

struct TreeBuilder;

struct ArrayBuilder(Vec<Value>);

struct ObjectBuilder {
    entries: Map<String, Value>,
    key: Option<String>,
}

impl Serializer for TreeBuilder {
    type Ok = Value;
    type Error = Error;
    type SerializeSeq = ArrayBuilder;
    type SerializeMap = ObjectBuilder;

    fn serialize_bool(self, v: bool) -> Result<Value> {
        Ok(Value::Bool(v))
    }
    fn serialize_i64(self, v: i64) -> Result<Value> {
        Ok(Value::from(v))
    }
    fn serialize_u64(self, v: u64) -> Result<Value> {
        Ok(Value::from(v))
    }
    fn serialize_f64(self, v: f64) -> Result<Value> {
        Ok(Value::from(v))
    }
    fn serialize_str(self, v: &str) -> Result<Value> {
        Ok(Value::String(v.to_owned()))
    }
    fn serialize_unit(self) -> Result<Value> {
        Ok(Value::Null)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<ArrayBuilder> {
        Ok(ArrayBuilder(Vec::with_capacity(len.unwrap_or(0))))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<ObjectBuilder> {
        Ok(ObjectBuilder {
            entries: Map::new(),
            key: None,
        })
    }
}

impl ser::SerializeSeq for ArrayBuilder {
    type Ok = Value;
    type Error = Error;

    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        self.0.push(to_value(value)?);
        Ok(())
    }

    fn end(self) -> Result<Value> {
        Ok(Value::Array(self.0))
    }
}

impl ser::SerializeMap for ObjectBuilder {
    type Ok = Value;
    type Error = Error;

    fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<()> {
        self.key = Some(key.serialize(KeyBuilder)?);
        Ok(())
    }

    fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        let key = self
            .key
            .take()
            .ok_or_else(|| Error::message("serialize_value called before serialize_key"))?;
        self.entries.insert(key, to_value(value)?);
        Ok(())
    }

    fn end(self) -> Result<Value> {
        Ok(Value::Object(self.entries))
    }
}

/// Object keys: strings as they are, integers as their digits.
struct KeyBuilder;

impl Serializer for KeyBuilder {
    type Ok = String;
    type Error = Error;
    type SerializeSeq = Impossible<String>;
    type SerializeMap = Impossible<String>;

    fn serialize_bool(self, _: bool) -> Result<String> {
        Err(Error::message("key must be a string"))
    }
    fn serialize_i64(self, v: i64) -> Result<String> {
        Ok(v.to_string())
    }
    fn serialize_u64(self, v: u64) -> Result<String> {
        Ok(v.to_string())
    }
    fn serialize_f64(self, _: f64) -> Result<String> {
        Err(Error::message("key must be a string"))
    }
    fn serialize_str(self, v: &str) -> Result<String> {
        Ok(v.to_owned())
    }
    fn serialize_unit(self) -> Result<String> {
        Err(Error::message("key must be a string"))
    }
    fn serialize_seq(self, _: Option<usize>) -> Result<Impossible<String>> {
        Err(Error::message("key must be a string"))
    }
    fn serialize_map(self, _: Option<usize>) -> Result<Impossible<String>> {
        Err(Error::message("key must be a string"))
    }
}

impl<'de> Deserializer<'de> for Value {
    type Error = Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self {
            Value::Null => visitor.visit_unit(),
            Value::Bool(v) => visitor.visit_bool(v),
            Value::Number(Number(N::Unsigned(v))) => visitor.visit_u64(v),
            Value::Number(Number(N::Negative(v))) => visitor.visit_i64(v),
            Value::Number(Number(N::Float(v))) => visitor.visit_f64(v),
            Value::String(v) => visitor.visit_string(v),
            Value::Array(items) => visitor.visit_seq(ArrayReader(items.into_iter())),
            Value::Object(entries) => visitor.visit_map(ObjectReader {
                entries: entries.into_iter(),
                value: None,
            }),
        }
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self {
            Value::Null => visitor.visit_none(),
            other => visitor.visit_some(other),
        }
    }
}

struct ArrayReader(std::vec::IntoIter<Value>);

impl<'de> SeqAccess<'de> for ArrayReader {
    type Error = Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(&mut self, seed: T) -> Result<Option<T::Value>> {
        self.0.next().map(|item| seed.deserialize(item)).transpose()
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.0.len())
    }
}

struct ObjectReader {
    entries: btree_map::IntoIter<String, Value>,
    value: Option<Value>,
}

impl<'de> MapAccess<'de> for ObjectReader {
    type Error = Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>> {
        match self.entries.next() {
            Some((key, value)) => {
                self.value = Some(value);
                seed.deserialize(Value::String(key)).map(Some)
            }
            None => Ok(None),
        }
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value> {
        match self.value.take() {
            Some(value) => seed.deserialize(value),
            None => Err(Error::message("value requested before key")),
        }
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.entries.len())
    }
}
