//! What derived code calls into. An internally tagged enum cannot know
//! its variant until it has seen the tag, which may come last, so its
//! input is buffered as [`Content`] and replayed through
//! [`ContentDeserializer`]; the published crate does the same.

use std::fmt;
use std::marker::PhantomData;

use crate::de::{self, Deserialize, DeserializeSeed, Deserializer, MapAccess, SeqAccess, Visitor};
use crate::ser::{self, SerializeMap, Serializer};

pub use std::option::Option::{self, None, Some};
pub use std::result::Result::{self, Err, Ok};

/// A buffered, format-independent value.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    /// The absent value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// A string.
    Str(String),
    /// A sequence.
    Seq(Vec<Content>),
    /// A map, in input order.
    Map(Vec<(Content, Content)>),
}

impl Content {
    /// Splits the entry keyed `tag` out of a buffered map, returning its
    /// string value and the map without it.
    ///
    /// # Errors
    ///
    /// The content is no map, has no such entry, or the entry is no
    /// string.
    pub fn take_tag<E: de::Error>(self, tag: &'static str) -> Result<(String, Content), E> {
        let Content::Map(mut entries) = self else {
            return Err(E::custom(format_args!(
                "invalid type: expected a map with a `{tag}` tag"
            )));
        };
        let position = entries
            .iter()
            .position(|(key, _)| matches!(key, Content::Str(key) if key == tag))
            .ok_or_else(|| E::missing_field(tag))?;
        match entries.remove(position).1 {
            Content::Str(variant) => Ok((variant, Content::Map(entries))),
            _ => Err(E::custom(format_args!("tag `{tag}` must be a string"))),
        }
    }
}

impl<'de> Deserialize<'de> for Content {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Content, D::Error> {
        struct ContentVisitor;

        impl<'de> Visitor<'de> for ContentVisitor {
            type Value = Content;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("any value")
            }
            fn visit_bool<E: de::Error>(self, v: bool) -> Result<Content, E> {
                Ok(Content::Bool(v))
            }
            fn visit_i64<E: de::Error>(self, v: i64) -> Result<Content, E> {
                Ok(Content::I64(v))
            }
            fn visit_u64<E: de::Error>(self, v: u64) -> Result<Content, E> {
                Ok(Content::U64(v))
            }
            fn visit_f64<E: de::Error>(self, v: f64) -> Result<Content, E> {
                Ok(Content::F64(v))
            }
            fn visit_str<E: de::Error>(self, v: &str) -> Result<Content, E> {
                Ok(Content::Str(v.to_owned()))
            }
            fn visit_string<E: de::Error>(self, v: String) -> Result<Content, E> {
                Ok(Content::Str(v))
            }
            fn visit_unit<E: de::Error>(self) -> Result<Content, E> {
                Ok(Content::Unit)
            }
            fn visit_none<E: de::Error>(self) -> Result<Content, E> {
                Ok(Content::Unit)
            }
            fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<Content, D::Error> {
                Content::deserialize(d)
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Content, A::Error> {
                let mut items = Vec::with_capacity(seq.size_hint().unwrap_or(0).min(4096));
                while let Some(item) = seq.next_element()? {
                    items.push(item);
                }
                Ok(Content::Seq(items))
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Content, A::Error> {
                let mut entries = Vec::with_capacity(map.size_hint().unwrap_or(0).min(4096));
                while let Some(key) = map.next_key()? {
                    entries.push((key, map.next_value()?));
                }
                Ok(Content::Map(entries))
            }
        }

        deserializer.deserialize_any(ContentVisitor)
    }
}

/// Replays a [`Content`] as a [`Deserializer`] with the caller's error
/// type.
pub struct ContentDeserializer<E> {
    content: Content,
    error: PhantomData<E>,
}

impl<E> ContentDeserializer<E> {
    /// Wraps `content`.
    pub fn new(content: Content) -> ContentDeserializer<E> {
        ContentDeserializer {
            content,
            error: PhantomData,
        }
    }
}

impl<'de, E: de::Error> Deserializer<'de> for ContentDeserializer<E> {
    type Error = E;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        match self.content {
            Content::Unit => visitor.visit_unit(),
            Content::Bool(v) => visitor.visit_bool(v),
            Content::I64(v) => visitor.visit_i64(v),
            Content::U64(v) => visitor.visit_u64(v),
            Content::F64(v) => visitor.visit_f64(v),
            Content::Str(v) => visitor.visit_string(v),
            Content::Seq(items) => visitor.visit_seq(ContentSeq {
                items: items.into_iter(),
                error: PhantomData,
            }),
            Content::Map(entries) => visitor.visit_map(ContentMap {
                entries: entries.into_iter(),
                value: None,
                error: PhantomData,
            }),
        }
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        match self.content {
            Content::Unit => visitor.visit_none(),
            _ => visitor.visit_some(self),
        }
    }
}

struct ContentSeq<E> {
    items: std::vec::IntoIter<Content>,
    error: PhantomData<E>,
}

impl<'de, E: de::Error> SeqAccess<'de> for ContentSeq<E> {
    type Error = E;

    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, E> {
        match self.items.next() {
            Some(item) => seed.deserialize(ContentDeserializer::new(item)).map(Some),
            None => Ok(None),
        }
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.items.len())
    }
}

struct ContentMap<E> {
    entries: std::vec::IntoIter<(Content, Content)>,
    value: Option<Content>,
    error: PhantomData<E>,
}

impl<'de, E: de::Error> MapAccess<'de> for ContentMap<E> {
    type Error = E;

    fn next_key_seed<K: DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>, E> {
        match self.entries.next() {
            Some((key, value)) => {
                self.value = Some(value);
                seed.deserialize(ContentDeserializer::new(key)).map(Some)
            }
            None => Ok(None),
        }
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value, E> {
        match self.value.take() {
            Some(value) => seed.deserialize(ContentDeserializer::new(value)),
            None => Err(E::custom("value requested before key")),
        }
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.entries.len())
    }
}

/// Serializes the newtype variant of an internally tagged enum: the
/// inner value must write a map, and the tag entry is written first.
pub struct TaggedSerializer<S> {
    /// Key of the tag entry.
    pub tag: &'static str,
    /// Name of the variant being written.
    pub variant: &'static str,
    /// Where the map goes.
    pub delegate: S,
}

impl<S: Serializer> TaggedSerializer<S> {
    fn unsupported(&self, what: &str) -> S::Error {
        ser::Error::custom(format_args!(
            "cannot serialize tagged newtype variant {}: {} containing {what}",
            self.tag, self.variant
        ))
    }
}

impl<S: Serializer> Serializer for TaggedSerializer<S> {
    type Ok = S::Ok;
    type Error = S::Error;
    type SerializeSeq = S::SerializeSeq;
    type SerializeMap = S::SerializeMap;

    fn serialize_bool(self, _: bool) -> Result<S::Ok, S::Error> {
        Err(self.unsupported("a boolean"))
    }
    fn serialize_i64(self, _: i64) -> Result<S::Ok, S::Error> {
        Err(self.unsupported("an integer"))
    }
    fn serialize_u64(self, _: u64) -> Result<S::Ok, S::Error> {
        Err(self.unsupported("an integer"))
    }
    fn serialize_f64(self, _: f64) -> Result<S::Ok, S::Error> {
        Err(self.unsupported("a float"))
    }
    fn serialize_str(self, _: &str) -> Result<S::Ok, S::Error> {
        Err(self.unsupported("a string"))
    }
    fn serialize_unit(self) -> Result<S::Ok, S::Error> {
        let mut map = self.delegate.serialize_map(Some(1))?;
        map.serialize_entry(self.tag, self.variant)?;
        map.end()
    }
    fn serialize_seq(self, _: Option<usize>) -> Result<S::SerializeSeq, S::Error> {
        Err(self.unsupported("a sequence"))
    }
    fn serialize_map(self, len: Option<usize>) -> Result<S::SerializeMap, S::Error> {
        let mut map = self.delegate.serialize_map(len.map(|len| len + 1))?;
        map.serialize_entry(self.tag, self.variant)?;
        Ok(map)
    }
}
