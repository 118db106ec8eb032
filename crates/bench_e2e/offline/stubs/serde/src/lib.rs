//! Offline stand-in for the `serde` crate.
//!
//! The sandbox has no crates.io access, so the benchmark builds the
//! repository's crates against this crate instead. It keeps serde's
//! architecture — data structures drive a [`Serializer`] or are built by
//! a [`de::Visitor`] that a [`Deserializer`] drives, so no intermediate
//! tree is built — and the part of its trait surface the repository
//! names: hand-written `Serialize`/`Deserialize` impls calling
//! `serialize_str`/`serialize_u64`/`deserialize_str`, `#[serde(with)]`
//! modules, and the derives with the container, variant and field
//! attributes listed in `serde_derive`.
//!
//! Deliberately left out: tuple structs, tuple variants, borrowed
//! deserialization (`&'de str` fields), adjacently tagged and untagged
//! enums, `flatten`, and every `Serializer` method JSON does not need.

pub mod de;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};

pub use serde_derive::{Deserialize, Serialize};

/// Support code for the derives; not a public interface.
#[doc(hidden)]
pub mod __private;
