//! Offline stand-in for the `serde_json` crate.
//!
//! The sandbox has no crates.io access, so the benchmark builds the
//! repository's crates against this crate instead. Like the published
//! crate it writes JSON straight from `Serialize` impls and parses it
//! straight into `Deserialize` visitors, with no tree in between;
//! [`Value`] exists for callers that ask for one. Covered: `to_string`,
//! `to_string_pretty`, `to_vec`, `to_value`, `from_str`,
//! `from_slice`, `from_value`, [`Value`], [`Map`], [`Number`], `json!`.
//!
//! Known differences from the published crate: floats are written with
//! the standard library's shortest round-trip formatting rather than
//! Ryu (same digits, occasionally another exponent form), object keys
//! in a [`Map`] are always sorted, and error messages carry a byte
//! offset instead of line and column.

mod de;
mod error;
mod macros;
mod ser;
mod value;

pub use de::{from_slice, from_str};
pub use error::{Error, Result};
pub use ser::{to_string, to_string_pretty, to_vec};
pub use value::{from_value, to_value, Map, Number, Value};

#[cfg(test)]
mod tests;
