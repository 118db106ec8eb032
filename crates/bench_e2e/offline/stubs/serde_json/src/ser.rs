//! JSON writer: a `serde::Serializer` appending to a `Vec<u8>`.

use serde::ser::{self, Serialize};

use crate::error::{Error, Result};

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// A `Serialize` impl failed, or a map key was not a string or integer.
pub fn to_string<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    to_vec(value).map(into_string)
}

/// Serializes `value` as indented JSON (two spaces per level).
///
/// # Errors
///
/// As [`to_string`].
pub fn to_string_pretty<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    to_vec_pretty(value).map(into_string)
}

/// Serializes `value` as compact JSON bytes.
///
/// # Errors
///
/// As [`to_string`].
pub fn to_vec<T: ?Sized + Serialize>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    value.serialize(Writer {
        out: &mut out,
        indent: None,
    })?;
    Ok(out)
}

fn to_vec_pretty<T: ?Sized + Serialize>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(128);
    value.serialize(Writer {
        out: &mut out,
        indent: Some(0),
    })?;
    Ok(out)
}

fn into_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("the writer emits UTF-8 only")
}

/// The serializer. `indent` is `None` for compact output, else the
/// current nesting depth.
struct Writer<'a> {
    out: &'a mut Vec<u8>,
    indent: Option<usize>,
}

fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

fn write_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    write_u64(out, v.unsigned_abs());
}

fn write_f64(out: &mut Vec<u8>, v: f64) {
    if v.is_finite() {
        // `{:?}` is the shortest text that parses back to `v`, and
        // always carries a `.0` or an exponent, so it reads as a float.
        out.extend_from_slice(format!("{v:?}").as_bytes());
    } else {
        out.extend_from_slice(b"null");
    }
}

pub(crate) fn write_escaped(out: &mut Vec<u8>, text: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = text.as_bytes();
    let mut clean_from = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        let escape: &[u8] = match byte {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0x00..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[clean_from..i]);
        if escape.is_empty() {
            out.extend_from_slice(b"\\u00");
            out.push(HEX[(byte >> 4) as usize]);
            out.push(HEX[(byte & 0xf) as usize]);
        } else {
            out.extend_from_slice(escape);
        }
        clean_from = i + 1;
    }
    out.extend_from_slice(&bytes[clean_from..]);
    out.push(b'"');
}

fn newline(out: &mut Vec<u8>, depth: usize) {
    out.push(b'\n');
    for _ in 0..depth {
        out.extend_from_slice(b"  ");
    }
}

impl<'a> ser::Serializer for Writer<'a> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Compound<'a>;
    type SerializeMap = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out
            .extend_from_slice(if v { b"true" } else { b"false" });
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<()> {
        write_i64(self.out, v);
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<()> {
        write_u64(self.out, v);
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<()> {
        write_f64(self.out, v);
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        write_escaped(self.out, v);
        Ok(())
    }

    fn serialize_unit(self) -> Result<()> {
        self.out.extend_from_slice(b"null");
        Ok(())
    }

    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a>> {
        self.out.push(b'[');
        Ok(Compound {
            out: self.out,
            indent: self.indent.map(|depth| depth + 1),
            close: b']',
            empty: true,
        })
    }

    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a>> {
        self.out.push(b'{');
        Ok(Compound {
            out: self.out,
            indent: self.indent.map(|depth| depth + 1),
            close: b'}',
            empty: true,
        })
    }
}

/// An open array or object. `indent` is the depth of its elements.
struct Compound<'a> {
    out: &'a mut Vec<u8>,
    indent: Option<usize>,
    close: u8,
    empty: bool,
}

impl Compound<'_> {
    /// Writes the separator and indentation that precede an element or
    /// key.
    fn begin_item(&mut self) {
        if !self.empty {
            self.out.push(b',');
        }
        self.empty = false;
        if let Some(depth) = self.indent {
            newline(self.out, depth);
        }
    }

    fn value_writer(&mut self) -> Writer<'_> {
        Writer {
            out: self.out,
            indent: self.indent,
        }
    }

    fn finish(self) {
        if let (Some(depth), false) = (self.indent, self.empty) {
            newline(self.out, depth - 1);
        }
        self.out.push(self.close);
    }
}

impl ser::SerializeSeq for Compound<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        self.begin_item();
        value.serialize(self.value_writer())
    }

    fn end(self) -> Result<()> {
        self.finish();
        Ok(())
    }
}

impl ser::SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = Error;

    fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<()> {
        self.begin_item();
        key.serialize(KeyWriter { out: self.out })
    }

    fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<()> {
        self.out.push(b':');
        if self.indent.is_some() {
            self.out.push(b' ');
        }
        value.serialize(self.value_writer())
    }

    fn end(self) -> Result<()> {
        self.finish();
        Ok(())
    }
}

/// Object keys: strings as they are, integers quoted, nothing else.
struct KeyWriter<'a> {
    out: &'a mut Vec<u8>,
}

fn key_must_be_a_string() -> Error {
    Error::message("key must be a string")
}

/// Never constructed: keys cannot be sequences or maps. `T` is the
/// `Ok` type of the serializer it stands in for.
pub(crate) struct Impossible<T> {
    never: Never,
    ok: std::marker::PhantomData<T>,
}

enum Never {}

impl<T> ser::SerializeSeq for Impossible<T> {
    type Ok = T;
    type Error = Error;

    fn serialize_element<V: ?Sized + Serialize>(&mut self, _: &V) -> Result<()> {
        match self.never {}
    }

    fn end(self) -> Result<T> {
        let _ = self.ok;
        match self.never {}
    }
}

impl<T> ser::SerializeMap for Impossible<T> {
    type Ok = T;
    type Error = Error;

    fn serialize_key<V: ?Sized + Serialize>(&mut self, _: &V) -> Result<()> {
        match self.never {}
    }

    fn serialize_value<V: ?Sized + Serialize>(&mut self, _: &V) -> Result<()> {
        match self.never {}
    }

    fn end(self) -> Result<T> {
        match self.never {}
    }
}

impl ser::Serializer for KeyWriter<'_> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Impossible<()>;
    type SerializeMap = Impossible<()>;

    fn serialize_bool(self, _: bool) -> Result<()> {
        Err(key_must_be_a_string())
    }

    fn serialize_i64(self, v: i64) -> Result<()> {
        self.out.push(b'"');
        write_i64(self.out, v);
        self.out.push(b'"');
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<()> {
        self.out.push(b'"');
        write_u64(self.out, v);
        self.out.push(b'"');
        Ok(())
    }

    fn serialize_f64(self, _: f64) -> Result<()> {
        Err(key_must_be_a_string())
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        write_escaped(self.out, v);
        Ok(())
    }

    fn serialize_unit(self) -> Result<()> {
        Err(key_must_be_a_string())
    }

    fn serialize_seq(self, _: Option<usize>) -> Result<Impossible<()>> {
        Err(key_must_be_a_string())
    }

    fn serialize_map(self, _: Option<usize>) -> Result<Impossible<()>> {
        Err(key_must_be_a_string())
    }
}
