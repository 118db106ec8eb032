//! JSON reader: a `serde::Deserializer` over a byte slice.

use serde::de::{self, DeserializeOwned, DeserializeSeed, Visitor};

use crate::error::{Error, Result};

/// Nesting beyond this is refused, so hostile input cannot overflow the
/// stack (the published crate's limit).
const MAX_DEPTH: usize = 128;

/// Parses one JSON value from `text`.
///
/// # Errors
///
/// Malformed JSON, trailing characters, or a shape `T` does not accept.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

/// Parses one JSON value from `bytes`.
///
/// # Errors
///
/// As [`from_str`], plus strings that are not UTF-8.
pub fn from_slice<T: DeserializeOwned>(bytes: &[u8]) -> Result<T> {
    let mut reader = Reader {
        input: bytes,
        at: 0,
        depth: 0,
        scratch: Vec::new(),
    };
    let value = T::deserialize(&mut reader)?;
    reader.skip_whitespace();
    if reader.at < reader.input.len() {
        return Err(Error::at("trailing characters", reader.at));
    }
    Ok(value)
}

struct Reader<'a> {
    input: &'a [u8],
    at: usize,
    depth: usize,
    /// Holds a string while its escapes are being resolved.
    scratch: Vec<u8>,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.at).copied()
    }

    fn skip_whitespace(&mut self) {
        while let Some(b' ' | b'\n' | b'\t' | b'\r') = self.peek() {
            self.at += 1;
        }
    }

    fn error(&self, message: &str) -> Error {
        Error::at(message, self.at)
    }

    /// Next significant byte, without consuming it.
    fn peek_token(&mut self) -> Result<u8> {
        self.skip_whitespace();
        self.peek()
            .ok_or_else(|| self.error("EOF while parsing a value"))
    }

    fn expect_literal(&mut self, literal: &[u8]) -> Result<()> {
        if self.input[self.at..].starts_with(literal) {
            self.at += literal.len();
            Ok(())
        } else {
            Err(self.error("expected ident"))
        }
    }

    fn enter(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .input
            .get(self.at..self.at + 4)
            .ok_or_else(|| self.error("EOF while parsing a string"))?;
        let mut value = 0u32;
        for &digit in digits {
            let nibble = (digit as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid escape"))?;
            value = value * 16 + nibble;
        }
        self.at += 4;
        Ok(value)
    }

    /// Resolves the escape after a backslash into `scratch`.
    fn escape(&mut self) -> Result<()> {
        let byte = self
            .peek()
            .ok_or_else(|| self.error("EOF while parsing a string"))?;
        self.at += 1;
        let simple = match byte {
            b'"' => b'"',
            b'\\' => b'\\',
            b'/' => b'/',
            b'b' => 0x08,
            b'f' => 0x0c,
            b'n' => b'\n',
            b'r' => b'\r',
            b't' => b'\t',
            b'u' => {
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate must be followed by a low one.
                    if self.input[self.at..].starts_with(b"\\u") {
                        self.at += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(self.error("lone leading surrogate in hex escape"));
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    } else {
                        return Err(self.error("lone leading surrogate in hex escape"));
                    }
                }
                let ch =
                    char::from_u32(code).ok_or_else(|| self.error("invalid unicode code point"))?;
                self.scratch
                    .extend_from_slice(ch.encode_utf8(&mut [0u8; 4]).as_bytes());
                return Ok(());
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.scratch.push(simple);
        Ok(())
    }

    /// Reads a string whose opening quote is at the cursor. Returns a
    /// borrow of the input when the string has no escapes, else of
    /// `scratch`.
    fn string(&mut self) -> Result<&str> {
        self.at += 1;
        let start = self.at;
        let mut escaped = false;
        self.scratch.clear();
        let mut run_start = start;
        loop {
            let byte = self
                .peek()
                .ok_or_else(|| self.error("EOF while parsing a string"))?;
            match byte {
                b'"' => break,
                b'\\' => {
                    escaped = true;
                    self.scratch
                        .extend_from_slice(&self.input[run_start..self.at]);
                    self.at += 1;
                    self.escape()?;
                    run_start = self.at;
                }
                0x00..=0x1f => {
                    return Err(self.error("control character found while parsing a string"))
                }
                _ => self.at += 1,
            }
        }
        let end = self.at;
        self.at += 1;
        let bytes = if escaped {
            self.scratch.extend_from_slice(&self.input[run_start..end]);
            self.scratch.as_slice()
        } else {
            &self.input[start..end]
        };
        std::str::from_utf8(bytes).map_err(|_| Error::at("invalid unicode code point", start))
    }

    fn number<'de, V: Visitor<'de>>(&mut self, visitor: V) -> Result<V::Value> {
        let start = self.at;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.at += 1;
        }
        let digits_start = self.at;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        if self.at == digits_start {
            return Err(self.error("invalid number"));
        }
        if self.at - digits_start > 1 && self.input[digits_start] == b'0' {
            return Err(Error::at("invalid number", digits_start));
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.at += 1;
            let fraction_start = self.at;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
            if self.at == fraction_start {
                return Err(self.error("invalid number"));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            float = true;
            self.at += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.at += 1;
            }
            let exponent_start = self.at;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
            if self.at == exponent_start {
                return Err(self.error("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.at])
            .expect("a number is ASCII by construction");
        if !float {
            // Integers too wide for 64 bits fall through to a float.
            if negative {
                if let Ok(v) = text.parse::<i64>() {
                    return visitor.visit_i64(v);
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return visitor.visit_u64(v);
            }
        }
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => visitor.visit_f64(v),
            _ => Err(Error::at("number out of range", start)),
        }
    }
}

impl<'de> de::Deserializer<'de> for &mut Reader<'_> {
    type Error = Error;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let start = self.at;
        let result = match self.peek_token()? {
            b'n' => {
                self.expect_literal(b"null")?;
                visitor.visit_unit()
            }
            b't' => {
                self.expect_literal(b"true")?;
                visitor.visit_bool(true)
            }
            b'f' => {
                self.expect_literal(b"false")?;
                visitor.visit_bool(false)
            }
            b'"' => {
                let text = self.string()?;
                visitor.visit_str(text)
            }
            b'-' | b'0'..=b'9' => self.number(visitor),
            b'[' => {
                self.at += 1;
                self.enter()?;
                let value = visitor.visit_seq(Elements {
                    reader: self,
                    first: true,
                })?;
                self.depth -= 1;
                match self.peek_token()? {
                    b']' => {
                        self.at += 1;
                        Ok(value)
                    }
                    _ => Err(self.error("trailing characters in array")),
                }
            }
            b'{' => {
                self.at += 1;
                self.enter()?;
                let value = visitor.visit_map(Entries {
                    reader: self,
                    first: true,
                })?;
                self.depth -= 1;
                match self.peek_token()? {
                    b'}' => {
                        self.at += 1;
                        Ok(value)
                    }
                    _ => Err(self.error("trailing characters in object")),
                }
            }
            _ => Err(self.error("expected value")),
        };
        // Errors raised by visitors know no position; give them one.
        result.map_err(|err| err.with_offset(start))
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        if self.peek_token()? == b'n' {
            self.expect_literal(b"null")?;
            visitor.visit_none()
        } else {
            visitor.visit_some(self)
        }
    }
}

struct Elements<'r, 'a> {
    reader: &'r mut Reader<'a>,
    first: bool,
}

impl<'de> de::SeqAccess<'de> for Elements<'_, '_> {
    type Error = Error;

    fn next_element_seed<T: DeserializeSeed<'de>>(&mut self, seed: T) -> Result<Option<T::Value>> {
        match self.reader.peek_token()? {
            b']' => return Ok(None),
            b',' if !self.first => {
                self.reader.at += 1;
                if self.reader.peek_token()? == b']' {
                    return Err(self.reader.error("trailing comma"));
                }
            }
            _ if self.first => {}
            _ => return Err(self.reader.error("expected `,` or `]`")),
        }
        self.first = false;
        seed.deserialize(&mut *self.reader).map(Some)
    }
}

struct Entries<'r, 'a> {
    reader: &'r mut Reader<'a>,
    first: bool,
}

impl<'de> de::MapAccess<'de> for Entries<'_, '_> {
    type Error = Error;

    fn next_key_seed<K: DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>> {
        match self.reader.peek_token()? {
            b'}' => return Ok(None),
            b',' if !self.first => {
                self.reader.at += 1;
                if self.reader.peek_token()? == b'}' {
                    return Err(self.reader.error("trailing comma"));
                }
            }
            _ if self.first => {}
            _ => return Err(self.reader.error("expected `,` or `}`")),
        }
        self.first = false;
        if self.reader.peek_token()? != b'"' {
            return Err(self.reader.error("key must be a string"));
        }
        seed.deserialize(&mut *self.reader).map(Some)
    }

    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value> {
        match self.reader.peek_token()? {
            b':' => self.reader.at += 1,
            _ => return Err(self.reader.error("expected `:`")),
        }
        seed.deserialize(&mut *self.reader)
    }
}
