//! The one error type of the crate.

use std::fmt::{self, Display};
use std::io;

/// A serialization or parse failure.
#[derive(Debug)]
pub struct Error {
    message: String,
    /// Byte offset into the input, for parse errors.
    offset: Option<usize>,
}

/// `Result` with this crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    pub(crate) fn message(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
            offset: None,
        }
    }

    pub(crate) fn at(message: impl Into<String>, offset: usize) -> Error {
        Error {
            message: message.into(),
            offset: Some(offset),
        }
    }

    pub(crate) fn with_offset(mut self, offset: usize) -> Error {
        self.offset.get_or_insert(offset);
        self
    }
}

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "{} at byte {offset}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: Display>(msg: T) -> Error {
        Error::message(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: Display>(msg: T) -> Error {
        Error::message(msg.to_string())
    }
}

impl From<Error> for io::Error {
    fn from(err: Error) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, err)
    }
}
