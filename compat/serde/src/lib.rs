//! Offline stand-in for `serde`, specialised to JSON.
//!
//! The build environment has no crates.io access, so this workspace ships a
//! minimal serde replacement with one writer and one reader, and no
//! intermediate tree: [`Serialize::write_json`] prints straight into a
//! [`JsonWriter`] (compact, or pretty with a two-space indent), and
//! [`Deserialize::read_json`] decodes straight from the input bytes through
//! the pull reader [`JsonReader`], borrowing escape-free strings and keys.
//! [`Value`] is just one more type implementing both traits. The derives
//! (sibling `serde_derive` stub) generate only these two methods, with
//! serde's externally-tagged conventions: structs are objects in field
//! order (decoded in any key order; unknown keys validated and skipped; the
//! first duplicate wins; a missing field is named), newtypes are
//! transparent, longer tuple structs are arrays, unit variants are strings
//! and data variants single-key objects (`{"Source": "DistributedFs"}`).
//!
//! Output is byte-deterministic: floats print in Rust's shortest
//! round-trip form plus `.0` when that has no `.`/`e` (`f32` through
//! `f64::from`, non-finite as `null`); map keys stringify integers and sort
//! lexicographically; hash-set elements sort by value; pretty output keeps
//! `[]`/`{}` for empty containers. The reader refuses nesting deeper than
//! [`MAX_DEPTH`] instead of overflowing the stack.
//!
//! The derives implement four `serde` attributes (field `default` and
//! `default = "path"`, container `default` and `deny_unknown_fields`);
//! any other is a compile error that names it:
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! struct Knob {
//!     #[serde(rename = "x")]
//!     level: u32,
//! }
//! ```

#![forbid(unsafe_code)]

mod num;

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;
use std::sync::Arc;

/// A self-describing JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Signed integer (also covers all unsigned values up to `i64::MAX`).
    Int(i64),
    /// Unsigned integer above `i64::MAX`.
    UInt(u64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; entries keep insertion order (struct field order).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up an object entry by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array, or a decode error naming `what`.
    pub fn expect_array(&self, what: &str) -> Result<&[Value], DeError> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(DeError(format!(
                "expected array for {what}, got {}",
                self.kind()
            ))),
        }
    }

    /// Short kind name for error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        if !matches!(self, Value::Object(_)) {
            *self = Value::Object(Vec::new());
        }
        let Value::Object(entries) = self else {
            unreachable!()
        };
        if let Some(pos) = entries.iter().position(|(k, _)| k == key) {
            &mut entries[pos].1
        } else {
            entries.push((key.to_owned(), Value::Null));
            &mut entries.last_mut().expect("just pushed").1
        }
    }
}

impl std::ops::IndexMut<usize> for Value {
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        match self {
            Value::Array(items) => items.get_mut(idx).expect("array index out of bounds"),
            other => panic!("cannot index {} with a number", other.kind()),
        }
    }
}

/// Deserialization error: a human-readable message.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that print themselves as JSON.
pub trait Serialize {
    /// Writes `self` as one JSON value.
    fn write_json(&self, w: &mut JsonWriter);
}

/// Types decoded from JSON.
pub trait Deserialize: Sized {
    /// Reads one JSON value from `r`.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError>;
}

/// Prints `value` as one JSON document.
pub fn to_json<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut w = JsonWriter::new(pretty);
    value.write_json(&mut w);
    String::from_utf8(w.out).expect("the writer emits UTF-8")
}

/// Decodes one JSON document; only whitespace may follow the value.
pub fn from_json<T: Deserialize>(src: &str) -> Result<T, DeError> {
    let mut r = JsonReader::new(src);
    let value = T::read_json(&mut r)?;
    if r.peek().is_some() {
        return Err(r.err("trailing characters"));
    }
    Ok(value)
}

/// Derive-macro helper: the error for a struct field absent from its object.
#[must_use]
pub fn __missing(name: &str) -> DeError {
    DeError(format!("missing field `{name}`"))
}

// ── writer ───────────────────────────────────────────────────────────

/// Streaming JSON printer into one output buffer.
///
/// A container is bracketed by [`JsonWriter::open`] and
/// [`JsonWriter::close`]; inside it every array element is preceded by
/// [`JsonWriter::elem`] and every object value by [`JsonWriter::key`],
/// which place the separators and, in pretty mode, the newline and
/// indentation.
pub struct JsonWriter {
    /// UTF-8 by construction: whole `&str`s and ASCII bytes only.
    out: Vec<u8>,
    pretty: bool,
    depth: usize,
    /// Nothing written yet in the innermost open container.
    first: bool,
}

impl JsonWriter {
    /// An empty writer; `pretty` selects two-space-indented output.
    #[must_use]
    pub fn new(pretty: bool) -> Self {
        JsonWriter {
            // Small documents fit; a ~3.4 KB manifest skips six doublings.
            out: Vec::with_capacity(256),
            pretty,
            depth: 0,
            first: true,
        }
    }

    fn newline(&mut self) {
        const SPACES: &[u8; 64] = &[b' '; 64];
        self.out.push(b'\n');
        let mut indent = 2 * self.depth;
        while indent > 0 {
            let n = indent.min(SPACES.len());
            self.out.extend_from_slice(&SPACES[..n]);
            indent -= n;
        }
    }

    fn push_bracket(&mut self, bracket: char) {
        debug_assert!(matches!(bracket, '[' | ']' | '{' | '}'), "{bracket:?}");
        self.out.push(bracket as u8);
    }

    /// Opens an array (`'['`) or an object (`'{'`).
    pub fn open(&mut self, bracket: char) {
        self.push_bracket(bracket);
        self.depth += 1;
        self.first = true;
    }

    /// Closes the innermost container with `']'` or `'}'`.
    pub fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if self.pretty && !self.first {
            self.newline();
        }
        self.push_bracket(bracket);
        self.first = false;
    }

    /// Starts the next array element.
    #[inline]
    pub fn elem(&mut self) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        if self.pretty {
            self.newline();
        }
    }

    /// Starts the next object entry and writes its key.
    pub fn key(&mut self, key: &str) {
        self.elem();
        self.str(key);
        self.out
            .extend_from_slice(if self.pretty { b": " } else { b":" });
    }

    /// Writes one object entry.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.key(key);
        value.write_json(self);
    }

    /// Derive-macro helper: [`JsonWriter::field`] for a key that is a Rust
    /// identifier, so it needs no escaping and is copied as is.
    #[doc(hidden)]
    #[inline]
    pub fn ident_field<T: Serialize + ?Sized>(&mut self, key: &'static str, value: &T) {
        debug_assert!(
            key.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                && key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
            "`{key}` is not an identifier"
        );
        self.elem();
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out
            .extend_from_slice(if self.pretty { b"\": " } else { b"\":" });
        value.write_json(self);
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) {
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes a signed integer.
    pub fn int(&mut self, n: i64) {
        num::write_i64(&mut self.out, n);
    }

    /// Writes an unsigned integer.
    pub fn uint(&mut self, n: u64) {
        num::write_u64(&mut self.out, n);
    }

    /// Writes a float in shortest round-trip form (the text of
    /// `format!("{x}")`: positional, never an exponent), with `.0` appended
    /// when that has no fraction so it stays recognizably a float. JSON has
    /// no inf/nan: non-finite values print as `null`, as serde_json does.
    pub fn f64(&mut self, x: f64) {
        if x.is_finite() {
            num::write_f64(&mut self.out, x);
        } else {
            self.null();
        }
    }

    /// Writes a quoted string, escaping `"`, `\\` and control characters.
    pub fn str(&mut self, s: &str) {
        self.out.push(b'"');
        let mut rest = s.as_bytes();
        loop {
            let n = plain_run(rest);
            self.out.extend_from_slice(&rest[..n]);
            let Some(&b) = rest.get(n) else {
                break;
            };
            match b {
                b'"' => self.out.extend_from_slice(b"\\\""),
                b'\\' => self.out.extend_from_slice(b"\\\\"),
                b'\n' => self.out.extend_from_slice(b"\\n"),
                b'\r' => self.out.extend_from_slice(b"\\r"),
                b'\t' => self.out.extend_from_slice(b"\\t"),
                _ => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    self.out.extend_from_slice(b"\\u00");
                    self.out.push(HEX[usize::from(b >> 4)]);
                    self.out.push(HEX[usize::from(b & 15)]);
                }
            }
            rest = &rest[n + 1..];
        }
        self.out.push(b'"');
    }
}

/// Length of the leading run of `bytes` free of `"`, `\\` and bytes below
/// 0x20, tested eight bytes at a time: the writer escapes each of them, and
/// the reader stops at each (a raw control byte in a string is an error).
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    // High bit set in each byte of `w` below `n` (n <= 0x80), and maybe in
    // bytes above the lowest such byte: the lowest set bit is exact.
    let below = |w: u64, n: u8| w.wrapping_sub(ONES * u64::from(n)) & !w & (ONES << 7);
    let mut i = 0;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let hit = below(w ^ (ONES * u64::from(b'"')), 1)
            | below(w ^ (ONES * u64::from(b'\\')), 1)
            | below(w, 0x20);
        if hit != 0 {
            return i + (hit.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    let stop = bytes[i..]
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
    i + stop.unwrap_or(bytes.len() - i)
}

/// Length of the leading run of spaces in `bytes`, tested eight bytes at
/// a time.
fn space_run(bytes: &[u8]) -> usize {
    const SPACES: u64 = 0x2020_2020_2020_2020;
    let mut i = 0;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let other = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ SPACES;
        if other != 0 {
            return i + (other.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    i + bytes[i..].iter().take_while(|&&b| b == b' ').count()
}

// ── reader ───────────────────────────────────────────────────────────

/// Deepest container nesting the reader accepts.
pub const MAX_DEPTH: usize = 128;

/// Pull reader over one JSON document.
///
/// Scalars are read with [`JsonReader::bool`], [`JsonReader::number`],
/// [`JsonReader::str`] and [`JsonReader::null`]; a container is opened
/// with [`JsonReader::open`], then walked with [`JsonReader::next_elem`]
/// until it returns `false` (arrays) or [`JsonReader::next_key`] until it
/// returns `None` (objects). Errors name the byte offset.
pub struct JsonReader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    /// No entry read yet in the innermost open container.
    first: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `src`.
    #[must_use]
    pub fn new(src: &'a str) -> Self {
        JsonReader {
            src,
            pos: 0,
            depth: 0,
            first: true,
        }
    }

    /// An error at the current byte offset.
    #[must_use]
    pub fn err(&self, msg: &str) -> DeError {
        DeError(format!("{msg} at byte {}", self.pos))
    }

    /// The next non-whitespace byte, not consumed.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        match self.src.as_bytes().get(self.pos) {
            Some(&b) if b > b' ' => Some(b),
            _ => self.skip_whitespace(),
        }
    }

    /// [`JsonReader::peek`] when whitespace may come first.
    fn skip_whitespace(&mut self) -> Option<u8> {
        let bytes = self.src.as_bytes();
        loop {
            match bytes.get(self.pos) {
                // Pretty input indents each line with a run of spaces: skip
                // it eight bytes at a time.
                Some(b' ' | b'\n') => self.pos += 1 + space_run(&bytes[self.pos + 1..]),
                Some(b'\t' | b'\r') => self.pos += 1,
                next => return next.copied(),
            }
        }
    }

    /// The error for a value that is not the `want`ed kind.
    pub fn expected(&mut self, want: &str) -> DeError {
        let got = match self.peek() {
            None => return self.err("unexpected end of input"),
            Some(b'{') => "object",
            Some(b'[') => "array",
            Some(b'"') => "string",
            Some(b't' | b'f') => "bool",
            Some(b'n') => "null",
            Some(b'-' | b'0'..=b'9') => "number",
            Some(b) => return self.err(&format!("unexpected byte `{}`", b as char)),
        };
        self.err(&format!("expected {want}, got {got}"))
    }

    fn keyword(&mut self, word: &str) -> Result<(), DeError> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    /// Consumes a `null` if one comes next.
    pub fn null(&mut self) -> Result<bool, DeError> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.keyword("null").map(|()| true)
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, DeError> {
        match self.peek() {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(self.expected("bool")),
        }
    }

    /// Reads a number as written: [`Value::Int`], or [`Value::UInt`] above
    /// `i64::MAX`, or [`Value::Float`] when it has `.`, `e` or an inner
    /// sign, is `-0` (negative zero), or is an integer beyond `u64` (the
    /// nearest float, as serde_json reads both). A value beyond `f64` is out of range. `want`
    /// names the expected kind in a mismatch error.
    pub fn number(&mut self, want: &str) -> Result<Value, DeError> {
        self.number_as(want, false)
    }

    /// [`JsonReader::number`]; for an `integer` target an integer beyond
    /// `u64` is out of range rather than a float.
    fn number_as(&mut self, want: &str, integer: bool) -> Result<Value, DeError> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.expected(want));
        }
        let bytes = self.src.as_bytes();
        let start = self.pos;
        self.pos += 1; // the sign or the first digit
        let mut is_float = false;
        // Grammar checks Rust's parsers skip, kept off the digit loop: a
        // digit on both sides of `.` (Rust takes `1.`, `-.5` and `1.e5`) and
        // no leading zero (Rust takes `007` and `00.5`).
        let mut strict = true;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' => {
                    is_float = true;
                    strict &= bytes[self.pos - 1].is_ascii_digit()
                        && bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit);
                }
                b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let digits = text.strip_prefix('-').unwrap_or(text).as_bytes();
        if !strict || digits.is_empty() || matches!(digits, [b'0', b'0'..=b'9', ..]) {
            return Err(self.err("invalid number"));
        }
        // `-0` is an integer only to an integer target: a float keeps its
        // sign, as serde_json reads it.
        if !is_float && (integer || text != "-0") {
            if let Ok(n) = text.parse() {
                return Ok(Value::Int(n));
            } else if let Ok(n) = text.parse() {
                return Ok(Value::UInt(n));
            } else if integer {
                return Err(self.err("number out of range"));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }

    /// A plain run of at most 19 digits at the cursor (so it fits `u64`)
    /// that ends the number, and its length; `None` for anything
    /// [`JsonReader::number`] must judge: a sign, a fraction, an exponent,
    /// a leading zero or a longer run.
    fn plain_digits(&mut self) -> Option<(u64, usize)> {
        self.peek()?;
        let bytes = &self.src.as_bytes()[self.pos..];
        let len = bytes
            .iter()
            .take(20)
            .take_while(|b| b.is_ascii_digit())
            .count();
        if len == 0
            || len > 19
            || (len > 1 && bytes[0] == b'0')
            || matches!(bytes.get(len), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            return None;
        }
        let n = bytes[..len]
            .iter()
            .fold(0, |n: u64, &b| n * 10 + u64::from(b - b'0'));
        Some((n, len))
    }

    /// Reads a string, borrowed from the input when it has no escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, DeError> {
        if self.peek() != Some(b'"') {
            return Err(self.expected("string"));
        }
        self.pos += 1;
        let bytes = self.src.as_bytes();
        let (start, mut plain) = (self.pos, self.pos);
        let mut owned = String::new();
        loop {
            self.pos += plain_run(&bytes[self.pos..]);
            let segment = &self.src[plain..self.pos];
            let escaped = match bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') if plain == start => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(segment));
                }
                Some(b'"') => {
                    self.pos += 1;
                    owned.push_str(segment);
                    return Ok(Cow::Owned(owned));
                }
                Some(&b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    owned.push_str(segment);
                    self.pos += 1;
                    match bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("bad escape")),
                    }
                }
            };
            owned.push(escaped);
            self.pos += 1;
            plain = self.pos;
        }
    }

    /// The four hex digits after the `u` at the cursor; leaves the cursor
    /// on the last digit.
    fn hex4(&mut self) -> Result<u32, DeError> {
        let hex = self.src.get(self.pos + 1..self.pos + 5).unwrap_or("");
        if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.err("bad \\u escape"));
        }
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))
    }

    /// Decodes `\uXXXX`, joining a UTF-16 surrogate pair into one
    /// character; a lone or mismatched surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, DeError> {
        let code = match self.hex4()? {
            high @ 0xD800..=0xDBFF => {
                if self.src.as_bytes().get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                    return Err(self.err("unpaired surrogate in \\u escape"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return Err(self.err("mismatched surrogate pair in \\u escape"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            }
            0xDC00..=0xDFFF => return Err(self.err("unpaired surrogate in \\u escape")),
            code => code,
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid \\u code point"))
    }

    /// Opens an array (`b'['`) or an object (`b'{'`); `what` names the
    /// decoded type in a mismatch error.
    pub fn open(&mut self, bracket: u8, what: &str) -> Result<(), DeError> {
        if self.peek() != Some(bracket) {
            let want = if bracket == b'[' { "array" } else { "object" };
            return Err(self.expected(&format!("{want} for {what}")));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Moves to the next entry of the innermost container: `false` (and
    /// the container closed) at `close`.
    fn next_entry(&mut self, close: u8) -> Result<bool, DeError> {
        let next = self.peek();
        if next == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.first = false;
            Ok(false)
        } else if std::mem::replace(&mut self.first, false) {
            Ok(true)
        } else if next == Some(b',') {
            self.pos += 1;
            Ok(true)
        } else {
            Err(self.err(&format!("expected `,` or `{}`", char::from(close))))
        }
    }

    /// `true` when another element follows; `false` closes the array.
    pub fn next_elem(&mut self) -> Result<bool, DeError> {
        self.next_entry(b']')
    }

    /// The next key, positioned at its value; `None` closes the object.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, DeError> {
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        if self.peek() != Some(b':') {
            return Err(self.err("expected `:`"));
        }
        self.pos += 1;
        // Pretty output puts one space after the colon.
        if self.src.as_bytes().get(self.pos) == Some(&b' ') {
            self.pos += 1;
        }
        Ok(Some(key))
    }

    /// Reads the next element of a fixed-length array named `what`.
    pub fn elem<T: Deserialize>(&mut self, what: &str) -> Result<T, DeError> {
        if !self.next_elem()? {
            return Err(self.err(&format!("too few elements for {what}")));
        }
        T::read_json(self)
    }

    /// Closes a fixed-length array named `what` after its last element.
    pub fn end_elems(&mut self, what: &str) -> Result<(), DeError> {
        if self.next_elem()? {
            return Err(self.err(&format!("too many elements for {what}")));
        }
        Ok(())
    }

    /// Reads a whole array into any collection.
    pub fn seq<T: Deserialize, C: Default + Extend<T>>(
        &mut self,
        what: &str,
    ) -> Result<C, DeError> {
        self.open(b'[', what)?;
        let mut items = C::default();
        while self.next_elem()? {
            items.extend(Some(T::read_json(self)?));
        }
        Ok(items)
    }

    /// Validates and discards one value.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        Value::read_json(self).map(drop)
    }
}

// ── scalar impls ─────────────────────────────────────────────────────

/// Reads an integer target `T` named `ty` (`want` is "integer for
/// {ty}"): a plain digit run that fits `T` directly, anything else through
/// [`int_from_number`], so every error message and offset is the one
/// [`JsonReader::number`] gives.
fn read_int<T: TryFrom<i64> + TryFrom<u64>>(
    r: &mut JsonReader<'_>,
    want: &str,
    ty: &str,
) -> Result<T, DeError> {
    if let Some((n, len)) = r.plain_digits() {
        if let Ok(n) = T::try_from(n) {
            r.pos += len;
            return Ok(n);
        }
    }
    int_from_number(r, want, ty)
}

/// Reads an integer target `T` named `ty` through [`JsonReader::number`].
fn int_from_number<T: TryFrom<i64> + TryFrom<u64>>(
    r: &mut JsonReader<'_>,
    want: &str,
    ty: &str,
) -> Result<T, DeError> {
    let n = match r.number_as(want, true)? {
        Value::Int(n) => T::try_from(n).map_err(|_| n.to_string()),
        Value::UInt(n) => T::try_from(n).map_err(|_| n.to_string()),
        _ => return Err(r.err(&format!("expected integer for {ty}, got number"))),
    };
    n.map_err(|n| r.err(&format!("{n} out of range for {ty}")))
}

macro_rules! impl_int {
    ($($t:ty => $write:ident as $wide:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, w: &mut JsonWriter) { w.$write(*self as $wide) }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
                read_int(r, concat!("integer for ", stringify!($t)), stringify!($t))
            }
        }
    )*};
}

impl_int!(
    i8 => int as i64, i16 => int as i64, i32 => int as i64, i64 => int as i64, isize => int as i64,
    u8 => uint as u64, u16 => uint as u64, u32 => uint as u64, u64 => uint as u64, usize => uint as u64
);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, w: &mut JsonWriter) { w.f64(f64::from(*self)) }
        }
        impl Deserialize for $t {
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
                Ok(match r.number(concat!("number for ", stringify!($t)))? {
                    Value::Float(x) => x as $t,
                    Value::Int(n) => n as $t,
                    Value::UInt(n) => n as $t,
                    _ => unreachable!("`number` reads only numbers"),
                })
            }
        }
    )*};
}

impl_float!(f32, f64);

/// Implements both traits for a scalar: `|value, writer| write` and
/// `|reader| read`.
macro_rules! impl_scalar {
    ($($t:ty => |$v:ident, $w:ident| $write:expr, |$r:ident| $read:expr;)*) => {$(
        impl Serialize for $t {
            fn write_json(&self, $w: &mut JsonWriter) { let $v = self; $write }
        }
        impl Deserialize for $t {
            fn read_json($r: &mut JsonReader<'_>) -> Result<Self, DeError> { $read }
        }
    )*};
}

impl_scalar! {
    bool => |b, w| w.bool(*b), |r| r.bool();
    String => |s, w| w.str(s), |r| r.str().map(Cow::into_owned);
    () => |_unit, w| w.null(), |r| r.null()?.then_some(()).ok_or_else(|| r.expected("null"));
}

impl Serialize for str {
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

// ── container impls ──────────────────────────────────────────────────

macro_rules! impl_pointer {
    ($($p:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $p<T> {
            fn write_json(&self, w: &mut JsonWriter) { (**self).write_json(w) }
        }
        impl<T: Deserialize> Deserialize for $p<T> {
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> { T::read_json(r).map($p::new) }
        }
    )*};
}

impl_pointer!(Box, Arc, Rc);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(x) => x.write_json(w),
            None => w.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        if r.null()? {
            Ok(None)
        } else {
            T::read_json(r).map(Some)
        }
    }
}

fn write_seq<'a, T: Serialize + 'a>(w: &mut JsonWriter, items: impl IntoIterator<Item = &'a T>) {
    w.open('[');
    for x in items {
        w.elem();
        x.write_json(w);
    }
    w.close(']');
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(w, self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.seq("Vec")
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, w: &mut JsonWriter) {
        self.as_slice().write_json(w);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        let items: Vec<T> = r.seq("array")?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| r.err(&format!("expected array of {N}, got {len}")))
    }
}

macro_rules! impl_tuple {
    ($( $len:literal => ($($t:ident . $idx:tt),+) ;)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn write_json(&self, w: &mut JsonWriter) {
                w.open('[');
                $(w.elem(); self.$idx.write_json(w);)+
                w.close(']');
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
                const WHAT: &str = concat!($len, "-tuple");
                r.open(b'[', WHAT)?;
                let tuple = ($(r.elem::<$t>(WHAT)?,)+);
                r.end_elems(WHAT)?;
                Ok(tuple)
            }
        }
    )*};
}

impl_tuple! {
    1 => (A.0);
    2 => (A.0, B.1);
    3 => (A.0, B.1, C.2);
    4 => (A.0, B.1, C.2, D.3);
    5 => (A.0, B.1, C.2, D.3, E.4);
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(w, self);
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.seq("BTreeSet")
    }
}

impl<T: Serialize, S: BuildHasher> Serialize for HashSet<T, S> {
    fn write_json(&self, w: &mut JsonWriter) {
        let mut items: Vec<Value> = self
            .iter()
            .map(|x| from_json(&to_json(x, false)).expect("printed JSON parses"))
            .collect();
        items.sort_by(compare_values);
        items.write_json(w);
    }
}

impl<T: Deserialize + Eq + Hash, S: BuildHasher + Default> Deserialize for HashSet<T, S> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        r.seq("HashSet")
    }
}

/// Total order over values, used to sort hash-set elements so equal sets
/// always serialize identically: null < bool < number < string < array <
/// object, numbers by value, arrays lexicographically, objects unordered.
fn compare_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    let num = |v: &Value| match *v {
        Value::Int(n) => Some(n as f64),
        Value::UInt(n) => Some(n as f64),
        Value::Float(x) => Some(x),
        _ => None,
    };
    let rank = |v: &Value| match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::UInt(_) | Value::Float(_) => 2,
        Value::Str(_) => 3,
        Value::Array(_) => 4,
        Value::Object(_) => 5,
    };
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        (Value::Array(x), Value::Array(y)) => x
            .iter()
            .zip(y)
            .map(|(p, q)| compare_values(p, q))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| x.len().cmp(&y.len())),
        _ => match (num(a), num(b)) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal),
            _ => rank(a).cmp(&rank(b)),
        },
    }
}

/// A map key as its object-key string: strings pass through, integers and
/// booleans stringify (the serde_json convention for integer-keyed maps).
fn key_string<K: Serialize + ?Sized>(key: &K) -> String {
    let text = to_json(key, false);
    if text.starts_with('"') {
        return from_json(&text).expect("printed JSON parses");
    }
    let digits = text.strip_prefix('-').unwrap_or(&text);
    let integer = digits.bytes().all(|b| b.is_ascii_digit());
    assert!(
        integer || text == "true" || text == "false",
        "map key must be a string or integer, got {text}"
    );
    text
}

/// Inverse of [`key_string`]: an integer-looking key decodes as an
/// integer first, then as a string.
fn read_key<K: Deserialize>(key: &str) -> Result<K, DeError> {
    let integer =
        (key.parse::<i64>().map(Value::Int)).or_else(|_| key.parse::<u64>().map(Value::UInt));
    match integer.map(|n| from_json(&to_json(&n, false))) {
        Ok(Ok(k)) => Ok(k),
        _ => from_json(&to_json(key, false)),
    }
}

fn write_map<'a, K, V, I>(w: &mut JsonWriter, entries: I)
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    I: Iterator<Item = (&'a K, &'a V)>,
{
    let mut keyed: Vec<(String, &V)> = entries.map(|(k, v)| (key_string(k), v)).collect();
    keyed.sort_by(|(a, _), (b, _)| a.cmp(b));
    w.open('{');
    for (k, v) in keyed {
        w.field(&k, v);
    }
    w.close('}');
}

fn read_map<K: Deserialize, V: Deserialize, M: Default + Extend<(K, V)>>(
    r: &mut JsonReader<'_>,
) -> Result<M, DeError> {
    r.open(b'{', "map")?;
    let mut map = M::default();
    while let Some(key) = r.next_key()? {
        let key = read_key(&key)?;
        map.extend(Some((key, V::read_json(r)?)));
    }
    Ok(map)
}

impl<K: Serialize, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn write_json(&self, w: &mut JsonWriter) {
        write_map(w, self.iter());
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        read_map(r)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, w: &mut JsonWriter) {
        write_map(w, self.iter());
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        read_map(r)
    }
}

impl Serialize for Value {
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.bool(*b),
            Value::Int(n) => w.int(*n),
            Value::UInt(n) => w.uint(*n),
            Value::Float(x) => w.f64(*x),
            Value::Str(s) => w.str(s),
            Value::Array(items) => items.write_json(w),
            Value::Object(entries) => {
                w.open('{');
                for (k, v) in entries {
                    w.field(k, v);
                }
                w.close('}');
            }
        }
    }
}

impl Deserialize for Value {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, DeError> {
        Ok(match r.peek() {
            Some(b'{') => {
                r.open(b'{', "Value")?;
                let mut entries = Vec::new();
                while let Some(key) = r.next_key()? {
                    entries.push((key.into_owned(), Value::read_json(r)?));
                }
                Value::Object(entries)
            }
            Some(b'[') => Value::Array(r.seq("Value")?),
            Some(b'"') => Value::Str(r.str()?.into_owned()),
            Some(b't' | b'f') => Value::Bool(r.bool()?),
            Some(b'n') => {
                r.null()?;
                Value::Null
            }
            _ => r.number("value")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_index_mut() {
        let mut v = Value::Object(vec![(
            "a".to_owned(),
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
        )]);
        assert_eq!(v["a"][1], Value::Int(2));
        assert_eq!(v["missing"], Value::Null);
        v["a"][0] = Value::Int(7);
        assert_eq!(v["a"][0], Value::Int(7));
        v["b"] = Value::Bool(true);
        assert_eq!(v["b"], Value::Bool(true));
    }

    #[test]
    fn map_keys_stringify_and_sort() {
        let mut m = HashMap::new();
        m.insert(11u32, "b".to_owned());
        m.insert(2u32, "a".to_owned());
        let text = to_json(&m, false);
        assert_eq!(text, r#"{"11":"b","2":"a"}"#); // lexicographic, but stable
        let back: HashMap<u32, String> = from_json(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn option_roundtrip() {
        assert_eq!(to_json(&None::<u32>, false), "null");
        assert_eq!(from_json::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_json::<Option<u32>>("3").unwrap(), Some(3));
    }

    #[test]
    fn wide_integers_roundtrip() {
        let big = u64::MAX - 3;
        let text = to_json(&big, false);
        assert_eq!(from_json::<u64>(&text).unwrap(), big);
        assert!(from_json::<u32>(&text).is_err());
        assert_eq!(to_json(&i64::MIN, false), i64::MIN.to_string());
    }

    /// The integer fast path against the `number()` path it stands in for:
    /// the same value, or the same error at the same offset.
    #[test]
    fn integer_fast_path_matches_number_path() {
        fn both<T: TryFrom<i64> + TryFrom<u64> + PartialEq + fmt::Debug>(src: &str) {
            let mut fast = JsonReader::new(src);
            let mut slow = JsonReader::new(src);
            let a = read_int::<T>(&mut fast, "integer for T", "T").map_err(|e| e.0);
            let b = int_from_number::<T>(&mut slow, "integer for T", "T").map_err(|e| e.0);
            assert_eq!(a, b, "{src:?}");
            assert_eq!(fast.pos, slow.pos, "{src:?}");
        }
        for src in [
            "0",
            "007",
            "-0",
            "12abc",
            "1e3",
            "300",
            " 42 ",
            "1.5",
            "9999999999999999999",
            "18446744073709551615",
            "18446744073709551616",
            "-9223372036854775808",
            "-",
            "x",
            "",
        ] {
            both::<u8>(src);
            both::<i32>(src);
            both::<u64>(src);
            both::<i64>(src);
        }
        assert_eq!(
            from_json::<u8>("300").unwrap_err().0,
            "300 out of range for u8 at byte 3"
        );
        assert_eq!(from_json::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(
            from_json::<u64>("18446744073709551616").unwrap_err().0,
            "number out of range at byte 20"
        );
    }

    /// Text RFC 8259 forbids and serde_json rejects, though Rust's own
    /// number parsers take it: leading zeros, a `.` without a digit on
    /// both sides, and raw control bytes inside a string.
    #[test]
    fn non_rfc8259_text_is_rejected() {
        for (src, err) in [
            ("007", "invalid number at byte 3"),
            ("-01", "invalid number at byte 3"),
            ("00", "invalid number at byte 2"),
        ] {
            assert_eq!(from_json::<i64>(src).unwrap_err().0, err, "{src:?}");
            assert_eq!(from_json::<Value>(src).unwrap_err().0, err, "{src:?}");
        }
        for (src, err) in [
            ("1.", "invalid number at byte 2"),
            ("-.5", "invalid number at byte 3"),
            ("1.e5", "invalid number at byte 4"),
            ("00.5", "invalid number at byte 4"),
            ("-00.5e1", "invalid number at byte 7"),
        ] {
            assert_eq!(from_json::<f64>(src).unwrap_err().0, err, "{src:?}");
        }
        assert_eq!(
            from_json::<Vec<f64>>("[1.5, 2.]").unwrap_err().0,
            "invalid number at byte 8"
        );
        for (src, x) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("-0.0", -0.0),
            ("10.25", 10.25),
            ("1e05", 1e5),
            ("0E+2", 0.0),
            ("-7.5e-1", -0.75),
        ] {
            let got = from_json::<f64>(src).unwrap();
            assert_eq!(got.to_bits(), f64::to_bits(x), "{src:?}");
        }
        assert_eq!(from_json::<i64>("-0").unwrap(), 0);
        let Value::Float(neg_zero) = from_json::<Value>("-0").unwrap() else {
            panic!("`-0` reads as a float");
        };
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
        assert_eq!(from_json::<u32>("10").unwrap(), 10);
        for (src, err) in [
            ("\"a\nb\"", "control character in string at byte 2"),
            ("\"\u{1}\"", "control character in string at byte 1"),
            ("\"tab\there\"", "control character in string at byte 4"),
            ("\"a\\nb\nc\"", "control character in string at byte 5"),
        ] {
            assert_eq!(from_json::<String>(src).unwrap_err().0, err, "{src:?}");
        }
        // Escaped controls and DEL (0x7f) stay valid.
        assert_eq!(from_json::<String>(r#""a\nb\u0001""#).unwrap(), "a\nb\u{1}");
        assert_eq!(from_json::<String>("\"\u{7f}\"").unwrap(), "\u{7f}");
    }

    #[test]
    fn space_runs_skip_in_words() {
        for n in 0..40 {
            let src = format!("{}7{}", " ".repeat(n), " ".repeat(n % 9));
            assert_eq!(space_run(src.as_bytes()), n, "{n}");
            assert_eq!(from_json::<u32>(&src).unwrap(), 7);
        }
        assert_eq!(
            from_json::<Vec<u8>>("[\n        1,\t\r\n 2 ]").unwrap(),
            [1, 2]
        );
    }

    #[test]
    fn control_characters_escape_as_hex() {
        assert_eq!(to_json("a\u{1}\u{1f}b", false), r#""a\u0001\u001fb""#);
        assert_eq!(
            from_json::<String>(r#""a\u0001\u001fb""#).unwrap(),
            "a\u{1}\u{1f}b"
        );
    }

    #[test]
    fn pretty_writer_keeps_empty_containers_inline() {
        let v = Value::Object(vec![
            ("a".to_owned(), Value::Array(vec![])),
            ("b".to_owned(), Value::Array(vec![Value::Object(vec![])])),
        ]);
        assert_eq!(
            to_json(&v, true),
            "{\n  \"a\": [],\n  \"b\": [\n    {}\n  ]\n}"
        );
    }
}
