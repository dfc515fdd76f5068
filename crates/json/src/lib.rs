//! Dependency-free JSON support for the workspace wire formats.
//!
//! The analysis pipeline exchanges task sets and reports as JSON. The
//! container this workspace builds in has no network access, so instead of
//! `serde`/`serde_json` we carry a small, exact JSON layer of our own:
//!
//! * [`Json`] — a value tree whose numbers keep integer precision in `i128`
//!   (the timebase `Rational` wire format is `{"num": i128, "den": i128}`,
//!   which `f64` cannot represent faithfully).
//! * [`parse`] — a recursive-descent parser over UTF-8 text.
//! * [`ToJson::write_json`] — the one encoder of every wire type: it
//!   appends compact JSON (no whitespace, stable field order) straight into
//!   a caller's buffer, so two renderings of equal values are
//!   byte-identical and no intermediate tree is built. [`to_string`] and
//!   [`Json::render`] go through it; [`ToJson::to_json`] re-parses its
//!   bytes for the callers that want a tree.
//! * [`write_str`], [`write_int`] and [`decimal`] — the escaper and the
//!   allocation-free integer formatter the encoders share (the canonical
//!   task-set keys use [`decimal`] too).
//! * [`FromJson`] — the decoding trait implemented by the model and
//!   request types.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value with exact integer support.
///
/// Objects preserve insertion order via a `Vec` of pairs — the wire format of
/// the model types is order-sensitive only in that we want deterministic
/// output, and a `Vec` keeps the writer stable without sorting keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integer that fits in `i128` (no fractional part, no exponent).
    Int(i128),
    /// Any other number (fractional or exponent form).
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

/// Errors produced by [`parse`] or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset into the input where the error was detected (parse errors
    /// only; conversion errors use 0).
    pub offset: usize,
}

impl JsonError {
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: 0,
        }
    }

    fn at(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset,
        }
    }

    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset > 0 {
            write!(f, "{} (at byte {})", self.message, self.offset)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for JsonError {}

/// Types with a JSON wire form.
///
/// [`ToJson::write_json`] is the type's one encoder; everything else —
/// [`to_string`], [`Json::render`], [`ToJson::to_json`] — is derived from
/// it, so a value's bytes cannot depend on the path that rendered it.
pub trait ToJson {
    /// Appends the compact JSON form of `self` to `out`.
    fn write_json(&self, out: &mut String);

    /// The value as a [`Json`] tree, parsed back from
    /// [`ToJson::write_json`]'s bytes (so it costs a render and a parse;
    /// prefer [`to_string`] where text is what is wanted).
    ///
    /// # Panics
    ///
    /// If the encoder wrote something that is not one JSON document.
    fn to_json(&self) -> Json {
        parse(&to_string(self)).expect("ToJson::write_json writes one JSON document")
    }
}

/// Types that can be reconstructed from a [`Json`] value.
pub trait FromJson: Sized {
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl Json {
    /// Borrow the value under `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Fetch a required object field, with a descriptive error.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_i128(&self) -> Option<i128> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Render compactly (no whitespace), matching `serde_json::to_string`.
    pub fn render(&self) -> String {
        to_string(self)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Bytes [`decimal`] needs for any `i128`: 39 digits and a sign.
pub const DECIMAL_LEN: usize = 40;

/// Writes `n` in decimal into the tail of `buf` and returns the digits
/// (with a leading `-` when negative) — the one integer formatter of the
/// wire and canonical encodings. It allocates nothing and does not go
/// through `fmt`: values beyond `u64` shed 19-digit chunks with one
/// `u128` division each, and the rest runs on `u64`.
pub fn decimal(n: i128, buf: &mut [u8; DECIMAL_LEN]) -> &[u8] {
    const CHUNK: u128 = 10_000_000_000_000_000_000;
    let mut pos = DECIMAL_LEN;
    let mut rest = n.unsigned_abs();
    while rest > u128::from(u64::MAX) {
        // Lossless: the remainder is below 10^19 < 2^64.
        let mut chunk = (rest % CHUNK) as u64;
        rest /= CHUNK;
        for _ in 0..19 {
            pos -= 1;
            buf[pos] = b'0' + (chunk % 10) as u8;
            chunk /= 10;
        }
    }
    // Lossless: the loop above left `rest <= u64::MAX`.
    let mut low = rest as u64;
    loop {
        pos -= 1;
        buf[pos] = b'0' + (low % 10) as u8;
        low /= 10;
        if low == 0 {
            break;
        }
    }
    if n < 0 {
        pos -= 1;
        buf[pos] = b'-';
    }
    &buf[pos..]
}

/// Appends `n` in decimal (see [`decimal`]).
pub fn write_int(n: i128, out: &mut String) {
    let mut buf = [0; DECIMAL_LEN];
    out.extend(decimal(n, &mut buf).iter().map(|&b| char::from(b)));
}

fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        // Shortest round-trippable representation; integral floats keep a
        // fractional marker so they re-parse as Float, mirroring serde_json.
        let s = format!("{x}");
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no Inf/NaN; serde_json writes null.
        out.push_str("null");
    }
}

/// Appends `s` as a quoted JSON string: `"` and `\` escaped, `\n`,
/// `\r`, `\t`, `\b`, `\f` by name, every other control character as
/// `\u00XX`, and everything else (non-ASCII included) verbatim. Runs of
/// plain bytes are copied in one piece.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut plain = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = ESCAPE[usize::from(b)];
        if escape == 0 {
            continue;
        }
        // `b` is ASCII, so `i` and `i + 1` are character boundaries.
        out.push_str(&s[plain..i]);
        plain = i + 1;
        out.push('\\');
        out.push(char::from(escape));
        if escape == b'u' {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

/// Per byte: 0 when it is written verbatim, else the character that
/// follows the backslash of its escape (`u` for the `\u00XX` form).
const ESCAPE: [u8; 256] = {
    let mut table = [0; 256];
    let mut b = 0;
    while b < 0x20 {
        table[b] = b'u';
        b += 1;
    }
    table[0x08] = b'b';
    table[0x0c] = b'f';
    table[b'\n' as usize] = b'n';
    table[b'\r' as usize] = b'r';
    table[b'\t' as usize] = b't';
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table
};

/// Appends `items` as a JSON array.
pub fn write_array<T: ToJson>(out: &mut String, items: impl IntoIterator<Item = T>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Starts streaming a JSON object into `out`: add members with
/// [`ObjectWriter::field`], close it with [`ObjectWriter::end`].
///
/// ```
/// let mut out = String::new();
/// rbs_json::object(&mut out).field("num", &3i128).field("den", &2i128).end();
/// assert_eq!(out, r#"{"num":3,"den":2}"#);
/// ```
pub fn object(out: &mut String) -> ObjectWriter<'_> {
    out.push('{');
    ObjectWriter { out, empty: true }
}

/// An open JSON object in a buffer; see [`object`].
#[derive(Debug)]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ObjectWriter<'_> {
    /// Appends the member `"key":value`.
    pub fn field<T: ToJson + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        self.field_with(key, |out| value.write_json(out))
    }

    /// Appends the member `"key":…` whose value `write` appends.
    pub fn field_with(&mut self, key: &str, write: impl FnOnce(&mut String)) -> &mut Self {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_str(key, self.out);
        self.out.push(':');
        write(self.out);
        self
    }

    /// Closes the object.
    pub fn end(&mut self) {
        self.out.push('}');
    }
}

/// Parse a complete JSON document; trailing whitespace is allowed, trailing
/// content is an error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_whitespace();
    let value = parser.parse_value(0)?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(JsonError::at("trailing characters", parser.pos));
    }
    Ok(value)
}

/// Maximum nesting depth accepted by the parser (defensive bound; the wire
/// formats nest at most ~5 levels).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(
                format!("expected `{}`", byte as char),
                self.pos,
            ))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::at("nesting too deep", self.pos));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(_) => Err(JsonError::at("unexpected character", self.pos)),
            None => Err(JsonError::at("unexpected end of input", self.pos)),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::at(format!("expected `{word}`"), self.pos))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(JsonError::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            let value = self.parse_value(depth + 1)?;
            items.push(value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(JsonError::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::at("invalid utf-8 in string", start))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::at("unterminated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.parse_hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(JsonError::at(
                                            "invalid low surrogate",
                                            self.pos,
                                        ));
                                    }
                                    let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(code)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| {
                                JsonError::at("invalid unicode escape", self.pos)
                            })?);
                        }
                        _ => return Err(JsonError::at("invalid escape", self.pos - 1)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(JsonError::at("control character in string", self.pos));
                }
                _ => return Err(JsonError::at("unterminated string", self.pos)),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| JsonError::at("truncated unicode escape", self.pos))?;
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(JsonError::at("invalid hex digit", self.pos)),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == int_start {
            return Err(JsonError::at("invalid number", start));
        }
        // JSON forbids leading zeros ("01" is invalid, "0.1" is fine).
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(JsonError::at("leading zero in number", start));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(JsonError::at("invalid number", start));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(JsonError::at("invalid number", start));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        if is_float {
            let x: f64 = text
                .parse()
                .map_err(|_| JsonError::at("invalid number", start))?;
            Ok(Json::Float(x))
        } else {
            match text.parse::<i128>() {
                Ok(n) => Ok(Json::Int(n)),
                // Out-of-range integers degrade to f64 like serde_json's
                // default (arbitrary_precision off).
                Err(_) => {
                    let x: f64 = text
                        .parse()
                        .map_err(|_| JsonError::at("invalid number", start))?;
                    Ok(Json::Float(x))
                }
            }
        }
    }
}

// --- blanket conversions for common shapes -------------------------------

/// The tree renderer; [`Json::render`] and [`to_string`] of a tree come
/// through here.
impl ToJson for Json {
    fn write_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::Int(n) => write_int(*n, out),
            Json::Float(x) => write_f64(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Array(items) => write_array(out, items),
            Json::Object(fields) => {
                let mut object = object(out);
                for (key, value) in fields {
                    object.field(key, value);
                }
                object.end();
            }
        }
    }

    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(value.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_bool()
            .ok_or_else(|| JsonError::new("expected bool"))
    }
}

impl ToJson for i128 {
    fn write_json(&self, out: &mut String) {
        write_int(*self, out);
    }
}

impl FromJson for i128 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_i128()
            .ok_or_else(|| JsonError::new("expected integer"))
    }
}

impl ToJson for u64 {
    fn write_json(&self, out: &mut String) {
        write_int(i128::from(*self), out);
    }
}

impl ToJson for usize {
    fn write_json(&self, out: &mut String) {
        write_int(*self as i128, out);
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        write_f64(*self, out);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_array(out, self);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_array()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

/// A pair is a two-element array, e.g. the `[s, Δ_R]` rows of reports.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<K: fmt::Display, V: ToJson> ToJson for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        let mut object = object(out);
        for (key, value) in self {
            object.field(&key.to_string(), value);
        }
        object.end();
    }
}

/// Convenience: parse text and convert in one step.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    let value = parse(input)?;
    T::from_json(&value)
}

/// Renders `value` through its [`ToJson::write_json`] encoder.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-17").unwrap(), Json::Int(-17));
        assert_eq!(parse("3.5").unwrap(), Json::Float(3.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_i128_extremes() {
        let max = i128::MAX.to_string();
        assert_eq!(parse(&max).unwrap(), Json::Int(i128::MAX));
        let min = i128::MIN.to_string();
        assert_eq!(parse(&min).unwrap(), Json::Int(i128::MIN));
    }

    #[test]
    fn parses_nested_structures() {
        let value = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(value.get("c").unwrap(), &Json::Str("x".into()));
        let a = value.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0], Json::Int(1));
        assert_eq!(a[1].get("b").unwrap(), &Json::Null);
    }

    #[test]
    fn render_round_trips() {
        let cases = [
            r#"{"num":3,"den":2}"#,
            r#"[{"name":"t1","criticality":"Hi"}]"#,
            r#"{"s":"a\"b\\c\nd"}"#,
            "[]",
            "{}",
            "[1,2.5,null,true]",
        ];
        for case in cases {
            let value = parse(case).unwrap();
            assert_eq!(value.render(), case, "round trip of {case}");
            assert_eq!(parse(&value.render()).unwrap(), value);
        }
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".into()));
        // Surrogate pair for U+1F600.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("\u{1F600}".into()));
    }

    #[test]
    fn surrogate_pair_escapes_decode_and_round_trip() {
        // U+1F600 via its escaped surrogate pair decodes to the same
        // string as the literal code point…
        let escaped = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(escaped, Json::Str("\u{1F600}".into()));
        // …and the writer emits it as a literal (no escaping needed),
        // which re-parses to the same value.
        assert_eq!(escaped.render(), "\"\u{1F600}\"");
        assert_eq!(parse(&escaped.render()).unwrap(), escaped);
        // Uppercase hex digits are accepted too.
        assert_eq!(parse("\"\\uD83D\\uDE00\"").unwrap(), escaped);
    }

    #[test]
    fn lone_surrogates_error_instead_of_panicking() {
        for bad in [
            r#""\ud800""#,       // high surrogate at end of string
            r#""\ud800x""#,      // high surrogate followed by a plain char
            r#""\ud800\n""#,     // high surrogate followed by a non-\u escape
            r#""\ud800A""#,      // high surrogate paired with a non-surrogate
            r#""\ud800\ud800""#, // two high surrogates
            r#""\udc00""#,       // unpaired low surrogate
            r#""\ud8"#,          // truncated inside the hex digits
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn every_control_character_round_trips_through_escapes() {
        for code in 0u32..0x20 {
            let c = char::from_u32(code).expect("ascii control");
            let value = Json::Str(format!("a{c}b"));
            let rendered = value.render();
            assert_eq!(
                parse(&rendered).unwrap(),
                value,
                "round trip of U+{code:04X} via {rendered:?}"
            );
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        for code in 0u32..0x20 {
            let c = char::from_u32(code).expect("ascii control");
            let input = format!("\"a{c}b\"");
            assert!(parse(&input).is_err(), "should reject raw U+{code:04X}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "01",
            "1.",
            "tru",
            "{\"a\" 1}",
            "[1]2",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn integral_floats_render_with_fraction() {
        assert_eq!(Json::Float(2.0).render(), "2.0");
        assert_eq!(Json::Float(2.5).render(), "2.5");
        assert_eq!(Json::Int(2).render(), "2");
    }

    #[test]
    fn control_characters_escape() {
        let value = Json::Str("\u{01}".into());
        assert_eq!(value.render(), "\"\\u0001\"");
        assert_eq!(parse(&value.render()).unwrap(), value);
    }

    #[test]
    fn decimal_matches_display_across_the_i128_range() {
        let mut values = vec![0, 1, -1, 9, 10, -10, i128::MAX, i128::MIN, -i128::MAX];
        for edge in [
            i128::from(i64::MAX),
            i128::from(i64::MIN),
            i128::from(u64::MAX),
            10_000_000_000_000_000_000,
            100_000_000_000_000_000_000_000_000_000_000_000_000,
        ] {
            values.extend([edge - 1, edge, edge + 1, -edge - 1, -edge, -edge + 1]);
        }
        let mut x: i128 = 1;
        while let Some(next) = x.checked_mul(7) {
            values.extend([x, -x, x + 3]);
            x = next;
        }
        let mut buf = [0; DECIMAL_LEN];
        for n in values {
            assert_eq!(decimal(n, &mut buf), n.to_string().as_bytes(), "{n}");
            let mut out = String::from("x");
            write_int(n, &mut out);
            assert_eq!(out, format!("x{n}"));
        }
    }

    #[test]
    fn object_writer_streams_members_in_order() {
        let mut out = String::new();
        object(&mut out).end();
        assert_eq!(out, "{}");
        out.clear();
        let mut obj = object(&mut out);
        obj.field("a\"b", "v").field("n", &Some(-3i128));
        obj.field_with("raw", |out| out.push_str("[]"));
        obj.field("row", &(true, None::<i128>)).end();
        assert_eq!(out, r#"{"a\"b":"v","n":-3,"raw":[],"row":[true,null]}"#);
    }

    #[test]
    fn to_json_is_the_parse_of_the_written_bytes() {
        let value = vec![(String::from("t\u{1}"), 7u64)];
        assert_eq!(
            value.to_json(),
            Json::Array(vec![Json::Array(vec![
                Json::Str("t\u{1}".into()),
                Json::Int(7)
            ])])
        );
        assert_eq!(to_string(&value), r#"[["t\u0001",7]]"#);
    }
}
