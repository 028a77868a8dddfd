//! The workspace's one JSON document format: every snapshot, golden
//! fixture, BENCH record and observability export is built as a [`Json`]
//! value, rendered by one layout rule and read back by one strict parser.
//!
//! **Layout.** [`Json::to_document`] puts each top-level member on its own
//! line, indented two spaces; a top-level member holding an array of
//! objects puts one element per line, indented four spaces; everything
//! else renders inline with `, ` and `: ` separators — the `Display` form,
//! which the JSONL log and the trace events use directly.
//!
//! **Numbers** print as their [`NumberFormat`] says: shortest round-trip
//! exponent notation (`{:e}`) by default, so `-0.0`, subnormals and every
//! other `f64` parse back to the same bits; fixed or scientific digits only
//! where a record field is declared that way.
//!
//! **Reading** ([`Json::parse`]) is strict: trailing bytes, duplicate keys,
//! truncation, malformed tokens, raw control characters inside strings and
//! nesting deeper than [`MAX_DEPTH`] are [`CoreError::InvalidDocument`]s
//! naming the byte offset. Numbers follow the JSON grammar plus exactly the
//! `NaN`, `inf` and `-inf` tokens `{:e}` writes. Member lookup sees the
//! top-level members only; members a reader does not ask for are ignored.

use crate::{CoreError, Result};
use std::borrow::Borrow;
use std::fmt::{self, Write as _};

/// The deepest array/object nesting [`Json::parse`] accepts (a top-level
/// object is depth 1); it also bounds the parser's recursion.
pub const MAX_DEPTH: usize = 32;

/// How a [`Json::Number`] prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumberFormat {
    /// Shortest round-trip exponent notation (`{:e}`): `1.5e-3`, `-0e0`,
    /// `NaN`, `inf`. Parses back bitwise.
    Shortest,
    /// Fixed point with this many decimals (`{:.6}`).
    Fixed(usize),
    /// Scientific notation with this many mantissa decimals (`{:.6e}`).
    Scientific(usize),
}

/// One JSON value. Objects keep their members in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer token (no fraction, no exponent), wide enough for every
    /// `u64` counter.
    Int(i128),
    /// A floating-point number and the format it prints in.
    Number(f64, NumberFormat),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: members in order, keys unique.
    Object(Vec<(String, Json)>),
}

fn invalid(what: String) -> CoreError {
    CoreError::InvalidDocument { what }
}

impl Json {
    /// A number with `decimals` fixed-point digits (`{:.N}`).
    #[must_use]
    pub fn fixed(v: f64, decimals: usize) -> Self {
        Json::Number(v, NumberFormat::Fixed(decimals))
    }

    /// A number with `decimals` scientific mantissa digits (`{:.Ne}`).
    #[must_use]
    pub fn scientific(v: f64, decimals: usize) -> Self {
        Json::Number(v, NumberFormat::Scientific(decimals))
    }

    /// A 0/1 flag as a shortest number (`1e0` / `0e0`), the snapshot
    /// documents' and golden fixtures' boolean.
    #[must_use]
    pub fn flag(set: bool) -> Self {
        Json::from(if set { 1.0 } else { 0.0 })
    }

    /// An array of shortest round-trip numbers (from values or
    /// references).
    #[must_use]
    pub fn numbers<V: Borrow<f64>>(values: impl IntoIterator<Item = V>) -> Self {
        Json::Array(
            values
                .into_iter()
                .map(|v| Json::from(*v.borrow()))
                .collect(),
        )
    }

    /// An object from `(key, value)` members, in order.
    #[must_use]
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders a document by the layout rule, ending in a newline (a
    /// non-object renders inline).
    #[must_use]
    pub fn to_document(&self) -> String {
        Document(self).to_string()
    }

    /// Parses one document strictly (see the module docs).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidDocument`] naming the byte offset of the first
    /// violation.
    pub fn parse(text: &str) -> Result<Json> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos < text.len() {
            return Err(parser.error("trailing bytes after the document"));
        }
        Ok(value)
    }

    /// The top-level member `key` (`None` when missing or not an object).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert), if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::Number(v, _) => Some(v),
            _ => None,
        }
    }

    /// The top-level member `key` as a number.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidDocument`] when it is missing or not a number.
    pub fn number(&self, key: &str) -> Result<f64> {
        number_at(key, self.member(key)?)
    }

    /// The top-level member `key` as an array of numbers.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidDocument`] when it is missing, not an array, or
    /// holds a non-number.
    pub fn number_array(&self, key: &str) -> Result<Vec<f64>> {
        match self.member(key)? {
            Json::Array(items) => items.iter().map(|v| number_at(key, v)).collect(),
            other => Err(invalid(format!("key '{key}': {other} is not an array"))),
        }
    }

    /// The top-level member `key` as a count: a non-negative integer that
    /// fits `usize` exactly.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidDocument`] when it is missing or not a count.
    pub fn usize(&self, key: &str) -> Result<usize> {
        count_at(key, self.number(key)?)
    }

    /// The top-level member `key` as an array of counts or codes.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidDocument`] when it is missing, not an array, or
    /// holds anything but counts.
    pub fn usize_array(&self, key: &str) -> Result<Vec<usize>> {
        let values = self.number_array(key)?.into_iter();
        values.map(|v| count_at(key, v)).collect()
    }

    /// The top-level member `key` as a 0/1 flag (see [`Json::flag`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidDocument`] when it is missing or neither 0 nor 1.
    pub fn is_set(&self, key: &str) -> Result<bool> {
        match self.number(key)? {
            v if v == 0.0 || v == 1.0 => Ok(v == 1.0),
            v => Err(invalid(format!("key '{key}' must be 0 or 1, got {v}"))),
        }
    }

    fn member(&self, key: &str) -> Result<&Json> {
        self.get(key)
            .ok_or_else(|| invalid(format!("missing key '{key}'")))
    }
}

fn number_at(key: &str, value: &Json) -> Result<f64> {
    value
        .as_f64()
        .ok_or_else(|| invalid(format!("key '{key}': {value} is not a number")))
}

fn count_at(key: &str, v: f64) -> Result<usize> {
    // `usize::MAX as f64` rounds up to 2^64, which does not fit.
    if v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v < usize::MAX as f64 {
        Ok(v as usize)
    } else {
        Err(invalid(format!(
            "key '{key}': {v} is not a non-negative integer"
        )))
    }
}

impl From<f64> for Json {
    /// A shortest round-trip number.
    fn from(v: f64) -> Self {
        Json::Number(v, NumberFormat::Shortest)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::String(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::String(s)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(i: $t) -> Self {
                // Lossless: every unsigned type here is at most 64 bits.
                Json::Int(i as i128)
            }
        }
    )*};
}
from_unsigned!(u8, u32, u64, usize);

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` is `null`.
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

/// A quoted JSON string: `"` and `\` backslash-escaped, control characters
/// as `\u00XX`, everything else copied.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// The document layout of [`Json::to_document`].
struct Document<'a>(&'a Json);

impl fmt::Display for Document<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Json::Object(members) = self.0 else {
            return writeln!(f, "{}", self.0);
        };
        f.write_str("{\n")?;
        for (i, (key, value)) in members.iter().enumerate() {
            let sep = if i + 1 < members.len() { "," } else { "" };
            match value {
                Json::Array(rows)
                    if !rows.is_empty() && rows.iter().all(|v| matches!(v, Json::Object(_))) =>
                {
                    writeln!(f, "  {}: [", Escaped(key))?;
                    for (j, row) in rows.iter().enumerate() {
                        let row_sep = if j + 1 < rows.len() { "," } else { "" };
                        writeln!(f, "    {row}{row_sep}")?;
                    }
                    writeln!(f, "  ]{sep}")?;
                }
                _ => writeln!(f, "  {}: {value}{sep}", Escaped(key))?,
            }
        }
        f.write_str("}\n")
    }
}

impl fmt::Display for Json {
    /// The inline form: `[a, b]`, `{"k": v, "k2": w}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Number(v, NumberFormat::Shortest) => write!(f, "{v:e}"),
            Json::Number(v, NumberFormat::Fixed(d)) => write!(f, "{v:.*}", *d),
            Json::Number(v, NumberFormat::Scientific(d)) => write!(f, "{v:.*e}", *d),
            Json::String(s) => write!(f, "{}", Escaped(s)),
            Json::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}{item}")?;
                }
                f.write_char(']')
            }
            Json::Object(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}{}: {value}", Escaped(key))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Whether `token` is a number in the JSON grammar:
/// `-? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?`.
fn is_json_number(token: &str) -> bool {
    let digits = |s: &str| s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    let s = token.strip_prefix('-').unwrap_or(token);
    let n = digits(s);
    if n == 0 || (n > 1 && s.starts_with('0')) {
        return false;
    }
    let mut rest = &s[n..];
    if let Some(fraction) = rest.strip_prefix('.') {
        let n = digits(fraction);
        if n == 0 {
            return false;
        }
        rest = &fraction[n..];
    }
    if let Some(exponent) = rest.strip_prefix(['e', 'E']) {
        let exponent = exponent.strip_prefix(['+', '-']).unwrap_or(exponent);
        let n = digits(exponent);
        if n == 0 {
            return false;
        }
        rest = &exponent[n..];
    }
    rest.is_empty()
}

/// The strict recursive-descent reader behind [`Json::parse`]. It only
/// ever stops on ASCII bytes, so every slice it takes of `text` is whole
/// UTF-8.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> CoreError {
        invalid(format!("{what} at byte {}", self.pos))
    }

    fn skip_whitespace(&mut self) {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    /// The next byte, consumed.
    fn next(&mut self) -> Result<u8> {
        let b = *self
            .text
            .as_bytes()
            .get(self.pos)
            .ok_or_else(|| self.error("unexpected end of document"))?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<()> {
        if self.next()? == want {
            Ok(())
        } else {
            self.pos -= 1;
            Err(self.error(&format!("expected '{}'", char::from(want))))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json> {
        self.skip_whitespace();
        match self.text.as_bytes().get(self.pos) {
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', depth + 1, |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'{') => {
                let mut members: Vec<(String, Json)> = Vec::new();
                self.sequence(b'}', depth + 1, |p| {
                    p.skip_whitespace();
                    let at = p.pos;
                    let key = p.string()?;
                    if members.iter().any(|(k, _)| *k == key) {
                        return Err(invalid(format!("duplicate key '{key}' at byte {at}")));
                    }
                    p.skip_whitespace();
                    p.expect(b':')?;
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Json::Object(members))
            }
            Some(b'"') => self.string().map(Json::String),
            Some(_) => self.scalar(),
            None => Err(self.error("unexpected end of document")),
        }
    }

    /// The entries of an array or object after its opening bracket,
    /// separated by commas, up to `close`.
    fn sequence(
        &mut self,
        close: u8,
        depth: usize,
        mut entry: impl FnMut(&mut Self) -> Result<()>,
    ) -> Result<()> {
        if depth > MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.pos += 1;
        self.skip_whitespace();
        if self.text.as_bytes().get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            entry(self)?;
            self.skip_whitespace();
            match self.next()? {
                b',' => {}
                b if b == close => return Ok(()),
                _ => {
                    self.pos -= 1;
                    let what = format!("expected ',' or '{}'", char::from(close));
                    return Err(self.error(&what));
                }
            }
        }
    }

    /// A quoted string, escapes resolved.
    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let run = rest.find(|c: char| c == '"' || c == '\\' || c < ' ');
            out.push_str(&rest[..run.unwrap_or(rest.len())]);
            self.pos += run.unwrap_or(rest.len());
            match self.next()? {
                b'"' => return Ok(out),
                b'\\' => {
                    let c = match self.next()? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("invalid escape")),
                    };
                    out.push(c);
                }
                _ => {
                    self.pos -= 1;
                    return Err(self.error("raw control character in string"));
                }
            }
        }
    }

    /// The character of a `\uXXXX` escape, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char> {
        let hex4 = |p: &mut Self| {
            let digits = p.text.get(p.pos..p.pos + 4);
            let code = digits
                .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
                .and_then(|d| u32::from_str_radix(d, 16).ok())
                .ok_or_else(|| p.error("invalid \\u escape"))?;
            p.pos += 4;
            Ok::<u32, CoreError>(code)
        };
        let high = hex4(self)?;
        let code = if (0xD800..0xDC00).contains(&high) {
            self.expect(b'\\')?;
            self.expect(b'u')?;
            let low = hex4(self)?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("unpaired surrogate"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))
    }

    /// A literal, `NaN`/`inf`/`-inf`, or a number in the JSON grammar —
    /// an integer token when it has neither fraction nor exponent.
    fn scalar(&mut self) -> Result<Json> {
        let start = self.pos;
        let rest = &self.text[start..];
        let len = rest.len()
            - rest
                .trim_start_matches(|c: char| c.is_ascii_alphanumeric() || "+-.".contains(c))
                .len();
        self.pos += len;
        let token = &rest[..len];
        let float = || token.parse::<f64>().ok().map(Json::from);
        let value = match token {
            "true" => Some(Json::Bool(true)),
            "false" => Some(Json::Bool(false)),
            "null" => Some(Json::Null),
            "NaN" | "inf" | "-inf" => float(),
            _ if !is_json_number(token) => None,
            _ if token.contains(['.', 'e', 'E']) => float(),
            _ => token.parse().ok().map(Json::Int),
        };
        value.ok_or_else(|| invalid(format!("malformed token '{token}' at byte {start}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(members: Vec<(&str, Json)>) -> String {
        Json::object(members).to_document()
    }

    fn is_invalid(text: &str) -> bool {
        matches!(Json::parse(text), Err(CoreError::InvalidDocument { .. }))
    }

    #[test]
    fn numbers_round_trip_bitwise() {
        let cases = [
            0.0,
            -0.0,
            1.0,
            0.1,
            1.0 / 3.0,
            -3.5e-2,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 8.0, // subnormal
            f64::MAX,
            301.15 + 1e-13,
            2e-3 * 7.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in cases {
            let text = doc(vec![("v", v.into())]);
            let back = Json::parse(&text).unwrap().number("v").unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?} via {text:?}");
        }
        let text = doc(vec![("vs", Json::numbers(cases))]);
        let back = Json::parse(&text).unwrap().number_array("vs").unwrap();
        assert_eq!(back.len(), cases.len());
        for (b, v) in back.iter().zip(&cases) {
            assert_eq!(b.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn empty_arrays_and_field_order() {
        let text = doc(vec![
            ("empty", Json::numbers(Vec::<f64>::new())),
            ("pair", Json::numbers([1.5, -2.0])),
            ("tail", 4.25.into()),
        ]);
        assert_eq!(
            text,
            "{\n  \"empty\": [],\n  \"pair\": [1.5e0, -2e0],\n  \"tail\": 4.25e0\n}\n"
        );
        let parsed = Json::parse(&text).unwrap();
        assert!(parsed.number_array("empty").unwrap().is_empty());
        assert_eq!(parsed.number_array("pair").unwrap(), vec![1.5, -2.0]);
        assert_eq!(parsed.number("tail").unwrap(), 4.25);
        let Json::Object(members) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["empty", "pair", "tail"]);
        assert_eq!(parsed.to_document(), text);
    }

    #[test]
    fn usize_arrays_reject_non_integers() {
        let parsed = Json::parse("{\n  \"counts\": [0e0, 3e0, 1.2e1, 4]\n}\n").unwrap();
        assert_eq!(parsed.usize_array("counts").unwrap(), vec![0, 3, 12, 4]);
        for bad in [
            "{\"counts\": [1.5e0]}",
            "{\"counts\": [-1e0]}",
            "{\"counts\": [NaN]}",
            "{\"counts\": [\"3\"]}",
            "{\"counts\": 3e0}",
        ] {
            assert!(
                matches!(
                    Json::parse(bad).unwrap().usize_array("counts"),
                    Err(CoreError::InvalidDocument { .. })
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        assert!(matches!(
            Json::parse("{}").unwrap().number("missing"),
            Err(CoreError::InvalidDocument { .. })
        ));
        for text in [
            "",
            "{\n  \"k\" 1e0\n}",
            "{\n  \"k\": [1e0",
            "{\n  \"k\": nope\n}",
            "{\"k\": 1e0,}",
            "{\"k\": [1e0,]}",
            "{k: 1}",
            "{\"k\": 1e0} x",
            "{\"k\": 1, \"k\": 2}",
            "{\"k\": \"a\nb\"}",
            "{\"k\": \"\\x\"}",
            "{\"k\": \"\\ud800\"}",
            "{\"k\": +1}",
            "{\"k\": Infinity}",
            "{\"k\": nan}",
            "{\"k\": 01}",
            "{\"k\": 1.}",
            "{\"k\": .5}",
            "{\"k\": 1e}",
            "{\"k\": -}",
            "{\"k\": -NaN}",
            "{\"k\": tru}",
            "{\"k\": é}",
            "{\"k\": \"\\é\"}",
            "[1é]",
            "{\"k\": 1 é}",
        ] {
            assert!(is_invalid(text), "should be rejected: {text:?}");
        }
    }

    #[test]
    fn errors_name_the_byte_offset() {
        let err = Json::parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert_eq!(
            err,
            CoreError::InvalidDocument {
                what: "duplicate key 'a' at byte 9".into()
            }
        );
        let err = Json::parse("{\"a\": 1}\n}").unwrap_err().to_string();
        assert!(
            err.contains("trailing bytes") && err.contains("byte 9"),
            "{err}"
        );
        let err = Json::parse("{\"a\": 1.2").unwrap_err().to_string();
        assert!(
            err.contains("end of document") || err.contains("at byte"),
            "{err}"
        );
    }

    #[test]
    fn scalar_at_document_end_without_newline() {
        let parsed = Json::parse("{\"k\": 2e0}").unwrap();
        assert_eq!(parsed.number("k").unwrap(), 2.0);
        // A braceless member list is not a document.
        assert!(is_invalid("\"k\": 2e0"));
    }

    #[test]
    fn lookup_sees_top_level_members_only() {
        let parsed = Json::parse("{\"outer\": {\"k\": 1e0}}").unwrap();
        assert!(parsed.get("k").is_none());
        assert!(parsed.number("k").is_err());
        assert_eq!(parsed.get("outer").unwrap().number("k").unwrap(), 1.0);
        assert!(Json::from(1.0).get("k").is_none());
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(is_invalid(&deep));
        assert!(is_invalid(&"[".repeat(100_000)));
    }

    #[test]
    fn layout_puts_object_rows_one_per_line() {
        let record = Json::object([
            ("bench", "unit".into()),
            ("schema_version", 2usize.into()),
            ("grid", Json::object([("variants", 2usize.into())])),
            ("wall_seconds", Json::fixed(1.5, 6)),
            ("dt_seconds", Json::scientific(2e-3, 6)),
            ("restore_at", Json::from(None::<usize>)),
            (
                "variants",
                Json::Array(vec![
                    Json::object([("label", "a \"q\"".into()), ("ok", true.into())]),
                    Json::object([("label", "b\\".into()), ("ok", false.into())]),
                ]),
            ),
        ]);
        let text = record.to_document();
        assert_eq!(
            text,
            "{\n  \"bench\": \"unit\",\n  \"schema_version\": 2,\n  \"grid\": {\"variants\": 2},\n  \
             \"wall_seconds\": 1.500000,\n  \"dt_seconds\": 2.000000e-3,\n  \"restore_at\": null,\n  \
             \"variants\": [\n    {\"label\": \"a \\\"q\\\"\", \"ok\": true},\n    \
             {\"label\": \"b\\\\\", \"ok\": false}\n  ]\n}\n"
        );
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("variants"), record.get("variants"));
        assert_eq!(parsed.number("wall_seconds").unwrap(), 1.5);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "tab\there \"quoted\" back\\slash \u{1} é ∂ 🙂";
        let text = Json::from(s).to_string();
        assert_eq!(
            text,
            "\"tab\\u0009here \\\"quoted\\\" back\\\\slash \\u0001 é ∂ 🙂\""
        );
        assert_eq!(Json::parse(&text).unwrap(), Json::from(s));
        assert_eq!(
            Json::parse("{\"é\": \"ü\"}").unwrap(),
            Json::object([("é", "ü".into())])
        );
        assert_eq!(
            Json::parse("\"\\n\\r\\b\\f\\/\\u00e9\\ud83d\\ude42\"").unwrap(),
            Json::from("\n\r\u{8}\u{c}/é🙂")
        );
    }
}
