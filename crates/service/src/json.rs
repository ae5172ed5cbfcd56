//! A minimal JSON value type, parser and writer.
//!
//! The workspace's `serde` is a vendored API stub (the crates registry is
//! unreachable in the build environment), so the wire protocol serializes by
//! hand through this module. It implements the full JSON grammar — objects,
//! arrays, strings with escapes, numbers, booleans, null — with two
//! deliberate simplifications: numbers are always `f64` (integers are
//! printed without a fractional part when exact, and integers above
//! 2^53 − 1 are not read as integers), and object keys keep
//! insertion order (a `Vec` of pairs, not a map), which makes responses
//! deterministic.
//!
//! [`Json`] is the parse tree. Encoding does not build one: the object
//! writer appends `"key":value` pairs straight onto a `String`, and `Json`'s
//! own `Display` goes through the same writer, so there is one string
//! escaper and one number formatter.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key/value pairs, later duplicates win on lookup.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (last occurrence wins, per RFC 8259 latitude).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as an integer: rejects fractional and negative values
    /// and anything above 2^53 − 1, which an `f64` cannot tell apart from
    /// its neighbours.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && (0.0..=MAX_EXACT_INT).contains(n) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then `as_str`.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Convenience: `get(key)` then `as_u64`.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }
}

/// Serializes to a single-line JSON string (so `.to_string()` encodes).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write_json(&mut out);
        f.write_str(&out)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Largest integer a JSON number carries exactly (2^53 − 1): every integer
/// up to it has its own `f64`, and the next one up does not.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_991.0;

/// A value [`ObjWriter`] can append: its JSON text goes straight onto the
/// output `String`.
pub(crate) trait WriteJson {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

impl WriteJson for str {
    fn write_json(&self, out: &mut String) {
        write_string(self, out);
    }
}

impl WriteJson for String {
    fn write_json(&self, out: &mut String) {
        write_string(self, out);
    }
}

impl WriteJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! write_as_number {
    ($($t:ty),*) => {$(
        impl WriteJson for $t {
            fn write_json(&self, out: &mut String) {
                write_number(*self as f64, out);
            }
        }
    )*};
}

write_as_number!(f64, u64, usize, u32);

/// `None` is `null`.
impl<T: WriteJson> WriteJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: WriteJson> WriteJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

/// A pair is a two-element array (a package's `[tuple, multiplicity]`).
impl<A: WriteJson, B: WriteJson> WriteJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl<T: WriteJson + ?Sized> WriteJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl WriteJson for Json {
    fn write_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.write_json(out),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => items.write_json(out),
            Json::Obj(pairs) => write_object(out, |w| {
                for (key, value) in pairs {
                    w.field(key, value);
                }
            }),
        }
    }
}

/// Appends one JSON object's `"key":value` pairs, in call order, straight
/// onto the output `String`.
pub(crate) struct ObjWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl ObjWriter<'_> {
    /// Append `"key":value`.
    pub(crate) fn field(&mut self, key: &str, value: impl WriteJson) -> &mut Self {
        self.key(key);
        value.write_json(self.out);
        self
    }

    /// Append `"key":value` when `value` is `Some`; skip the key otherwise.
    pub(crate) fn optional(&mut self, key: &str, value: Option<impl WriteJson>) -> &mut Self {
        if let Some(value) = value {
            self.field(key, value);
        }
        self
    }

    /// Append `"key":{...}`, the nested object's pairs written by `fields`.
    pub(crate) fn object(&mut self, key: &str, fields: impl FnOnce(&mut ObjWriter)) -> &mut Self {
        self.key(key);
        write_object(self.out, fields);
        self
    }

    /// Append `"key":[{...},...]`, one object per item.
    pub(crate) fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fields: impl FnMut(&mut ObjWriter, T),
    ) -> &mut Self {
        self.key(key);
        self.out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            write_object(self.out, |w| fields(w, item));
        }
        self.out.push(']');
        self
    }

    fn key(&mut self, key: &str) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_string(key, self.out);
        self.out.push(':');
    }
}

/// Append one object to `out`, its pairs written by `fields`.
fn write_object(out: &mut String, fields: impl FnOnce(&mut ObjWriter)) {
    out.push('{');
    fields(&mut ObjWriter { out, empty: true });
    out.push('}');
}

/// One object as a wire line (without the newline).
pub(crate) fn object_line(fields: impl FnOnce(&mut ObjWriter)) -> String {
    let mut out = String::new();
    write_object(&mut out, fields);
    out
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Infinity/NaN; null is the conventional downgrade.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting the parser accepts. The parser recurses per
/// nesting level, so without a limit a network client could send
/// `[[[[...` and overflow the stack of whichever server thread parses it;
/// 128 levels is far beyond anything the wire protocol produces.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document; trailing non-whitespace is an error.
///
/// Robustness guarantees for network-facing callers: container nesting
/// beyond [`MAX_DEPTH`] is rejected (no stack overflow on adversarial
/// input), and number literals that overflow `f64` (`1e999`) are rejected
/// rather than parsed into `inf`/`-inf` values that would otherwise flow
/// into deadlines and budgets.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => Ok(Json::Obj(self.items(b'{', b'}', Self::pair)?)),
            Some(b'[') => Ok(Json::Arr(self.items(b'[', b']', Self::value)?)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    /// One container's items up to `close`, each read by `item`.
    fn items<T>(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.enter()?;
        self.expect(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(items);
                }
                other => {
                    return Err(format!(
                        "expected `,` or `{}` at byte {}, found {:?}",
                        close as char,
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn pair(&mut self) -> Result<(String, Json), String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok((key, self.value()?))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| "invalid \\u escape".to_string())?);
                        }
                        other => return Err(format!("invalid escape `\\{}`", other as char)),
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err("unescaped control character in string".to_string())
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let text = std::str::from_utf8(slice).map_err(|_| "invalid \\u escape".to_string())?;
        let code = u32::from_str_radix(text, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .map(|b| {
                b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
            })
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match text.parse::<f64>() {
            // `1e999` parses "successfully" to infinity; non-finite values
            // must not leak into deadlines/budgets, so reject them here.
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(format!("number `{text}` overflows f64 at byte {start}")),
            Err(_) => Err(format!("invalid number `{text}` at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_value_kinds() {
        let source = r#"{"id":"q-1","n":42,"pi":3.25,"neg":-7,"ok":true,"off":false,"nil":null,"arr":[1,[2,"x"],{}],"nested":{"a":"b c"}}"#;
        let value = parse(source).unwrap();
        assert_eq!(parse(&value.to_string()).unwrap(), value);
        assert_eq!(value.str_field("id"), Some("q-1"));
        assert_eq!(value.u64_field("n"), Some(42));
        assert_eq!(value.get("pi").unwrap().as_f64(), Some(3.25));
        assert_eq!(value.get("neg").unwrap().as_f64(), Some(-7.0));
        assert_eq!(value.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("nil"), Some(&Json::Null));
        assert_eq!(value.get("arr").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(value.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("line1\nline2\t\"quoted\" \\ back €α".to_string());
        let encoded = original.to_string();
        assert_eq!(parse(&encoded).unwrap(), original);
        // Control characters are \u-escaped on output.
        let ctl = Json::Str("\u{0001}".to_string());
        assert_eq!(ctl.to_string(), "\"\\u0001\"");
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap().as_str(), Some("Aé"));
        // Surrogate pair.
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn numbers_print_integers_exactly() {
        assert_eq!(Json::Num(5.0).to_string(), "5");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("-2.5e-1").unwrap().as_f64(), Some(-0.25));
    }

    #[test]
    fn u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(18_446_744_073_709_551_616.0).as_u64(), None);
        assert_eq!(Json::Num(9_007_199_254_740_992.0).as_u64(), None);
        assert_eq!(
            Json::Num(9_007_199_254_740_991.0).as_u64(),
            Some(9_007_199_254_740_991)
        );
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "[1]]",
            "\"\\q\"",
            "nan",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn deep_nesting_is_rejected_instead_of_overflowing_the_stack() {
        // Well within the limit: fine.
        let shallow = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH - 1),
            "]".repeat(MAX_DEPTH - 1)
        );
        assert!(parse(&shallow).is_ok());
        // Exactly at the limit: the deepest container is still accepted.
        let at_limit = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        // One past the limit errors...
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&over).unwrap_err().contains("nesting"));
        // ...and so does an adversarial 100k-deep prefix (this is the
        // stack-overflow DoS shape: no closing brackets needed).
        let hostile = "[".repeat(100_000);
        assert!(parse(&hostile).is_err());
        let hostile_objects = r#"{"a":"#.repeat(50_000);
        assert!(parse(&hostile_objects).is_err());
        // Mixed nesting counts both container kinds.
        let mixed = format!(
            "{}{}1{}{}",
            r#"{"k":"#.repeat(80),
            "[".repeat(80),
            "]".repeat(80),
            "}".repeat(80)
        );
        assert!(parse(&mixed).unwrap_err().contains("nesting"));
        // Depth is per-document nesting, not total container count: wide
        // but shallow documents are fine.
        let wide = format!("[{}1]", "[1],".repeat(10_000));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn overflowing_number_literals_are_rejected() {
        for bad in ["1e999", "-1e999", "1e309", "-2.5e308999", r#"{"t":1e999}"#] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("overflow"), "`{bad}` -> {err}");
        }
        // Values near the top of the range still parse.
        assert_eq!(parse("1e308").unwrap().as_f64(), Some(1e308));
        // Sub-normal underflow flushes to zero, which is finite and fine.
        assert_eq!(parse("1e-999").unwrap().as_f64(), Some(0.0));
    }
}
