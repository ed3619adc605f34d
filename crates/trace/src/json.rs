//! The workspace's one JSON value model, parser, writer and escaper.
//!
//! Built for *fidelity*, not convenience. History records must survive
//! append → load → re-serialize byte-for-byte, including records written
//! by future versions with fields this version does not know. Two design
//! choices follow: object keys keep their **insertion order** (no sorting,
//! no hashing), and numbers keep their **original text** (`Json::Num`
//! stores the raw token, so `1.50` never becomes `1.5` and `u64::MAX`
//! never loses precision through an `f64` detour).
//!
//! Every report document (`bench`, `explain`, `profile`, `diff`,
//! `conform`, `gen --check`) is a [`Json`] value rendered by
//! [`Json::write_pretty`], whose single layout rule is documented there;
//! compact one-line documents (ledgers, perfhist records, serve replies)
//! use [`Json::write`]. The per-event streaming writers call [`escape`]
//! directly instead of building a tree per event.
//!
//! The parser faces untrusted input on the `serve` socket, so it accepts
//! exactly RFC 8259 numbers and bounds nesting at [`MAX_DEPTH`]: a deep
//! document is an `Err`, never a stack overflow.
//!
//! The crate has no dependencies, so the parser and writer are hand-rolled
//! — the same policy as the rest of the workspace.

use std::fmt::Write as _;

/// The deepest container nesting [`Json::parse`] accepts. The repo's own
/// documents nest at most 7 levels.
pub const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its original (or formatted-once) text.
    Num(String),
    /// A string (decoded; re-escaped on write).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (never sorted — fidelity first).
    Obj(Vec<(String, Json)>),
}

/// Escapes a string for inclusion between the quotes of a JSON string
/// literal: `"`, `\` and control characters; everything else, non-ASCII
/// included, passes through.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v.to_string())
            }
        }
    )*};
}
from_int!(u32, u64, usize, i64);

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects into an array.
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    #[must_use]
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An integer number value.
    #[must_use]
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A float number value, formatted with enough digits to round-trip;
    /// non-finite values are `null`.
    #[must_use]
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            let mut s = format!("{v}");
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                s.push_str(".0");
            }
            Json::Num(s)
        } else {
            Json::Null
        }
    }

    /// A float number value with exactly `digits` fractional digits;
    /// non-finite values are `null`.
    #[must_use]
    pub fn fixed(v: f64, digits: usize) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.digits$}"))
        } else {
            Json::Null
        }
    }

    /// Looks up a key in an object (None for non-objects/missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an unsigned integer number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's key/value pairs in document order, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Inserts or replaces `key` in an object (no-op on non-objects).
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(pairs) = self {
            if let Some(slot) = pairs.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                pairs.push((key.to_string(), value));
            }
        }
    }

    /// Removes `key` from an object, returning the removed value.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        if let Json::Obj(pairs) = self {
            let idx = pairs.iter().position(|(k, _)| k == key)?;
            return Some(pairs.remove(idx).1);
        }
        None
    }

    /// Serializes compactly (no whitespace), preserving key order and the
    /// original number text — the writer half of the byte-identity
    /// guarantee.
    #[must_use]
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_inline(&mut out, ",", ":");
        out
    }

    /// Serializes as a human-readable document, newline-terminated, under
    /// one fixed layout rule. These are written one entry per line,
    /// indented two spaces per level:
    ///
    /// * the root object;
    /// * a non-empty array whose elements are all objects or all strings;
    /// * a non-empty object that directly holds such an array, or whose
    ///   members are all objects.
    ///
    /// Every other value, and everything inside it, is written inline with
    /// `, ` and `: `. Empty containers are `[]` and `{}`.
    #[must_use]
    pub fn write_pretty(&self) -> String {
        let mut out = String::new();
        if matches!(self, Json::Obj(p) if !p.is_empty()) {
            self.write_block(&mut out, 0);
        } else {
            self.write_pretty_into(&mut out, 0);
        }
        out.push('\n');
        out
    }

    /// Whether the layout rule writes this value one entry per line.
    fn is_block(&self) -> bool {
        match self {
            Json::Arr(items) => {
                !items.is_empty()
                    && (items.iter().all(|v| matches!(v, Json::Obj(_)))
                        || items.iter().all(|v| matches!(v, Json::Str(_))))
            }
            Json::Obj(pairs) => {
                !pairs.is_empty()
                    && (pairs.iter().all(|(_, v)| matches!(v, Json::Obj(_)))
                        || pairs
                            .iter()
                            .any(|(_, v)| matches!(v, Json::Arr(_)) && v.is_block()))
            }
            _ => false,
        }
    }

    fn write_pretty_into(&self, out: &mut String, level: usize) {
        if self.is_block() {
            self.write_block(out, level);
        } else {
            self.write_inline(out, ", ", ": ");
        }
    }

    /// Writes a non-empty container one entry per line at `level`.
    fn write_block(&self, out: &mut String, level: usize) {
        let (open, close, entries): (char, char, Vec<(Option<&String>, &Json)>) = match self {
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(pairs) => ('{', '}', pairs.iter().map(|(k, v)| (Some(k), v)).collect()),
            _ => unreachable!("only containers are blocks"),
        };
        let pad = "  ".repeat(level + 1);
        out.push(open);
        for (i, (key, value)) in entries.into_iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&pad);
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(": ");
            }
            value.write_pretty_into(out, level + 1);
        }
        out.push('\n');
        out.push_str(&pad[2..]);
        out.push(close);
    }

    fn write_inline(&self, out: &mut String, comma: &str, colon: &str) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    item.write_inline(out, comma, colon);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    write_str(out, k);
                    out.push_str(colon);
                    v.write_inline(out, comma, colon);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input, trailing
    /// garbage, or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(text, bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// Parses one value whose enclosing containers number `depth`.
fn parse_value(text: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    if matches!(b, b'[' | b'{') && depth == MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match b {
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'"' => Ok(Json::Str(parse_string(text, bytes, pos)?)),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(text, bytes, pos),
        other => Err(format!("unexpected '{}' at byte {}", other as char, *pos)),
    }
}

/// Scans an RFC 8259 number, `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`,
/// and stores its original text.
fn parse_number(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if bytes[*pos] == b'-' {
        *pos += 1;
    }
    let int_ok = if bytes.get(*pos) == Some(&b'0') {
        *pos += 1;
        true
    } else {
        digits(pos)
    };
    let frac_ok = bytes.get(*pos) != Some(&b'.') || {
        *pos += 1;
        digits(pos)
    };
    let exp_ok = !matches!(bytes.get(*pos), Some(b'e' | b'E')) || {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(pos)
    };
    if int_ok && frac_ok && exp_ok {
        Ok(Json::Num(text[start..*pos].to_string()))
    } else {
        Err(format!("bad number at byte {start}"))
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected '{lit}' at byte {}", *pos))
    }
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = text
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                        *pos += 4;
                        // Surrogate pairs: decode the low half if present.
                        let c = if (0xD800..0xDC00).contains(&code) {
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                let hex2 = text
                                    .get(*pos + 2..*pos + 6)
                                    .ok_or("truncated surrogate".to_string())?;
                                let low = u32::from_str_radix(hex2, 16)
                                    .map_err(|_| format!("bad \\u escape '{hex2}'"))?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!("invalid low surrogate '\\u{hex2}'"));
                                }
                                *pos += 6;
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                return Err("lone high surrogate".to_string());
                            }
                        } else {
                            code
                        };
                        out.push(char::from_u32(c).ok_or("invalid codepoint".to_string())?);
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                }
            }
            _ => {
                // Consume one UTF-8 scalar from the source text.
                let rest = &text[*pos..];
                let c = rest.chars().next().ok_or("invalid UTF-8".to_string())?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_write_round_trips_bytes() {
        let text = r#"{"schema":"perfhist-v1","n":1.50,"big":18446744073709551615,"arr":[1,2,{"z":null,"a":true}],"s":"a\"b\\c\nd"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.write(), text, "byte-identical round-trip");
    }

    #[test]
    fn key_order_is_preserved_not_sorted() {
        let v = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.write(), r#"{"z":1,"a":2}"#);
        assert_eq!(v.get("z").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn numbers_keep_raw_text() {
        let v = Json::parse("[1.50,1e3,-0.25]").unwrap();
        assert_eq!(v.write(), "[1.50,1e3,-0.25]");
        assert_eq!(v.as_arr().unwrap()[1].as_f64(), Some(1000.0));
    }

    #[test]
    fn number_grammar_is_rfc_8259() {
        for bad in [
            "01", "1.", "-.5", "1.e3", "00.5", ".5", "-", "+1", "1e", "1e+", "--1", "0x10",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` must be rejected");
            assert!(Json::parse(&format!("[{bad}]")).is_err(), "`[{bad}]`");
        }
        let max = u64::MAX.to_string();
        for good in [
            "1.50",
            "-0.25",
            "1e3",
            "0",
            "-0",
            "2.5E-3",
            "1e+9",
            max.as_str(),
        ] {
            let v = Json::parse(good).unwrap();
            assert_eq!(v.write(), good, "byte-identical round-trip");
        }
        assert_eq!(Json::parse(&max).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn nesting_is_bounded() {
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        assert!(Json::parse(&over).unwrap_err().contains("nesting"));
    }

    #[test]
    fn unknown_fields_survive() {
        let text = r#"{"schema":"perfhist-v9","future_field":{"deep":[1,2,3]}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.write(), text);
    }

    #[test]
    fn set_and_remove() {
        let mut v = Json::parse(r#"{"a":1}"#).unwrap();
        v.set("b", Json::u64(2));
        v.set("a", Json::u64(9));
        assert_eq!(v.write(), r#"{"a":9,"b":2}"#);
        assert_eq!(v.remove("a"), Some(Json::u64(9)));
        assert_eq!(v.write(), r#"{"b":2}"#);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""tab\there A 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\there A 😀"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}\r\t"), "\\u0001\\r\\t");
        assert_eq!(escape("→ ‰"), "→ ‰");
    }

    #[test]
    fn surrogate_pairs_decode_or_error() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // A high surrogate must be followed by a \u escape in the low
        // range; anything else is an error, never a panic or underflow.
        assert!(Json::parse(r#""\uD800\u0041""#).is_err());
        assert!(Json::parse(r#""\uD800\uD800""#).is_err());
        assert!(Json::parse(r#""\uD800x""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nulll").is_err());
    }

    #[test]
    fn number_constructors() {
        assert_eq!(Json::f64(2.0).write(), "2.0");
        assert_eq!(Json::f64(0.125).write(), "0.125");
        assert_eq!(Json::f64(f64::NAN).write(), "null");
        assert_eq!(Json::fixed(0.0072271, 6).write(), "0.007227");
        assert_eq!(Json::fixed(14678267.4, 0).write(), "14678267");
        assert_eq!(Json::fixed(f64::INFINITY, 3).write(), "null");
        assert_eq!(Json::from(-3i64).write(), "-3");
        assert_eq!(Json::from(None::<&str>).write(), "null");
        let arr: Json = [2usize, 4].into_iter().collect();
        assert_eq!(arr.write(), "[2,4]");
    }

    #[test]
    fn pretty_layout_reproduces_the_diff_fixture() {
        let text = include_str!("../../../bench/diff_179art_w8_w16.json");
        let v = Json::parse(text).unwrap();
        assert_eq!(v.write_pretty(), text);
    }

    #[test]
    fn pretty_layout_rule() {
        let v = Json::obj([
            ("n", Json::u64(1)),
            ("empty_arr", Json::Arr(Vec::new())),
            ("empty_obj", Json::Obj(Vec::new())),
            ("nums", [1u64, 2].into_iter().collect()),
            ("strs", ["a", "b"].into_iter().collect()),
            (
                "table",
                Json::obj([
                    ("rows", Json::Arr(vec![Json::obj([("x", Json::u64(1))])])),
                    ("k", Json::Null),
                ]),
            ),
            ("map", Json::obj([("a", Json::obj([("c", Json::u64(3))]))])),
            ("flat", Json::obj([("a", Json::u64(1)), ("b", "q".into())])),
        ]);
        let expected = r#"{
  "n": 1,
  "empty_arr": [],
  "empty_obj": {},
  "nums": [1, 2],
  "strs": [
    "a",
    "b"
  ],
  "table": {
    "rows": [
      {"x": 1}
    ],
    "k": null
  },
  "map": {
    "a": {"c": 3}
  },
  "flat": {"a": 1, "b": "q"}
}
"#;
        assert_eq!(v.write_pretty(), expected);
        assert_eq!(Json::Obj(Vec::new()).write_pretty(), "{}\n");
    }

    #[test]
    fn pretty_output_parses_back_to_the_same_value() {
        let v = Json::obj([
            (
                "tables",
                Json::obj([
                    (
                        "rows",
                        Json::Arr(vec![
                            Json::obj([("q", "say \"hi\"".into()), ("e", Json::Arr(Vec::new()))]),
                            Json::obj([
                                ("path", "C:\\tmp\\x".into()),
                                ("o", Json::Obj(Vec::new())),
                            ]),
                        ]),
                    ),
                    ("ctl", "bell\u{7} nl\n tab\t cr\r".into()),
                ]),
            ),
            (
                "by_name",
                Json::obj([
                    ("größe", Json::obj([("n", Json::u64(1))])),
                    ("日本", Json::Obj(Vec::new())),
                ]),
            ),
            (
                "lines",
                ["→ arrow", "‰ permille", "😀"].into_iter().collect(),
            ),
            ("num", Json::Num("-1.50e-3".to_string())),
            ("big", Json::u64(u64::MAX)),
            ("empty", Json::Arr(Vec::new())),
            ("t", true.into()),
            ("nil", Json::Null),
        ]);
        let text = v.write_pretty();
        assert_eq!(Json::parse(&text).unwrap(), v, "{text}");
        assert_eq!(Json::parse(&v.write()).unwrap(), v);
    }
}
