//! A minimal, dependency-free JSON reader/writer for release artifacts.
//!
//! The release format needs exact round-trips of `f64` probabilities,
//! deterministic output (object keys keep insertion order), and good error
//! positions — nothing more. Rust's `Display` for `f64` prints the shortest
//! decimal string that parses back to the same bits, which gives lossless
//! number round-trips for free.
//!
//! The grammar is RFC 8259 JSON with two deliberate restrictions: duplicate
//! object keys are rejected (the artifact format never produces them, and
//! accepting them would hide corruption), and nesting deeper than
//! [`MAX_DEPTH`] is rejected (the artifact format is ~4 levels deep; a depth
//! cap turns adversarial inputs into clean errors instead of stack overflow).

use std::fmt;

/// Maximum container nesting accepted by the parser.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order for deterministic output.
    Object(Vec<(String, Json)>),
}

/// A JSON syntax or serialization error with a 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line (0 for serialization errors with no source text).
    pub line: usize,
    /// 1-based column (0 for serialization errors).
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}, column {}: {}", self.line, self.col, self.message)
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor for an object.
    #[must_use]
    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A number from an unsigned integer (exact for values below 2^53).
    #[must_use]
    pub fn from_usize(v: usize) -> Json {
        debug_assert!(v < (1usize << 53), "usize {v} not exactly representable");
        Json::Number(v as f64)
    }

    /// Looks up a key in an object; `None` for other variants or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if it is one exactly.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Number(x) if *x >= 0.0 && x.fract() == 0.0 && *x < (1u64 << 53) as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    ///
    /// # Errors
    /// Returns a [`JsonError`] if the document contains a non-finite number
    /// (JSON has no representation for NaN or infinities).
    pub fn to_string_pretty(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, 0, true)?;
        out.push('\n');
        Ok(out)
    }

    /// Serializes without any whitespace.
    ///
    /// # Errors
    /// Returns a [`JsonError`] if the document contains a non-finite number.
    pub fn to_string_compact(&self) -> Result<String, JsonError> {
        let mut out = String::new();
        self.write(&mut out, 0, false)?;
        Ok(out)
    }

    fn write(&self, out: &mut String, depth: usize, pretty: bool) -> Result<(), JsonError> {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Number(x) => {
                if !x.is_finite() {
                    return Err(JsonError {
                        line: 0,
                        col: 0,
                        message: format!("cannot serialize non-finite number {x}"),
                    });
                }
                // Shortest round-trip representation; normalise -0.0 so the
                // output is independent of how the value was computed.
                let x = if *x == 0.0 { 0.0 } else { *x };
                out.push_str(&x.to_string());
            }
            Json::String(s) => write_escaped(s, out),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return Ok(());
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        indent(out, depth + 1);
                    }
                    item.write(out, depth + 1, pretty)?;
                }
                if pretty {
                    out.push('\n');
                    indent(out, depth);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return Ok(());
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        out.push('\n');
                        indent(out, depth + 1);
                    }
                    write_escaped(key, out);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    value.write(out, depth + 1, pretty)?;
                }
                if pretty {
                    out.push('\n');
                    indent(out, depth);
                }
                out.push('}');
            }
        }
        Ok(())
    }

    /// Parses a JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    /// Returns a [`JsonError`] with a 1-based line/column on malformed input,
    /// duplicate object keys, nesting beyond [`MAX_DEPTH`], or trailing
    /// non-whitespace.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text: input, bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }
}

/// A `u64` seed as JSON: a number below 2^53, where an `f64` holds it
/// exactly, and a decimal string otherwise. [`seed_from_json`] reads both.
#[must_use]
pub fn seed_to_json(seed: u64) -> Json {
    if seed < (1 << 53) {
        Json::Number(seed as f64)
    } else {
        Json::String(seed.to_string())
    }
}

/// Reads a seed in either form [`seed_to_json`] writes: an exact integer
/// below 2^53, or a decimal string of any `u64`. `None` for anything else.
#[must_use]
pub fn seed_from_json(value: &Json) -> Option<u64> {
    match value {
        Json::String(text) => text.parse().ok(),
        other => other.as_usize().map(|seed| seed as u64),
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal: the one
/// escaper behind every document this module writes, and behind the
/// pre-rendered JSONL fragments of the synthesis row renderer.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        JsonError { line, col, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key_start = self.pos;
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                self.pos = key_start;
                return Err(self.err(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next `"`, `\` or control
            // byte in one step. The delimiters are ASCII, so the run ends on
            // a char boundary of the input and slicing there cannot panic.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (and a low surrogate if needed).
    /// On entry `pos` is at the first hex digit.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require `\uXXXX` low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a non-zero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII by scan");
        let value: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !value.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Json::Number(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-0.5e2").unwrap(), Json::Number(-50.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn seeds_round_trip_as_numbers_below_2_53_and_strings_above() {
        for seed in [0, 7, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let json = seed_to_json(seed);
            assert_eq!(matches!(json, Json::Number(_)), seed < (1 << 53), "{seed}");
            let text = json.to_string_compact().unwrap();
            assert_eq!(seed_from_json(&Json::parse(&text).unwrap()), Some(seed), "{seed}");
        }
        assert_eq!(seed_from_json(&Json::String("12".into())), Some(12));
        for bad in ["-1", "1.5", "\"x\"", "\"18446744073709551616\"", "9007199254740992", "null"] {
            assert_eq!(seed_from_json(&Json::parse(bad).unwrap()), None, "{bad}");
        }
    }

    #[test]
    fn parses_nested_containers() {
        let doc = r#"{"a": [1, 2, {"b": null}], "c": {"d": [true, false]}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "nul",
            "tru",
            "{",
            "[",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "{a: 1}",
            "1 2",
            "[1],",
            "\"unterminated",
            "01",
            "1.",
            "1e",
            "+1",
            "--1",
            ".5",
            "{\"a\":1,}",
            "[1,]",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_duplicate_keys() {
        let e = Json::parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn error_positions_are_one_based() {
        let e = Json::parse("{\n  \"a\": nope\n}").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.col >= 8, "column was {}", e.col);
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.message.contains("nesting"), "{e}");
        // One below the limit parses fine.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t nul \u{0000} emoji 🦀";
        let doc = Json::String(s.into()).to_string_compact().unwrap();
        assert_eq!(Json::parse(&doc).unwrap(), Json::String(s.into()));
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::String("A".into()));
        assert_eq!(Json::parse(r#""🦀""#).unwrap(), Json::String("🦀".into()));
        assert!(Json::parse(r#""\ud83e""#).is_err(), "unpaired high surrogate");
        assert!(Json::parse(r#""\udd80""#).is_err(), "unpaired low surrogate");
        assert!(Json::parse(r#""\ud83eA""#).is_err(), "bad low surrogate");
    }

    #[test]
    fn rejects_unescaped_control_characters() {
        assert!(Json::parse("\"a\nb\"").is_err());
        let e = Json::parse("{\"a\":\n  \"xy\u{1}z\"}").unwrap_err();
        assert!(e.message.contains("control character"), "{e}");
        assert_eq!((e.line, e.col), (2, 6), "{e}");
    }

    #[test]
    fn multi_byte_characters_decode_inside_strings() {
        // 2-, 3- and 4-byte UTF-8 sequences, alone and between plain bytes.
        for s in ["é", "€", "😀", "aé", "€b", "a😀b", "é€😀"] {
            let doc = format!("\"{s}\"");
            assert_eq!(Json::parse(&doc).unwrap(), Json::String(s.into()), "{doc}");
        }
    }

    #[test]
    fn escapes_next_to_multi_byte_characters() {
        let doc = r#""é\n€\"😀\\é😀x\t""#;
        assert_eq!(Json::parse(doc).unwrap(), Json::String("é\n€\"😀\\é😀x\t".into()));
    }

    #[test]
    fn long_multi_byte_string_round_trips() {
        let s = "é€😀 \"q\" \\ \n".repeat(20_000);
        let doc = Json::String(s.clone()).to_string_compact().unwrap();
        assert_eq!(Json::parse(&doc).unwrap(), Json::String(s));
    }

    #[test]
    fn non_finite_numbers_fail_to_serialize() {
        assert!(Json::Number(f64::NAN).to_string_compact().is_err());
        assert!(Json::Number(f64::INFINITY).to_string_pretty().is_err());
    }

    #[test]
    fn negative_zero_normalises() {
        assert_eq!(Json::Number(-0.0).to_string_compact().unwrap(), "0");
    }

    #[test]
    fn pretty_output_is_stable() {
        let v = Json::object(vec![
            ("b", Json::from_usize(1)),
            ("a", Json::Array(vec![Json::Null, Json::Bool(true)])),
        ]);
        let expected = "{\n  \"b\": 1,\n  \"a\": [\n    null,\n    true\n  ]\n}\n";
        assert_eq!(v.to_string_pretty().unwrap(), expected);
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        let v = Json::parse(r#"{"n": 1.5, "s": "x", "a": [], "b": true}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("n").unwrap().as_usize(), None, "1.5 is not an integer");
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.get("a").unwrap().as_array(), Some(&[][..]));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("anything"), None);
    }

    #[test]
    fn as_usize_bounds() {
        assert_eq!(Json::Number(0.0).as_usize(), Some(0));
        assert_eq!(Json::Number(-1.0).as_usize(), None);
        assert_eq!(Json::Number(9.007199254740992e15).as_usize(), None, "2^53 exceeds the cap");
    }

    fn arb_json() -> impl Strategy<Value = Json> {
        let leaf = prop_oneof![
            Just(Json::Null),
            any::<bool>().prop_map(Json::Bool),
            // Finite doubles only; JSON cannot carry NaN/inf.
            any::<f64>().prop_filter("finite", |x| x.is_finite()).prop_map(Json::Number),
            ".{0,12}".prop_map(Json::String),
        ];
        leaf.prop_recursive(4, 64, 6, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
                proptest::collection::vec(("k[0-9a-f]{1,6}", inner), 0..6).prop_map(|fields| {
                    // Deduplicate keys: the writer never emits duplicates and
                    // the parser rejects them.
                    let mut seen = Vec::new();
                    let mut out = Vec::new();
                    for (k, v) in fields {
                        if !seen.contains(&k) {
                            seen.push(k.clone());
                            out.push((k, v));
                        }
                    }
                    Json::Object(out)
                }),
            ]
        })
    }

    proptest! {
        /// print → parse is the identity, in both pretty and compact modes.
        #[test]
        fn prop_round_trip(v in arb_json()) {
            let pretty = v.to_string_pretty().unwrap();
            let back = Json::parse(&pretty).unwrap();
            prop_assert!(json_eq(&v, &back), "pretty: {pretty}");
            let compact = v.to_string_compact().unwrap();
            let back = Json::parse(&compact).unwrap();
            prop_assert!(json_eq(&v, &back), "compact: {compact}");
        }

        /// Numbers round-trip bit-exactly through the shortest representation.
        #[test]
        fn prop_number_round_trip(x in any::<f64>().prop_filter("finite", |x| x.is_finite())) {
            let doc = Json::Number(x).to_string_compact().unwrap();
            let back = Json::parse(&doc).unwrap().as_f64().unwrap();
            // -0.0 is deliberately normalised to 0.0.
            let expect = if x == 0.0 { 0.0 } else { x };
            prop_assert_eq!(back.to_bits(), expect.to_bits());
        }

        /// Arbitrary strings survive escaping.
        #[test]
        fn prop_string_round_trip(s in "\\PC*") {
            let doc = Json::String(s.clone()).to_string_compact().unwrap();
            prop_assert_eq!(Json::parse(&doc).unwrap(), Json::String(s));
        }
    }

    /// Structural equality with bitwise f64 comparison (PartialEq on f64
    /// would fail on -0.0 vs 0.0 asymmetry introduced by normalisation).
    fn json_eq(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Number(x), Json::Number(y)) => {
                let x = if *x == 0.0 { 0.0f64 } else { *x };
                x.to_bits() == y.to_bits()
            }
            (Json::Array(xs), Json::Array(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| json_eq(x, y))
            }
            (Json::Object(xs), Json::Object(ys)) => {
                xs.len() == ys.len()
                    && xs.iter().zip(ys).all(|((k, x), (l, y))| k == l && json_eq(x, y))
            }
            _ => a == b,
        }
    }
}
