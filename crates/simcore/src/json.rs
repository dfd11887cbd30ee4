//! Minimal deterministic JSON emission.
//!
//! The workspace depends on no crate outside the repository, so
//! machine-readable reports — the at-scale sweep report, for one —
//! are emitted through this small value tree. Rendering is fully
//! deterministic: object keys keep insertion order and floats use Rust's
//! shortest-roundtrip formatting, so a fixed-seed report is byte-for-byte
//! reproducible across runs.
//!
//! The module also provides a small recursive-descent [`JsonValue::parse`] so
//! JSON can be read back: the repository benchmark reads `BENCHMARK.json`
//! and its child runs' results, spans included, with it. Numbers roundtrip
//! losslessly — floats use shortest-roundtrip formatting on the way out and
//! `str::parse::<f64>` on the way back in, both of which are exact — but the
//! *variant* is not preserved for whole-valued floats: `Float(12.0)` renders
//! as `12` (JSON has one number type) and parses back as `UInt(12)`. Compare
//! parsed values against parsed values, or numerically via
//! [`JsonValue::as_f64`], not against hand-built trees.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A finite float. Non-finite values render as `null` (JSON has no NaN).
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object; keys keep insertion order for reproducible output.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object, to be filled with [`JsonValue::push`].
    pub fn object() -> Self {
        JsonValue::Object(Vec::new())
    }

    /// Appends a key/value pair to an object.
    ///
    /// # Panics
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        match self {
            JsonValue::Object(pairs) => pairs.push((key.into(), value.into())),
            other => panic!("push on non-object JSON value {other:?}"),
        }
        self
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a JSON document.
    ///
    /// Accepts standard JSON with arbitrary whitespace. Numerals without a
    /// fraction or exponent parse to [`JsonValue::UInt`]/[`JsonValue::Int`];
    /// everything else numeric parses to [`JsonValue::Float`]. Values
    /// rendered by [`JsonValue::render`] parse back numerically lossless,
    /// but not always variant-identical: a whole-valued `Float` renders
    /// without a decimal point and parses back as an integer, and non-finite
    /// floats render as `null`. See the module docs for the comparison
    /// guidance. A document nesting arrays and objects more than 128 deep is
    /// rejected with an error.
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut parser = Parser {
            input,
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != input.len() {
            return Err(parser.error("trailing characters after document"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, converting integers; `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an unsigned integer; `None` for anything else.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a string slice; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The value as an array slice; `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Float(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where the failure was detected.
    pub offset: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonParseError {}

/// How many arrays and objects [`JsonValue::parse`] lets nest inside one
/// another. The parser recurses once per level, so an unbounded input could
/// exhaust the stack; the deepest document the repository writes or reads
/// nests 4 levels.
const MAX_DEPTH: usize = 128;

/// A recursive-descent reader over `input`. `pos` only ever advances over
/// whole characters, so it always sits on a character boundary.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Parses an array or object one level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonParseError>,
    ) -> Result<JsonValue, JsonParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .input
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a leading `+`.
                            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                                return Err(self.error("invalid \\u escape"));
                            }
                            let code = u32::from_str_radix(hex, 16)
                                .expect("four hex digits parse as a u32");
                            // Reports only emit BMP scalars; surrogate pairs
                            // are out of scope for this reader.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of characters up to the next quote or
                    // escape in one step.
                    let rest = &self.input[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.input[start..self.pos];
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonParseError {
                message: format!("invalid number '{text}'"),
                offset: start,
            })
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<i64> for JsonValue {
    fn from(i: i64) -> Self {
        JsonValue::Int(i)
    }
}

impl From<u64> for JsonValue {
    fn from(u: u64) -> Self {
        JsonValue::UInt(u)
    }
}

impl From<u32> for JsonValue {
    fn from(u: u32) -> Self {
        JsonValue::UInt(u64::from(u))
    }
}

impl From<usize> for JsonValue {
    fn from(u: usize) -> Self {
        JsonValue::UInt(u as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Float(x)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::Str(s)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::from(true).render(), "true");
        assert_eq!(JsonValue::from(42u64).render(), "42");
        assert_eq!(JsonValue::from(-7i64).render(), "-7");
        assert_eq!(JsonValue::from(1.5).render(), "1.5");
        assert_eq!(JsonValue::Float(f64::NAN).render(), "null");
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(JsonValue::from("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(JsonValue::from("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn objects_preserve_insertion_order() {
        let mut obj = JsonValue::object();
        obj.push("zulu", 1u64).push("alpha", 2u64);
        assert_eq!(obj.render(), r#"{"zulu":1,"alpha":2}"#);
    }

    #[test]
    fn arrays_nest() {
        let v = JsonValue::from(vec![1.0, 2.5]);
        assert_eq!(v.render(), "[1,2.5]");
    }

    #[test]
    fn rendering_is_deterministic() {
        let mut obj = JsonValue::object();
        obj.push("xs", vec![0.1, 0.2, 0.30000000000000004]);
        assert_eq!(obj.render(), obj.render());
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null"), Ok(JsonValue::Null));
        assert_eq!(JsonValue::parse(" true "), Ok(JsonValue::Bool(true)));
        assert_eq!(JsonValue::parse("false"), Ok(JsonValue::Bool(false)));
        assert_eq!(JsonValue::parse("42"), Ok(JsonValue::UInt(42)));
        assert_eq!(JsonValue::parse("-7"), Ok(JsonValue::Int(-7)));
        assert_eq!(JsonValue::parse("1.5"), Ok(JsonValue::Float(1.5)));
        assert_eq!(JsonValue::parse("2e3"), Ok(JsonValue::Float(2000.0)));
        assert_eq!(
            JsonValue::parse(r#""a\"b\\c\nd""#),
            Ok(JsonValue::from("a\"b\\c\nd"))
        );
        assert_eq!(JsonValue::parse("\"\\u0041\""), Ok(JsonValue::from("A")));
    }

    #[test]
    fn parses_nested_structures() {
        let parsed = JsonValue::parse(r#"{"a":[1,2.5,{"b":null}],"c":"x"}"#).expect("valid");
        assert_eq!(parsed.get("c").and_then(JsonValue::as_str), Some("x"));
        let items = parsed
            .get("a")
            .and_then(JsonValue::as_array)
            .expect("array");
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(items[2].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "tru", "{\"a\"}", "{\"a\":}", "1 2", "nul", "\"abc", "[1 2]",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must be rejected");
        }
        let err = JsonValue::parse("[1,]").expect_err("dangling comma");
        assert!(!err.to_string().is_empty());
        let err = JsonValue::parse(r#""\u+041""#).expect_err("a sign is not a hex digit");
        assert_eq!(err.message, "invalid \\u escape");
        assert_eq!(JsonValue::parse(r#""\u0041""#), Ok(JsonValue::from("A")));
    }

    #[test]
    fn nesting_is_capped_at_128_levels() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(JsonValue::parse(&arrays(128)).is_ok());
        assert!(JsonValue::parse(&objects(128)).is_ok());
        let err = JsonValue::parse(&arrays(129)).expect_err("129 levels");
        assert_eq!(err.offset, 128);
        assert!(JsonValue::parse(&objects(129)).is_err());
        // Far past what the recursion could survive: a typed error, not a
        // stack overflow.
        assert!(JsonValue::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn render_parse_roundtrips_exactly() {
        let mut obj = JsonValue::object();
        obj.push("name", "at-scale \"quick\" run");
        obj.push("mean", 176.9002399829629);
        obj.push("count", 18136u64);
        obj.push("delta", -3i64);
        obj.push("xs", vec![0.1, 0.30000000000000004]);
        obj.push("none", JsonValue::Null);
        let parsed = JsonValue::parse(&obj.render()).expect("rendered JSON parses");
        assert_eq!(parsed, obj);
        assert_eq!(parsed.render(), obj.render());
    }

    /// Strings parse in time linear in their length: a 1 MiB literal of
    /// ASCII, multi-byte characters and escapes parses back to its exact
    /// text well inside a second.
    #[test]
    fn a_one_mib_string_literal_parses_in_linear_time() {
        let unit = "plain ASCII, an \"escaped\" quote, caf\u{e9} and \u{1F600}\n";
        let text = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(text.len() >= 1 << 20);
        let document = JsonValue::Str(text.clone()).render();
        let start = std::time::Instant::now();
        let parsed = JsonValue::parse(&document).expect("a rendered string parses");
        let elapsed = start.elapsed();
        assert_eq!(parsed.as_str(), Some(text.as_str()));
        assert!(elapsed.as_secs_f64() < 1.0, "parsing took {elapsed:?}");
    }

    #[test]
    fn whole_valued_floats_parse_back_as_integers() {
        // The documented variant caveat: JSON has one number type, so a
        // whole-valued Float renders as "12" and comes back as UInt. The
        // value is numerically lossless either way.
        let whole = JsonValue::Float(12.0);
        assert_eq!(whole.render(), "12");
        let parsed = JsonValue::parse(&whole.render()).expect("parses");
        assert_eq!(parsed, JsonValue::UInt(12));
        assert_ne!(
            parsed, whole,
            "variant differs even though the value matches"
        );
        assert_eq!(parsed.as_f64(), whole.as_f64());
    }
}
