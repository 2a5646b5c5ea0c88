//! A minimal JSON document builder.
//!
//! The workspace builds offline with no registry access, so instead of
//! `serde_json` we carry the ~hundred lines of JSON we actually need:
//! building a document from owned values and serializing it with correct
//! string escaping. Output is deterministic (object keys keep insertion
//! order) so `BENCH_*.json` files diff cleanly across runs.

use std::fmt;

/// An owned JSON value.
///
/// # Examples
///
/// ```
/// use bbb_runner::Json;
/// let doc = Json::obj([
///     ("name", Json::from("fig7")),
///     ("points", Json::from(21u64)),
///     ("ratios", Json::arr([1.0, 0.5].map(Json::from))),
/// ]);
/// assert_eq!(
///     doc.to_string(),
///     r#"{"name":"fig7","points":21,"ratios":[1,0.5]}"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the common case for counters).
    UInt(u64),
    /// A float; non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Parses a JSON document.
    ///
    /// Accepts everything the [`Display`](fmt::Display) serializer emits
    /// (and standard JSON beyond it: `\/`, `\b`, `\f`, surrogate-pair
    /// escapes, exponent-form numbers). Integer literals without sign,
    /// fraction, or exponent that fit in `u64` become [`Json::UInt`];
    /// everything else numeric becomes [`Json::Num`]. Serializing a parsed
    /// value reproduces the input byte-for-byte for serializer-produced
    /// documents.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the byte offset and what went wrong,
    /// including for arrays and objects nested more than 128 deep.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after document"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object; `None` for other variants or a missing
    /// key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array; `None` for other variants.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents; `None` for other variants.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value of a `UInt` or `Num`; `None` for other variants.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(n) => Some(n as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The integer value of a `UInt`; `None` for other variants.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(n) => Some(n),
            _ => None,
        }
    }
}

/// A parse failure: what was expected and the byte offset where the input
/// stopped making sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// How deeply [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, so an unbounded depth would let a short
/// hostile input (`[[[[…`) overflow the stack; committed documents nest
/// fewer than ten levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The unescaped stretch is valid UTF-8 because the input is.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("input str"));
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, ParseError> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 1;
                    self.expect(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("unpaired surrogate"))?
                }
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit in \\u escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let integral_end = self.pos;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if self.pos == integral_end && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
            message: format!("invalid number '{text}'"),
            offset: start,
        })
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::UInt(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::UInt(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from(1.5).to_string(), "1.5");
        assert_eq!(Json::from("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn nested_structures() {
        let doc = Json::obj([
            ("a", Json::arr([Json::from(1u64), Json::Null])),
            ("b", Json::obj([("c", Json::from("x"))])),
        ]);
        assert_eq!(doc.to_string(), r#"{"a":[1,null],"b":{"c":"x"}}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::arr([]).to_string(), "[]");
        assert_eq!(Json::obj::<String, _>([]).to_string(), "{}");
    }

    #[test]
    fn object_keys_keep_insertion_order() {
        let doc = Json::obj([("z", Json::Null), ("a", Json::Null)]);
        assert_eq!(doc.to_string(), r#"{"z":null,"a":null}"#);
    }

    /// Serialize → parse → serialize must be the identity on serializer
    /// output (the property the parity gate's reader relies on).
    fn assert_round_trips(doc: &Json) {
        let text = doc.to_string();
        let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("parse {text:?}: {e}"));
        assert_eq!(parsed.to_string(), text, "round trip of {text:?}");
    }

    #[test]
    fn round_trip_scalars() {
        for doc in [
            Json::Null,
            Json::from(true),
            Json::from(false),
            Json::from(0u64),
            Json::from(u64::MAX),
            Json::from(42u64),
            Json::Num(1.5),
            Json::Num(-0.25),
            Json::Num(2.155_759_648),
            Json::Num(29_049.156_782_435_515),
            Json::Num(1e300),
            Json::Num(-1e-300),
            Json::from("plain"),
            Json::from(""),
        ] {
            assert_round_trips(&doc);
        }
    }

    #[test]
    fn round_trip_every_escape_class() {
        // Each class the serializer emits: quote, backslash, the named
        // control escapes, and the \u00xx fallback for other controls.
        let mut s = String::from("q\"b\\n\nr\rt\t");
        for c in 0u32..0x20 {
            s.push(char::from_u32(c).unwrap());
        }
        s.push_str("héllo ünïcode 🚀");
        assert_round_trips(&Json::from(s.as_str()));
        let parsed = Json::parse(&Json::from(s.as_str()).to_string()).unwrap();
        assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    #[test]
    fn round_trip_nested_document() {
        let doc = Json::obj([
            ("name", Json::from("fig7")),
            (
                "meta",
                Json::obj([
                    ("scale", Json::from("default")),
                    ("initial", Json::from(400_000u64)),
                    ("wall_seconds", Json::Num(2.155_759_648)),
                ]),
            ),
            (
                "tables",
                Json::arr([Json::obj([
                    ("title", Json::from("Fig. 7(a)")),
                    ("header", Json::arr([Json::from("Workload")])),
                    (
                        "rows",
                        Json::arr([Json::arr([Json::from("rtree"), Json::from("1.000")])]),
                    ),
                ])]),
            ),
            ("notes", Json::arr([])),
            ("empty_obj", Json::obj::<String, _>([])),
            ("nothing", Json::Null),
        ]);
        assert_round_trips(&doc);
    }

    #[test]
    fn parse_accepts_standard_json_beyond_serializer_output() {
        // Whitespace, \/ \b \f escapes, surrogate pairs, exponents.
        let doc =
            Json::parse(" { \"a\\/b\" : [ 1 , -2.5e1 , \"\\ud83d\\ude00\\b\\f\" ] } \n").unwrap();
        let items = doc.get("a/b").unwrap().as_arr().unwrap();
        assert_eq!(items[0], Json::UInt(1));
        assert_eq!(items[1], Json::Num(-25.0));
        assert_eq!(items[2].as_str(), Some("\u{1F600}\u{8}\u{c}"));
    }

    #[test]
    fn integer_literals_parse_as_uint_and_others_as_num() {
        assert_eq!(Json::parse("7").unwrap(), Json::UInt(7));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        // Too big for u64: falls back to f64.
        assert!(matches!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Num(_)
        ));
        assert_eq!(Json::parse("-7").unwrap(), Json::Num(-7.0));
        assert_eq!(Json::parse("7.0").unwrap(), Json::Num(7.0));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "nul",
            "truefalse",
            "1 2",
            "01x",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        // Far past the bound, unclosed, and through objects too: an error,
        // never a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(200_000)).is_err());
    }

    /// Feeds `parse` random bytes, and truncations and single-byte
    /// mutations of serializer-produced documents. Every input must come
    /// back as `Ok` or `Err`; a panic or stack overflow fails the test.
    #[test]
    fn parse_returns_on_hostile_input() {
        use bbb_sim::SplitMix64;
        const ALPHABET: &[u8] = b"[]{}:,\"\\ -+.0123456789eEtrufalsn\\u/bfnrt\tx";
        let mut rng = SplitMix64::new(0x4A50_4E5F_F022);
        let seed_doc = Json::obj([
            ("name", Json::from("crashfuzz")),
            ("meta", Json::obj([("seed", Json::from(196_828_909u64))])),
            (
                "tables",
                Json::arr([Json::obj([
                    ("title", Json::from("Crash-point sweep \u{1F50B} \"q\"\n")),
                    (
                        "rows",
                        Json::arr([Json::arr([Json::Num(-0.25e-3), Json::Null])]),
                    ),
                    ("ok", Json::from(true)),
                ])]),
            ),
        ])
        .to_string();
        // The result itself is unconstrained; returning is the contract.
        let check = |text: &str| drop(Json::parse(text));
        for _ in 0..2_000 {
            let len = rng.next_index(64);
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            check(&String::from_utf8_lossy(&bytes));
            let tokens: Vec<u8> = (0..len)
                .map(|_| ALPHABET[rng.next_index(ALPHABET.len())])
                .collect();
            check(&String::from_utf8_lossy(&tokens));
        }
        let doc = seed_doc.as_bytes();
        for cut in 0..=doc.len() {
            check(&String::from_utf8_lossy(&doc[..cut]));
        }
        for _ in 0..4_000 {
            let mut mutated = doc.to_vec();
            let at = rng.next_index(mutated.len());
            mutated[at] = if rng.chance(1, 2) {
                ALPHABET[rng.next_index(ALPHABET.len())]
            } else {
                rng.next_u64() as u8
            };
            check(&String::from_utf8_lossy(&mutated));
        }
        assert!(Json::parse(&seed_doc).is_ok());
    }

    #[test]
    fn surrogate_escapes_reject_every_torn_pair_shape() {
        // A high surrogate must be immediately followed by a \uXXXX low
        // surrogate; every other continuation is a parse error, including
        // the EOF-adjacent shapes where the decoder runs out of input
        // mid-pair.
        for bad in [
            "\"\\ud800",          // lone high surrogate, then EOF
            "\"\\ud800\"",        // lone high surrogate, then closing quote
            "\"\\ud800x\"",       // followed by a plain character
            "\"\\ud800\\t\"",     // followed by a non-\u escape
            "\"\\ud800\\",        // backslash then EOF
            "\"\\ud800\\u",       // \u then EOF
            "\"\\ud800\\u12\"",   // low half truncated mid-hex
            "\"\\ud800\\ud801\"", // followed by another high surrogate
            "\"\\udc00\"",        // lone low surrogate
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Valid pairs at the astral-plane boundaries still decode.
        let ok = Json::parse("\"\\ud800\\udc00 \\udbff\\udfff\"").unwrap();
        assert_eq!(ok.as_str(), Some("\u{10000} \u{10FFFF}"));
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let doc = Json::parse(r#"{"meta":{"scale":"smoke","threads":4},"xs":[1,2.5]}"#).unwrap();
        assert_eq!(
            doc.get("meta")
                .and_then(|m| m.get("scale"))
                .and_then(Json::as_str),
            Some("smoke")
        );
        assert_eq!(
            doc.get("meta")
                .and_then(|m| m.get("threads"))
                .and_then(Json::as_u64),
            Some(4)
        );
        let xs = doc.get("xs").unwrap().as_arr().unwrap();
        assert_eq!(xs[0].as_f64(), Some(1.0));
        assert_eq!(xs[1].as_f64(), Some(2.5));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
        assert_eq!(Json::Null.as_f64(), None);
    }
}
