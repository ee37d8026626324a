//! Hand-rolled JSON value: recursive-descent parser and encoder.
//!
//! The vendor tree has no serde, so this one module is the workspace's
//! JSON: the `--trace-out` JSONL records are built as [`Json`] values and
//! read back by [`TraceReport`](crate::TraceReport) through
//! [`Json::parse`], the placement daemon parses request bodies and
//! renders replies with it, and the bench emitters write and re-read
//! their `BENCH_*.json` rows with it. The parser is small and strict,
//! over a byte slice with a bounded nesting depth. Objects preserve
//! insertion order (a `Vec` of pairs) so encode output is deterministic.
//!
//! Both directions allocate only what the tree owns: the parser copies a
//! string a run at a time (one allocation when it has no escapes) and
//! sizes an object's pair list up front; the encoder writes into one
//! pre-sized `String`, integers without the `fmt` machinery.

use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`Json::parse`]. Request bodies are
/// flat objects (one level of arrays for batches), so 32 is generous
/// while keeping the recursive parser stack-safe on hostile input.
const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl Json {
    /// Parses a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
        let mut p = Parser { input, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.input.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }

    /// Member lookup on an object; `None` on missing key or non-object.
    #[inline]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact non-negative integer (rejects fractions and
    /// anything from 2^53 up: the texts `9007199254740992` and
    /// `9007199254740993` both parse to 2^53, so 2^53 − 1 is the largest
    /// integer a number stands for alone).
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    #[inline]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[inline]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value; non-finite numbers encode as `null` (they
    /// never round-trip through JSON anyway, and the daemon does not
    /// produce them).
    pub fn encode(&self) -> String {
        // Every single-op reply fits; a batch reply grows from here.
        let mut out = String::with_capacity(128);
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
                    let int = *n as i64;
                    if int < 0 {
                        out.push('-');
                    }
                    out.push_str(decimal(int.unsigned_abs(), &mut [0u8; 20]));
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// The decimal digits of `n`, written from the back of `buf`.
#[inline]
pub fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

/// Writes `s` as a JSON string literal with the mandatory escapes,
/// copying the stretches between them whole.
pub fn encode_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.input.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, lit: &[u8], v: Json) -> Result<Json, JsonError> {
        if self.input[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.expect_literal(b"null", Json::Null),
            Some(b't') => self.expect_literal(b"true", Json::Bool(true)),
            Some(b'f') => self.expect_literal(b"false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']' in array"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // consume '{'
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(Vec::new()));
        }
        // An admit body has six members: one allocation, not three.
        let mut pairs = Vec::with_capacity(8);
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key in object"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.skip_ws();
            let v = self.value(depth + 1)?;
            pairs.push((key, v));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}' in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            match std::str::from_utf8(&self.input[start..self.pos]) {
                Ok(run) => out.push_str(run),
                Err(e) => {
                    self.pos = start + e.valid_up_to();
                    return Err(self.err("invalid UTF-8 in string"));
                }
            }
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
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
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require a trailing \uXXXX.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.input.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // Digit by digit: `from_str_radix` would take a sign.
        let mut v = 0;
        for &b in &self.input[self.pos..end] {
            let digit = (b as char).to_digit(16);
            v = v * 16 + digit.ok_or_else(|| self.err("non-hex \\u escape"))?;
        }
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        // Integer part: 0 | [1-9][0-9]*
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.eat(b'.') {
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after decimal point"));
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
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii number");
        let n: f64 = text.parse().map_err(|_| self.err("number out of range"))?;
        if !n.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(n))
    }
}

/// Convenience builder for an object literal.
#[inline]
pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn parses_flat_object() {
        let v = Json::parse(br#"{"id": 7, "p_on": 0.01, "name": "vm-7", "ok": true}"#).unwrap();
        assert_eq!(v.get("id").unwrap().as_usize(), Some(7));
        assert_eq!(v.get("p_on").unwrap().as_f64(), Some(0.01));
        assert_eq!(v.get("name").unwrap().as_str(), Some("vm-7"));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn round_trips_nested_values() {
        let src = br#"{"vms":[{"id":1,"r_b":2.5},{"id":2,"r_b":3.0}],"seq":0,"tag":null}"#;
        let v = Json::parse(src).unwrap();
        let encoded = v.encode();
        assert_eq!(Json::parse(encoded.as_bytes()).unwrap(), v);
        assert_eq!(v.get("vms").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            &b"{"[..],
            b"{\"a\":}",
            b"[1,2,",
            b"{\"a\":1} trailing",
            b"01",
            b"1.",
            b"\"unterminated",
            b"{'a':1}",
            b"nul",
            b"{\"a\":\x01\"x\"}",
            b"\"\\u+041\"",
            b"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {:?}", bad);
        }
    }

    #[test]
    fn rejects_fractional_and_negative_ids() {
        assert_eq!(Json::parse(b"1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse(b"-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse(b"12").unwrap().as_u64(), Some(12));
        let max = Json::parse(b"9007199254740991").unwrap();
        assert_eq!(max.as_u64(), Some((1 << 53) - 1));
        assert_eq!(Json::parse(b"9007199254740992").unwrap().as_u64(), None);
        assert_eq!(Json::parse(b"9007199254740993").unwrap().as_u64(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\u{1}\u{1F600}".to_string());
        let enc = v.encode();
        assert_eq!(Json::parse(enc.as_bytes()).unwrap(), v);
        // Surrogate-pair escapes decode too.
        let v2 = Json::parse("\"😀\"".as_bytes()).unwrap();
        assert_eq!(v2.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn depth_limit_is_enforced() {
        let nested = |depth: usize| format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(nested(MAX_DEPTH).as_bytes()).is_ok());
        assert!(Json::parse(nested(MAX_DEPTH + 1).as_bytes()).is_err());
        assert!(Json::parse(nested(100).as_bytes()).is_err());
    }

    /// A tree exactly `depth` containers deep: a spine to the bottom
    /// with shallower siblings hanging off it.
    fn tree(rng: &mut StdRng, depth: usize) -> Json {
        if depth == 0 {
            return match rng.gen_range(0..6) {
                0 => Json::Null,
                1 => Json::Bool(rng.gen_bool(0.5)),
                2 => Json::Num(rng.gen_range(-1000i64..1000) as f64),
                3 => Json::Num(rng.gen_range(-1e6..1e6)),
                4 => Json::Num(
                    Some(f64::from_bits(rng.next_u64()))
                        .filter(|n| n.is_finite())
                        .unwrap_or(0.5),
                ),
                _ => Json::Str(string(rng)),
            };
        }
        let mut members = vec![tree(rng, depth - 1)];
        for _ in 0..[0, 0, 1, 2, 11][rng.gen_range(0..5)] {
            let shallower = rng.gen_range(0..depth.min(3));
            members.push(tree(rng, shallower));
        }
        if rng.gen_bool(0.5) {
            Json::Arr(members)
        } else {
            Json::Obj(members.into_iter().map(|v| (string(rng), v)).collect())
        }
    }

    fn string(rng: &mut StdRng) -> String {
        let pool = [
            "a",
            "id",
            " ",
            "\"",
            "\\",
            "/",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{1f}",
            "\u{7f}",
            "\u{e9}",
            "\u{2028}",
            "\u{1F600}",
            "\u{10FFFF}",
        ];
        (0..rng.gen_range(0..12))
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn generated_trees_round_trip(seed in 0u64..u64::MAX, depth in 0usize..=MAX_DEPTH) {
            let mut rng = StdRng::seed_from_u64(seed);
            let v = tree(&mut rng, depth);
            let text = v.encode();
            prop_assert_eq!(Json::parse(text.as_bytes()), Ok(v), "through {}", text);
            let too_deep = tree(&mut rng, MAX_DEPTH + 1).encode();
            prop_assert!(Json::parse(too_deep.as_bytes()).is_err());
        }

        #[test]
        fn escaped_utf16_units_decode_to_the_string(seed in 0u64..u64::MAX) {
            let s = string(&mut StdRng::seed_from_u64(seed));
            let units: String = s.encode_utf16().map(|u| format!("\\u{u:04X}")).collect();
            prop_assert_eq!(Json::parse(format!("\"{units}\"").as_bytes()), Ok(Json::Str(s)));
        }

        #[test]
        fn arbitrary_bytes_never_panic(
            data in proptest::collection::vec(0u8..=255, 0..120),
            // Indices into a JSON-shaped alphabet: gets past the first byte.
            shaped in proptest::collection::vec(0usize..64, 0..120),
        ) {
            let alphabet = b"{}[]\":,\\u0123dDeE+-. \ntruefalsn\xc3\xa9\xed\xa0\x80\xff\x00";
            let shaped: Vec<u8> = shaped.iter().map(|&i| alphabet[i % alphabet.len()]).collect();
            for input in [data, shaped] {
                if let Ok(v) = Json::parse(&input) {
                    prop_assert_eq!(Json::parse(v.encode().as_bytes()), Ok(v));
                }
            }
        }

        #[test]
        fn mutated_documents_never_panic(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut text = tree(&mut rng, 6).encode().into_bytes();
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..text.len());
                match rng.gen_range(0..3) {
                    0 => text[at] ^= 1 << rng.gen_range(0..8),
                    1 => text.insert(at, text[at]),
                    _ => drop(text.remove(at)),
                }
                if text.is_empty() {
                    break;
                }
            }
            if let Ok(v) = Json::parse(&text) {
                prop_assert_eq!(Json::parse(v.encode().as_bytes()), Ok(v));
            }
        }
    }
}
