//! The workspace's shared mini-JSON module: a small recursive-descent
//! parser and a canonical serializer.
//!
//! The build environment has no serde; every component that speaks JSON
//! (the wire protocol, the cache and registry logs, the client)
//! goes through this module.
//!
//! Serialization is canonical: object members render in sorted key
//! order (a [`Json::Obj`] is a `BTreeMap`), numbers render in Rust's
//! shortest round-trip `Display` form, and strings escape exactly the
//! characters JSON requires. `parse_json(v.render()) == v` for every
//! finite-number value — the round-trip property the proptests in
//! `tests/json_prop.rs` pin down.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members kept in sorted key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as a usize, if this is a non-negative integral number
    /// in range. The bound is strict (`< usize::MAX as f64`): the
    /// rounded boundary value would otherwise saturate through `as`
    /// instead of being rejected, and on 32-bit targets anything above
    /// `usize::MAX` would silently truncate.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < usize::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value.
    ///
    /// # Panics
    ///
    /// JSON has no encoding for non-finite numbers; passing one is a
    /// caller bug, not a value.
    pub fn num(v: f64) -> Json {
        assert!(v.is_finite(), "JSON cannot represent {v}");
        Json::Num(v)
    }

    /// Renders the value as compact JSON (no whitespace), canonically:
    /// sorted object keys, shortest round-trip numbers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                debug_assert!(v.is_finite(), "JSON cannot represent {v}");
                // Rust's `Display` for f64 is the shortest decimal that
                // round-trips, and it never emits exponent notation or
                // a leading `.` — both valid JSON.
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => render_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(out: &mut String, s: &str) {
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

/// Maximum container nesting the parser accepts. The parser (and the
/// typed decoders layered on it) recurse per level; without a bound, a
/// network peer could crash the daemon's connection thread — and with
/// it the process — by sending one line of a few hundred thousand
/// `[`s. 128 levels is far beyond any legitimate wire payload.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    /// Reads four hex digits (the payload of a `\u` escape).
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.hex4()?;
                            // Non-BMP characters arrive as UTF-16
                            // surrogate pairs (e.g. Python's default
                            // ensure_ascii output): combine them;
                            // reject unpaired halves rather than
                            // silently mangling the string.
                            let ch = match hex {
                                0xD800..=0xDBFF => {
                                    if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                        return Err(self.err("unpaired high surrogate"));
                                    }
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(self.err("unpaired high surrogate"));
                                    }
                                    let code = 0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("bad surrogate pair"))?
                                }
                                0xDC00..=0xDFFF => return Err(self.err("unpaired low surrogate")),
                                _ => char::from_u32(hex).expect("BMP non-surrogate"), // lint: infallible
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 code point.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest.chars().next().ok_or_else(|| self.err("eof"))?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.enter()?;
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.enter()?;
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5e2, "x\nyA"], "b": {"c": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\nyA")
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Null));
        assert!(parse_json("{\"unterminated\": ").is_err());
        assert!(parse_json("[1, 2] garbage").is_err());
    }

    #[test]
    fn renderer_is_canonical_and_roundtrips() {
        let v = Json::obj([
            ("zeta", Json::num(2.0)),
            ("alpha", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("s", Json::str("a\"b\\c\nd\u{1}")),
        ]);
        let text = v.render();
        // Sorted keys, compact form.
        assert_eq!(
            text,
            "{\"alpha\":[null,true],\"s\":\"a\\\"b\\\\c\\nd\\u0001\",\"zeta\":2}"
        );
        assert_eq!(parse_json(&text).unwrap(), v);
    }

    #[test]
    fn number_rendering_roundtrips_bits() {
        for v in [
            0.0,
            -0.0,
            1.0,
            2.5,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.23456789e-300,
        ] {
            let text = Json::Num(v).render();
            let back = parse_json(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {text} -> {back}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // 128 levels parse; 129 do not; half a million neither parse
        // nor overflow the stack.
        let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&deep(128)).is_ok());
        assert!(parse_json(&deep(129)).is_err());
        assert!(parse_json(&"[".repeat(500_000)).is_err());
        let objs = format!("{}1{}", "{\"k\":".repeat(129), "}".repeat(129));
        assert!(parse_json(&objs).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_and_unpaired_halves_error() {
        // U+1D6FC MATHEMATICAL ITALIC SMALL ALPHA as a UTF-16 pair —
        // what Python's json.dumps (ensure_ascii=True) emits.
        let v = parse_json("\"\\ud835\\udefc\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1D6FC}"));
        // Unpaired halves are protocol errors, not U+FFFD mangling.
        assert!(parse_json("\"\\ud835\"").is_err());
        assert!(parse_json("\"\\ud835x\"").is_err());
        assert!(parse_json("\"\\udefc\"").is_err());
        assert!(parse_json("\"\\ud835\\u0041\"").is_err());
        // Non-BMP characters render raw (UTF-8) and round-trip.
        let v = Json::str("x\u{1D6FC}y");
        assert_eq!(parse_json(&v.render()).unwrap(), v);
    }

    #[test]
    fn as_usize_rejects_fractions_negatives_and_saturating_bounds() {
        assert_eq!(Json::Num(3.0).as_usize(), Some(3));
        assert_eq!(Json::Num(3.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
        assert_eq!(Json::Str("3".into()).as_usize(), None);
        // The rounded usize::MAX boundary is rejected, not saturated.
        assert_eq!(Json::Num(usize::MAX as f64).as_usize(), None);
        assert_eq!(Json::Num(u64::MAX as f64).as_usize(), None);
    }
}
