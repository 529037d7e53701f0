//! A minimal JSON reader for the framework's own artifacts.
//!
//! The workspace is dependency-free, yet two subsystems need to *read*
//! JSON the framework itself wrote: the perf-regression gate
//! (`bench --regress`) parses the committed `results/BENCH_*.json`
//! baselines, and the telemetry exporter tests structurally validate
//! `trace.json` / `metrics.jsonl`. This is a straightforward recursive-
//! descent parser for RFC 8259 JSON — numbers land in `f64`, which is
//! exact for every integer the benchmark reports emit (< 2^53).
//!
//! [`render`] / [`render_pretty`] are the writer twins of the parser:
//! artifacts built as [`Json`] values serialize through them (object keys
//! come out sorted — the `BTreeMap` order), and `parse(render(v)) == v`
//! for every value without non-finite numbers. Exporters that still emit
//! JSON by hand are checked by the parser side.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (`BTreeMap`), which is fine for the
    /// framework's artifacts: none of them rely on duplicate or ordered
    /// keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// An empty object (builder entry point; see [`Json::set`]).
    pub fn obj() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// Inserts `key` into an object, builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(m) => {
                m.insert(key.to_string(), value.into());
            }
            _ => panic!("set() on a non-object"),
        }
        self
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
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

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Serializes a value compactly (no whitespace). Object keys come out in
/// `BTreeMap` (sorted) order; `parse(render(v)) == v` holds for every
/// value this can serialize.
///
/// # Panics
///
/// Panics on a non-finite number — JSON has no encoding for NaN or
/// infinity, and silently writing `null` would corrupt the regression
/// baselines this writer exists for.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    out
}

/// Serializes a value with newlines and two-space indentation — the
/// committed-artifact format (diffs stay reviewable).
pub fn render_pretty(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &Json, indent: Option<usize>, depth: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Num(n) => write_number(out, *n),
        Json::Str(s) => write_string(out, s),
        Json::Arr(v) => write_seq(out, v.iter(), indent, depth, ('[', ']'), |out, item, d| {
            write_value(out, item, indent, d)
        }),
        Json::Obj(m) => write_seq(out, m.iter(), indent, depth, ('{', '}'), |out, (k, v), d| {
            write_string(out, k);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(out, v, indent, d);
        }),
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    items: I,
    indent: Option<usize>,
    depth: usize,
    brackets: (char, char),
    mut write_item: impl FnMut(&mut String, I::Item, usize),
) {
    out.push(brackets.0);
    let len = items.len();
    for (i, item) in items.enumerate() {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < len {
            out.push(',');
        }
    }
    if len > 0 {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * depth));
        }
    }
    out.push(brackets.1);
}

fn write_number(out: &mut String, n: f64) {
    assert!(n.is_finite(), "JSON cannot encode {n}");
    if n == n.trunc() && n.abs() < 9.0e15 {
        // Integral values print without a fraction — exact below 2^53.
        out.push_str(&format!("{}", n as i64));
    } else {
        // Rust's f64 Display is the shortest round-tripping decimal.
        out.push_str(&format!("{n}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser { src: input, b: input.as_bytes(), i: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError { msg: msg.to_string(), at: self.i }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value()?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.i += 1;
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
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.eat(b'\\', "expected low surrogate")?;
                                self.eat(b'u', "expected low surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid codepoint"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control char in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar: `i` only ever advances by
                    // whole scalars, so it sits on a char boundary.
                    let c = self.src[self.i..].chars().next().expect("non-empty");
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.i + 4 > self.b.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.b[self.i..self.i + 4])
            .map_err(|_| self.err("non-UTF8 in \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad hex in \\u escape"))?;
        self.i += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.i += 1;
            }
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).expect("digits are ASCII");
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn escapes_resolve() {
        let v = parse(r#""a\"b\\c\nd\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c\ndA😀");
    }

    #[test]
    fn nested_structure() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": {"d": false}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].get("b"),
            Some(&Json::Null)
        );
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "\"\\x\"", "01x", "1 2",
            "{\"a\":1,}", "[1,]", "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn integers_are_exact() {
        let v = parse("9007199254740992").unwrap(); // 2^53
        assert_eq!(v.as_f64().unwrap(), 9007199254740992.0);
    }

    #[test]
    fn render_roundtrips_through_parse() {
        let v = Json::obj()
            .set("bench", "served engine")
            .set("iters", 3u64)
            .set("ratio", 1.25)
            .set("neg", -17i64)
            .set("flag", true)
            .set("nothing", Json::Null)
            .set(
                "algorithms",
                vec![
                    Json::obj().set("name", "snappy").set("speedup", 2.249),
                    Json::obj().set("name", "zstd").set("speedup", 1.01),
                ],
            );
        for rendered in [render(&v), render_pretty(&v)] {
            assert_eq!(parse(&rendered).unwrap(), v, "{rendered}");
        }
        assert!(render_pretty(&v).ends_with('\n'));
        assert!(!render(&v).contains('\n'));
    }

    #[test]
    fn render_escapes_and_sorts_keys() {
        let v = Json::obj()
            .set("z", 1u64)
            .set("a", "line\nbreak \"quoted\" \\slash\u{1}");
        let s = render(&v);
        assert!(s.find("\"a\"").unwrap() < s.find("\"z\"").unwrap(), "sorted keys: {s}");
        assert!(s.contains(r#"\n"#) && s.contains(r#"\""#) && s.contains(r#"\\"#));
        assert!(s.contains(r#"\u0001"#));
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn render_numbers_stay_exact() {
        // Integers print without fractions; floats round-trip shortest.
        assert_eq!(render(&Json::Num(9007199254740992.0)), "9007199254740992");
        assert_eq!(render(&Json::Num(0.1)), "0.1");
        assert_eq!(render(&Json::Num(-3.0)), "-3");
        let v = parse(&render(&Json::Num(1.213))).unwrap();
        assert_eq!(v.as_f64(), Some(1.213));
    }

    #[test]
    #[should_panic(expected = "JSON cannot encode")]
    fn render_rejects_non_finite() {
        render(&Json::Num(f64::NAN));
    }

    #[test]
    fn empty_containers_render_compactly() {
        assert_eq!(render(&Json::obj()), "{}");
        assert_eq!(render(&Json::Arr(vec![])), "[]");
        assert_eq!(render_pretty(&Json::obj()), "{}\n");
    }

    #[test]
    fn parses_own_bench_shape() {
        // The shape `bench --kernels` emits.
        let doc = r#"{
          "bench": "cdpu kernel microbenchmarks",
          "iters": 3,
          "algorithms": [
            {"name": "snappy", "parse_speedup": 1.213, "profile_speedup": 2.249}
          ],
          "min_profile_speedup": 1.769
        }"#;
        let v = parse(doc).unwrap();
        let algos = v.get("algorithms").unwrap().as_arr().unwrap();
        assert_eq!(algos[0].get("name").unwrap().as_str(), Some("snappy"));
        assert!(
            (algos[0].get("profile_speedup").unwrap().as_f64().unwrap() - 2.249).abs() < 1e-9
        );
    }
}
