//! A minimal hand-rolled JSON value tree: parser, renderer and the
//! field helpers every codec in the workspace is written with.
//!
//! The workspace builds offline and the vendored `serde` stub carries
//! no serialisation machinery, so JSON is read and written by hand.
//! This module holds enough of RFC 8259 to round-trip the documents
//! the suite emits (trace files, run snapshots, checkpoints, metric
//! exports) through a typed tree: [`Json::parse`] reads, [`render`]
//! writes, and [`obj`] / [`ju`] / [`req_u64`] and friends build and
//! take apart one struct's worth of members.
//!
//! Numbers keep their integer identity: a token without `.`/`e` parses
//! as [`Json::Int`], so `u64`/`i64` fields survive a render → parse
//! round trip bit-for-bit instead of drowning in `f64`. Object members
//! preserve document order, which lets golden tests compare
//! field-for-field.

use crate::expo::write_json_string;
use std::fmt::Write as _;
use std::ops::Range;

/// Maximum nesting depth accepted before the parser bails — guards the
/// recursive descent against stack exhaustion on adversarial input.
const MAX_DEPTH: usize = 256;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional/exponent part that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (leading/trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        Self::parse_with_member_spans(text).map(|(v, _)| v)
    }

    /// [`Self::parse`], also returning the byte range of `text` that
    /// each member value of a top-level object occupies, in member
    /// order (empty for any other document). A reader that guards a
    /// member with a checksum hashes those bytes as they were written
    /// instead of rendering the parsed value again.
    ///
    /// # Errors
    ///
    /// As [`Self::parse`].
    pub fn parse_with_member_spans(text: &str) -> Result<(Json, Vec<Range<usize>>), String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            top_spans: Vec::new(),
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("byte {}: trailing data after document", p.pos));
        }
        Ok((v, p.top_spans))
    }

    /// Member lookup on an object (first match, document order).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i64` ([`Json::Int`] only).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64` (a non-negative [`Json::Int`]).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (either number form).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, in document order.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Is this `null`?
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Value byte ranges of the depth-0 object's members.
    top_spans: Vec<Range<usize>>,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
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
            Err(format!("byte {}: expected {:?}", self.pos, b as char))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("byte {}: nesting deeper than {MAX_DEPTH}", self.pos));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "byte {}: unexpected character {:?}",
                self.pos, other as char
            )),
            None => Err(format!("byte {}: unexpected end of input", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("byte {}: expected {word:?}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let start = self.pos;
            let v = self.value(depth + 1)?;
            if depth == 0 {
                self.top_spans.push(start..self.pos);
            }
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("byte {}: expected ',' or '}}'", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("byte {}: expected ',' or ']'", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("byte {}: truncated \\u escape", self.pos))?;
        let s = std::str::from_utf8(slice)
            .map_err(|_| format!("byte {}: non-ASCII \\u escape", self.pos))?;
        let v = u16::from_str_radix(s, 16)
            .map_err(|_| format!("byte {}: bad \\u escape {s:?}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(format!("byte {}: unterminated string", self.pos));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(format!("byte {}: truncated escape", self.pos));
                    };
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
                            let cp = if (0xD800..0xDC00).contains(&hi)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let lo = self.hex4()?;
                                0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo).wrapping_sub(0xDC00))
                            } else {
                                u32::from(hi)
                            };
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "byte {}: unknown escape \\{}",
                                self.pos - 1,
                                other as char
                            ))
                        }
                    }
                }
                _ => {
                    // Re-borrow the underlying UTF-8 for multi-byte
                    // characters instead of decoding by hand.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let slice = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| format!("byte {start}: truncated UTF-8 sequence"))?;
                    let s = std::str::from_utf8(slice)
                        .map_err(|_| format!("byte {start}: invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("byte {start}: invalid number"))?;
        if integral {
            if let Ok(v) = s.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        s.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("byte {start}: unparseable number {s:?}"))
    }
}

/// Byte length of the UTF-8 sequence starting with lead byte `b`.
fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Writes `v` out as compact JSON — the one renderer behind every
/// document the workspace writes. Integers and strings, which are
/// nearly all of a checkpoint or snapshot, are appended in place with
/// no `fmt` machinery and no temporary per value or key.
#[must_use]
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

/// Appends the decimal form of `i`, byte-identical to `format!("{i}")`.
fn write_int(out: &mut String, i: i64) {
    // 20 bytes hold u64::MAX; the sign is pushed separately.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = i.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if i < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => write_int(out, *i),
        Json::Float(f) => {
            let _ = write!(out, "{f}");
        }
        Json::Str(s) => write_json_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, k);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

// ---- building and taking apart one struct's members -------------------

/// A `u64` as a JSON integer (saturating at `i64::MAX`, the tree's
/// integer width).
#[must_use]
pub fn ju(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// A `usize` as a JSON integer.
#[must_use]
pub fn jus(v: usize) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// A string value.
#[must_use]
pub fn js(v: &str) -> Json {
    Json::Str(v.to_string())
}

/// An optional `u64`: `null` when absent.
#[must_use]
pub fn jopt(v: Option<u64>) -> Json {
    v.map_or(Json::Null, ju)
}

/// A mostly-zero counter array as `[index, count]` pairs, zeros left
/// out; [`req_sparse_u64`] reads it back.
#[must_use]
pub fn sparse_u64(cells: &[u64]) -> Json {
    let live = cells.iter().enumerate().filter(|(_, &c)| c > 0);
    Json::Arr(live.map(|(i, &c)| Json::Arr(vec![jus(i), ju(c)])).collect())
}

/// An object from `(key, value)` pairs, in the order given.
#[must_use]
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Member `key` of object `v`. `path` names `v` in error messages
/// (`$.payload.shards[1]`), as in every `req_*` helper below.
///
/// # Errors
///
/// The member is missing (or `v` is not an object).
pub fn req<'a>(v: &'a Json, key: &str, path: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("{path}: missing \"{key}\""))
}

/// Member `key` as a `u64`.
///
/// # Errors
///
/// Missing, or not a non-negative integer.
pub fn req_u64(v: &Json, key: &str, path: &str) -> Result<u64, String> {
    req(v, key, path)?
        .as_u64()
        .ok_or_else(|| format!("{path}: \"{key}\" is not a non-negative integer"))
}

/// Member `key` as a `usize`.
///
/// # Errors
///
/// Missing, not a non-negative integer, or too large for `usize`.
pub fn req_usize(v: &Json, key: &str, path: &str) -> Result<usize, String> {
    usize::try_from(req_u64(v, key, path)?)
        .map_err(|_| format!("{path}: \"{key}\" overflows usize"))
}

/// Member `key` as an `i64`.
///
/// # Errors
///
/// Missing, or not an integer.
pub fn req_i64(v: &Json, key: &str, path: &str) -> Result<i64, String> {
    req(v, key, path)?
        .as_i64()
        .ok_or_else(|| format!("{path}: \"{key}\" is not an integer"))
}

/// Member `key` as an owned string.
///
/// # Errors
///
/// Missing, or not a string.
pub fn req_str(v: &Json, key: &str, path: &str) -> Result<String, String> {
    Ok(req(v, key, path)?
        .as_str()
        .ok_or_else(|| format!("{path}: \"{key}\" is not a string"))?
        .to_string())
}

/// Member `key` as a `bool`.
///
/// # Errors
///
/// Missing, or not a boolean.
pub fn req_bool(v: &Json, key: &str, path: &str) -> Result<bool, String> {
    req(v, key, path)?
        .as_bool()
        .ok_or_else(|| format!("{path}: \"{key}\" is not a boolean"))
}

/// Member `key` as an array slice.
///
/// # Errors
///
/// Missing, or not an array.
pub fn req_arr<'a>(v: &'a Json, key: &str, path: &str) -> Result<&'a [Json], String> {
    req(v, key, path)?
        .as_arr()
        .ok_or_else(|| format!("{path}: \"{key}\" is not an array"))
}

/// Member `key`, written by [`sparse_u64`], as the dense array of
/// `len` cells it came from.
///
/// # Errors
///
/// Missing, an item that is not an `[index, count]` pair, or an index
/// at or past `len`.
pub fn req_sparse_u64(v: &Json, key: &str, path: &str, len: usize) -> Result<Vec<u64>, String> {
    let mut cells = vec![0u64; len];
    for pair in req_arr(v, key, path)? {
        let item = pair.as_arr().unwrap_or(&[]);
        let (Some(i), Some(c)) = (
            item.first().and_then(Json::as_u64),
            item.get(1).and_then(Json::as_u64),
        ) else {
            return Err(format!("{path}: an item of \"{key}\" is not an [index, count] pair"));
        };
        *usize::try_from(i)
            .ok()
            .and_then(|i| cells.get_mut(i))
            .ok_or_else(|| format!("{path}: \"{key}\" index {i} is outside its {len} cells"))? = c;
    }
    Ok(cells)
}

/// Member `key` as an optional `u64` (`null` reads as `None`).
///
/// # Errors
///
/// Missing, or neither `null` nor a non-negative integer.
pub fn opt_u64(v: &Json, key: &str, path: &str) -> Result<Option<u64>, String> {
    let field = req(v, key, path)?;
    if field.is_null() {
        return Ok(None);
    }
    field
        .as_u64()
        .map(Some)
        .ok_or_else(|| format!("{path}: \"{key}\" is neither null nor a non-negative integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn integers_keep_exact_identity() {
        let v = Json::parse(&format!("{}", u64::MAX / 2)).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX / 2));
        let v = Json::parse(&format!("{}", i64::MIN)).unwrap();
        assert_eq!(v.as_i64(), Some(i64::MIN));
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let v = Json::parse(r#"{"b":[1,{"x":null}],"a":"z"}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj[0].0, "b");
        assert_eq!(obj[1].0, "a");
        assert_eq!(v.get("a").unwrap().as_str(), Some("z"));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert!(arr[1].get("x").unwrap().is_null());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}f λ 🦀";
        let rendered = crate::expo::json_string(original);
        let v = Json::parse(&rendered).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn surrogate_pair_escapes_decode() {
        let v = Json::parse(r#""🦀""#).unwrap();
        assert_eq!(v.as_str(), Some("🦀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2", "{'a':1}", "[1]]",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("byte"), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn depth_guard_rejects_pathological_nesting() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn render_parse_round_trip() {
        let doc = r#"{"k":[1,-2,3.5,"s",null,true,{"n":{}}]}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(render(&v), doc);
        assert_eq!(Json::parse(&render(&v)).unwrap(), v);
    }

    #[test]
    fn integer_path_is_byte_identical_to_fmt() {
        let mut sweep = vec![0, -1, 1, 9, 10, -10, i64::MIN, i64::MAX, i64::MIN + 1];
        // SplitMix64 sweep over every magnitude: shift a full-width
        // draw right by 0..=63 bits, both signs.
        let mut x: u64 = 0x5eed;
        for i in 0..4096u32 {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            sweep.push((z >> (i % 64)) as i64);
            sweep.push(((z >> (i % 64)) as i64).wrapping_neg());
        }
        for i in sweep {
            assert_eq!(render(&Json::Int(i)), format!("{i}"));
        }
    }

    #[test]
    fn string_path_matches_the_escaping_writer() {
        for s in ["", "plain_key", "a\"b\\c\nd\re\tf\u{1}g\u{1f}h", "λ 🦀 \u{7f}", "\"", "\\\\"] {
            let rendered = render(&Json::Str(s.to_string()));
            assert_eq!(rendered, crate::expo::json_string(s));
            assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(s));
        }
        assert_eq!(render(&Json::Str("a\u{1}\n".into())), "\"a\\u0001\\n\"");
    }

    #[test]
    fn member_spans_cover_each_top_level_value_as_written() {
        let doc = r#" {"a": [1, {"n":2}] ,"b":"x,y" , "c":{ "d":null }} "#;
        let (v, spans) = Json::parse_with_member_spans(doc).unwrap();
        let texts: Vec<&str> = spans.iter().map(|r| &doc[r.clone()]).collect();
        assert_eq!(texts, vec![r#"[1, {"n":2}]"#, r#""x,y""#, r#"{ "d":null }"#]);
        assert_eq!(v.as_obj().unwrap().len(), spans.len());
        // Nested objects contribute nothing; neither do non-objects.
        assert!(Json::parse_with_member_spans("[{\"a\":1}]").unwrap().1.is_empty());
    }

    #[test]
    fn field_helpers_name_the_path_and_the_key() {
        let v = obj(vec![("n", ju(7)), ("s", js("x")), ("none", jopt(None)), ("neg", Json::Int(-1))]);
        assert_eq!(req_u64(&v, "n", "$").unwrap(), 7);
        assert_eq!(req_usize(&v, "n", "$").unwrap(), 7);
        assert_eq!(req_str(&v, "s", "$").unwrap(), "x");
        assert_eq!(opt_u64(&v, "none", "$").unwrap(), None);
        assert_eq!(opt_u64(&v, "n", "$").unwrap(), Some(7));
        let err = req_u64(&v, "neg", "$.at").unwrap_err();
        assert!(err.contains("$.at") && err.contains("\"neg\""), "{err}");
        assert!(req(&v, "gone", "$").unwrap_err().contains("missing \"gone\""));
        assert!(req_arr(&v, "n", "$").is_err() && req_bool(&v, "n", "$").is_err());
        assert_eq!(ju(u64::MAX), Json::Int(i64::MAX));

        let cells = [0u64, 3, 0, 0, 9];
        let v = obj(vec![("cells", sparse_u64(&cells))]);
        assert_eq!(render(&v), r#"{"cells":[[1,3],[4,9]]}"#);
        assert_eq!(req_sparse_u64(&v, "cells", "$", 5).unwrap(), cells);
        assert!(req_sparse_u64(&v, "cells", "$", 4).unwrap_err().contains("outside its 4 cells"));
        let bad = obj(vec![("cells", Json::Arr(vec![ju(1)]))]);
        assert!(req_sparse_u64(&bad, "cells", "$", 5).unwrap_err().contains("pair"));
    }
}
