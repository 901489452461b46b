//! A minimal JSON value tree (parser and renderer) and the one codec
//! every document in the workspace is written and read with.
//!
//! The workspace builds offline and the vendored `serde` stub carries
//! no serialisation machinery. What stands in for it is a trait pair,
//! [`ToJson`] and [`FromJson`], with impls for the integers, `bool`,
//! `String`, `Option`, `Vec` and [`Json`] itself, and [`crate::json_struct!`],
//! which writes both impls for a struct from one list of its fields
//! (or only the writer, for a report nothing reads back). An impl
//! lives beside the type it is for (`anomaly`, `p4sim`, `replay`,
//! the metric and trace types here); only where the JSON form is not
//! the field list (a tagged enum, a list of pairs, a computed or
//! renamed member) is it written out, with [`obj`] and [`field`], or,
//! where the text is written with no tree, with one member list that
//! `obj_of` and `write_obj` take. [`write()`] and [`read()`] turn a
//! whole document to and from text.
//! This module is the only code that writes JSON punctuation. A
//! reader carries its position as an [`At`], so an error names the
//! full path of what it refused.
//!
//! Underneath is enough of RFC 8259 to round-trip the documents the
//! suite emits (trace files, run snapshots, checkpoints, metric
//! exports): a [`Lexer`] pulls a document's tokens, [`Json::parse`]
//! builds a tree from them and [`render`] writes one. A typed value
//! needs no tree: [`ToJson::write_json`] writes the bytes [`render`]
//! would, and [`read`] reads it from the tokens.
//!
//! Numbers keep their integer identity: a token without `.`/`e` parses
//! as [`Json::Int`] (past `i64::MAX`, as [`Json::UInt`]), so `u64`/`i64`
//! fields survive a render → parse round trip bit-for-bit instead of
//! drowning in `f64`. Object members preserve document order, which
//! lets golden tests compare field-for-field.

use std::borrow::Cow;
use std::fmt::Write as _;

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
    /// An integer past `i64`: `i64::MAX < n ≤ u64::MAX`. Never holds
    /// a value `Int` could, so each integer has one form.
    UInt(u64),
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
        let mut lx = Lexer::new(text);
        lx.tree().and_then(|v| lx.finish().map(|()| v))
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
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `u64` (a non-negative [`Json::Int`], or a
    /// [`Json::UInt`]).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (any number form).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
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

/// A pull lexer over one document, the one place its grammar, messages
/// and nesting guard are written. [`Self::value`] reads a token; in a
/// container, [`Self::next_key`] and `Self::next_item` read up to the
/// next entry or past the end. A value spans [`Self::pos`] before it to
/// `pos()` after it.
pub struct Lexer<'a> {
    text: &'a str,
    /// `text`'s bytes, which is what the scanner looks at.
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the next value.
    depth: usize,
    /// A container was just opened: no comma before its first entry.
    fresh: bool,
}

impl<'a> Lexer<'a> {
    /// A lexer at the first value of `text`.
    pub fn new(text: &'a str) -> Self {
        let mut lx = Self { text, bytes: text.as_bytes(), pos: 0, depth: 0, fresh: false };
        lx.skip_ws();
        lx
    }

    /// The byte offset of the next token.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Ends the document: only whitespace may follow its value.
    pub fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("byte {}: trailing data after document", self.pos));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
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
            Err(format!("byte {}: expected {:?}", self.pos, b as char))
        }
    }

    /// The next value's token: a scalar whole; a container's opening as
    /// an empty [`Json::Obj`] or [`Json::Arr`], its entries to follow.
    pub fn value(&mut self) -> Result<Json, String> {
        if self.depth > MAX_DEPTH {
            return Err(format!("byte {}: nesting deeper than {MAX_DEPTH}", self.pos));
        }
        let open = match self.peek() {
            Some(b'{') => Json::Obj(Vec::new()),
            Some(b'[') => Json::Arr(Vec::new()),
            Some(b'"') => return self.string().map(|s| Json::Str(s.into_owned())),
            Some(b't') => return self.literal("true", Json::Bool(true)),
            Some(b'f') => return self.literal("false", Json::Bool(false)),
            Some(b'n') => return self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(c) => return Err(format!("byte {}: unexpected character {:?}", self.pos, c as char)),
            None => return Err(format!("byte {}: unexpected end of input", self.pos)),
        };
        (self.pos, self.depth, self.fresh) = (self.pos + 1, self.depth + 1, true);
        Ok(open)
    }

    /// The key of the open object's next member, its value due next;
    /// `None` past the object's `}`.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Whether the open array's next item is due; `false` past its `]`.
    #[inline]
    pub(crate) fn next_item(&mut self) -> Result<bool, String> {
        self.more(b']')
    }

    #[inline]
    fn more(&mut self, close: u8) -> Result<bool, String> {
        self.skip_ws();
        let first = std::mem::take(&mut self.fresh);
        match self.peek() {
            Some(b) if b == close => {
                (self.pos, self.depth) = (self.pos + 1, self.depth - 1);
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            _ if first => Ok(true),
            _ => Err(format!("byte {}: expected ',' or '{}'", self.pos, close as char)),
        }
    }

    /// The next value if it is up to 18 digits with no sign, point or
    /// exponent: nearly every number of a checkpoint, decided by the
    /// scan with no token built. Else `None`, and nothing is read.
    #[inline]
    fn digits(&mut self) -> Option<u64> {
        let (bytes, mut end, mut v) = (self.bytes, self.pos, 0u64);
        while let Some(&d @ b'0'..=b'9') = bytes.get(end) {
            v = v.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            end += 1;
        }
        let short = (1..=18).contains(&(end - self.pos)) && self.depth <= MAX_DEPTH;
        let whole = !matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if short && whole {
            self.pos = end;
        }
        (short && whole).then_some(v)
    }

    /// Reads a `null` if one is due.
    fn null(&mut self) -> bool {
        let hit = self.depth <= MAX_DEPTH && self.bytes[self.pos..].starts_with(b"null");
        self.pos += if hit { 4 } else { 0 };
        hit
    }

    /// The next value as a tree: what [`Json::parse`] builds.
    pub fn tree(&mut self) -> Result<Json, String> {
        let mut v = self.value()?;
        match &mut v {
            Json::Obj(members) => while let Some(key) = self.next_key()? {
                members.push((key.into_owned(), self.tree()?));
            },
            Json::Arr(items) => while self.next_item()? { items.push(self.tree()?) },
            _ => {}
        }
        Ok(v)
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("byte {}: expected {word:?}", self.pos))
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("byte {}: truncated \\u escape", self.pos))?;
        // Four hex digits and nothing else: `from_str_radix` alone
        // would also take a sign.
        let v = std::str::from_utf8(slice)
            .ok()
            .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|s| u16::from_str_radix(s, 16).ok())
            .ok_or_else(|| format!("byte {}: \\u escape is not four hex digits", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    /// Borrowed from the text up to the first escape.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let (from, text) = (self.pos, self.text);
        let mut out = String::new();
        loop {
            // Everything up to the next quote or backslash is taken as
            // it lies: both are ASCII, so the run ends on a character
            // boundary of text that is already valid UTF-8.
            let run = self.pos;
            let len = self.bytes[run..].iter().position(|&b| b == b'"' || b == b'\\');
            let Some(len) = len else {
                return Err(format!("byte {}: unterminated string", self.bytes.len()));
            };
            self.pos = run + len + 1;
            if self.bytes[run + len] == b'"' && run == from {
                return Ok(Cow::Borrowed(&text[run..run + len]));
            }
            out.push_str(&text[run..run + len]);
            if self.bytes[run + len] == b'"' {
                return Ok(Cow::Owned(out));
            }
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
                    let mut cp = u32::from(hi);
                    // A high surrogate takes the low one behind it.
                    // Followed by any other escape it stands alone
                    // (U+FFFD below) and that escape is read for itself.
                    if (0xD800..0xDC00).contains(&hi) && self.bytes[self.pos..].starts_with(b"\\u") {
                        let resume = self.pos;
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if (0xDC00..0xE000).contains(&lo) {
                            cp = 0x10000 + ((cp - 0xD800) << 10) + (u32::from(lo) - 0xDC00);
                        } else {
                            self.pos = resume;
                        }
                    }
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
    }

    fn number(&mut self) -> Result<Json, String> {
        if let Some(v) = self.digits() {
            return Ok(Json::Int(v as i64));
        }
        // Anything else is left to `str::parse`, which draws the same
        // lines it always drew (a lone `-`, 19 and 20 digits, a run of
        // leading zeros): only a `[-]digits` token is an integer.
        let start = self.pos;
        self.pos += 1;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        let s = &self.text[start..self.pos];
        if let Ok(v) = s.parse::<i64>() {
            return Ok(Json::Int(v));
        }
        if let Ok(v) = s.parse::<u64>() {
            return Ok(Json::UInt(v));
        }
        // `1e400` parses to infinity, which `render` could only write
        // as `inf`: not a document this parser reads back.
        s.parse::<f64>()
            .ok()
            .filter(|f| f.is_finite())
            .map(Json::Float)
            .ok_or_else(|| format!("byte {start}: unparseable or non-finite number {s:?}"))
    }
}

/// Writes the tree `v` out as compact JSON. A typed value does not
/// need the tree: [`ToJson::write_json`] writes the same bytes from
/// the value itself.
#[must_use]
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

/// Appends the decimal form of `u`, byte-identical to `format!("{u}")`.
/// One digit is decided on the spot: that is every `0` of a detector's
/// ring and most small counters. Only that much is inlined into an
/// array's loop; the rest is a call.
#[inline]
fn write_uint(out: &mut String, u: u64) {
    if u < 10 {
        out.push(char::from(b'0' + u as u8));
    } else {
        write_digits(out, u);
    }
}

fn write_digits(out: &mut String, u: u64) {
    // 20 bytes hold u64::MAX.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = u;
    while rest > 0 {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
}

/// Appends the decimal form of `i`, byte-identical to `format!("{i}")`.
#[inline]
fn write_int(out: &mut String, i: i64) {
    if i < 0 {
        out.push('-');
    }
    write_uint(out, i.unsigned_abs());
}

/// Appends `s` to `out` as a double-quoted JSON string literal. Runs
/// of bytes that need no escape (the whole string, for every key and
/// almost every value this repo writes) are copied in one `push_str`;
/// every byte that does need one is ASCII, so splitting there keeps
/// the runs valid UTF-8.
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean_from..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        clean_from = i + 1;
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

/// The one writer of a tree; integers and strings, which are nearly
/// all of any document, are appended in place with no `fmt` machinery
/// and no temporary per value or key.
fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => b.write_json(out),
        Json::Int(i) => write_int(out, *i),
        Json::UInt(u) => write_uint(out, *u),
        // The one rare form goes through `fmt`.
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

// ---- the codec: one struct's JSON form is its field list ---------------

/// A value that has a JSON form, as a tree and as text.
pub trait ToJson {
    /// The value as a tree; [`render`] writes it out.
    fn to_json(&self) -> Json;

    /// Appends the value's JSON text to `out`: the bytes
    /// `render(&self.to_json())` would give, which is what the default
    /// does. A hand-written impl is therefore right without this
    /// method. Override it where the tree is the cost and not the
    /// point, by writing the text straight from the value: the leaf
    /// impls below and [`crate::json_struct!`] do, so a struct of such
    /// fields (a 39 000-cell checkpoint) is written in one pass with no
    /// node built per cell. An override must keep the two forms
    /// byte-identical; `replay`'s `every_codec_round_trips` checks
    /// every type it visits.
    fn write_json(&self, out: &mut String) {
        write_value(out, &self.to_json());
    }
}

/// A value that can be read back from its JSON form. The document may
/// come from disk, so every impl checks what it is handed.
pub trait FromJson: Sized {
    /// Reads `v`, which sits at `at` in its document.
    ///
    /// # Errors
    ///
    /// `at` and what is wrong there: `$.payload.shards[1].pc_counts[5]:
    /// not a non-negative integer`.
    fn from_json(v: &Json, at: At<'_>) -> Result<Self, String>;

    /// Reads the value `lx` is at as [`Self::from_json`] reads its tree,
    /// which the default builds. The leaf impls and [`crate::json_struct!`]
    /// read the tokens instead. An override accepts what the tree reader
    /// does, to the same value, but may name another problem first.
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        Self::from_json(&lx.tree()?, at)
    }
}

/// Reads the document `text` as a `T` in one pass over its tokens. A
/// refused one is read again as a tree, for the error (syntax first)
/// that `T::from_json(&Json::parse(text)?, at)` gives.
pub fn read<T: FromJson>(text: &str, at: At<'_>) -> Result<T, String> {
    let mut lx = Lexer::new(text);
    T::read_json(&mut lx, at)
        .and_then(|v| lx.finish().map(|()| v))
        .or_else(|_| T::from_json(&Json::parse(text)?, at))
}

/// The document `v` as text: [`read`]'s mirror, and how every document
/// the workspace emits is written.
#[must_use]
pub fn write<T: ToJson + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    v.write_json(&mut out);
    out
}

/// Where a value sits in its document, as a chain of borrowed links
/// back to the root. A link is a few words on the reader's stack; the
/// path is formatted only when an error is built, so reading a
/// 40 000-cell checkpoint that is well formed formats nothing.
#[derive(Debug, Clone, Copy)]
pub enum At<'a> {
    /// The document itself, under the name errors call it (`$`,
    /// `ensemble`, `cusum`).
    Root(&'a str),
    /// A member of the object at the parent path.
    Key(&'a At<'a>, &'a str),
    /// An item of the array at the parent path.
    Idx(&'a At<'a>, usize),
}

impl At<'_> {
    /// The error for this place: its path, then `why`.
    #[must_use]
    pub fn err(&self, why: impl std::fmt::Display) -> String {
        format!("{self}: {why}")
    }
}

impl std::fmt::Display for At<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            At::Root(name) => f.write_str(name),
            At::Key(parent, key) => write!(f, "{parent}.{key}"),
            At::Idx(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// An object from `(key, value)` pairs, in the order given.
#[must_use]
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// One member of an object whose value is not written yet.
pub(crate) type Member<'a> = (&'a str, &'a dyn ToJson);

/// An object from [`Member`]s, in the order given: the tree of the
/// text [`write_obj`] writes from the same members.
#[must_use]
pub(crate) fn obj_of<'a>(members: impl IntoIterator<Item = Member<'a>>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v.to_json())).collect())
}

/// Appends the object [`obj_of`] builds from `members`, with no tree:
/// each value is written by its own [`ToJson::write_json`]. An impl
/// whose form is not its field list gives one member list to both, so
/// its tree and its text cannot disagree.
pub(crate) fn write_obj<'a>(out: &mut String, members: impl IntoIterator<Item = Member<'a>>) {
    out.push('{');
    for (i, (k, v)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_string(out, k);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

/// Member `key` of the object `v` (which sits at `at`), handed with
/// its own path to `read`. Every member is read through here, so a
/// missing one is reported one way.
///
/// # Errors
///
/// The member is missing (or `v` is not an object), or `read` refuses
/// it.
pub fn field_with<'a, T>(
    v: &'a Json,
    key: &str,
    at: At<'_>,
    read: impl FnOnce(&'a Json, At<'_>) -> Result<T, String>,
) -> Result<T, String> {
    let at = At::Key(&at, key);
    read(v.get(key).ok_or_else(|| at.err("missing"))?, at)
}

/// Member `key` of the object `v` as a `T`.
///
/// # Errors
///
/// As [`field_with`] reading through [`FromJson::from_json`].
pub fn field<T: FromJson>(v: &Json, key: &str, at: At<'_>) -> Result<T, String> {
    field_with(v, key, at, T::from_json)
}

/// Both halves of the codec for a struct whose JSON form is its field
/// list: an object with one member per listed field, named after it,
/// in the order listed, read back by name. Every field must be listed
/// (the reader builds `Self` from the list) and must itself have the
/// pair, or be listed as `field: form` with a [`Form`] for its type
/// that writes and reads it instead ([`Sparse`], [`Fixed`]). The one
/// list gives the tree, the text ([`ToJson::write_json`], each field
/// streamed behind its key) and the reader.
///
/// `json_struct!(@write Ty { .. })` gives the writer alone, for a
/// report that is emitted and never read back; its fields need only
/// [`ToJson`], and a field left out of the list is left out of the
/// document.
#[macro_export]
macro_rules! json_struct {
    (@read $ty:ty { $($field:ident $(: $form:expr)?),+ $(,)? }) => {
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::Json, at: $crate::json::At<'_>) -> Result<Self, String> {
                Ok(Self { $($field: $crate::json::field_with(v, stringify!($field), at, |v, at| {
                    $crate::json_struct!(@from v, at $(, $form)?)
                })?),+ })
            }
            fn read_json(lx: &mut $crate::json::Lexer<'_>, at: $crate::json::At<'_>) -> Result<Self, String> {
                use $crate::json::At;
                // The first member of each name is read, as `field` finds
                // it in the tree; any other member is only checked.
                let $crate::Json::Obj(_) = lx.value()? else { return Err(at.err("not an object")) };
                $(let mut $field = None;)+
                while let Some(key) = lx.next_key()? {
                    match &*key {
                        $(stringify!($field) if $field.is_none() => {
                            let at = At::Key(&at, stringify!($field));
                            $field = Some($crate::json_struct!(@read_one lx, at $(, $form)?)?);
                        })+
                        _ => drop(lx.tree()?),
                    }
                }
                Ok(Self { $($field: $field.ok_or_else(|| At::Key(&at, stringify!($field)).err("missing"))?),+ })
            }
        }
    };
    (@write $ty:ty { $first:ident $(: $first_form:expr)? $(, $field:ident $(: $form:expr)?)* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::json::obj(vec![
                    (stringify!($first), $crate::json_struct!(@to &self.$first $(, $first_form)?)),
                    $((stringify!($field), $crate::json_struct!(@to &self.$field $(, $form)?))),*
                ])
            }
            fn write_json(&self, out: &mut String) {
                // A field name is an identifier: nothing in it to escape.
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                $crate::json_struct!(@write_one out, &self.$first $(, $first_form)?);
                $(
                    out.push_str(concat!(",\"", stringify!($field), "\":"));
                    $crate::json_struct!(@write_one out, &self.$field $(, $form)?);
                )*
                out.push('}');
            }
        }
    };
    // One field, through its type's own impl or through its form.
    (@from $v:ident, $at:ident) => { $crate::json::FromJson::from_json($v, $at) };
    (@from $v:ident, $at:ident, $form:expr) => { $crate::json::Form::read_tree(&$form, $v, $at) };
    (@read_one $lx:ident, $at:ident) => { $crate::json::FromJson::read_json($lx, $at) };
    (@read_one $lx:ident, $at:ident, $form:expr) => { $crate::json::Form::read_json(&$form, $lx, $at) };
    (@to $v:expr) => { $crate::json::ToJson::to_json($v) };
    (@to $v:expr, $form:expr) => { $crate::json::Form::to_json(&$form, $v) };
    (@write_one $out:ident, $v:expr) => { $crate::json::ToJson::write_json($v, $out) };
    (@write_one $out:ident, $v:expr, $form:expr) => { $crate::json::Form::write_json(&$form, $v, $out) };
    ($ty:ty { $first:ident $(: $first_form:expr)? $(, $field:ident $(: $form:expr)?)* $(,)? }) => {
        $crate::json_struct!(@write $ty { $first $(: $first_form)? $(, $field $(: $form)?)* });
        $crate::json_struct!(@read $ty { $first $(: $first_form)? $(, $field $(: $form)?)* });
    };
}

// The integer impls are `#[inline]`: they are not generic, so without
// the hint each of a checkpoint's ~40 000 cells would cost a call
// across the crate boundary from the array loop that is.

impl ToJson for u64 {
    /// Exact over the whole range: the one place it is decided how a
    /// `u64` is written. Up to `i64::MAX` it is the `Int` it always
    /// was; above, a `UInt`, which renders as the same bare digits.
    #[inline]
    fn to_json(&self) -> Json {
        i64::try_from(*self).map_or_else(|_| Json::UInt(*self), Json::Int)
    }

    #[inline]
    fn write_json(&self, out: &mut String) {
        write_uint(out, *self);
    }
}

impl FromJson for u64 {
    #[inline]
    fn from_json(v: &Json, at: At<'_>) -> Result<Self, String> {
        v.as_u64().ok_or_else(|| at.err("not a non-negative integer"))
    }

    #[inline]
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        lx.digits().map_or_else(|| Self::from_json(&lx.value()?, at), Ok)
    }
}

/// The narrower unsigned integers go through `u64` and add a range
/// check on the way back.
macro_rules! json_unsigned {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            #[inline]
            fn to_json(&self) -> Json {
                // Lossless: no supported `usize` is wider than 64 bits.
                (*self as u64).to_json()
            }
            #[inline]
            fn write_json(&self, out: &mut String) {
                write_uint(out, *self as u64);
            }
        }
        impl FromJson for $ty {
            #[inline]
            fn from_json(v: &Json, at: At<'_>) -> Result<Self, String> {
                <$ty>::try_from(u64::from_json(v, at)?)
                    .map_err(|_| at.err(concat!("overflows ", stringify!($ty))))
            }
            #[inline]
            fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
                <$ty>::try_from(u64::read_json(lx, at)?)
                    .map_err(|_| at.err(concat!("overflows ", stringify!($ty))))
            }
        }
    )+};
}
json_unsigned!(u8, u32, usize);

impl ToJson for i64 {
    #[inline]
    fn to_json(&self) -> Json {
        Json::Int(*self)
    }

    #[inline]
    fn write_json(&self, out: &mut String) {
        write_int(out, *self);
    }
}

impl FromJson for i64 {
    #[inline]
    fn from_json(v: &Json, at: At<'_>) -> Result<Self, String> {
        v.as_i64().ok_or_else(|| at.err("not an integer"))
    }

    #[inline]
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        // At most 18 digits: the `u64` is an `i64` too.
        lx.digits().map_or_else(|| Self::from_json(&lx.value()?, at), |v| Ok(v as i64))
    }
}

/// A histogram's sum. The text keeps every digit; a tree holds a value
/// past `u64::MAX` only as the nearest `f64`, so there alone the two
/// forms differ.
impl ToJson for u128 {
    fn to_json(&self) -> Json {
        u64::try_from(*self).map_or(Json::Float(*self as f64), |u| u.to_json())
    }

    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }

    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json(v: &Json, at: At<'_>) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| at.err("not a boolean"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }

    fn write_json(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }

    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for String {
    fn from_json(v: &Json, at: At<'_>) -> Result<Self, String> {
        Ok(v.as_str().ok_or_else(|| at.err("not a string"))?.to_string())
    }

    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        let Json::Str(s) = lx.value()? else { return Err(at.err("not a string")) };
        Ok(s)
    }
}

/// A borrowed value writes what it points at (a `&'static str` name).
impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }

    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// A subtree carried as it is (a detector's exported state inside a
/// checkpoint, which does not look inside).
impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }

    /// The tree it already is, written without the clone.
    fn write_json(&self, out: &mut String) {
        write_value(out, self);
    }
}

impl FromJson for Json {
    fn from_json(v: &Json, _: At<'_>) -> Result<Self, String> {
        Ok(v.clone())
    }

    fn read_json(lx: &mut Lexer<'_>, _: At<'_>) -> Result<Self, String> {
        lx.tree()
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json, at: At<'_>) -> Result<Self, String> {
        if v.is_null() {
            return Ok(None);
        }
        T::from_json(v, at).map(Some)
    }

    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        if lx.null() { Ok(None) } else { T::read_json(lx, at).map(Some) }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }

    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            x.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }

    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json, at: At<'_>) -> Result<Self, String> {
        let items = v.as_arr().ok_or_else(|| at.err("not an array"))?;
        // A plain loop into a vector of the known length: collecting
        // `Result`s grows by doubling and costs a call per item.
        let mut out = Vec::with_capacity(items.len());
        for (i, x) in items.iter().enumerate() {
            out.push(T::from_json(x, At::Idx(&at, i))?);
        }
        Ok(out)
    }

    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        let Json::Arr(_) = lx.value()? else { return Err(at.err("not an array")) };
        let mut out = Vec::new();
        while lx.next_item()? {
            out.push(T::read_json(lx, At::Idx(&at, out.len()))?);
        }
        Ok(out)
    }
}

// ---- fields whose form is not their type's own -------------------------

/// A field's JSON form where it is not its type's own. A
/// [`crate::json_struct!`] field listed as `name: form` is written and
/// read through `form`, which carries what the reader must know before
/// it reads: a register file's length, the one value a member may hold.
/// The four methods are [`ToJson`]'s and [`FromJson`]'s (`read_tree`
/// is `from_json`), under the same rules: the text is the rendered
/// tree, and the token reader accepts what the tree reader does, to the
/// same value.
pub trait Form<T> {
    /// `v` as a tree.
    fn to_json(&self, v: &T) -> Json;
    /// `v`'s text, appended to `out`.
    fn write_json(&self, v: &T, out: &mut String);
    /// Reads the tree `v`, which sits at `at`.
    ///
    /// # Errors
    ///
    /// `at` and what is wrong there.
    fn read_tree(&self, v: &Json, at: At<'_>) -> Result<T, String>;
    /// Reads the value `lx` is at.
    ///
    /// # Errors
    ///
    /// As [`Form::read_tree`], though another problem may be named first.
    fn read_json(&self, lx: &mut Lexer<'_>, at: At<'_>) -> Result<T, String>;
}

/// The one value a member may hold: a geometry the reader sizes its
/// arrays by, and does not take from the document.
#[derive(Debug, Clone, Copy)]
pub struct Fixed<T>(pub T);

impl<T> Form<T> for Fixed<T>
where
    T: ToJson + FromJson + PartialEq + std::fmt::Display,
{
    fn to_json(&self, v: &T) -> Json {
        v.to_json()
    }

    fn write_json(&self, v: &T, out: &mut String) {
        v.write_json(out);
    }

    fn read_tree(&self, v: &Json, at: At<'_>) -> Result<T, String> {
        T::from_json(v, at).and_then(|got| fixed(&self.0, got, at))
    }

    fn read_json(&self, lx: &mut Lexer<'_>, at: At<'_>) -> Result<T, String> {
        T::read_json(lx, at).and_then(|got| fixed(&self.0, got, at))
    }
}

fn fixed<T: PartialEq + std::fmt::Display>(want: &T, got: T, at: At<'_>) -> Result<T, String> {
    if got == *want {
        Ok(got)
    } else {
        Err(at.err(format_args!("{got} is not the {want} this build reads")))
    }
}

/// A mostly-zero register file of `.0` cells as `[index, count]` pairs
/// in increasing index order, zeros left out: a histogram's buckets, a
/// tracker's cells, a checkpointed shard's register files. The reader
/// allocates the `.0` cells it was built with and no more, whatever
/// the document says.
#[derive(Debug, Clone, Copy)]
pub struct Sparse(pub usize);

/// The tree [`Sparse`] writes for `cells`.
#[must_use]
pub fn sparse<T: ToJson + Default + PartialEq>(cells: &[T]) -> Json {
    let zero = T::default();
    let live = cells.iter().enumerate().filter(|(_, c)| **c != zero);
    Json::Arr(live.map(|(i, c)| Json::Arr(vec![i.to_json(), c.to_json()])).collect())
}

/// [`sparse`]'s form back as the dense array of `len` cells it came
/// from.
///
/// # Errors
///
/// Not an array of `[index, count]` pairs, a count its cell cannot
/// hold, an index that does not increase, or one at or past `len`.
pub fn from_sparse<T>(v: &Json, at: At<'_>, len: usize) -> Result<Vec<T>, String>
where
    T: FromJson + Default + Clone,
{
    let pairs = v.as_arr().ok_or_else(|| at.err("not an array"))?;
    let mut cells = vec![T::default(); len];
    let mut next = 0;
    for (n, pair) in pairs.iter().enumerate() {
        let at = At::Idx(&at, n);
        let [i, c] = pair.as_arr().unwrap_or(&[]) else {
            return Err(at.err("not an [index, count] pair"));
        };
        place(&mut cells, &mut next, usize::from_json(i, at)?, T::from_json(c, at)?, at)?;
    }
    Ok(cells)
}

/// Puts the pair `[i, c]` into `cells`: `i` must be at least `next`
/// (one past the index before it) and inside the file.
fn place<T>(cells: &mut [T], next: &mut usize, i: usize, c: T, at: At<'_>) -> Result<(), String> {
    if i < *next {
        return Err(at.err(format_args!("index {i} does not increase on index {}", *next - 1)));
    }
    let len = cells.len();
    *cells.get_mut(i).ok_or_else(|| at.err(format_args!("index {i} is outside its {len} cells")))? = c;
    *next = i + 1;
    Ok(())
}

impl<T> Form<Vec<T>> for Sparse
where
    T: ToJson + FromJson + Default + PartialEq + Clone,
{
    fn to_json(&self, v: &Vec<T>) -> Json {
        sparse(v)
    }

    fn write_json(&self, v: &Vec<T>, out: &mut String) {
        let zero = T::default();
        let mut open = "[";
        out.push('[');
        for (i, c) in v.iter().enumerate().filter(|(_, c)| **c != zero) {
            out.push_str(std::mem::replace(&mut open, ",["));
            write_uint(out, i as u64);
            out.push(',');
            c.write_json(out);
            out.push(']');
        }
        out.push(']');
    }

    fn read_tree(&self, v: &Json, at: At<'_>) -> Result<Vec<T>, String> {
        from_sparse(v, at, self.0)
    }

    fn read_json(&self, lx: &mut Lexer<'_>, at: At<'_>) -> Result<Vec<T>, String> {
        let Json::Arr(_) = lx.value()? else { return Err(at.err("not an array")) };
        let mut cells = vec![T::default(); self.0];
        let (mut n, mut next) = (0, 0);
        while lx.next_item()? {
            let at = At::Idx(&at, n);
            let not_a_pair = || at.err("not an [index, count] pair");
            let Json::Arr(_) = lx.value()? else { return Err(not_a_pair()) };
            if !lx.next_item()? {
                return Err(not_a_pair());
            }
            let i = usize::read_json(lx, at)?;
            if !lx.next_item()? {
                return Err(not_a_pair());
            }
            let c = T::read_json(lx, at)?;
            if lx.next_item()? {
                return Err(not_a_pair());
            }
            place(&mut cells, &mut next, i, c, at)?;
            n += 1;
        }
        Ok(cells)
    }
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
        // Both sides of every line the number reader draws: 18 digits
        // against 19, `i64::MAX`, `u64::MAX`, and what a sign or a run
        // of zeros in front does to each.
        let zeros = "0".repeat(25);
        for (text, want) in [
            ("0", Json::Int(0)),
            ("-0", Json::Int(0)),
            ("007", Json::Int(7)),
            ("-007", Json::Int(-7)),
            ("999999999999999999", Json::Int(999_999_999_999_999_999)),
            ("-999999999999999999", Json::Int(-999_999_999_999_999_999)),
            ("1000000000000000000", Json::Int(1_000_000_000_000_000_000)),
            ("-1000000000000000000", Json::Int(-1_000_000_000_000_000_000)),
            ("0999999999999999999", Json::Int(999_999_999_999_999_999)),
            ("9223372036854775807", Json::Int(i64::MAX)),
            ("-9223372036854775808", Json::Int(i64::MIN)),
            ("9223372036854775808", Json::UInt(1 << 63)),
            ("18446744073709551615", Json::UInt(u64::MAX)),
            ("018446744073709551615", Json::UInt(u64::MAX)),
            ("18446744073709551616", Json::Float(18_446_744_073_709_551_616.0)),
            ("-9223372036854775809", Json::Float(-9_223_372_036_854_775_809.0)),
            (&format!("{zeros}1"), Json::Int(1)),
            (&format!("-{zeros}1"), Json::Int(-1)),
            ("[12,-3]", Json::Arr(vec![Json::Int(12), Json::Int(-3)])),
        ] {
            assert_eq!(Json::parse(text), Ok(want), "{text}");
        }
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
        let rendered = write(original);
        let v = Json::parse(&rendered).unwrap();
        assert_eq!(v.as_str(), Some(original));
        // What is read is what lies between the quotes, escape by
        // escape: multi-byte text on both sides of an escape, escapes
        // back to back, a control character that arrives unescaped, an
        // escaped pair, and a surrogate with no partner.
        for (text, want) in [
            (r#""""#, ""),
            (r#""plain""#, "plain"),
            (r#""λ\"🦀\\é""#, "λ\"🦀\\é"),
            (r#""\\\\\"\"""#, "\\\\\"\""),
            (r#""\/\b\f\n\r\t""#, "/\u{8}\u{c}\n\r\t"),
            ("\"a\u{1}b\nc\"", "a\u{1}b\nc"),
            (r#""\u0041\u00e9\u03bb""#, "Aéλ"),
            (r#""\ud83e\udd80""#, "🦀"),
            (r#""x\ud800""#, "x\u{fffd}"),
            (r#""\udc00y""#, "\u{fffd}y"),
            (r#""\ud800 \udc00""#, "\u{fffd} \u{fffd}"),
            // A high surrogate before an escape that is no low one:
            // this overflowed (a panic in a debug build, U+2441 in a
            // release one) until the pair was checked.
            (r#""\ud800\u0041""#, "\u{fffd}A"),
            (r#""\ud800\ud83e\udd80""#, "\u{fffd}🦀"),
            (r#""\ud800\ue000""#, "\u{fffd}\u{e000}"),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::Str(want.into())), "{text}");
        }
    }

    #[test]
    fn strings_are_written_escaped() {
        assert_eq!(write("a\"b"), "\"a\\\"b\"");
        assert_eq!(write("a\\b"), "\"a\\\\b\"");
        assert_eq!(write("a\nb"), "\"a\\nb\"");
        assert_eq!(write("\u{1}"), "\"\\u0001\"");
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
            "\"\\u+041\"", "\"\\u00g1\"", "1e400", "[-1e999]",
            // Numbers: a sign with nothing to sign, two signs, a sign
            // or a point where a digit belongs.
            "-", "[-]", "--1", "+1", "1-2", "1+", "-e", ".5", "1e", "1.5.2", "[1,-]",
            // Strings: cut inside an escape, an escape that is none.
            "\"\\", "\"abc\\", "\"\\x\"", "\"\\u", "\"\\u12", "\"\\u12\"", "\"\\ud800\\u12\"",
            "\"\\ud800\\", "\"λ", "\"λ\\",
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
            assert_eq!(rendered, write(s));
            assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(s));
        }
        assert_eq!(render(&Json::Str("a\u{1}\n".into())), "\"a\\u0001\\n\"");
    }

    #[derive(Debug, PartialEq)]
    struct Probe {
        n: u64,
        small: u8,
        name: String,
        maybe: Option<usize>,
        list: Vec<i64>,
        on: bool,
    }
    json_struct!(Probe { n, small, name, maybe, list, on });

    const ROOT: At<'static> = At::Root("$");

    #[test]
    fn a_struct_is_written_in_listed_order_and_read_back_by_name() {
        let p = Probe { n: 7, small: 9, name: "x".into(), maybe: None, list: vec![-1, 2], on: true };
        let text = render(&p.to_json());
        assert_eq!(text, r#"{"n":7,"small":9,"name":"x","maybe":null,"list":[-1,2],"on":true}"#);
        assert_eq!(Probe::from_json(&Json::parse(&text).unwrap(), ROOT).unwrap(), p);
        let shuffled = r#"{"on":true,"list":[-1,2],"extra":0,"maybe":null,"name":"x","small":9,"n":7}"#;
        assert_eq!(Probe::from_json(&Json::parse(shuffled).unwrap(), ROOT).unwrap(), p);
    }

    /// `write_json` against the rendered tree, and what both must read.
    fn streams_as<T: ToJson + ?Sized>(x: &T, want: &str) {
        let mut out = String::from("<");
        x.write_json(&mut out);
        assert_eq!(out, format!("<{want}"), "appended behind what was there");
        assert_eq!(render(&x.to_json()), want);
    }

    #[derive(Debug, PartialEq)]
    struct Lone {
        only: Option<u8>,
    }
    json_struct!(Lone { only });

    #[test]
    fn write_json_is_the_rendered_tree_at_the_leaf_edges() {
        streams_as(&0u64, "0");
        streams_as(&9u64, "9");
        streams_as(&10u64, "10");
        streams_as(&(i64::MAX as u64), "9223372036854775807");
        streams_as(&u64::MAX, "18446744073709551615");
        assert_eq!(u64::MAX.to_json(), Json::UInt(u64::MAX));
        streams_as(&usize::MAX, &usize::MAX.to_string());
        streams_as(&u32::MAX, "4294967295");
        streams_as(&u8::MAX, "255");
        streams_as(&1108u128, "1108");
        streams_as(&u128::from(u64::MAX), "18446744073709551615");
        // Past `u64::MAX` only the text is exact.
        assert_eq!(write(&(u128::from(u64::MAX) + 1)), "18446744073709551616");
        streams_as(&"borrowed", r#""borrowed""#);
        streams_as(&0i64, "0");
        streams_as(&-9i64, "-9");
        streams_as(&i64::MIN, "-9223372036854775808");
        streams_as(&i64::MAX, "9223372036854775807");
        streams_as(&true, "true");
        streams_as(&false, "false");
        streams_as(&None::<u64>, "null");
        streams_as(&Some(7u8), "7");
        streams_as(&Vec::<u64>::new(), "[]");
        streams_as(&vec![0u64], "[0]");
        streams_as(&[0u8, 10, 255][..], "[0,10,255]");
        streams_as(&vec![Some(-1i64), None], "[-1,null]");
        streams_as("", r#""""#);
        streams_as("a\"b\\c\nd\u{1}e λ 🦀", r#""a\"b\\c\nd\u0001e λ 🦀""#);
        streams_as(&String::from("é"), r#""é""#);
        // One field: no comma anywhere, braces balanced.
        streams_as(&Lone { only: None }, r#"{"only":null}"#);
        streams_as(&Lone { only: Some(3) }, r#"{"only":3}"#);
        let p = Probe { n: 7, small: 9, name: "x".into(), maybe: None, list: vec![-1, 2], on: true };
        streams_as(&p, r#"{"n":7,"small":9,"name":"x","maybe":null,"list":[-1,2],"on":true}"#);
        // A tree writes itself, floats and nesting included.
        let tree = Json::parse(r#"{"k":[1,-2,3.5,"s",null,true,{"n":{}},18446744073709551615]}"#).unwrap();
        streams_as(&tree, &render(&tree));
    }

    #[test]
    fn errors_name_the_full_path_and_the_reason() {
        let good = r#"{"n":7,"small":9,"name":"x","maybe":4,"list":[-1,2],"on":true}"#;
        let at = At::Key(&ROOT, "probe");
        for (from, to, want) in [
            ("\"n\":7", "\"m\":7", "$.probe.n: missing"),
            ("\"n\":7", "\"n\":-7", "$.probe.n: not a non-negative integer"),
            ("\"n\":7", "\"n\":7.5", "$.probe.n: not a non-negative integer"),
            ("\"small\":9", "\"small\":256", "$.probe.small: overflows u8"),
            ("\"name\":\"x\"", "\"name\":1", "$.probe.name: not a string"),
            ("\"maybe\":4", "\"maybe\":\"4\"", "$.probe.maybe: not a non-negative integer"),
            ("[-1,2]", "[-1,null]", "$.probe.list[1]: not an integer"),
            ("[-1,2]", "{}", "$.probe.list: not an array"),
            ("\"on\":true", "\"on\":1", "$.probe.on: not a boolean"),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "{from} must hit");
            assert_eq!(Probe::from_json(&Json::parse(&bad).unwrap(), at).unwrap_err(), want);
        }
        assert_eq!(u32::from_json(&Json::Int(1 << 32), ROOT).unwrap_err(), "$: overflows u32");
        assert_eq!(Probe::from_json(&Json::Null, ROOT).unwrap_err(), "$.n: missing");
    }

    #[test]
    fn a_u64_round_trips_exactly_or_is_refused() {
        let edge = i64::MAX as u64;
        for v in [0, 7, edge, edge + 1, u64::MAX - 3, u64::MAX] {
            let text = render(&v.to_json());
            assert_eq!(u64::from_json(&Json::parse(&text).unwrap(), ROOT), Ok(v), "{text}");
        }
        // Bare digits on both sides of `i64::MAX`, one tree form each.
        assert_eq!(edge.to_json(), Json::Int(i64::MAX));
        assert_eq!(render(&edge.to_json()), "9223372036854775807");
        assert_eq!(Json::parse("9223372036854775808").unwrap(), Json::UInt(edge + 1));
        assert_eq!(render(&u64::MAX.to_json()), "18446744073709551615");
        // Past `u64::MAX` a token is a float, which no integer reads.
        for refused in ["18446744073709551616", "-1", "7.0", "\"7\"", "null"] {
            let v = Json::parse(refused).unwrap();
            assert!(u64::from_json(&v, ROOT).is_err(), "{refused}");
        }
        assert!(i64::from_json(&u64::MAX.to_json(), ROOT).is_err());
    }

    #[test]
    fn sparse_cells_round_trip_and_are_bounded_by_their_length() {
        let cells = [0u64, 3, 0, 0, 9];
        let v = sparse(&cells);
        assert_eq!(render(&v), "[[1,3],[4,9]]");
        assert_eq!(from_sparse(&v, ROOT, 5), Ok(cells.to_vec()));
        assert_eq!(from_sparse::<u64>(&v, ROOT, 4).unwrap_err(), "$[1]: index 4 is outside its 4 cells");
        let bad = Json::parse("[[1,3],[4]]").unwrap();
        assert_eq!(from_sparse::<u64>(&bad, ROOT, 5).unwrap_err(), "$[1]: not an [index, count] pair");
    }

    /// Each index once, in increasing order: a repeated index is not a
    /// second value for its cell, and an out-of-order one is refused,
    /// on both readers.
    #[test]
    fn a_sparse_index_that_does_not_increase_is_refused() {
        for (doc, want) in [
            ("[[3,1],[3,5]]", "$[1]: index 3 does not increase on index 3"),
            ("[[4,1],[2,5]]", "$[1]: index 2 does not increase on index 4"),
            ("[[0,1],[1,1],[1,1]]", "$[2]: index 1 does not increase on index 1"),
        ] {
            let tree = Json::parse(doc).unwrap();
            assert_eq!(from_sparse::<u64>(&tree, ROOT, 8).unwrap_err(), want, "{doc}");
            assert!(Form::<Vec<u64>>::read_json(&Sparse(8), &mut Lexer::new(doc), ROOT).is_err(), "{doc}");
        }
        assert_eq!(from_sparse(&Json::parse("[[0,1],[7,2]]").unwrap(), ROOT, 8), Ok(vec![1u64, 0, 0, 0, 0, 0, 0, 2]));
    }

    #[derive(Debug, PartialEq)]
    struct Registers {
        width: u32,
        cells: Vec<u64>,
        flags: Vec<u8>,
    }
    json_struct!(Registers { width: Fixed(4), cells: Sparse(4), flags: Sparse(3) });

    /// A struct with formed fields: the text is the tree, the token
    /// reader accepts what the tree reader does, and each form refuses
    /// what it must, with its path.
    #[test]
    fn formed_fields_stream_as_their_tree_and_read_back() {
        let r = Registers { width: 4, cells: vec![0, 7, 0, 1 << 40], flags: vec![0, 0, 0] };
        let good = r#"{"width":4,"cells":[[1,7],[3,1099511627776]],"flags":[]}"#;
        streams_as(&r, good);
        assert_eq!(read::<Registers>(good, ROOT), Ok(r));
        for bad in damaged(good) {
            reads_as_tree::<Registers>(&bad);
        }
        for (doc, want) in [
            (r#"{"width":5,"cells":[],"flags":[]}"#, "$.width: 5 is not the 4 this build reads"),
            (r#"{"width":4,"cells":[[4,1]],"flags":[]}"#, "$.cells[0]: index 4 is outside its 4 cells"),
            (r#"{"width":4,"cells":[],"flags":[[2,256]]}"#, "$.flags[0]: overflows u8"),
            (r#"{"width":4,"cells":[[0,1,2]],"flags":[]}"#, "$.cells[0]: not an [index, count] pair"),
            (r#"{"width":4,"cells":[[0]],"flags":[]}"#, "$.cells[0]: not an [index, count] pair"),
            (r#"{"width":4,"cells":[5],"flags":[]}"#, "$.cells[0]: not an [index, count] pair"),
            (r#"{"width":4,"cells":{},"flags":[]}"#, "$.cells: not an array"),
            (r#"{"width":4,"flags":[]}"#, "$.cells: missing"),
        ] {
            assert_eq!(read::<Registers>(doc, ROOT).unwrap_err(), want, "{doc}");
            reads_as_tree::<Registers>(doc);
        }
    }

    /// The streamed read held to the tree's: [`read`] gives the `Ok`
    /// value or the error `T::from_json(&Json::parse(s)?)` gives, and
    /// the one pass alone, with no tree to fall back on, accepts what
    /// the tree accepts, to the same value.
    fn reads_as_tree<T: FromJson + PartialEq + std::fmt::Debug>(s: &str) {
        let tree = Json::parse(s).and_then(|v| T::from_json(&v, ROOT));
        assert_eq!(read::<T>(s, ROOT), tree, "{s:?}");
        let mut lx = Lexer::new(s);
        let pass = T::read_json(&mut lx, ROOT).and_then(|v| lx.finish().map(|()| v));
        assert_eq!(pass.ok(), tree.ok(), "the one pass over {s:?}");
    }

    /// `good` cut at every character, with every bit flipped that
    /// leaves it UTF-8, and with its members rotated and reversed.
    fn damaged(good: &str) -> Vec<String> {
        let mut out: Vec<String> = (0..good.len()).filter_map(|cut| good.get(..cut)).map(String::from).collect();
        for (i, bit) in (0..good.len()).flat_map(|i| (0..8).map(move |bit| (i, bit))) {
            let mut bytes = good.as_bytes().to_vec();
            bytes[i] ^= 1 << bit;
            out.extend(String::from_utf8(bytes));
        }
        let Json::Obj(mut members) = Json::parse(good).unwrap() else { return out };
        for _ in 0..members.len() {
            members.rotate_left(1);
            out.push(render(&Json::Obj(members.clone())));
            out.push(render(&Json::Obj(members.iter().rev().cloned().collect())));
        }
        out
    }

    #[test]
    fn the_streamed_read_is_the_tree_read() {
        let probes = [
            Probe { n: 7, small: 9, name: "x".into(), maybe: None, list: vec![-1, 2], on: true },
            Probe {
                n: u64::MAX,
                small: 0,
                name: "a\"b\\c\nλ 🦀\u{1}".into(),
                maybe: Some(usize::MAX),
                list: vec![i64::MIN, i64::MAX, 0, 999_999_999_999_999_999],
                on: false,
            },
            Probe { n: 1 << 63, small: 255, name: String::new(), maybe: Some(0), list: Vec::new(), on: true },
        ];
        for p in &probes {
            let mut good = String::new();
            p.write_json(&mut good);
            // The round trip: what `write_json` writes reads back equal.
            assert_eq!(read::<Probe>(&good, ROOT).as_ref(), Ok(p));
            reads_as_tree::<Probe>(&good);
            for bad in damaged(&good) {
                reads_as_tree::<Probe>(&bad);
            }
        }
        // The first of two members wins, whatever the second holds;
        // unknown members, a stray `cfg_batch` among them, are checked
        // and left.
        let rest = r#""small":9,"name":"x","maybe":null,"list":[-1,2],"on":true}"#;
        for head in [
            r#"{"n":1,"n":2,"#,
            r#"{"n":1,"n":"two","#,
            r#"{"n":"one","n":2,"#,
            r#"{"n":1,"n":[1,"#,
            r#"{"n":1,"maybe":4,"maybe":{},"#,
            r#"{"extra":{"deep":[1,{"x":null}],"s":"A"},"n":1,"#,
            r#"{"cfg_batch":256,"n":1,"#,
            r#"{"n":1,"cfg_batch":1e400,"#,
            r#"{"n":1,"maybe":{},"#,
            r#"{"#,
            r#" { "n" : 1 , "#,
        ] {
            reads_as_tree::<Probe>(&format!("{head}{rest}"));
        }
        for s in ["", "null", "[]", "{}", "7", r#"{"n":7}"#, r#"{"n":7,}"#, "{\"n\":7} x"] {
            reads_as_tree::<Probe>(s);
        }
        // The leaves on their own, at and past each line they draw.
        for s in [
            "[1,null,3]", "[]", "[ 1 , 2 ]", "[1,", "[1,]", "[,1]", "[null]", "[-1]", "[-0]", "[007]",
            "[999999999999999999]", "[1000000000000000000]", "[18446744073709551615]",
            "[18446744073709551616]", "[256]", "[1.5]", "[1e2]", "[1-2]", "[\"1\"]", "[true]", "[{}]",
            "[[]]", "[nul]", "[nullx]", "{\"a\":1}",
        ] {
            reads_as_tree::<Vec<Option<u64>>>(s);
            reads_as_tree::<Vec<i64>>(s);
            reads_as_tree::<Vec<u8>>(s);
            reads_as_tree::<Vec<String>>(s);
            reads_as_tree::<Option<Vec<bool>>>(s);
            reads_as_tree::<Json>(s);
        }
    }

    #[test]
    fn a_deep_unknown_member_is_refused_by_the_nesting_guard() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let text = format!(r#"{{"extra":{deep},"n":7,"small":9,"name":"x","maybe":null,"list":[],"on":true}}"#);
        let err = read::<Probe>(&text, ROOT).unwrap_err();
        assert!(err.contains("nesting deeper than 256"), "{err}");
        let mut lx = Lexer::new(&text);
        assert!(Probe::read_json(&mut lx, ROOT).unwrap_err().contains("nesting"));
    }
}
