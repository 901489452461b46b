//! A minimal JSON value tree (parser and renderer) and the one codec
//! every document in the workspace is written and read with.
//!
//! The workspace builds offline and the vendored `serde` stub carries
//! no serialisation machinery. What stands in for it is a trait pair,
//! [`ToJson`], which appends a value's text to a `String`, and
//! [`FromJson`], which reads a value from a [`Lexer`]'s tokens, with
//! impls for the integers, `bool`, `String`, `Option`, `Vec` and
//! [`Raw`], and [`crate::json_struct!`], which writes both impls for a
//! struct from one list of its fields (or only the writer, for a
//! report nothing reads back). An impl lives beside the type it is for
//! (`anomaly`, `p4sim`, `replay`, the metric and trace types here);
//! only where the JSON form is not the field list (a tagged enum, a
//! list of pairs, a computed or renamed member) is it written out,
//! with [`write_obj`] and [`read_obj`]. [`write()`] and [`read()`]
//! turn a whole document to and from text. A typed value is never a
//! tree on either side: each format is written once per direction.
//! This module is the only code that writes JSON punctuation. A
//! reader carries its position as an [`At`], so an error names the
//! full path of what it refused.
//!
//! Underneath is enough of RFC 8259 to round-trip the documents the
//! suite emits (trace files, run snapshots, checkpoints, metric
//! exports): a [`Lexer`] pulls a document's tokens, and its one
//! grammar serves the typed readers, [`Lexer::skip`] (a value checked
//! and passed over), the trace reader `check::parse_trace` (which
//! gathers every problem of a document rather than stopping at the
//! first) and [`Json::parse`], which builds a tree for the one document
//! that has no schema (the benchmark's results) and is the reference
//! the typed readers are tested against.
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
}

/// A pull lexer over one document, the one place its grammar, messages
/// and nesting guard are written. [`Self::value`] reads a token; in a
/// container, [`Self::next_key`] and [`Self::next_item`] read up to the
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
    pub fn next_item(&mut self) -> Result<bool, String> {
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

    /// The next value checked and passed over, with no tree built: the
    /// grammar, messages and nesting guard of [`Json::parse`].
    pub fn skip(&mut self) -> Result<(), String> {
        let open = self.value()?;
        self.rest(&open)
    }

    /// Passes over what is left of the value whose token [`Self::value`]
    /// just gave: a container's entries, each checked; nothing after a
    /// scalar.
    pub fn rest(&mut self, open: &Json) -> Result<(), String> {
        match open {
            Json::Obj(_) => while self.next_key()?.is_some() {
                self.skip()?;
            },
            Json::Arr(_) => while self.next_item()? {
                self.skip()?;
            },
            _ => {}
        }
        Ok(())
    }

    /// The next value as a tree: what [`Json::parse`] builds.
    fn tree(&mut self) -> Result<Json, String> {
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

/// Writes the tree `v` out as compact JSON, in the bytes a typed
/// value's [`ToJson::write_json`] gives for the same value.
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

/// A value that has a JSON form.
pub trait ToJson {
    /// Appends the value's JSON text to `out`, compact, in the bytes
    /// [`render`] gives for the same value: the leaf impls below and
    /// [`crate::json_struct!`] write straight from the value, so a
    /// struct of such fields (a 39 000-cell checkpoint) is written in
    /// one pass with no node built per cell.
    fn write_json(&self, out: &mut String);
}

/// A value that can be read back from its JSON form. The document may
/// come from disk, so every impl checks what it is handed.
pub trait FromJson: Sized {
    /// Reads the value `lx` is at, which sits at `at` in its document.
    ///
    /// # Errors
    ///
    /// The lexer's syntax error, or `at` and what is wrong there:
    /// `$.payload.shards[1].pc_counts[5]: not a non-negative integer`.
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String>;
}

/// Reads the document `text` as a `T` in one pass over its tokens.
/// Syntax is named first: a document the reader refuses is scanned once
/// more, with no tree, and a syntax error anywhere in it is the error.
///
/// # Errors
///
/// The first syntax error in `text`, else what `T`'s reader refused.
pub fn read<T: FromJson>(text: &str, at: At<'_>) -> Result<T, String> {
    let mut lx = Lexer::new(text);
    T::read_json(&mut lx, at)
        .and_then(|v| lx.finish().map(|()| v))
        .map_err(|refused| check(text).err().unwrap_or(refused))
}

/// Checks that `text` is one JSON document, building nothing.
///
/// # Errors
///
/// What [`Json::parse`] gives for it.
pub fn check(text: &str) -> Result<(), String> {
    let mut lx = Lexer::new(text);
    lx.skip()?;
    lx.finish()
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

/// One member of an object whose value is not written yet.
pub type Member<'a> = (&'a str, &'a dyn ToJson);

/// Appends an object of `members`, in the order given, each value
/// written by its own [`ToJson::write_json`]: the writer of an impl
/// whose form is not its field list.
pub fn write_obj<'a>(out: &mut String, members: impl IntoIterator<Item = Member<'a>>) {
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

/// Reads the object `lx` is at member by member: `take` is handed each
/// key, the lexer at its value and the value's path, reads the value of
/// a member it keeps and says whether it did; any other member is
/// checked and passed over. The reader of [`crate::json_struct!`] and of
/// every impl whose form is not its field list; each keeps the first
/// member of a name, as [`Json::get`] finds it, and passes over a later
/// one.
///
/// # Errors
///
/// The value is not an object, a syntax error, or what `take` refused.
pub fn read_obj<'a>(
    lx: &mut Lexer<'a>,
    at: At<'_>,
    mut take: impl FnMut(&str, &mut Lexer<'a>, At<'_>) -> Result<bool, String>,
) -> Result<(), String> {
    let Json::Obj(_) = lx.value()? else { return Err(at.err("not an object")) };
    while let Some(key) = lx.next_key()? {
        if !take(&key, lx, At::Key(&at, &key))? {
            lx.skip()?;
        }
    }
    Ok(())
}

/// Member `key` of the object at `at`, if [`read_obj`] found it.
///
/// # Errors
///
/// `at.key: missing`.
pub fn need<T>(v: Option<T>, at: At<'_>, key: &str) -> Result<T, String> {
    v.ok_or_else(|| At::Key(&at, key).err("missing"))
}

/// Both halves of the codec for a struct whose JSON form is its field
/// list: an object with one member per listed field, named after it,
/// in the order listed, read back by name. Every field must be listed
/// (the reader builds `Self` from the list) and must itself have the
/// pair, or be listed as `field: form` with a [`Form`] for its type
/// that writes and reads it instead ([`Sparse`], [`Fixed`]).
///
/// `json_struct!(@write Ty { .. })` gives the writer alone, for a
/// report that is emitted and never read back; its fields need only
/// [`ToJson`], and a field left out of the list is left out of the
/// document.
#[macro_export]
macro_rules! json_struct {
    (@read $ty:ty { $($field:ident $(: $form:expr)?),+ $(,)? }) => {
        impl $crate::json::FromJson for $ty {
            fn read_json(lx: &mut $crate::json::Lexer<'_>, at: $crate::json::At<'_>) -> Result<Self, String> {
                $(let mut $field = None;)+
                $crate::json::read_obj(lx, at, |key, lx, at| {
                    match key {
                        $(stringify!($field) if $field.is_none() => {
                            $field = Some($crate::json_struct!(@read_one lx, at $(, $form)?)?);
                        })+
                        _ => return Ok(false),
                    }
                    Ok(true)
                })?;
                Ok(Self { $($field: $crate::json::need($field, at, stringify!($field))?),+ })
            }
        }
    };
    (@write $ty:ty { $first:ident $(: $first_form:expr)? $(, $field:ident $(: $form:expr)?)* $(,)? }) => {
        impl $crate::json::ToJson for $ty {
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
    (@read_one $lx:ident, $at:ident) => { $crate::json::FromJson::read_json($lx, $at) };
    (@read_one $lx:ident, $at:ident, $form:expr) => { $crate::json::Form::read_json(&$form, $lx, $at) };
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

/// Exact over the whole range: the one place it is decided how a `u64`
/// is written, as bare digits on both sides of `i64::MAX`.
impl ToJson for u64 {
    #[inline]
    fn write_json(&self, out: &mut String) {
        write_uint(out, *self);
    }
}

impl FromJson for u64 {
    #[inline]
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        if let Some(v) = lx.digits() {
            return Ok(v);
        }
        lx.value()?.as_u64().ok_or_else(|| at.err("not a non-negative integer"))
    }
}

/// The narrower unsigned integers go through `u64` and add a range
/// check on the way back.
macro_rules! json_unsigned {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            #[inline]
            fn write_json(&self, out: &mut String) {
                // Lossless: no supported `usize` is wider than 64 bits.
                write_uint(out, *self as u64);
            }
        }
        impl FromJson for $ty {
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
    fn write_json(&self, out: &mut String) {
        write_int(out, *self);
    }
}

impl FromJson for i64 {
    #[inline]
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        // At most 18 digits: the `u64` is an `i64` too.
        if let Some(v) = lx.digits() {
            return Ok(v as i64);
        }
        lx.value()?.as_i64().ok_or_else(|| at.err("not an integer"))
    }
}

/// A histogram's sum, every digit kept.
impl ToJson for u128 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        lx.value()?.as_bool().ok_or_else(|| at.err("not a boolean"))
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_json_string(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for String {
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        let Json::Str(s) = lx.value()? else { return Err(at.err("not a string")) };
        Ok(s)
    }
}

/// A borrowed value writes what it points at (a `&'static str` name).
impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// `None` is `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(x) => x.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        if lx.null() { Ok(None) } else { T::read_json(lx, at).map(Some) }
    }
}

impl<T: ToJson> ToJson for [T] {
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

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn read_json(lx: &mut Lexer<'_>, at: At<'_>) -> Result<Self, String> {
        let Json::Arr(_) = lx.value()? else { return Err(at.err("not an array")) };
        let mut out = Vec::new();
        while lx.next_item()? {
            out.push(T::read_json(lx, At::Idx(&at, out.len()))?);
        }
        Ok(out)
    }
}

/// One JSON value kept as its text: a member whose reader is not known
/// where it is read (a detector's exported state inside a checkpoint,
/// which does not look inside), lexed again by what knows it. Read, it
/// is checked whole, so its text is always one value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Raw(String);

impl Raw {
    /// The value `write` appends, which must be one JSON value.
    #[must_use]
    pub fn of(write: impl FnOnce(&mut String)) -> Self {
        let mut text = String::new();
        write(&mut text);
        Self(text)
    }

    /// A lexer at the value.
    #[must_use]
    pub fn lexer(&self) -> Lexer<'_> {
        Lexer::new(&self.0)
    }
}

impl ToJson for Raw {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

impl FromJson for Raw {
    fn read_json(lx: &mut Lexer<'_>, _: At<'_>) -> Result<Self, String> {
        let from = lx.pos;
        lx.skip()?;
        Ok(Self(lx.text[from..lx.pos].to_string()))
    }
}

// ---- fields whose form is not their type's own -------------------------

/// A field's JSON form where it is not its type's own. A
/// [`crate::json_struct!`] field listed as `name: form` is written and
/// read through `form`, which carries what the reader must know before
/// it reads: a register file's length, the one value a member may hold.
/// The two methods are [`ToJson`]'s and [`FromJson`]'s.
pub trait Form<T> {
    /// `v`'s text, appended to `out`.
    fn write_json(&self, v: &T, out: &mut String);
    /// Reads the value `lx` is at, which sits at `at`.
    ///
    /// # Errors
    ///
    /// `at` and what is wrong there.
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
    fn write_json(&self, v: &T, out: &mut String) {
        v.write_json(out);
    }

    fn read_json(&self, lx: &mut Lexer<'_>, at: At<'_>) -> Result<T, String> {
        let got = T::read_json(lx, at)?;
        if got == self.0 {
            Ok(got)
        } else {
            Err(at.err(format_args!("{got} is not the {} this build reads", self.0)))
        }
    }
}

/// A mostly-zero register file of `.0` cells as `[index, count]` pairs
/// in increasing index order, zeros left out: a histogram's buckets, a
/// tracker's cells, a checkpointed shard's register files. The reader
/// allocates the `.0` cells it was built with and no more, whatever
/// the document says.
#[derive(Debug, Clone, Copy)]
pub struct Sparse(pub usize);

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
        assert_eq!(arr[1].get("x"), Some(&Json::Null));
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
            assert_eq!(read::<String>(text, ROOT).as_deref(), Ok(want), "{text}");
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
            // The check that builds nothing draws the same line.
            assert_eq!(check(bad), Err(err), "{bad:?}");
        }
    }

    #[test]
    fn depth_guard_rejects_pathological_nesting() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        assert_eq!(check(&deep), Err(err));
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
            assert_eq!(write(&i), format!("{i}"));
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
        let text = write(&p);
        assert_eq!(text, r#"{"n":7,"small":9,"name":"x","maybe":null,"list":[-1,2],"on":true}"#);
        assert_eq!(read::<Probe>(&text, ROOT).unwrap(), p);
        let shuffled = r#"{"on":true,"list":[-1,2],"extra":0,"maybe":null,"name":"x","small":9,"n":7}"#;
        assert_eq!(read::<Probe>(shuffled, ROOT).unwrap(), p);
    }

    /// `write_json` appends `want`, which is canonical JSON: the tree
    /// parsed from it renders back to it.
    fn streams_as<T: ToJson + ?Sized>(x: &T, want: &str) {
        let mut out = String::from("<");
        x.write_json(&mut out);
        assert_eq!(out, format!("<{want}"), "appended behind what was there");
        assert_eq!(render(&Json::parse(want).unwrap()), want);
    }

    #[derive(Debug, PartialEq)]
    struct Lone {
        only: Option<u8>,
    }
    json_struct!(Lone { only });

    #[test]
    fn write_json_is_canonical_at_the_leaf_edges() {
        streams_as(&0u64, "0");
        streams_as(&9u64, "9");
        streams_as(&10u64, "10");
        streams_as(&(i64::MAX as u64), "9223372036854775807");
        streams_as(&u64::MAX, "18446744073709551615");
        streams_as(&usize::MAX, &usize::MAX.to_string());
        streams_as(&u32::MAX, "4294967295");
        streams_as(&u8::MAX, "255");
        streams_as(&1108u128, "1108");
        streams_as(&u128::from(u64::MAX), "18446744073709551615");
        // Past `u64::MAX` too, every digit.
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
            assert_eq!(read::<Probe>(&bad, at).unwrap_err(), want);
        }
        assert_eq!(read::<u32>("4294967296", ROOT).unwrap_err(), "$: overflows u32");
        assert_eq!(read::<Probe>("null", ROOT).unwrap_err(), "$: not an object");
        assert_eq!(read::<Probe>("{}", ROOT).unwrap_err(), "$.n: missing");
    }

    /// A document the reader refuses for a type error early and that is
    /// broken later is refused for the syntax, as a tree reader would.
    #[test]
    fn syntax_is_named_before_what_the_reader_refuses() {
        let doc = r#"{"n":"seven","small":9,"#;
        assert_eq!(read::<Probe>(doc, ROOT), Err(Json::parse(doc).unwrap_err()));
        assert_eq!(read::<Probe>(r#"{"n":"seven"}"#, ROOT).unwrap_err(), "$.n: not a non-negative integer");
    }

    #[test]
    fn a_u64_round_trips_exactly_or_is_refused() {
        let edge = i64::MAX as u64;
        for v in [0, 7, edge, edge + 1, u64::MAX - 3, u64::MAX] {
            let text = write(&v);
            assert_eq!(read::<u64>(&text, ROOT), Ok(v), "{text}");
            assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(v), "{text}");
        }
        // Bare digits on both sides of `i64::MAX`.
        assert_eq!(write(&edge), "9223372036854775807");
        assert_eq!(Json::parse("9223372036854775808").unwrap(), Json::UInt(edge + 1));
        assert_eq!(write(&u64::MAX), "18446744073709551615");
        // Past `u64::MAX` a token is a float, which no integer reads.
        for refused in ["18446744073709551616", "-1", "7.0", "\"7\"", "null"] {
            assert!(read::<u64>(refused, ROOT).is_err(), "{refused}");
        }
        assert!(read::<i64>(&write(&u64::MAX), ROOT).is_err());
    }

    fn read_sparse(doc: &str, len: usize) -> Result<Vec<u64>, String> {
        Sparse(len).read_json(&mut Lexer::new(doc), ROOT)
    }

    #[test]
    fn sparse_cells_round_trip_and_are_bounded_by_their_length() {
        let cells = vec![0u64, 3, 0, 0, 9];
        let mut text = String::new();
        Sparse(5).write_json(&cells, &mut text);
        assert_eq!(text, "[[1,3],[4,9]]");
        assert_eq!(read_sparse(&text, 5), Ok(cells));
        assert_eq!(read_sparse(&text, 4).unwrap_err(), "$[1]: index 4 is outside its 4 cells");
        assert_eq!(read_sparse("[[1,3],[4]]", 5).unwrap_err(), "$[1]: not an [index, count] pair");
    }

    /// Each index once, in increasing order: a repeated index is not a
    /// second value for its cell, and an out-of-order one is refused.
    #[test]
    fn a_sparse_index_that_does_not_increase_is_refused() {
        for (doc, want) in [
            ("[[3,1],[3,5]]", "$[1]: index 3 does not increase on index 3"),
            ("[[4,1],[2,5]]", "$[1]: index 2 does not increase on index 4"),
            ("[[0,1],[1,1],[1,1]]", "$[2]: index 1 does not increase on index 1"),
        ] {
            assert_eq!(read_sparse(doc, 8).unwrap_err(), want, "{doc}");
        }
        assert_eq!(read_sparse("[[0,1],[7,2]]", 8), Ok(vec![1u64, 0, 0, 0, 0, 0, 0, 2]));
    }

    #[derive(Debug, PartialEq)]
    struct Registers {
        width: u32,
        cells: Vec<u64>,
        flags: Vec<u8>,
    }
    json_struct!(Registers { width: Fixed(4), cells: Sparse(4), flags: Sparse(3) });

    /// A struct with formed fields: written in its form, read back, and
    /// each form refuses what it must, with its path.
    #[test]
    fn formed_fields_are_written_and_read_back() {
        let r = Registers { width: 4, cells: vec![0, 7, 0, 1 << 40], flags: vec![0, 0, 0] };
        let good = r#"{"width":4,"cells":[[1,7],[3,1099511627776]],"flags":[]}"#;
        streams_as(&r, good);
        assert_eq!(read::<Registers>(good, ROOT), Ok(r));
        for bad in damaged(good) {
            reads_cleanly::<Registers>(&bad);
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
            reads_cleanly::<Registers>(doc);
        }
    }

    /// What [`read`] owes any text: an answer and no panic; an `Ok` only
    /// for a document [`Json::parse`] takes, holding a value that writes
    /// back to text that reads to the same value; and, for a document
    /// that is not JSON, the parser's own syntax error.
    fn reads_cleanly<T: FromJson + ToJson + PartialEq + std::fmt::Debug>(s: &str) -> Option<T> {
        let got = read::<T>(s, ROOT);
        match (&got, Json::parse(s)) {
            (Ok(v), Ok(_)) => assert_eq!(read::<T>(&write(v), ROOT).as_ref(), Ok(v), "{s:?}"),
            (Ok(v), Err(e)) => panic!("{s:?} read as {v:?}, but it is not JSON: {e}"),
            (Err(e), Err(syntax)) => assert_eq!(e, &syntax, "{s:?}"),
            (Err(_), Ok(_)) => {}
        }
        got.ok()
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
    fn the_streamed_read_takes_damage_cleanly() {
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
            let good = write(p);
            // The round trip: what `write_json` writes reads back equal.
            assert_eq!(reads_cleanly::<Probe>(&good).as_ref(), Some(p));
            for bad in damaged(&good) {
                reads_cleanly::<Probe>(&bad);
            }
        }
        // The first of two members wins, whatever the second holds;
        // unknown members, a stray `cfg_batch` among them, are checked
        // and left.
        let rest = r#""small":9,"name":"x","maybe":null,"list":[-1,2],"on":true}"#;
        let p = |n| Probe { n, small: 9, name: "x".into(), maybe: None, list: vec![-1, 2], on: true };
        for (head, want) in [
            (r#"{"n":1,"n":2,"#, Some(p(1))),
            (r#"{"n":1,"n":"two","#, Some(p(1))),
            (r#"{"n":"one","n":2,"#, None),
            (r#"{"n":1,"n":[1,"#, None),
            (r#"{"n":1,"maybe":4,"maybe":{},"#, Some(Probe { maybe: Some(4), ..p(1) })),
            (r#"{"extra":{"deep":[1,{"x":null}],"s":"A"},"n":1,"#, Some(p(1))),
            (r#"{"cfg_batch":256,"n":1,"#, Some(p(1))),
            (r#"{"n":1,"cfg_batch":1e400,"#, None),
            (r#"{"n":1,"maybe":{},"#, None),
            (r#"{"#, None),
            (r#" { "n" : 1 , "#, Some(p(1))),
        ] {
            assert_eq!(reads_cleanly::<Probe>(&format!("{head}{rest}")), want, "{head}");
        }
        for s in ["", "null", "[]", "{}", "7", r#"{"n":7}"#, r#"{"n":7,}"#, "{\"n\":7} x"] {
            assert_eq!(reads_cleanly::<Probe>(s), None, "{s:?}");
        }
    }

    /// The leaves on their own, at and past each line they draw: each
    /// reader gives what the grammar's tree and its accessor give.
    #[test]
    fn the_leaf_readers_follow_the_grammar() {
        let tokens = [
            "[1,null,3]", "[]", "[ 1 , 2 ]", "[1,", "[1,]", "[,1]", "[null]", "[-1]", "[-0]", "[007]",
            "[999999999999999999]", "[1000000000000000000]", "[18446744073709551615]",
            "[18446744073709551616]", "[256]", "[1.5]", "[1e2]", "[1-2]", "[\"1\"]", "[true]", "[{}]",
            "[[]]", "[nul]", "[nullx]", "{\"a\":1}",
        ];
        assert_eq!(tokens.len(), 25);
        /// The tree of `s`, its items each taken by `leaf`.
        fn items<T>(s: &str, leaf: impl Fn(&Json) -> Option<T>) -> Option<Vec<T>> {
            Json::parse(s).ok()?.as_arr()?.iter().map(leaf).collect()
        }
        for s in tokens {
            assert_eq!(reads_cleanly::<Vec<u64>>(s), items(s, Json::as_u64), "{s}");
            assert_eq!(reads_cleanly::<Vec<i64>>(s), items(s, Json::as_i64), "{s}");
            let byte = |v: &Json| v.as_u64().and_then(|u| u8::try_from(u).ok());
            assert_eq!(reads_cleanly::<Vec<u8>>(s), items(s, byte), "{s}");
            let string = |v: &Json| v.as_str().map(String::from);
            assert_eq!(reads_cleanly::<Vec<String>>(s), items(s, string), "{s}");
            let maybe = |v: &Json| if *v == Json::Null { Some(None) } else { v.as_u64().map(Some) };
            assert_eq!(reads_cleanly::<Vec<Option<u64>>>(s), items(s, maybe), "{s}");
            let bools = match Json::parse(s) {
                Ok(Json::Null) => Some(None),
                _ => items(s, Json::as_bool).map(Some),
            };
            assert_eq!(reads_cleanly::<Option<Vec<bool>>>(s), bools, "{s}");
        }
        assert_eq!(reads_cleanly::<Option<Vec<bool>>>("null"), Some(None));
        assert_eq!(reads_cleanly::<Option<Vec<bool>>>("[true,false]"), Some(Some(vec![true, false])));
    }

    #[test]
    fn a_raw_value_is_its_text_checked_whole() {
        let doc = r#"{"k":[1,{"x":"y"}, 2.5e0],"z":null}"#;
        let raw = read::<Raw>(doc, ROOT).unwrap();
        assert_eq!(write(&raw), doc, "the text as it lies, spaces and all");
        let mut lx = raw.lexer();
        lx.skip().unwrap();
        lx.finish().unwrap();
        // A member's span, not a byte more.
        let held = read::<Vec<Raw>>(r#"[ {"a":1} , "s" ,7]"#, ROOT).unwrap();
        assert_eq!(held.iter().map(write).collect::<Vec<_>>(), [r#"{"a":1}"#, r#""s""#, "7"]);
        for bad in [r#"{"k":[1,}"#, "[1]]", "\"", "1e400"] {
            assert_eq!(read::<Raw>(bad, ROOT), Err(Json::parse(bad).unwrap_err()), "{bad}");
        }
        assert_eq!(write(&Raw::of(|out| 7u64.write_json(out))), "7");
    }

    #[test]
    fn a_deep_unknown_member_is_refused_by_the_nesting_guard() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let text = format!(r#"{{"extra":{deep},"n":7,"small":9,"name":"x","maybe":null,"list":[],"on":true}}"#);
        let err = read::<Probe>(&text, ROOT).unwrap_err();
        assert!(err.contains("nesting deeper than 256"), "{err}");
        let mut lx = Lexer::new(&text);
        assert!(Probe::read_json(&mut lx, ROOT).unwrap_err().contains("nesting"));
        // At the guard's edge: the guard counts the containers open
        // around a value, the struct's own object among them.
        for (brackets, taken) in [(255, true), (256, false)] {
            let nested = "[".repeat(brackets) + "0" + &"]".repeat(brackets);
            let text = format!(r#"{{"extra":{nested},"n":7,"small":9,"name":"x","maybe":null,"list":[],"on":true}}"#);
            assert_eq!(read::<Probe>(&text, ROOT).is_ok(), taken, "{brackets} brackets");
            assert_eq!(Json::parse(&text).is_ok(), taken, "{brackets} brackets");
        }
    }
}
