//! The one JSON writer and reader for every report the workspace prints.
//!
//! A report is a [`Value`] whose object members keep their insertion
//! order. Numbers are held as their JSON text — an integer, or an `f64`
//! with a fixed number of decimals ([`Value::fixed`]) — so a parsed report
//! compares token for token with the one that was written.
//!
//! [`Value::render`] lays a report out by one rule: the root object, and
//! any container that holds a non-empty array of objects at any depth,
//! print one member or element per line; everything else prints inline
//! with `, ` and `: `. A `meta` object of scalars therefore always renders
//! as the one line that determinism checks drop with
//! `grep -v '^  "meta"'`.

use std::fmt;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, held as its JSON text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; members render in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An empty object, to be filled with [`Value::with`] / [`Value::insert`].
    pub fn object() -> Value {
        Value::Obj(Vec::new())
    }

    /// `v` rendered with exactly `decimals` digits after the point.
    pub fn fixed(v: f64, decimals: usize) -> Value {
        debug_assert!(v.is_finite(), "JSON has no literal for {v}");
        Value::Num(format!("{v:.decimals$}"))
    }

    /// Appends member `key` to an object and returns it.
    pub fn with(mut self, key: &str, v: impl Into<Value>) -> Value {
        self.insert(key, v);
        self
    }

    /// Appends member `key` to an object.
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    pub fn insert(&mut self, key: &str, v: impl Into<Value>) {
        match self {
            Value::Obj(members) => members.push((key.to_string(), v.into())),
            other => panic!("insert({key:?}) on a non-object {other}"),
        }
    }

    /// The first member named `key`, if `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Removes and returns the first member named `key`.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        match self {
            Value::Obj(members) => {
                let i = members.iter().position(|(k, _)| k == key)?;
                Some(members.remove(i).1)
            }
            _ => None,
        }
    }

    /// The string, if `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an `f64`, if `self` is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number as a `u64`, if `self` is a nonnegative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if `self` is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders `self` as a report: laid out by the module's rule, with a
    /// trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    /// Renders `self`, an object, with one more member `key`: an array of
    /// the objects `rows` yields. The text is that of
    /// `self.with(key, rows.collect::<Value>()).render()`, but each row is
    /// written as it comes, so a long array (the timeline's events) is
    /// never held as one tree.
    ///
    /// # Panics
    ///
    /// If `self` is not an object.
    pub fn render_with_rows(&self, key: &str, rows: impl Iterator<Item = Value>) -> String {
        let Value::Obj(members) = self else { panic!("render_with_rows on a non-object {self}") };
        let mut out = String::from("{");
        for (k, v) in members {
            out.push_str("\n  ");
            quote(k, &mut out);
            out.push_str(": ");
            v.write(&mut out, 2, v.breaks());
            out.push(',');
        }
        out.push_str("\n  ");
        quote(key, &mut out);
        out.push_str(": [");
        let mut rows = rows.peekable();
        let empty = rows.peek().is_none();
        for (i, row) in rows.enumerate() {
            debug_assert!(matches!(row, Value::Obj(_)), "rows are objects");
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            row.write(&mut out, 4, row.breaks());
        }
        out.push_str(if empty { "]\n}\n" } else { "\n  ]\n}\n" });
        out
    }

    /// `true` if this container prints one member or element per line
    /// when it is not the root.
    fn breaks(&self) -> bool {
        match self {
            Value::Arr(items) => {
                (!items.is_empty() && items.iter().all(|v| matches!(v, Value::Obj(_))))
                    || items.iter().any(Value::breaks)
            }
            Value::Obj(members) => members.iter().any(|(_, v)| v.breaks()),
            _ => false,
        }
    }

    fn write(&self, out: &mut String, indent: usize, multiline: bool) {
        let items: Vec<(Option<&str>, &Value)> = match self {
            Value::Null => return out.push_str("null"),
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => return out.push_str(n),
            Value::Str(s) => return quote(s, out),
            Value::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Value::Obj(members) => members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        };
        let (open, close) = if matches!(self, Value::Arr(_)) { ('[', ']') } else { ('{', '}') };
        let multiline = multiline && !items.is_empty();
        let newline = |out: &mut String, indent| {
            if multiline {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', indent));
            }
        };
        out.push(open);
        for (i, (key, v)) in items.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if multiline { "," } else { ", " });
            }
            newline(out, indent + 2);
            if let Some(k) = key {
                quote(k, out);
                out.push_str(": ");
            }
            v.write(out, indent + 2, multiline && v.breaks());
        }
        newline(out, indent);
        out.push(close);
    }
}

/// The inline (single-line) form, as used inside a multi-line report.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        f.write_str(&out)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n.to_string())
            }
        }
    )*};
}
from_int!(u8, u32, u64, usize);

/// The shortest decimal text that parses back to `v` (`0.001`, `0`,
/// `50000`): for echoing configuration values exactly as given.
///
/// # Panics
///
/// If `v` is not finite: JSON has no literal for it.
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        assert!(v.is_finite(), "JSON has no literal for {v}");
        Value::Num(v.to_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Value {
        Value::Arr(iter.into_iter().collect())
    }
}

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, `\n`, `\r` and `\t` use their short escapes, other
/// control characters use `\u00XX`, and everything else passes through.
pub fn quote(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document.
///
/// # Errors
///
/// Describes the first syntax error and its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value()?;
    match p.peek() {
        None => Ok(v),
        Some(_) => Err(p.err("trailing text")),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() != Some(b) {
            return Err(self.err(&format!("expected {:?}", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self
                .seq(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Value::Obj),
            Some(b'[') => self.seq(b']', Self::value).map(Value::Arr),
            Some(b'"') => self.string().map(Value::Str),
            _ => {
                // A literal or a number: one run of word characters.
                let start = self.pos;
                let rest = &self.text[start..];
                self.pos += rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c)))
                    .unwrap_or(rest.len());
                match &self.text[start..self.pos] {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    "null" => Ok(Value::Null),
                    n if n.parse::<f64>().is_ok_and(f64::is_finite) => Ok(Value::Num(n.into())),
                    _ => Err(self.err("expected a value")),
                }
            }
        }
    }

    /// Parses the comma-separated items of an array or object, from its
    /// opening bracket through the `close` byte.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.peek() != Some(b',') {
                self.eat(close)?;
                return Ok(items);
            }
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let end = rest.find(['"', '\\']).ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..end]);
            self.pos += end + 1;
            if rest.as_bytes()[end] == b'"' {
                return Ok(out);
            }
            let esc = rest.as_bytes().get(end + 1).copied();
            self.pos += 1;
            out.push(match esc {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let code =
                        rest.get(end + 2..end + 6).and_then(|h| u32::from_str_radix(h, 16).ok());
                    self.pos += 4;
                    code.and_then(char::from_u32).ok_or_else(|| self.err("bad \\u escape"))?
                }
                _ => return Err(self.err("bad escape")),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_renders_shortest_round_trip() {
        for (v, text) in [(0.001, "0.001"), (0.01, "0.01"), (0.0, "0"), (50_000.0, "50000")] {
            let n = Value::from(v);
            assert_eq!(n.to_string(), text);
            assert_eq!(parse(text).unwrap().as_f64(), Some(v));
        }
    }

    #[test]
    #[should_panic(expected = "no literal")]
    fn f64_rejects_non_finite() {
        let _ = Value::from(f64::NAN);
    }

    #[test]
    fn escapes_round_trip() {
        let all_controls: String = (0u8..0x20).map(char::from).collect();
        let cases = [
            "quote \" backslash \\ slash /",
            "line\nfeed\ttab\rcr",
            all_controls.as_str(),
            "naïve — 日本語 🦀",
        ];
        for s in cases {
            let v = Value::object().with("k\"\\\n", s);
            let text = v.to_string();
            assert!(!text.contains('\n') && !text.contains('\t'), "raw control in {text}");
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
        assert_eq!(Value::from("a\tb\u{1}").to_string(), r#""a\tb\u0001""#);
    }

    #[test]
    fn layout_rule() {
        let row = |n: u64| Value::object().with("n", n).with("xs", Value::Arr(vec![1u64.into()]));
        let v = Value::object()
            .with("meta", Value::object().with("a", 1u64).with("b", "x"))
            .with("f", Value::fixed(2.0 / 3.0, 3))
            .with("rows", Value::from_iter([row(1), row(2)]))
            .with(
                "nested",
                Value::object().with("k", true).with("rows", Value::from_iter([row(3)])),
            )
            .with("empty", Value::Arr(vec![]))
            .with("mixed", Value::Arr(vec![0u64.into(), Value::object()]))
            .with("none", Option::<u64>::None);
        let want = r#"{
  "meta": {"a": 1, "b": "x"},
  "f": 0.667,
  "rows": [
    {"n": 1, "xs": [1]},
    {"n": 2, "xs": [1]}
  ],
  "nested": {
    "k": true,
    "rows": [
      {"n": 3, "xs": [1]}
    ]
  },
  "empty": [],
  "mixed": [0, {}],
  "none": null
}
"#;
        assert_eq!(v.render(), want);
        assert_eq!(parse(want).unwrap(), v);
        assert_eq!(Value::object().render(), "{}\n");
        let head = Value::object().with("meta", Value::object().with("a", 1u64));
        for rows in [vec![], vec![row(1), Value::object().with("rows", Value::from_iter([row(2)]))]] {
            let whole = head.clone().with("rows", Value::Arr(rows.clone())).render();
            assert_eq!(head.render_with_rows("rows", rows.into_iter()), whole);
        }
    }

    #[test]
    fn reader_accessors_and_errors() {
        let mut v = parse(r#"{"a": [1, 2.50], "s": "x", "meta": {}}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_array).map(<[Value]>::len), Some(2));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1], Value::Num("2.50".into()));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert!(v.remove("meta").is_some() && v.get("meta").is_none());
        for bad in ["{", "[1,]", "{\"a\" 1}", "\"\\q\"", "inf", "1 2", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
