//! The workspace's one JSON reader, string quoter and object writer
//! (DESIGN.md §20). Callers format their own numbers, so every float in
//! every output keeps the precision it has always had.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting the reader accepts, so hostile input
/// cannot exhaust the stack. Every format here nests at most three deep.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Non-negative integer literals stay exact as `U64`
/// (seeds exceed 2^53); every other number is `F64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Object),
}

/// A parsed JSON object. Keys are unique and iterate in sorted order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(pub BTreeMap<String, Value>);

/// Defines [`Object`]'s typed accessors: each returns the field as its
/// type, or an error naming the field.
macro_rules! accessors {
    ($($name:ident -> $t:ty, $want:literal, $v:ident => $pick:expr;)*) => {
        impl Object {
            $(
                #[doc = concat!("The field `key` as ", $want, ".")]
                pub fn $name(&self, key: &str) -> Result<$t, String> {
                    let $v = self.0.get(key).ok_or_else(|| format!("missing field '{key}'"))?;
                    $pick.ok_or_else(|| format!("field '{key}' should be {}, got {:?}", $want, $v))
                }
            )*
        }
    };
}

accessors! {
    str -> &str, "a string", v => match v { Value::Str(s) => Some(s.as_str()), _ => None };
    u64 -> u64, "an unsigned integer", v => match v { Value::U64(n) => Some(*n), _ => None };
    opt_u64 -> Option<u64>, "an unsigned integer or null", v => match v {
        Value::U64(n) => Some(Some(*n)), Value::Null => Some(None), _ => None };
    f64 -> f64, "a number", v => match v {
        Value::U64(n) => Some(*n as f64), Value::F64(x) => Some(*x), _ => None };
    bool -> bool, "a boolean", v => match v { Value::Bool(b) => Some(*b), _ => None };
    array -> &[Value], "an array", v => match v { Value::Array(a) => Some(a.as_slice()), _ => None };
}

/// Parses text holding exactly one JSON object, never panicking. Errors
/// give the byte offset; duplicate keys, nesting past [`MAX_DEPTH`], an
/// integer above `u64::MAX` and trailing content are errors too.
pub fn parse_object(text: &str) -> Result<Object, String> {
    let mut p = Parser { text, pos: 0 };
    match p.value(1)? {
        _ if p.peek().is_some() => Err(p.err("trailing content")),
        Value::Object(object) => Ok(object),
        _ => Err("expected a JSON object".to_string()),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    /// Skips whitespace and returns the next byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        let rest = self.text[self.pos..].trim_start_matches([' ', '\t', '\n', '\r']);
        self.pos = self.text.len() - rest.len();
        rest.bytes().next()
    }

    /// Skips whitespace, then consumes `token` if it comes next.
    fn eat(&mut self, token: &str) -> bool {
        let hit = self.peek().is_some() && self.text[self.pos..].starts_with(token);
        self.pos += if hit { token.len() } else { 0 };
        hit
    }

    /// Parses one value; `depth` is its nesting level if it is a container.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        let next = self.peek();
        let literals = [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ];
        if let Some((_, value)) = literals.into_iter().find(|(word, _)| self.eat(word)) {
            return Ok(value);
        }
        let close = match next {
            Some(b'"') => return self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            Some(b'{' | b'[') if depth > MAX_DEPTH => {
                return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => "}",
            Some(b'[') => "]",
            Some(_) => return Err(self.err("expected a value")),
            None => return Err(self.err("unexpected end of input")),
        };
        self.pos += 1;
        let (mut fields, mut items) = (BTreeMap::new(), Vec::new());
        while !self.eat(close) {
            let first = fields.is_empty() && items.is_empty();
            if !(first || self.eat(",")) {
                return Err(self.err(&format!("expected ',' or '{close}'")));
            }
            if close == "]" {
                items.push(self.value(depth + 1)?);
                continue;
            }
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            if !self.eat(":") {
                return Err(self.err("expected ':'"));
            }
            let value = self.value(depth + 1)?;
            if fields.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate field '{key}'"));
            }
        }
        Ok(match close {
            "}" => Value::Object(Object(fields)),
            _ => Value::Array(items),
        })
    }

    fn number(&mut self) -> Result<Value, String> {
        let rest = &self.text[self.pos..];
        let len = rest
            .find(|c: char| !"0123456789+-.eE".contains(c))
            .unwrap_or(rest.len());
        let literal = &rest[..len];
        let digits = |d: &str| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit());
        let unsigned = literal.strip_prefix('-').unwrap_or(literal);
        let (mantissa, exp) = unsigned.split_once(['e', 'E']).unwrap_or((unsigned, "0"));
        let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
        let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
        if !(digits(int) && digits(frac) && digits(exp)) || (int.len() > 1 && int.starts_with('0'))
        {
            return Err(self.err("invalid number"));
        }
        let value = if digits(literal) {
            let n = literal
                .parse()
                .map_err(|_| self.err("integer exceeds u64::MAX"))?;
            Value::U64(n)
        } else {
            match literal.parse::<f64>() {
                Ok(x) if x.is_finite() => Value::F64(x),
                _ => return Err(self.err("number out of range")),
            }
        };
        self.pos += literal.len();
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        self.pos += 1; // the opening quote
        loop {
            let rest = &self.text[self.pos..];
            let end = rest.find(|c: char| c == '"' || c == '\\' || c < ' ');
            let end = end.ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..end]);
            self.pos += end;
            match rest.as_bytes()[end] {
                b'"' => break,
                b'\\' => out.push(self.escape()?),
                _ => return Err(self.err("control character in string")),
            }
        }
        self.pos += 1;
        Ok(out)
    }

    /// Decodes the escape sequence whose backslash is at the cursor.
    fn escape(&mut self) -> Result<char, String> {
        let after = self.text.as_bytes().get(self.pos + 1);
        if let Some(i) = after.and_then(|e| b"\"\\/bfnrt".iter().position(|c| c == e)) {
            self.pos += 2;
            return Ok(['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t'][i]);
        }
        let mut code = self.hex4().ok_or_else(|| self.err("invalid escape"))?;
        if (0xD800..0xDC00).contains(&code) {
            match self.hex4() {
                Some(low @ 0xDC00..=0xDFFF) => {
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                }
                _ => return Err(self.err("lone surrogate")),
            }
        }
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))
    }

    /// Consumes a `\uXXXX` escape at the cursor and returns its code unit.
    fn hex4(&mut self) -> Option<u32> {
        let hex = self.text.get(self.pos..self.pos + 6)?.strip_prefix("\\u")?;
        let code = u32::from_str_radix(hex, 16)
            .ok()
            .filter(|_| !hex.starts_with('+'))?;
        self.pos += 6;
        Some(code)
    }
}

/// Quotes `s` as a JSON string: `"` and `\` get a backslash, control
/// characters become `\u00XX`, everything else is verbatim.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let _ = match c {
            '"' | '\\' => write!(out, "\\{c}"),
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c)),
            c => write!(out, "{c}"),
        };
    }
    out + "\""
}

/// Renders `items`, each already JSON, as a one-line array `[a, b]`.
pub fn array<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// An object under construction; fields render in insertion order.
#[derive(Debug, Clone, Default)]
pub struct ObjectWriter(Vec<String>);

impl ObjectWriter {
    /// Appends a string field, [`quote`]d.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.raw(key, quote(value))
    }

    /// Appends a field whose value is already JSON: a number in the
    /// caller's format, a bool, `null`, or an [`array`].
    pub fn raw(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.0.push(format!("{}: {value}", quote(key)));
        self
    }

    /// One field per line, two-space indent, no trailing newline.
    pub fn pretty(&self) -> String {
        format!("{{\n  {}\n}}", self.0.join(",\n  "))
    }

    /// All fields on one line: `{"a": 1, "b": 2}`.
    pub fn line(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_covers_the_value_grammar() {
        let o = parse_object(
            " {\"s\": \"a\\\"b\\\\c\\/\\n\\u00e9\\ud83d\\ude00\", \"n\": 18446744073709551615, \
             \"f\": -1.5e2, \"z\": 0, \"t\": true, \"b\": false, \"x\": null, \
             \"a\": [1, [], {}], \"o\": {\"k\": [\"v\"]}} ",
        )
        .expect("valid JSON");
        assert_eq!(o.str("s").unwrap(), "a\"b\\c/\n\u{e9}\u{1f600}");
        assert_eq!(o.u64("n").unwrap(), u64::MAX);
        assert_eq!(o.f64("f").unwrap(), -150.0);
        assert_eq!(o.f64("n").unwrap(), u64::MAX as f64);
        assert_eq!(o.u64("z").unwrap(), 0);
        assert!(o.bool("t").unwrap() && !o.bool("b").unwrap());
        assert_eq!(o.opt_u64("x").unwrap(), None);
        assert_eq!(o.opt_u64("z").unwrap(), Some(0));
        assert_eq!(o.array("a").unwrap().len(), 3);
        let inner = match o.0.get("o") {
            Some(Value::Object(inner)) => inner,
            other => panic!("{other:?}"),
        };
        assert_eq!(inner.array("k").unwrap(), [Value::Str("v".into())]);
        assert_eq!(parse_object("{}").unwrap(), Object::default());
    }

    #[test]
    fn accessors_name_the_field() {
        let o = parse_object("{\"a\": \"x\", \"n\": -1, \"h\": 1.5}").unwrap();
        assert_eq!(o.u64("zz").unwrap_err(), "missing field 'zz'");
        assert_eq!(
            o.u64("a").unwrap_err(),
            "field 'a' should be an unsigned integer, got Str(\"x\")"
        );
        for key in ["n", "h"] {
            let err = o.u64(key).unwrap_err();
            assert!(
                err.starts_with(&format!("field '{key}' should be")),
                "{err}"
            );
        }
        assert!(o.bool("a").unwrap_err().contains("'a'"));
        assert!(o.array("a").unwrap_err().contains("'a'"));
        assert!(o.str("n").unwrap_err().contains("'n'"));
        assert!(o.opt_u64("a").unwrap_err().contains("'a'"));
    }

    #[test]
    fn reader_rejects_malformed_text() {
        for (text, reason) in [
            ("", "unexpected end of input at byte 0"),
            ("[1]", "expected a JSON object"),
            ("\"s\"", "expected a JSON object"),
            ("{", "expected a string key at byte 1"),
            ("{\"a\" 1}", "expected ':' at byte 5"),
            ("{\"a\": 1 \"b\": 2}", "expected ',' or '}' at byte 8"),
            ("{\"a\": 1,}", "expected a string key at byte 8"),
            ("{\"a\": [1 2]}", "expected ',' or ']' at byte 9"),
            ("{\"a\": [1,]}", "expected a value at byte 9"),
            ("{\"a\": [,1]}", "expected a value at byte 7"),
            ("{,}", "expected a string key at byte 1"),
            ("{\"a\": }", "expected a value at byte 6"),
            ("{\"a\":", "unexpected end of input at byte 5"),
            ("{\"a\": tru}", "expected a value at byte 6"),
            ("{\"a\": 01}", "invalid number at byte 6"),
            ("{\"a\": 1.}", "invalid number at byte 6"),
            ("{\"a\": -}", "invalid number at byte 6"),
            ("{\"a\": 1e}", "invalid number at byte 6"),
            ("{\"a\": 1-2}", "invalid number at byte 6"),
            ("{\"a\": 1e999}", "number out of range at byte 6"),
            (
                "{\"a\": 18446744073709551616}",
                "integer exceeds u64::MAX at byte 6",
            ),
            ("{\"a\": \"x}", "unterminated string at byte 7"),
            ("{\"a\": \"x\ty\"}", "control character in string at byte 8"),
            ("{\"a\": \"\\x\"}", "invalid escape at byte 7"),
            ("{\"a\": \"\\u12\"}", "invalid escape at byte 7"),
            ("{\"a\": \"\\u+123\"}", "invalid escape at byte 7"),
            ("{\"a\": \"\\u12", "invalid escape at byte 7"),
            ("{\"a\": \"\\ud800\"}", "lone surrogate at byte 13"),
            ("{\"a\": \"\\ud800\\u0041\"}", "lone surrogate at byte 19"),
            ("{\"a\": \"\\udc00\"}", "lone surrogate at byte 13"),
            ("{} {}", "trailing content at byte 3"),
            ("{\"a\": 1, \"a\": 2}", "duplicate field 'a'"),
        ] {
            assert_eq!(parse_object(text).unwrap_err(), reason, "{text:?}");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed_without_bound() {
        let nest = |n: usize| format!("{{\"a\": {}{}}}", "[".repeat(n), "]".repeat(n));
        assert!(parse_object(&nest(MAX_DEPTH - 1)).is_ok());
        let too_deep = "nesting deeper than 32 levels";
        assert!(parse_object(&nest(MAX_DEPTH))
            .unwrap_err()
            .starts_with(too_deep));
        let bomb = format!("{{\"a\": {}", "[".repeat(60 * 1024));
        assert!(parse_object(&bomb).unwrap_err().starts_with(too_deep));
    }

    #[test]
    fn quote_then_parse_is_the_identity() {
        let mut nasty: String = (0u32..0x20).filter_map(char::from_u32).collect();
        nasty.push_str("\"\\/ plain ascii, é, 日本語, \u{7f}, \u{1f600}");
        for s in ["", "plain", "a\"b", "a\\b", "a\nb", nasty.as_str()] {
            let line = ObjectWriter::default().str("k", s).line();
            assert_eq!(parse_object(&line).unwrap().str("k").unwrap(), s, "{line}");
        }
        assert_eq!(quote("a\nb"), "\"a\\u000ab\"");
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn writer_layouts() {
        let w = ObjectWriter::default()
            .str("name", "x")
            .raw("n", 3)
            .raw("f", format_args!("{:.1}", 2.46))
            .raw("xs", array([1, 2]))
            .raw("none", array(Vec::<u64>::new()));
        assert_eq!(
            w.line(),
            "{\"name\": \"x\", \"n\": 3, \"f\": 2.5, \"xs\": [1, 2], \"none\": []}"
        );
        assert_eq!(
            w.pretty(),
            "{\n  \"name\": \"x\",\n  \"n\": 3,\n  \"f\": 2.5,\n  \"xs\": [1, 2],\n  \"none\": []\n}"
        );
    }
}
