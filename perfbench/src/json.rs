//! Minimal JSON rendering for the one-line record each repetition prints
//! and for the span file of a traced repetition.

use std::fmt::Write as _;

/// A JSON value; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    Num(f64),
    Int(u64),
    Str(String),
    Bool(bool),
    Null,
    List(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

impl Val {
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // Shortest round-trip form; JSON has no NaN or infinity.
            Val::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:?}");
            }
            Val::Num(_) | Val::Null => out.push_str("null"),
            Val::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Val::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Val::Str(s) => write_str(out, s),
            Val::List(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Val::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_and_escapes_strings() {
        let v = Val::Obj(vec![
            ("a".into(), Val::Num(0.5)),
            ("b".into(), Val::Int(7)),
            ("c".into(), Val::Str("x\"y\n".into())),
            (
                "d".into(),
                Val::List(vec![Val::Bool(true), Val::Num(f64::NAN)]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a":0.5,"b":7,"c":"x\"y\u000a","d":[true,null]}"#
        );
    }
}
