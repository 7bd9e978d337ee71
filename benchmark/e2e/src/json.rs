//! A minimal JSON writer (no JSON crate is vendored in this repository).

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
    /// Text that is already JSON (a value another run of this writer
    /// rendered), embedded as it is.
    Raw(String),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Rendering for files people read and diff: a container that holds
    /// another container breaks over lines, everything else stays inline.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// `indent` is the current indentation when pretty-printing, `None`
    /// when compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, children): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => return write!(out, "{i}").expect("write to String"),
            // JSON has no NaN or infinity; a metric that is one is a bug
            // upstream, rendered as null so the file still parses.
            Json::Num(x) if !x.is_finite() => return out.push_str("null"),
            // `{:?}` keeps every digit and always marks the value as a
            // float (`1.0`, `1e-7`), both valid JSON numbers.
            Json::Num(x) => return write!(out, "{x:?}").expect("write to String"),
            Json::Str(s) => return write_str(s, out),
            Json::Raw(text) => return out.push_str(text),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', fields.collect())
            }
        };
        let nests = children
            .iter()
            .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        let inner = indent.filter(|_| nests).map(|i| i + 2);
        let new_line = |out: &mut String, width| {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width));
        };
        out.push(open);
        for (i, (key, value)) in children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match inner {
                Some(inner) => new_line(out, inner),
                None if i > 0 && indent.is_some() => out.push(' '),
                None => {}
            }
            if let Some(key) = key {
                write_str(key, out);
                out.push_str(if indent.is_some() { ": " } else { ":" });
            }
            value.write(out, inner.or(indent));
        }
        if let (Some(_), Some(indent)) = (inner, indent) {
            new_line(out, indent);
        }
        out.push(close);
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use viper_telemetry::chrome::validate_json;

    #[test]
    fn output_is_accepted_by_the_repository_validator() {
        let doc = Json::obj([
            (
                "name",
                Json::str("quote \" slash \\ newline \n bell \u{7} µs"),
            ),
            ("int", Json::Int(-42)),
            ("whole", Json::Num(3.0)),
            ("small", Json::Num(1.25e-7)),
            ("big", Json::Num(6.02e23)),
            ("nan", Json::Num(f64::NAN)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![Json::Int(1), Json::Arr(vec![])])),
            ("raw", Json::Raw(Json::Arr(vec![Json::Num(0.5)]).render())),
            ("empty", Json::obj::<String>([])),
        ]);
        let text = doc.render();
        validate_json(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        assert!(!text.contains('\n'), "one line: {text}");
        assert!(text.contains("\"whole\":3.0"));
        assert!(text.contains("\"nan\":null"));

        let pretty = doc.render_pretty();
        validate_json(&pretty).unwrap_or_else(|e| panic!("{e}: {pretty}"));
        assert!(
            pretty.contains("\n  \"list\": [\n    1,\n    []\n  ],"),
            "{pretty}"
        );
        assert!(pretty.contains("\n  \"raw\": [0.5],"), "{pretty}");
        let leaf = Json::obj([("value", Json::Num(1.5)), ("unit", Json::str("ms"))]);
        assert_eq!(
            leaf.render_pretty(),
            "{\"value\": 1.5, \"unit\": \"ms\"}\n",
            "containers of scalars stay on one line"
        );
    }
}
