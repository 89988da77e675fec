//! The JSON this benchmark writes, and the reader `compare` and the tests
//! use to load it back. Objects keep insertion order.

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(fields) => fields,
            _ => &[],
        }
    }

    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }

    /// Serialises on one line. Non-finite numbers have no JSON form and
    /// are written as `null`.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if !n.is_finite() => out.push_str("null"),
            Value::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                out.push_str(&format!("{}", *n as i64));
            }
            Value::Num(n) => out.push_str(&format!("{n}")),
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document: the subset [`Value::write`] produces, with
/// arbitrary whitespace (no `\uXXXX` escapes — the writer emits none).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        src: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.src.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        let hit = self.src[self.pos..].starts_with(token.as_bytes());
        if hit {
            self.pos += token.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.eat("null") {
            Ok(Value::Null)
        } else if self.eat("true") {
            Ok(Value::Bool(true))
        } else if self.eat("false") {
            Ok(Value::Bool(false))
        } else if self.eat("[") {
            let mut items = Vec::new();
            while !self.eat("]") {
                if !items.is_empty() && !self.eat(",") {
                    return Err(format!("expected ',' at byte {}", self.pos));
                }
                items.push(self.value()?);
            }
            Ok(Value::Arr(items))
        } else if self.eat("{") {
            let mut fields = Vec::new();
            while !self.eat("}") {
                if !fields.is_empty() && !self.eat(",") {
                    return Err(format!("expected ',' at byte {}", self.pos));
                }
                let key = self.string()?;
                if !self.eat(":") {
                    return Err(format!("expected ':' at byte {}", self.pos));
                }
                fields.push((key, self.value()?));
            }
            Ok(Value::Obj(fields))
        } else if self.src.get(self.pos) == Some(&b'"') {
            self.string().map(Value::Str)
        } else {
            let start = self.pos;
            while self
                .src
                .get(self.pos)
                .is_some_and(|b| b"+-.eE0123456789".contains(b))
            {
                self.pos += 1;
            }
            std::str::from_utf8(&self.src[start..self.pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("unexpected input at byte {start}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected string at byte {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            let byte = *self.src.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let escape = *self.src.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    let c = match escape {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => other as char,
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_and_reader_round_trip() {
        let doc = Value::Obj(vec![
            ("name".into(), Value::Str("a \"quoted\"\\\nµ".into())),
            ("int".into(), Value::Num(42.0)),
            ("neg".into(), Value::Num(-0.001234)),
            ("big".into(), Value::Num(1.25e18)),
            ("flag".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "list".into(),
                Value::Arr(vec![
                    Value::Num(1.5),
                    Value::Arr(vec![]),
                    Value::Obj(vec![]),
                ]),
            ),
        ]);
        let text = doc.to_json();
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text).unwrap(), doc);
        assert_eq!(doc.get("int").and_then(Value::as_f64), Some(42.0));
        assert_eq!(doc.get("list").map(|l| l.items().len()), Some(3));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn reader_accepts_foreign_formatting_and_rejects_garbage() {
        let v = parse(" {\n \"a\" : [ 1 , 2.5e0 ] ,\"b\":\"x\\tA\" }\n").unwrap();
        assert_eq!(v.get("a").unwrap().items()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x\tA"));
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::Num(f64::NAN).to_json(), "null");
        assert_eq!(Value::Num(3.0).to_json(), "3");
    }
}
