//! Offline stand-in for `serde_json`: renders the shim [`Value`] tree to
//! JSON text and parses JSON text back, with exact `u64`/`i64` round-trips
//! and shortest-representation floats.

pub use serde::DeError as Error;
pub use serde::Value;

use serde::{Deserialize, Serialize};

/// Serialises a value to compact JSON.
///
/// # Errors
///
/// Never fails for the value types in this workspace; the `Result` mirrors
/// the real `serde_json` signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), &mut out, None, 0);
    Ok(out)
}

/// Serialises a value to human-readable, two-space-indented JSON.
///
/// # Errors
///
/// Never fails for the value types in this workspace.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any [`Deserialize`] type.
///
/// # Errors
///
/// Returns an [`Error`] describing the first syntax or shape problem.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::custom("trailing characters after JSON value"));
    }
    T::deserialize(&value)
}

// ------------------------------------------------------------------ writing

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // `Display` for f64 is the shortest round-trip representation.
                let s = f.to_string();
                out.push_str(&s);
                // "1" would parse back as an integer; keep it a float.
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_sep(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                write_sep(out, indent, depth);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (key, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_sep(out, indent, depth + 1);
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            if !map.is_empty() {
                write_sep(out, indent, depth);
            }
            out.push('}');
        }
    }
}

fn write_sep(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ------------------------------------------------------------------ parsing

/// How deep arrays and objects may nest (the real `serde_json` draws the
/// same line). The parser recurses once per level, so without a limit one
/// line of `[`s overflows the stack of whichever thread parses it — on the
/// server, the event loop.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(&format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_nested(Self::parse_array),
            Some(b'{') => self.parse_nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(Error::custom(&format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, Error>,
    ) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::custom(&format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::custom(&format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let c = *rest
                .first()
                .ok_or_else(|| Error::custom("unterminated string"))?;
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    let esc = *rest.get(1).ok_or_else(|| Error::custom("bad escape"))?;
                    self.pos += 2;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| Error::custom("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::custom("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by the writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(Error::custom("unknown escape")),
                    }
                }
                _ => {
                    // Copy the whole run up to the next quote or escape:
                    // both are ASCII, so they never split a code point, and
                    // the run is UTF-8-checked once — not the rest of the
                    // input once per character, which made long strings
                    // quadratic.
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let text = std::str::from_utf8(&rest[..run])
                        .map_err(|_| Error::custom("invalid UTF-8"))?;
                    s.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::custom(&format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::custom("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = std::collections::BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error::custom("expected `,` or `}` in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&42usize).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<f64>("0.25").unwrap(), 0.25);
        let f: f32 = from_str(&to_string(&0.1f32).unwrap()).unwrap();
        assert_eq!(f, 0.1f32);
    }

    #[test]
    fn roundtrip_containers() {
        let v = vec![(String::from("a"), 1.5f64), (String::from("b"), -2.0)];
        let json = to_string(&v).unwrap();
        let back: Vec<(String, f64)> = from_str(&json).unwrap();
        assert_eq!(back, v);
        let none: Option<u32> = from_str("null").unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn string_escapes() {
        let s = String::from("line\n\"quoted\"\\x");
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // Multi-byte code points and escapes between plain runs, then a
        // request-sized string: each run is copied once, so a megabyte
        // string costs a megabyte of work, not a megabyte squared.
        let s = String::from("ä€😀 plain \"q\" tail");
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
        let long = "AIG/+b64=".repeat(1 << 17);
        let back: String = from_str(&format!("\"{long}\"")).unwrap();
        assert_eq!(back, long);
        assert!(from_str::<String>(&format!("\"{long}")).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("not json").is_err());
        assert!(from_str::<Value>("{\"a\":}").is_err());
        assert!(from_str::<Value>("[1,2").is_err());
        assert!(from_str::<u32>("\"nope\"").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let error = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(error.to_string().contains("nesting deeper"), "{error}");
        // A request-sized line of openers is an error, not a stack overflow
        // — and the depth unwinds, so siblings do not add up.
        assert!(from_str::<Value>(&"[".repeat(8 << 20)).is_err());
        assert!(from_str::<Value>(&"{\"a\":".repeat(1 << 20)).is_err());
        let siblings = format!("[{}]", vec![nested(MAX_DEPTH - 1); 4].join(","));
        assert!(from_str::<Value>(&siblings).is_ok());
    }

    #[test]
    fn pretty_output_is_reparseable() {
        let v = Value::Object(
            [
                (String::from("x"), Value::Array(vec![Value::UInt(1)])),
                (String::from("y"), Value::Null),
            ]
            .into_iter()
            .collect(),
        );
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }
}
