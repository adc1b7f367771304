//! A linear-time JSON reader into the workspace's `serde::Value`, used for
//! flight-recorder fetches. The workspace's own `serde_json::from_str`
//! re-validates the rest of the input for every unescaped string
//! character, so its cost grows with the square of the payload: a
//! 1024-tree `Trace` answer (a few MB) takes ~20 s to read with it.

use serde::Value;

pub fn parse(bytes: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut p = Reader { s: text, pos: 0 };
    let v = p.value()?;
    p.ws();
    if p.pos != text.len() {
        return Err(format!("trailing characters at {}", p.pos));
    }
    Ok(v)
}

struct Reader<'a> {
    s: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        let rest = &self.s[self.pos..];
        for (lit, v) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
        ] {
            if rest.starts_with(lit) {
                self.pos += lit.len();
                return Ok(v);
            }
        }
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(self.err("expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    entries.push((key, self.value()?));
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                self.s[start..self.pos]
                    .parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| self.err("invalid number"))
            }
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.s[self.pos..];
            let plain = rest
                .find(['"', '\\'])
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..plain]);
            self.pos += plain;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .s
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                    out.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u code point"))?);
                    self.pos += 4;
                }
                _ => return Err(self.err("bad escape")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_the_workspace_writer_writes() {
        let resp = kert_bn::serving::Response::Violation {
            probabilities: vec![0.1, 1.0 / 3.0, 0.0],
        };
        let text = serde_json::to_string(&resp).unwrap();
        assert_eq!(
            parse(text.as_bytes()).unwrap(),
            serde_json::value_from_str(&text).unwrap()
        );
        let odd = r#"{"a\"b\\cé": [true, false, null, -1.5e-3, "x\ny"], "": {}}"#;
        assert_eq!(
            parse(odd.as_bytes()).unwrap(),
            serde_json::value_from_str(odd).unwrap()
        );
        assert!(parse(b"[1, 2").is_err());
        assert!(parse(b"{} x").is_err());
    }
}
