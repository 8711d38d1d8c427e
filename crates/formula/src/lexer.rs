//! Formula tokenizer.
//!
//! Produces a flat token stream; reference assembly (`$A$1`, `Sheet2!B3:C9`)
//! is the parser's job, built from `Ident`/`Number`/`Dollar`/`Bang`/`Colon`
//! primitives. Numbers keep the `Int`/`Float` distinction so `=1+2` stays
//! integral end to end.

use dataspread_types::{CellError, DsError, DsResult, Value};

/// One lexical token.
#[derive(Clone, PartialEq, Debug)]
pub enum Token {
    /// An integer or decimal literal.
    Number(Value),
    /// A double-quoted string literal (quotes stripped, `""` unescaped).
    Str(String),
    /// An error-code literal (`#REF!`, `#DIV/0!`, …). Appears when a broken
    /// formula is re-parsed (structural edits render dead references as
    /// `#REF!`) or typed verbatim.
    ErrLit(CellError),
    /// An identifier: function name, `TRUE`/`FALSE`, sheet name, or an
    /// A1-looking fragment (`A1`, `AA12`, `A`).
    Ident(String),
    Dollar,
    Bang,
    Colon,
    Comma,
    LParen,
    RParen,
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    Amp,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Tokenize the body of a formula (the text after the leading `=`).
pub fn lex(src: &str) -> DsResult<Vec<Token>> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'$' => {
                out.push(Token::Dollar);
                i += 1;
            }
            b'!' => {
                out.push(Token::Bang);
                i += 1;
            }
            b':' => {
                out.push(Token::Colon);
                i += 1;
            }
            b',' => {
                out.push(Token::Comma);
                i += 1;
            }
            b'(' => {
                out.push(Token::LParen);
                i += 1;
            }
            b')' => {
                out.push(Token::RParen);
                i += 1;
            }
            b'+' => {
                out.push(Token::Plus);
                i += 1;
            }
            b'-' => {
                out.push(Token::Minus);
                i += 1;
            }
            b'*' => {
                out.push(Token::Star);
                i += 1;
            }
            b'/' => {
                out.push(Token::Slash);
                i += 1;
            }
            b'^' => {
                out.push(Token::Caret);
                i += 1;
            }
            b'&' => {
                out.push(Token::Amp);
                i += 1;
            }
            b'=' => {
                out.push(Token::Eq);
                i += 1;
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'>') {
                    out.push(Token::Ne);
                    i += 2;
                } else if b.get(i + 1) == Some(&b'=') {
                    out.push(Token::Le);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            b'"' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match b.get(i) {
                        Some(b'"') if b.get(i + 1) == Some(&b'"') => {
                            s.push('"');
                            i += 2;
                        }
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(_) => {
                            // Consume one UTF-8 scalar, not one byte.
                            let rest = &src[i..];
                            let ch = rest.chars().next().unwrap();
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                        None => return Err(DsError::Parse("unterminated string literal".into())),
                    }
                }
                out.push(Token::Str(s));
            }
            b'#' => {
                // Greedily take the error-code alphabet, then match the
                // longest known code (codes end in `!`, `?`, or `A` for #N/A).
                let start = i;
                let mut j = i + 1;
                while j < b.len()
                    && j - start < 8
                    && (b[j].is_ascii_alphanumeric() || matches!(b[j], b'/' | b'!' | b'?'))
                {
                    j += 1;
                }
                let mut found = None;
                for end in (start + 1..=j).rev() {
                    if let Some(e) = CellError::parse(&src[start..end]) {
                        found = Some((e, end));
                        break;
                    }
                }
                match found {
                    Some((e, end)) => {
                        out.push(Token::ErrLit(e));
                        i = end;
                    }
                    None => {
                        return Err(DsError::Parse(format!(
                            "unknown error literal at `{}`",
                            &src[start..j]
                        )))
                    }
                }
            }
            b'0'..=b'9' | b'.' => {
                let start = i;
                let mut saw_dot = false;
                while i < b.len() && (b[i].is_ascii_digit() || (b[i] == b'.' && !saw_dot)) {
                    saw_dot |= b[i] == b'.';
                    i += 1;
                }
                // Exponent `(e|E)[+|-]digits`, the shape typed input takes
                // (`Value::from_input`). A bare `e` is left to lex as a name.
                if matches!(b.get(i), Some(b'e' | b'E')) {
                    let sign = matches!(b.get(i + 1), Some(b'+' | b'-')) as usize;
                    let digits = b[i + 1 + sign..].iter().take_while(|c| c.is_ascii_digit());
                    let n = digits.count();
                    if n > 0 {
                        i += 1 + sign + n;
                    }
                }
                let text = &src[start..i];
                let v = if let Ok(n) = text.parse::<i64>() {
                    Value::Int(n)
                } else {
                    let f: f64 = text
                        .parse()
                        .map_err(|_| DsError::Parse(format!("bad number `{text}`")))?;
                    if !f.is_finite() {
                        return Err(DsError::Parse(format!("bad number `{text}`")));
                    }
                    Value::Float(f)
                };
                out.push(Token::Number(v));
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Token::Ident(src[start..i].to_string()));
            }
            other => {
                return Err(DsError::Parse(format!(
                    "unexpected character `{}` in formula",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_int_float_distinction() {
        assert_eq!(
            lex("1 2.5").unwrap(),
            vec![
                Token::Number(Value::Int(1)),
                Token::Number(Value::Float(2.5))
            ]
        );
    }

    #[test]
    fn numbers_take_an_exponent() {
        let num = |s: &str| lex(s).unwrap();
        assert_eq!(num("1e3"), vec![Token::Number(Value::Float(1000.0))]);
        assert_eq!(num("1.5E2"), vec![Token::Number(Value::Float(150.0))]);
        assert_eq!(num("2E-3"), vec![Token::Number(Value::Float(0.002))]);
        assert_eq!(num("1E+2"), vec![Token::Number(Value::Float(100.0))]);
        // Non-finite is an error; a bare `e` is not part of the number.
        assert!(lex("1e400").is_err());
        assert_eq!(
            num("1e"),
            vec![Token::Number(Value::Int(1)), Token::Ident("e".into())]
        );
        assert_eq!(
            num("1e+"),
            vec![
                Token::Number(Value::Int(1)),
                Token::Ident("e".into()),
                Token::Plus
            ]
        );
    }

    #[test]
    fn strings_unescape_double_quotes() {
        assert_eq!(
            lex("\"a\"\"b\"").unwrap(),
            vec![Token::Str("a\"b".to_string())]
        );
        assert!(lex("\"open").is_err());
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            lex("<><= >=<>").unwrap(),
            vec![Token::Ne, Token::Le, Token::Ge, Token::Ne]
        );
    }

    #[test]
    fn refs_lex_as_fragments() {
        assert_eq!(
            lex("$A$1").unwrap(),
            vec![
                Token::Dollar,
                Token::Ident("A".into()),
                Token::Dollar,
                Token::Number(Value::Int(1))
            ]
        );
        assert_eq!(
            lex("Data!B2").unwrap(),
            vec![
                Token::Ident("Data".into()),
                Token::Bang,
                Token::Ident("B2".into())
            ]
        );
    }

    #[test]
    fn garbage_rejected() {
        assert!(lex("a @ b").is_err());
    }

    #[test]
    fn unicode_in_strings_survives() {
        assert_eq!(lex("\"héllo\"").unwrap(), vec![Token::Str("héllo".into())]);
    }
}
