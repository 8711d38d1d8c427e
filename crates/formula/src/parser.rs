//! Recursive-descent formula parser.
//!
//! Precedence, loosest to tightest — the spreadsheet convention:
//! comparisons, `&`, `+ -`, `* /`, unary `-`, `^` (right-associative).
//! Unary minus binds tighter than `^`, so `=-2^2` is `4`.

use dataspread_types::addr::MAX_ROW;
use dataspread_types::{
    letters_to_col, CellAddr, CellRef, DsError, DsResult, RangeRef, SheetRef, Value,
};

use crate::lexer::{lex, Token};
use crate::{BinOp, Expr, Formula, Func};

/// Parse a full formula, `=` prefix required.
pub fn parse(src: &str) -> DsResult<Formula> {
    let body = src
        .trim()
        .strip_prefix('=')
        .ok_or_else(|| DsError::Parse("formula must start with `=`".into()))?;
    if body.trim().is_empty() {
        return Err(DsError::Parse("empty formula".into()));
    }
    let tokens = lex(body)?;
    let mut p = Parser { tokens, pos: 0 };
    let expr = p.expr()?;
    if p.pos != p.tokens.len() {
        return Err(DsError::Parse(format!(
            "unexpected trailing input in formula `{src}`"
        )));
    }
    Ok(Formula { expr })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Token, what: &str) -> DsResult<()> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            other => Err(DsError::Parse(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expr(&mut self) -> DsResult<Expr> {
        self.cmp()
    }

    fn cmp(&mut self) -> DsResult<Expr> {
        let mut lhs = self.concat()?;
        while let Some(op) = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Ge) => Some(BinOp::Ge),
            _ => None,
        } {
            self.pos += 1;
            let rhs = self.concat()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn concat(&mut self) -> DsResult<Expr> {
        let mut lhs = self.add()?;
        while self.peek() == Some(&Token::Amp) {
            self.pos += 1;
            let rhs = self.add()?;
            lhs = Expr::Bin(BinOp::Concat, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn add(&mut self) -> DsResult<Expr> {
        let mut lhs = self.mul()?;
        while let Some(op) = match self.peek() {
            Some(Token::Plus) => Some(BinOp::Add),
            Some(Token::Minus) => Some(BinOp::Sub),
            _ => None,
        } {
            self.pos += 1;
            let rhs = self.mul()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul(&mut self) -> DsResult<Expr> {
        let mut lhs = self.pow()?;
        while let Some(op) = match self.peek() {
            Some(Token::Star) => Some(BinOp::Mul),
            Some(Token::Slash) => Some(BinOp::Div),
            _ => None,
        } {
            self.pos += 1;
            let rhs = self.pow()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn pow(&mut self) -> DsResult<Expr> {
        // Base and exponent are *signed* primaries: unary minus binds tighter
        // than `^` (`-2^2 = 4`), and the exponent may be signed (`2^-3`).
        let lhs = self.unary()?;
        if self.peek() == Some(&Token::Caret) {
            self.pos += 1;
            let rhs = self.pow()?; // right-associative
            return Ok(Expr::Bin(BinOp::Pow, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> DsResult<Expr> {
        match self.peek() {
            Some(Token::Minus) => {
                self.pos += 1;
                Ok(Expr::Neg(Box::new(self.unary()?)))
            }
            Some(Token::Plus) => {
                self.pos += 1;
                self.unary()
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> DsResult<Expr> {
        match self.peek() {
            Some(Token::Number(_)) => {
                if let Some(Token::Number(v)) = self.next() {
                    Ok(Expr::Lit(v))
                } else {
                    unreachable!("peeked number")
                }
            }
            Some(Token::Str(_)) => {
                if let Some(Token::Str(s)) = self.next() {
                    Ok(Expr::Lit(Value::Text(s)))
                } else {
                    unreachable!("peeked string")
                }
            }
            Some(Token::ErrLit(e)) => {
                // `#REF!` round-trips to the poisoned reference node so a
                // broken formula stays broken across persistence; other
                // codes are plain error literals.
                let e = *e;
                self.pos += 1;
                Ok(if e == dataspread_types::CellError::Ref {
                    Expr::RefError
                } else {
                    Expr::Lit(Value::Error(e))
                })
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(Token::RParen, "`)`")?;
                Ok(e)
            }
            Some(Token::Dollar) => self.reference(SheetRef::Current),
            Some(Token::Ident(name)) => {
                let name = name.clone();
                match self.peek2() {
                    // Function call: IDENT '('.
                    Some(Token::LParen) => {
                        let func = Func::by_name(&name)
                            .ok_or_else(|| DsError::Parse(format!("unknown function `{name}`")))?;
                        self.pos += 2;
                        let mut args = Vec::new();
                        if self.peek() != Some(&Token::RParen) {
                            loop {
                                args.push(self.expr()?);
                                match self.peek() {
                                    Some(Token::Comma) => {
                                        self.pos += 1;
                                    }
                                    _ => break,
                                }
                            }
                        }
                        self.expect(Token::RParen, "`)` closing the argument list")?;
                        if !func.arity().contains(&args.len()) {
                            return Err(DsError::Parse(format!(
                                "{} takes {:?} arguments, got {}",
                                name,
                                func.arity(),
                                args.len()
                            )));
                        }
                        Ok(Expr::Call(func, args))
                    }
                    // Sheet qualifier: IDENT '!' ref.
                    Some(Token::Bang) => {
                        self.pos += 2;
                        self.reference(SheetRef::Named(name))
                    }
                    _ => match name.to_ascii_uppercase().as_str() {
                        "TRUE" => {
                            self.pos += 1;
                            Ok(Expr::Lit(Value::Bool(true)))
                        }
                        "FALSE" => {
                            self.pos += 1;
                            Ok(Expr::Lit(Value::Bool(false)))
                        }
                        _ => self.reference(SheetRef::Current),
                    },
                }
            }
            other => Err(DsError::Parse(format!(
                "unexpected token {other:?} in formula"
            ))),
        }
    }

    /// Parse `corner (':' corner)?` with the given sheet qualifier already
    /// consumed.
    fn reference(&mut self, sheet: SheetRef) -> DsResult<Expr> {
        let start = self.corner()?;
        if self.peek() == Some(&Token::Colon) {
            self.pos += 1;
            let end = self.corner()?;
            return Ok(Expr::Range(Box::new(RangeRef::new(sheet, start, end))));
        }
        let mut cell = start;
        cell.sheet = sheet;
        Ok(Expr::Cell(cell))
    }

    /// One range corner: `[$] letters [$] row`. The lexer may deliver the
    /// column letters and row digits fused into one identifier (`A1`) or
    /// split by an absolute-row `$` (`A`, `$`, `1`).
    fn corner(&mut self) -> DsResult<CellRef> {
        let abs_col = if self.peek() == Some(&Token::Dollar) {
            self.pos += 1;
            true
        } else {
            false
        };
        let frag = match self.next() {
            Some(Token::Ident(s)) => s,
            other => {
                return Err(DsError::Parse(format!(
                    "expected cell reference, found {other:?}"
                )))
            }
        };
        let digit_at = frag
            .bytes()
            .position(|b| b.is_ascii_digit())
            .unwrap_or(frag.len());
        let (letters, digits) = frag.split_at(digit_at);
        let col = letters_to_col(letters)
            .ok_or_else(|| DsError::Parse(format!("invalid column letters `{letters}`")))?;
        let (abs_row, row1) = if digits.is_empty() {
            // Row must follow as `$ <number>`.
            self.expect(Token::Dollar, "`$` before the row number")?;
            match self.next() {
                Some(Token::Number(Value::Int(n))) => (true, n as u64),
                other => {
                    return Err(DsError::Parse(format!(
                        "expected row number, found {other:?}"
                    )))
                }
            }
        } else {
            if !digits.bytes().all(|b| b.is_ascii_digit()) {
                return Err(DsError::Parse(format!("invalid cell reference `{frag}`")));
            }
            let n: u64 = digits
                .parse()
                .map_err(|_| DsError::Parse(format!("invalid row number `{digits}`")))?;
            (false, n)
        };
        if row1 == 0 || row1 > MAX_ROW as u64 + 1 {
            return Err(DsError::Parse(format!("row {row1} out of range")));
        }
        Ok(CellRef {
            sheet: SheetRef::Current,
            addr: CellAddr::new((row1 - 1) as u32, col),
            abs_row,
            abs_col,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(src: &str) -> Formula {
        parse(src).unwrap()
    }

    #[test]
    fn precedence_matches_spreadsheets() {
        assert_eq!(ok("=1+2*3").to_string(), "=(1+(2*3))");
        assert_eq!(ok("=(1+2)*3").to_string(), "=((1+2)*3)");
        assert_eq!(ok("=1<2&\"x\"").to_string(), "=(1<(2&\"x\"))");
        assert_eq!(ok("=2^3^2").to_string(), "=(2^(3^2))");
        assert_eq!(ok("=-2^2").to_string(), "=(-2^2)", "unary binds tighter");
        assert_eq!(ok("=1=2").to_string(), "=(1=2)");
    }

    #[test]
    fn references_with_flags_and_sheets() {
        assert_eq!(ok("=A1").to_string(), "=A1");
        assert_eq!(ok("=$a$1").to_string(), "=$A$1");
        assert_eq!(ok("=A$1").to_string(), "=A$1");
        assert_eq!(ok("=$A1").to_string(), "=$A1");
        assert_eq!(ok("=Data!B2").to_string(), "=Data!B2");
        assert_eq!(ok("=Data!$B$2:C9").to_string(), "=Data!$B$2:C9");
        assert_eq!(ok("=SUM(A1:B10)").to_string(), "=SUM(A1:B10)");
    }

    #[test]
    fn functions_case_insensitive_with_arity() {
        assert_eq!(ok("=sum(A1,2,3)").to_string(), "=SUM(A1,2,3)");
        assert_eq!(ok("=average(A1:A3)").to_string(), "=AVG(A1:A3)");
        assert!(parse("=IF(1)").is_err(), "IF needs 2..=3 args");
        assert!(parse("=SUM()").is_err(), "SUM needs at least one arg");
        assert!(parse("=NOPE(1)").is_err(), "unknown function");
    }

    #[test]
    fn error_literals_round_trip() {
        assert_eq!(ok("=#REF!+1").to_string(), "=(#REF!+1)");
        assert_eq!(ok("=(#REF!+1)").to_string(), "=(#REF!+1)");
        assert_eq!(ok("=#DIV/0!").to_string(), "=#DIV/0!");
        assert_eq!(ok("=SUM(A1,#N/A)").to_string(), "=SUM(A1,#N/A)");
        assert!(parse("=#BOGUS!").is_err());
    }

    #[test]
    fn booleans_and_strings() {
        assert_eq!(ok("=TRUE").to_string(), "=TRUE");
        assert_eq!(ok("=false").to_string(), "=FALSE");
        assert_eq!(ok("=\"a\"\"b\"").to_string(), "=\"a\"\"b\"");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "no-equals",
            "=",
            "=1+",
            "=(1",
            "=A0",
            "=1A",
            "=A1:",
            "=SUM(A1",
            "=foo",
            "=$1",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must not parse");
        }
    }
}
