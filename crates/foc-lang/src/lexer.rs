//! Hand-written lexer for MiniC.

use std::fmt;

use crate::token::{Keyword, Pos, Span, Tok, Token};

/// Lexing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}", self.message, self.pos)
    }
}

/// Appends to `out` the bytes of the [`Tok::StrLit`] at `span` of `src`,
/// the source it was lexed from: escapes decoded, adjacent literals
/// joined, no terminating NUL.
pub fn string_bytes(src: &str, span: Span, out: &mut Vec<u8>) {
    let mut lexer = Lexer {
        src: &src.as_bytes()[..span.end],
        offset: span.start,
        line: 1,
        col: 1,
    };
    lexer
        .lex_string(&mut |b| out.push(b))
        .expect("the lexer validated the literal");
}

/// Streaming tokenizer over MiniC source text.
pub struct Lexer<'a> {
    src: &'a [u8],
    offset: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `source`.
    pub fn new(source: &'a str) -> Lexer<'a> {
        Lexer {
            src: source.as_bytes(),
            offset: 0,
            line: 1,
            col: 1,
        }
    }

    /// Lexes the whole input.
    pub fn tokenize(mut self) -> Result<Vec<Token>, LexError> {
        // Tokens average over four source bytes each, so one allocation
        // holds them all.
        let mut out = Vec::with_capacity(self.src.len() / 4 + 1);
        loop {
            let tok = self.next_token()?;
            let done = tok.kind == Tok::Eof;
            out.push(tok);
            if done {
                return Ok(out);
            }
        }
    }

    fn pos(&self) -> Pos {
        Pos {
            offset: self.offset,
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.offset).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.offset + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.offset += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Skips the run of bytes from here that satisfy `pred`, which must
    /// reject newlines.
    fn skip_while(&mut self, pred: impl Fn(u8) -> bool) {
        let run = self.src[self.offset..]
            .iter()
            .take_while(|&&c| pred(c))
            .count();
        self.offset += run;
        self.col = self
            .col
            .saturating_add(u32::try_from(run).unwrap_or(u32::MAX));
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            pos: self.pos(),
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(b'\n') => {
                    self.bump();
                }
                Some(c) if c.is_ascii_whitespace() => {
                    self.skip_while(|c| c != b'\n' && c.is_ascii_whitespace());
                }
                Some(b'/') if self.peek2() == Some(b'/') => self.skip_while(|c| c != b'\n'),
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let start = self.pos();
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => {
                                return Err(LexError {
                                    message: "unterminated block comment".into(),
                                    pos: start,
                                });
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia()?;
        let pos = self.pos();
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: Tok::Eof,
                pos,
            });
        };
        let kind = match c {
            b'0'..=b'9' => self.lex_number()?,
            b'\'' => self.lex_char()?,
            b'"' => Tok::StrLit(Span {
                start: pos.offset,
                end: self.lex_string(&mut |_| {})?,
            }),
            c if c == b'_' || c.is_ascii_alphabetic() => self.lex_ident(),
            _ => self.lex_operator()?,
        };
        Ok(Token { kind, pos })
    }

    fn lex_ident(&mut self) -> Tok {
        let start = self.offset;
        self.skip_while(|c| c == b'_' || c.is_ascii_alphanumeric());
        match Keyword::from_spelling(&self.src[start..self.offset]) {
            Some(kw) => Tok::Kw(kw),
            None => Tok::Ident(Span {
                start,
                end: self.offset,
            }),
        }
    }

    fn lex_number(&mut self) -> Result<Tok, LexError> {
        let mut radix = 10;
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            radix = 16;
        }
        let mut any = false;
        let mut value = Some(0u64);
        while let Some(digit) = self.peek().and_then(|c| (c as char).to_digit(radix)) {
            self.bump();
            any = true;
            value = value.and_then(|v| v.checked_mul(radix.into())?.checked_add(digit.into()));
        }
        // Accept (and ignore) C integer suffixes.
        while matches!(self.peek(), Some(b'u' | b'U' | b'l' | b'L')) {
            self.bump();
        }
        if !any {
            return Err(self.err("malformed integer literal"));
        }
        let value = value.ok_or_else(|| self.err("integer literal out of range"))?;
        Ok(Tok::IntLit(value as i64))
    }

    fn lex_escape(&mut self) -> Result<u8, LexError> {
        // Caller consumed the backslash.
        let Some(c) = self.bump() else {
            return Err(self.err("unterminated escape sequence"));
        };
        Ok(match c {
            b'n' => b'\n',
            b't' => b'\t',
            b'r' => b'\r',
            b'0' => 0,
            b'\\' => b'\\',
            b'\'' => b'\'',
            b'"' => b'"',
            b'x' => {
                let mut v: u32 = 0;
                let mut any = false;
                while let Some(h) = self.peek() {
                    if h.is_ascii_hexdigit() {
                        self.bump();
                        v = v * 16 + (h as char).to_digit(16).expect("hex digit");
                        any = true;
                        if v > 0xFF {
                            return Err(self.err("hex escape out of range"));
                        }
                    } else {
                        break;
                    }
                }
                if !any {
                    return Err(self.err("empty hex escape"));
                }
                v as u8
            }
            other => {
                return Err(self.err(format!("unknown escape `\\{}`", other as char)));
            }
        })
    }

    fn lex_char(&mut self) -> Result<Tok, LexError> {
        self.bump(); // opening quote
        let c = match self.bump() {
            Some(b'\\') => self.lex_escape()?,
            Some(b'\'') => return Err(self.err("empty character literal")),
            Some(c) => c,
            None => return Err(self.err("unterminated character literal")),
        };
        if self.bump() != Some(b'\'') {
            return Err(self.err("unterminated character literal"));
        }
        // Character literals are (signed) char values promoted to int.
        Ok(Tok::IntLit(c as i8 as i64))
    }

    /// Lexes a string literal and every literal adjacent to it (C
    /// concatenates them), handing each decoded byte to `sink`; returns
    /// the offset just past the last closing quote.
    fn lex_string(&mut self, sink: &mut impl FnMut(u8)) -> Result<usize, LexError> {
        loop {
            self.bump(); // opening quote
            loop {
                match self.bump() {
                    Some(b'"') => break,
                    Some(b'\\') => sink(self.lex_escape()?),
                    Some(b'\n') | None => return Err(self.err("unterminated string literal")),
                    Some(c) => sink(c),
                }
            }
            let end = self.offset;
            self.skip_trivia()?;
            if self.peek() != Some(b'"') {
                return Ok(end);
            }
        }
    }

    fn lex_operator(&mut self) -> Result<Tok, LexError> {
        let c = self.bump().expect("caller checked peek");
        let two = |lexer: &mut Lexer<'a>, next: u8, yes: Tok, no: Tok| {
            if lexer.peek() == Some(next) {
                lexer.bump();
                yes
            } else {
                no
            }
        };
        Ok(match c {
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b';' => Tok::Semi,
            b',' => Tok::Comma,
            b':' => Tok::Colon,
            b'?' => Tok::Question,
            b'.' => Tok::Dot,
            b'~' => Tok::Tilde,
            b'+' => match self.peek() {
                Some(b'+') => {
                    self.bump();
                    Tok::PlusPlus
                }
                Some(b'=') => {
                    self.bump();
                    Tok::PlusAssign
                }
                _ => Tok::Plus,
            },
            b'-' => match self.peek() {
                Some(b'-') => {
                    self.bump();
                    Tok::MinusMinus
                }
                Some(b'=') => {
                    self.bump();
                    Tok::MinusAssign
                }
                Some(b'>') => {
                    self.bump();
                    Tok::Arrow
                }
                _ => Tok::Minus,
            },
            b'*' => two(self, b'=', Tok::StarAssign, Tok::Star),
            b'/' => two(self, b'=', Tok::SlashAssign, Tok::Slash),
            b'%' => two(self, b'=', Tok::PercentAssign, Tok::Percent),
            b'^' => two(self, b'=', Tok::CaretAssign, Tok::Caret),
            b'!' => two(self, b'=', Tok::Ne, Tok::Bang),
            b'=' => two(self, b'=', Tok::Eq, Tok::Assign),
            b'&' => match self.peek() {
                Some(b'&') => {
                    self.bump();
                    Tok::AndAnd
                }
                Some(b'=') => {
                    self.bump();
                    Tok::AmpAssign
                }
                _ => Tok::Amp,
            },
            b'|' => match self.peek() {
                Some(b'|') => {
                    self.bump();
                    Tok::OrOr
                }
                Some(b'=') => {
                    self.bump();
                    Tok::PipeAssign
                }
                _ => Tok::Pipe,
            },
            b'<' => match self.peek() {
                Some(b'<') => {
                    self.bump();
                    two(self, b'=', Tok::ShlAssign, Tok::Shl)
                }
                Some(b'=') => {
                    self.bump();
                    Tok::Le
                }
                _ => Tok::Lt,
            },
            b'>' => match self.peek() {
                Some(b'>') => {
                    self.bump();
                    two(self, b'=', Tok::ShrAssign, Tok::Shr)
                }
                Some(b'=') => {
                    self.bump();
                    Tok::Ge
                }
                _ => Tok::Gt,
            },
            other => {
                return Err(self.err(format!("unexpected character `{}`", other as char)));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        Lexer::new(src)
            .tokenize()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    fn ident(start: usize, end: usize) -> Tok {
        Tok::Ident(Span { start, end })
    }

    /// The bytes of each string literal `src` lexes to.
    fn strings(src: &str) -> Vec<Vec<u8>> {
        kinds(src)
            .into_iter()
            .filter_map(|t| match t {
                Tok::StrLit(span) => {
                    let mut bytes = Vec::new();
                    string_bytes(src, span, &mut bytes);
                    Some(bytes)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn lexes_keywords_and_identifiers() {
        let src = "int main unsigned charlie size_t";
        let toks = kinds(src);
        assert_eq!(
            toks,
            vec![
                Tok::Kw(Keyword::Int),
                ident(4, 8),
                Tok::Kw(Keyword::Unsigned),
                ident(18, 25),
                Tok::Kw(Keyword::SizeT),
                Tok::Eof,
            ]
        );
        assert_eq!(toks[3].describe(src).to_string(), "identifier `charlie`");
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("0 42 0x1f 0xFF 10UL 7l"),
            vec![
                Tok::IntLit(0),
                Tok::IntLit(42),
                Tok::IntLit(0x1F),
                Tok::IntLit(0xFF),
                Tok::IntLit(10),
                Tok::IntLit(7),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_char_literals_with_sign_extension() {
        assert_eq!(kinds("'a'"), vec![Tok::IntLit(97), Tok::Eof]);
        assert_eq!(kinds(r"'\n'"), vec![Tok::IntLit(10), Tok::Eof]);
        assert_eq!(kinds(r"'\0'"), vec![Tok::IntLit(0), Tok::Eof]);
        // 0xFF as a signed char is -1: the Sendmail-critical case.
        assert_eq!(kinds(r"'\xff'"), vec![Tok::IntLit(-1), Tok::Eof]);
        assert_eq!(kinds(r"'\\'"), vec![Tok::IntLit(92), Tok::Eof]);
    }

    #[test]
    fn lexes_strings_with_escapes_and_concatenation() {
        assert_eq!(strings(r#""ab\tc""#), vec![b"ab\tc".to_vec()]);
        assert_eq!(strings(r#""\x41\x42""#), vec![b"AB".to_vec()]);
        // Adjacent literals are one token spanning both, trivia between
        // them included and trivia after them not.
        let src = "\"foo\" /* \" */ \"bar\" ;";
        assert_eq!(
            kinds(src),
            vec![Tok::StrLit(Span { start: 0, end: 19 }), Tok::Semi, Tok::Eof]
        );
        assert_eq!(strings(src), vec![b"foobar".to_vec()]);
    }

    #[test]
    fn lexes_operators_maximal_munch() {
        assert_eq!(
            kinds("a->b ++ -- <<= >>= <= >= == != && || += -= *= /= %= &= |= ^="),
            vec![
                ident(0, 1),
                Tok::Arrow,
                ident(3, 4),
                Tok::PlusPlus,
                Tok::MinusMinus,
                Tok::ShlAssign,
                Tok::ShrAssign,
                Tok::Le,
                Tok::Ge,
                Tok::Eq,
                Tok::Ne,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::PlusAssign,
                Tok::MinusAssign,
                Tok::StarAssign,
                Tok::SlashAssign,
                Tok::PercentAssign,
                Tok::AmpAssign,
                Tok::PipeAssign,
                Tok::CaretAssign,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments() {
        let toks = kinds("a // line\n b /* block\n over lines */ c");
        assert_eq!(
            toks,
            vec![ident(0, 1), ident(11, 12), ident(37, 38), Tok::Eof]
        );
    }

    #[test]
    fn reports_errors_with_positions() {
        let err = Lexer::new("int x = @;").tokenize().unwrap_err();
        assert!(err.message.contains("unexpected character"));
        assert_eq!(err.pos.line, 1);
        let err = Lexer::new("\n\n\"abc").tokenize().unwrap_err();
        assert_eq!(err.pos.line, 3);
    }

    #[test]
    fn unterminated_block_comment_is_an_error() {
        assert!(Lexer::new("/* never ends").tokenize().is_err());
    }
}
