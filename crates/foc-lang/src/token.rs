//! Token definitions for MiniC.

use std::fmt;

/// Source position (byte offset, line, column), 1-based line/column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// Byte offset into the source.
    pub offset: usize,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A byte range of the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Offset of the first byte.
    pub start: usize,
    /// Offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// The spanned text of `src`.
    pub fn text(self, src: &str) -> &str {
        &src[self.start..self.end]
    }
}

/// A lexed token with its position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: Tok,
    /// Where it starts.
    pub pos: Pos,
}

/// Keywords recognised by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Void,
    Char,
    Short,
    Int,
    Long,
    Signed,
    Unsigned,
    Struct,
    If,
    Else,
    While,
    Do,
    For,
    Switch,
    Case,
    Default,
    Break,
    Continue,
    Return,
    Goto,
    Sizeof,
    Static,
    Const,
    /// `size_t`, treated as a built-in alias for `unsigned long`.
    SizeT,
}

impl Keyword {
    /// The keyword an identifier spelling names, if any.
    pub fn from_spelling(spelling: &[u8]) -> Option<Keyword> {
        Some(match spelling {
            b"void" => Keyword::Void,
            b"char" => Keyword::Char,
            b"short" => Keyword::Short,
            b"int" => Keyword::Int,
            b"long" => Keyword::Long,
            b"signed" => Keyword::Signed,
            b"unsigned" => Keyword::Unsigned,
            b"struct" => Keyword::Struct,
            b"if" => Keyword::If,
            b"else" => Keyword::Else,
            b"while" => Keyword::While,
            b"do" => Keyword::Do,
            b"for" => Keyword::For,
            b"switch" => Keyword::Switch,
            b"case" => Keyword::Case,
            b"default" => Keyword::Default,
            b"break" => Keyword::Break,
            b"continue" => Keyword::Continue,
            b"return" => Keyword::Return,
            b"goto" => Keyword::Goto,
            b"sizeof" => Keyword::Sizeof,
            b"static" => Keyword::Static,
            b"const" => Keyword::Const,
            b"size_t" => Keyword::SizeT,
            _ => return None,
        })
    }
}

/// Token kinds. A token owns no text: identifiers and string literals
/// are spans of the source, read back only where the AST keeps them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok {
    /// Identifier.
    Ident(Span),
    /// Keyword.
    Kw(Keyword),
    /// Integer literal (value already decoded; char literals become this).
    IntLit(i64),
    /// String literal, from its opening quote to the closing quote of
    /// the last literal adjacent to it (C concatenates them); its bytes
    /// are [`crate::lexer::string_bytes`].
    StrLit(Span),

    // Punctuation and operators.
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Colon,
    Question,
    Dot,
    Arrow,

    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Bang,
    Shl,
    Shr,

    PlusPlus,
    MinusMinus,

    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    AmpAssign,
    PipeAssign,
    CaretAssign,
    ShlAssign,
    ShrAssign,

    Eq,
    Ne,
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,

    /// End of input.
    Eof,
}

/// A token as diagnostics name it (see [`Tok::describe`]).
pub struct Described<'a> {
    tok: Tok,
    src: &'a str,
}

impl fmt::Display for Described<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.tok {
            Tok::Ident(span) => write!(f, "identifier `{}`", span.text(self.src)),
            Tok::Kw(k) => write!(f, "keyword `{k:?}`"),
            Tok::IntLit(v) => write!(f, "integer literal {v}"),
            Tok::StrLit(_) => write!(f, "string literal"),
            Tok::Eof => write!(f, "end of input"),
            other => write!(f, "`{}`", other.spelling()),
        }
    }
}

impl Tok {
    /// Names the token for a diagnostic, reading an identifier's text
    /// from `src`, the source it was lexed from.
    pub fn describe(self, src: &str) -> Described<'_> {
        Described { tok: self, src }
    }

    /// Canonical spelling of punctuation tokens (diagnostics).
    pub fn spelling(&self) -> &'static str {
        match self {
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::Semi => ";",
            Tok::Comma => ",",
            Tok::Colon => ":",
            Tok::Question => "?",
            Tok::Dot => ".",
            Tok::Arrow => "->",
            Tok::Plus => "+",
            Tok::Minus => "-",
            Tok::Star => "*",
            Tok::Slash => "/",
            Tok::Percent => "%",
            Tok::Amp => "&",
            Tok::Pipe => "|",
            Tok::Caret => "^",
            Tok::Tilde => "~",
            Tok::Bang => "!",
            Tok::Shl => "<<",
            Tok::Shr => ">>",
            Tok::PlusPlus => "++",
            Tok::MinusMinus => "--",
            Tok::Assign => "=",
            Tok::PlusAssign => "+=",
            Tok::MinusAssign => "-=",
            Tok::StarAssign => "*=",
            Tok::SlashAssign => "/=",
            Tok::PercentAssign => "%=",
            Tok::AmpAssign => "&=",
            Tok::PipeAssign => "|=",
            Tok::CaretAssign => "^=",
            Tok::ShlAssign => "<<=",
            Tok::ShrAssign => ">>=",
            Tok::Eq => "==",
            Tok::Ne => "!=",
            Tok::Lt => "<",
            Tok::Gt => ">",
            Tok::Le => "<=",
            Tok::Ge => ">=",
            Tok::AndAnd => "&&",
            Tok::OrOr => "||",
            _ => "?",
        }
    }
}
