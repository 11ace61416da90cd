//! Tokens and source spans for MiniC.

use crate::symbol::{Interner, Symbol};
use std::fmt;

/// A half-open byte range into the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub lo: u32,
    /// Byte offset one past the last character.
    pub hi: u32,
}

impl Span {
    /// Creates a span covering `lo..hi`.
    pub fn new(lo: u32, hi: u32) -> Self {
        Span { lo, hi }
    }

    /// Returns the smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Computes the 1-based line number of this span's start in `src`.
    pub fn line(&self, src: &str) -> usize {
        let lo = (self.lo as usize).min(src.len());
        1 + src.as_bytes()[..lo].iter().filter(|&&b| b == b'\n').count()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// Reserved words of MiniC (a C subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variants *are* their documentation
pub enum Keyword {
    Int,
    Char,
    Float,
    Double,
    Long,
    Unsigned,
    Void,
    Struct,
    If,
    Else,
    While,
    For,
    Do,
    Switch,
    Case,
    Default,
    Break,
    Continue,
    Return,
    Goto,
    Sizeof,
    Static,
    Extern,
    Const,
    Enum,
}

impl Keyword {
    /// Parses an identifier-like string into a keyword, if it is one.
    /// (Not `FromStr`: lookup failure is ordinary, not an error.)
    pub fn lookup(s: &str) -> Option<Keyword> {
        Some(match s {
            "int" => Keyword::Int,
            "char" => Keyword::Char,
            "float" => Keyword::Float,
            "double" => Keyword::Double,
            "long" => Keyword::Long,
            "unsigned" => Keyword::Unsigned,
            "void" => Keyword::Void,
            "struct" => Keyword::Struct,
            "if" => Keyword::If,
            "else" => Keyword::Else,
            "while" => Keyword::While,
            "for" => Keyword::For,
            "do" => Keyword::Do,
            "switch" => Keyword::Switch,
            "case" => Keyword::Case,
            "default" => Keyword::Default,
            "break" => Keyword::Break,
            "continue" => Keyword::Continue,
            "return" => Keyword::Return,
            "goto" => Keyword::Goto,
            "sizeof" => Keyword::Sizeof,
            "static" => Keyword::Static,
            "extern" => Keyword::Extern,
            "const" => Keyword::Const,
            "enum" => Keyword::Enum,
            _ => return None,
        })
    }

    /// The source spelling of the keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Keyword::Int => "int",
            Keyword::Char => "char",
            Keyword::Float => "float",
            Keyword::Double => "double",
            Keyword::Long => "long",
            Keyword::Unsigned => "unsigned",
            Keyword::Void => "void",
            Keyword::Struct => "struct",
            Keyword::If => "if",
            Keyword::Else => "else",
            Keyword::While => "while",
            Keyword::For => "for",
            Keyword::Do => "do",
            Keyword::Switch => "switch",
            Keyword::Case => "case",
            Keyword::Default => "default",
            Keyword::Break => "break",
            Keyword::Continue => "continue",
            Keyword::Return => "return",
            Keyword::Goto => "goto",
            Keyword::Sizeof => "sizeof",
            Keyword::Static => "static",
            Keyword::Extern => "extern",
            Keyword::Const => "const",
            Keyword::Enum => "enum",
        }
    }
}

/// The lexical categories of MiniC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind {
    /// An identifier that is not a keyword.
    Ident(Symbol),
    /// A reserved word.
    Kw(Keyword),
    /// An integer literal (decimal, hex `0x`, octal `0`, or char constant).
    Int(i64),
    /// A floating-point literal.
    Float(f64),
    /// A string literal with escapes already processed.
    Str(Symbol),
    /// Punctuation or an operator, e.g. `+=`, `->`, `;`.
    Punct(Punct),
    /// End of input.
    Eof,
}

/// Operators and punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Punct {
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
    Lt,
    Gt,
    Le,
    Ge,
    EqEq,
    Ne,
    AmpAmp,
    PipePipe,
    Shl,
    Shr,
    Assign,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    AmpEq,
    PipeEq,
    CaretEq,
    ShlEq,
    ShrEq,
    PlusPlus,
    MinusMinus,
    Arrow,
    Dot,
}

impl Punct {
    /// The source spelling of the punctuation.
    pub fn as_str(self) -> &'static str {
        use Punct::*;
        match self {
            LParen => "(",
            RParen => ")",
            LBrace => "{",
            RBrace => "}",
            LBracket => "[",
            RBracket => "]",
            Semi => ";",
            Comma => ",",
            Colon => ":",
            Question => "?",
            Plus => "+",
            Minus => "-",
            Star => "*",
            Slash => "/",
            Percent => "%",
            Amp => "&",
            Pipe => "|",
            Caret => "^",
            Tilde => "~",
            Bang => "!",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            EqEq => "==",
            Ne => "!=",
            AmpAmp => "&&",
            PipePipe => "||",
            Shl => "<<",
            Shr => ">>",
            Assign => "=",
            PlusEq => "+=",
            MinusEq => "-=",
            StarEq => "*=",
            SlashEq => "/=",
            PercentEq => "%=",
            AmpEq => "&=",
            PipeEq => "|=",
            CaretEq => "^=",
            ShlEq => "<<=",
            ShrEq => ">>=",
            PlusPlus => "++",
            MinusMinus => "--",
            Arrow => "->",
            Dot => ".",
        }
    }
}

/// A token with its source location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where it came from.
    pub span: Span,
}

impl TokenKind {
    /// How diagnostics name this token; identifiers and strings spell
    /// themselves through `names`, the interner of their unit.
    pub fn describe<'a>(&'a self, names: &'a Interner) -> Describe<'a> {
        Describe { kind: self, names }
    }
}

/// A token kind as diagnostics name it (see [`TokenKind::describe`]).
pub struct Describe<'a> {
    kind: &'a TokenKind,
    names: &'a Interner,
}

impl fmt::Display for Describe<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self.kind {
            TokenKind::Ident(s) => write!(f, "identifier `{}`", &self.names[s]),
            TokenKind::Kw(k) => write!(f, "keyword `{}`", k.as_str()),
            TokenKind::Int(v) => write!(f, "integer `{v}`"),
            TokenKind::Float(v) => write!(f, "float `{v}`"),
            TokenKind::Str(s) => write!(f, "string {:?}", &self.names[s]),
            TokenKind::Punct(p) => write!(f, "`{}`", p.as_str()),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_and_line() {
        let a = Span::new(0, 2);
        let b = Span::new(5, 9);
        assert_eq!(a.to(b), Span::new(0, 9));
        assert_eq!(Span::new(6, 7).line("ab\ncd\nef"), 3);
    }

    #[test]
    fn keyword_round_trip() {
        for kw in [
            Keyword::Int,
            Keyword::Switch,
            Keyword::Sizeof,
            Keyword::Goto,
        ] {
            assert_eq!(Keyword::lookup(kw.as_str()), Some(kw));
        }
        assert_eq!(Keyword::lookup("banana"), None);
    }

    #[test]
    fn token_display_nonempty() {
        let mut names = Interner::new();
        let describe = |k: TokenKind, names: &Interner| k.describe(names).to_string();
        assert_eq!(describe(TokenKind::Punct(Punct::Arrow), &names), "`->`");
        assert_eq!(describe(TokenKind::Eof, &names), "end of input");
        let x = names.intern("x");
        assert_eq!(describe(TokenKind::Ident(x), &names), "identifier `x`");
        let s = names.intern("a\nb");
        assert_eq!(describe(TokenKind::Str(s), &names), r#"string "a\nb""#);
    }

    #[test]
    fn tokens_are_small() {
        assert_eq!(std::mem::size_of::<Token>(), 24);
    }
}
