//! The MiniC lexer, including a tiny object-macro preprocessor.
//!
//! The lexer turns source text into a `Vec<Token>`, interning every
//! identifier and string literal into the unit's [`Interner`] so that a
//! token is a `Copy` value with no heap data. Two preprocessor
//! directives are supported, enough for the benchmark suite:
//!
//! - `#define NAME <tokens...>` — object-like macros, substituted at the
//!   token level (recursively, with a depth limit).
//! - `#include ...` — ignored (the suite programs are self-contained).
//!
//! Comments (`/* */` and `//`) are skipped.

use crate::error::{CompileError, ErrorKind};
use crate::symbol::{Interner, Symbol};
use crate::token::{Keyword, Punct, Span, Token, TokenKind};

/// Lexes `src` into tokens, applying `#define` substitution. Identifier
/// and string-literal spellings are interned into `names`.
///
/// The returned stream always ends with a single [`TokenKind::Eof`] token.
///
/// # Errors
///
/// Returns a [`CompileError`] for unterminated strings or comments, bad
/// escapes, malformed numbers, and stray characters.
///
/// # Examples
///
/// ```
/// use minic::lexer::lex;
/// use minic::symbol::Interner;
/// use minic::token::TokenKind;
///
/// let mut names = Interner::new();
/// let toks = lex("#define N 3\nint x = N;", &mut names).unwrap();
/// assert!(toks.iter().any(|t| t.kind == TokenKind::Int(3)));
/// let x = names.get("x").unwrap();
/// assert!(toks.iter().any(|t| t.kind == TokenKind::Ident(x)));
/// ```
pub fn lex(src: &str, names: &mut Interner) -> Result<Vec<Token>, CompileError> {
    let raw = RawLexer::new(src, names).run()?;
    if raw.defines.is_empty() {
        return Ok(raw.tokens);
    }
    expand_macros(raw, names)
}

/// `#define name body` (body = raw tokens up to end of line), placed
/// before raw token `at`.
struct Define {
    at: usize,
    name: Symbol,
    body: Vec<Token>,
}

/// The raw token stream before macro expansion, with the directives
/// that apply to it.
struct RawTokens {
    tokens: Vec<Token>,
    defines: Vec<Define>,
}

struct RawLexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    names: &'a mut Interner,
    /// Scratch for string literals with escapes.
    text: Vec<u8>,
}

impl<'a> RawLexer<'a> {
    fn new(src: &'a str, names: &'a mut Interner) -> Self {
        RawLexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            names,
            text: Vec::new(),
        }
    }

    fn run(mut self) -> Result<RawTokens, CompileError> {
        // Tokens average more than two bytes of source each (under
        // three in generated programs), so this one allocation almost
        // always holds the whole stream.
        let mut raw = RawTokens {
            tokens: Vec::with_capacity(self.bytes.len() / 2 + 1),
            defines: Vec::new(),
        };
        loop {
            self.skip_ws_and_comments()?;
            if self.pos >= self.bytes.len() {
                let span = Span::new(self.pos as u32, self.pos as u32);
                raw.tokens.push(Token {
                    kind: TokenKind::Eof,
                    span,
                });
                return Ok(raw);
            }
            if self.bytes[self.pos] == b'#' {
                if let Some((name, body)) = self.directive()? {
                    raw.defines.push(Define {
                        at: raw.tokens.len(),
                        name,
                        body,
                    });
                }
                continue;
            }
            let tok = self.next_token()?;
            raw.tokens.push(tok);
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), CompileError> {
        loop {
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.pos + 1 < self.bytes.len() && &self.bytes[self.pos..self.pos + 2] == b"//" {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
                continue;
            }
            if self.pos + 1 < self.bytes.len() && &self.bytes[self.pos..self.pos + 2] == b"/*" {
                let start = self.pos;
                self.pos += 2;
                loop {
                    if self.pos + 1 >= self.bytes.len() {
                        return Err(self.err(start, "unterminated block comment"));
                    }
                    if &self.bytes[self.pos..self.pos + 2] == b"*/" {
                        self.pos += 2;
                        break;
                    }
                    self.pos += 1;
                }
                continue;
            }
            return Ok(());
        }
    }

    /// Skips spaces/tabs (not newlines) and non-newline comments within a
    /// directive line.
    fn skip_line_ws(&mut self) {
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos] == b' ' || self.bytes[self.pos] == b'\t')
        {
            self.pos += 1;
        }
    }

    /// Lexes a directive line; returns `#define`'s name and body.
    fn directive(&mut self) -> Result<Option<(Symbol, Vec<Token>)>, CompileError> {
        let start = self.pos;
        self.pos += 1; // '#'
        self.skip_line_ws();
        match self.ident() {
            "define" => {
                self.skip_line_ws();
                let macro_name = self.ident();
                if macro_name.is_empty() {
                    return Err(self.err(start, "#define requires a name"));
                }
                let macro_name = self.names.intern(macro_name);
                let mut body = Vec::new();
                loop {
                    self.skip_line_ws();
                    if self.pos >= self.bytes.len()
                        || self.bytes[self.pos] == b'\n'
                        || (self.pos + 1 < self.bytes.len()
                            && &self.bytes[self.pos..self.pos + 2] == b"//")
                    {
                        break;
                    }
                    // A block comment inside the directive is skipped
                    // like the C preprocessor does (replaced by a space).
                    if self.pos + 1 < self.bytes.len()
                        && &self.bytes[self.pos..self.pos + 2] == b"/*"
                    {
                        let cstart = self.pos;
                        self.pos += 2;
                        loop {
                            if self.pos + 1 >= self.bytes.len() {
                                return Err(self.err(cstart, "unterminated block comment"));
                            }
                            if &self.bytes[self.pos..self.pos + 2] == b"*/" {
                                self.pos += 2;
                                break;
                            }
                            self.pos += 1;
                        }
                        continue;
                    }
                    body.push(self.next_token()?);
                }
                Ok(Some((macro_name, body)))
            }
            "include" => {
                // Ignore the rest of the line.
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
                Ok(None)
            }
            other => Err(self.err(start, &format!("unsupported directive #{other}"))),
        }
    }

    /// Consumes an identifier-shaped run (possibly empty).
    fn ident(&mut self) -> &'a str {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_alphanumeric() || self.bytes[self.pos] == b'_')
        {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    fn err(&self, at: usize, msg: &str) -> CompileError {
        CompileError::new(
            ErrorKind::Lex,
            msg.to_string(),
            Span::new(at as u32, (at + 1).min(self.bytes.len()) as u32),
        )
    }

    fn next_token(&mut self) -> Result<Token, CompileError> {
        let start = self.pos;
        let b = self.bytes[self.pos];
        let kind = if b.is_ascii_alphabetic() || b == b'_' {
            let s = self.ident();
            match Keyword::lookup(s) {
                Some(kw) => TokenKind::Kw(kw),
                None => TokenKind::Ident(self.names.intern(s)),
            }
        } else if b.is_ascii_digit() {
            self.number(start)?
        } else if b == b'"' {
            self.string(start)?
        } else if b == b'\'' {
            self.char_const(start)?
        } else {
            self.punct(start)?
        };
        Ok(Token {
            kind,
            span: Span::new(start as u32, self.pos as u32),
        })
    }

    fn number(&mut self, start: usize) -> Result<TokenKind, CompileError> {
        // Hex.
        if self.bytes[self.pos] == b'0'
            && self.pos + 1 < self.bytes.len()
            && (self.bytes[self.pos + 1] | 0x20) == b'x'
        {
            self.pos += 2;
            let digits_start = self.pos;
            while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_hexdigit() {
                self.pos += 1;
            }
            let digits = &self.src[digits_start..self.pos];
            if digits.is_empty() {
                return Err(self.err(start, "hex literal needs digits"));
            }
            let v = i64::from_str_radix(digits, 16)
                .map_err(|_| self.err(start, "hex literal out of range"))?;
            self.eat_int_suffix();
            return Ok(TokenKind::Int(v));
        }
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        let is_float = self.pos < self.bytes.len()
            && (self.bytes[self.pos] == b'.'
                || (self.bytes[self.pos] | 0x20) == b'e'
                    && self.pos + 1 < self.bytes.len()
                    && (self.bytes[self.pos + 1].is_ascii_digit()
                        || self.bytes[self.pos + 1] == b'-'
                        || self.bytes[self.pos + 1] == b'+'));
        if is_float {
            if self.bytes[self.pos] == b'.' {
                self.pos += 1;
                while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
            }
            if self.pos < self.bytes.len() && (self.bytes[self.pos] | 0x20) == b'e' {
                self.pos += 1;
                if self.pos < self.bytes.len()
                    && (self.bytes[self.pos] == b'-' || self.bytes[self.pos] == b'+')
                {
                    self.pos += 1;
                }
                while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
            }
            let text = &self.src[start..self.pos];
            let v: f64 = text
                .parse()
                .map_err(|_| self.err(start, "malformed float literal"))?;
            // Allow `f` suffix.
            if self.pos < self.bytes.len() && (self.bytes[self.pos] | 0x20) == b'f' {
                self.pos += 1;
            }
            Ok(TokenKind::Float(v))
        } else {
            let text = &self.src[start..self.pos];
            let v: i64 = if text.len() > 1 && text.starts_with('0') {
                i64::from_str_radix(&text[1..], 8)
                    .map_err(|_| self.err(start, "malformed octal literal"))?
            } else {
                text.parse()
                    .map_err(|_| self.err(start, "integer literal out of range"))?
            };
            self.eat_int_suffix();
            Ok(TokenKind::Int(v))
        }
    }

    fn eat_int_suffix(&mut self) {
        while self.pos < self.bytes.len() && matches!(self.bytes[self.pos] | 0x20, b'l' | b'u') {
            self.pos += 1;
        }
    }

    fn escape(&mut self, start: usize) -> Result<u8, CompileError> {
        self.pos += 1; // backslash
        if self.pos >= self.bytes.len() {
            return Err(self.err(start, "unterminated escape"));
        }
        let c = self.bytes[self.pos];
        self.pos += 1;
        Ok(match c {
            b'n' => b'\n',
            b't' => b'\t',
            b'r' => b'\r',
            b'0' => 0,
            b'\\' => b'\\',
            b'\'' => b'\'',
            b'"' => b'"',
            b'a' => 7,
            b'b' => 8,
            b'f' => 12,
            b'v' => 11,
            other => return Err(self.err(start, &format!("unknown escape \\{}", other as char))),
        })
    }

    fn string(&mut self, start: usize) -> Result<TokenKind, CompileError> {
        self.pos += 1; // opening quote
        let body = self.pos;
        // Without escapes the literal is its source text.
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err(start, "unterminated string literal")),
                Some(b'"') => {
                    let sym = self.names.intern(&self.src[body..self.pos]);
                    self.pos += 1;
                    return Ok(TokenKind::Str(sym));
                }
                Some(b'\\') => break,
                Some(_) => self.pos += 1,
            }
        }
        let mut out = std::mem::take(&mut self.text);
        out.clear();
        out.extend_from_slice(&self.bytes[body..self.pos]);
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.err(start, "unterminated string literal"));
            }
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\\' => out.push(self.escape(start)?),
                c => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
        let sym = self.names.intern(&String::from_utf8_lossy(&out));
        self.text = out;
        Ok(TokenKind::Str(sym))
    }

    fn char_const(&mut self, start: usize) -> Result<TokenKind, CompileError> {
        self.pos += 1; // opening quote
        if self.pos >= self.bytes.len() {
            return Err(self.err(start, "unterminated char constant"));
        }
        let v = if self.bytes[self.pos] == b'\\' {
            self.escape(start)? as i64
        } else {
            let c = self.bytes[self.pos] as i64;
            self.pos += 1;
            c
        };
        if self.pos >= self.bytes.len() || self.bytes[self.pos] != b'\'' {
            return Err(self.err(start, "unterminated char constant"));
        }
        self.pos += 1;
        Ok(TokenKind::Int(v))
    }

    fn punct(&mut self, start: usize) -> Result<TokenKind, CompileError> {
        use Punct::*;
        let at = |i: usize| self.bytes.get(self.pos + i).copied().unwrap_or(0);
        let (b0, b1) = (at(0), at(1));
        let (p, len) = match (b0, b1) {
            (b'<', b'<') if at(2) == b'=' => (ShlEq, 3),
            (b'>', b'>') if at(2) == b'=' => (ShrEq, 3),
            (b'=', b'=') => (EqEq, 2),
            (b'!', b'=') => (Ne, 2),
            (b'<', b'=') => (Le, 2),
            (b'>', b'=') => (Ge, 2),
            (b'&', b'&') => (AmpAmp, 2),
            (b'|', b'|') => (PipePipe, 2),
            (b'<', b'<') => (Shl, 2),
            (b'>', b'>') => (Shr, 2),
            (b'+', b'=') => (PlusEq, 2),
            (b'-', b'=') => (MinusEq, 2),
            (b'*', b'=') => (StarEq, 2),
            (b'/', b'=') => (SlashEq, 2),
            (b'%', b'=') => (PercentEq, 2),
            (b'&', b'=') => (AmpEq, 2),
            (b'|', b'=') => (PipeEq, 2),
            (b'^', b'=') => (CaretEq, 2),
            (b'+', b'+') => (PlusPlus, 2),
            (b'-', b'-') => (MinusMinus, 2),
            (b'-', b'>') => (Arrow, 2),
            (b'(', _) => (LParen, 1),
            (b')', _) => (RParen, 1),
            (b'{', _) => (LBrace, 1),
            (b'}', _) => (RBrace, 1),
            (b'[', _) => (LBracket, 1),
            (b']', _) => (RBracket, 1),
            (b';', _) => (Semi, 1),
            (b',', _) => (Comma, 1),
            (b':', _) => (Colon, 1),
            (b'?', _) => (Question, 1),
            (b'+', _) => (Plus, 1),
            (b'-', _) => (Minus, 1),
            (b'*', _) => (Star, 1),
            (b'/', _) => (Slash, 1),
            (b'%', _) => (Percent, 1),
            (b'&', _) => (Amp, 1),
            (b'|', _) => (Pipe, 1),
            (b'^', _) => (Caret, 1),
            (b'~', _) => (Tilde, 1),
            (b'!', _) => (Bang, 1),
            (b'<', _) => (Lt, 1),
            (b'>', _) => (Gt, 1),
            (b'=', _) => (Assign, 1),
            (b'.', _) => (Dot, 1),
            (other, _) => {
                return Err(self.err(start, &format!("stray character `{}`", other as char)));
            }
        };
        self.pos += len;
        Ok(TokenKind::Punct(p))
    }
}

/// Applies object-macro substitution to the raw token stream. Each
/// `#define` takes effect from the token it precedes on.
fn expand_macros(raw: RawTokens, names: &Interner) -> Result<Vec<Token>, CompileError> {
    const MAX_DEPTH: usize = 16;
    /// The define in force for each symbol, if any.
    struct Macros<'a> {
        defines: &'a [Define],
        by_symbol: Vec<Option<usize>>,
        names: &'a Interner,
    }
    let mut macros = Macros {
        defines: &raw.defines,
        by_symbol: vec![None; names.len()],
        names,
    };
    let mut out = Vec::with_capacity(raw.tokens.len());

    fn push_expanded(
        tok: Token,
        macros: &Macros,
        out: &mut Vec<Token>,
        depth: usize,
    ) -> Result<(), CompileError> {
        if let TokenKind::Ident(name) = tok.kind {
            if let Some(d) = macros.by_symbol[name.index()] {
                if depth >= MAX_DEPTH {
                    return Err(CompileError::new(
                        ErrorKind::Lex,
                        format!(
                            "macro `{}` expands too deeply (recursive #define?)",
                            &macros.names[name]
                        ),
                        tok.span,
                    ));
                }
                for &t in &macros.defines[d].body {
                    // Re-span replacement tokens at the use site so
                    // diagnostics point at the macro use.
                    let t = Token {
                        span: tok.span,
                        ..t
                    };
                    push_expanded(t, macros, out, depth + 1)?;
                }
                return Ok(());
            }
        }
        out.push(tok);
        Ok(())
    }

    let mut next = 0;
    for (i, &tok) in raw.tokens.iter().enumerate() {
        while let Some(d) = raw.defines.get(next).filter(|d| d.at == i) {
            macros.by_symbol[d.name.index()] = Some(next);
            next += 1;
        }
        push_expanded(tok, &macros, &mut out, 0)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lexed(src: &str) -> (Vec<TokenKind>, Interner) {
        let mut names = Interner::new();
        let toks = lex(src, &mut names).unwrap();
        (toks.into_iter().map(|t| t.kind).collect(), names)
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lexed(src).0
    }

    fn lex_fresh(src: &str) -> Result<Vec<Token>, CompileError> {
        lex(src, &mut Interner::new())
    }

    #[test]
    fn lexes_basic_tokens() {
        let (ks, names) = lexed("int x = 42;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Kw(Keyword::Int),
                TokenKind::Ident(names.get("x").unwrap()),
                TokenKind::Punct(Punct::Assign),
                TokenKind::Int(42),
                TokenKind::Punct(Punct::Semi),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("0x1f")[0], TokenKind::Int(31));
        assert_eq!(kinds("010")[0], TokenKind::Int(8));
        assert_eq!(kinds("3.5")[0], TokenKind::Float(3.5));
        assert_eq!(kinds("1e3")[0], TokenKind::Float(1000.0));
        assert_eq!(kinds("2.5e-1")[0], TokenKind::Float(0.25));
        assert_eq!(kinds("100L")[0], TokenKind::Int(100));
        assert_eq!(kinds("7UL")[0], TokenKind::Int(7));
    }

    #[test]
    fn lexes_strings_and_chars() {
        let (ks, names) = lexed(r#""a\nb" "plain""#);
        assert_eq!(ks[0], TokenKind::Str(names.get("a\nb").unwrap()));
        assert_eq!(ks[1], TokenKind::Str(names.get("plain").unwrap()));
        assert_eq!(kinds("'a'")[0], TokenKind::Int(97));
        assert_eq!(kinds(r"'\n'")[0], TokenKind::Int(10));
        assert_eq!(kinds(r"'\0'")[0], TokenKind::Int(0));
    }

    #[test]
    fn lexes_multi_char_operators() {
        let ks = kinds("a <<= b >>= c -> d ++ <= >= == != && ||");
        assert!(ks.contains(&TokenKind::Punct(Punct::ShlEq)));
        assert!(ks.contains(&TokenKind::Punct(Punct::ShrEq)));
        assert!(ks.contains(&TokenKind::Punct(Punct::Arrow)));
        assert!(ks.contains(&TokenKind::Punct(Punct::PlusPlus)));
    }

    #[test]
    fn skips_comments() {
        let (ks, names) = lexed("a /* b \n c */ d // e\n f");
        let ident = |s: &str| TokenKind::Ident(names.get(s).unwrap());
        assert_eq!(
            ks,
            vec![ident("a"), ident("d"), ident("f"), TokenKind::Eof,]
        );
    }

    #[test]
    fn define_substitutes() {
        let ks = kinds("#define N 10\n#define M (N + 1)\nM");
        assert_eq!(
            ks,
            vec![
                TokenKind::Punct(Punct::LParen),
                TokenKind::Int(10),
                TokenKind::Punct(Punct::Plus),
                TokenKind::Int(1),
                TokenKind::Punct(Punct::RParen),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn include_is_ignored() {
        let ks = kinds("#include <stdio.h>\nint");
        assert_eq!(ks, vec![TokenKind::Kw(Keyword::Int), TokenKind::Eof]);
    }

    #[test]
    fn recursive_macro_errors() {
        assert!(lex_fresh("#define A A\nA").is_err());
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex_fresh("\"abc").is_err());
        assert!(lex_fresh("/* abc").is_err());
        assert!(lex_fresh("'a").is_err());
    }

    #[test]
    fn stray_char_errors() {
        assert!(lex_fresh("@").is_err());
    }

    #[test]
    fn eof_is_last() {
        let toks = lex_fresh("").unwrap();
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, TokenKind::Eof);
    }
}
