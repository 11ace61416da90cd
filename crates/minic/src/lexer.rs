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
//!
//! The lexer is built for the corpus, which lexes thousands of
//! generated programs. Each token is one dispatch on its first byte (a
//! jump table over all 256 values), and a punctuator's arm matches the
//! bytes after it. Whitespace and identifier runs scan with one
//! byte-class table lookup per byte. Integer literals accumulate with
//! checked arithmetic.

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

/// [`CLASS`] bit of the whitespace bytes (`is_ascii_whitespace`: space,
/// `\t`, `\n`, form feed, `\r`).
const SPACE: u8 = 1;
/// [`CLASS`] bit of the bytes that continue an identifier: ASCII
/// letters, digits and `_`.
const WORD: u8 = 2;

/// The class bits of every byte, for the loops that scan whitespace
/// and identifier runs: one load per byte.
static CLASS: [u8; 256] = {
    let mut t = [0; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = match b as u8 {
            b' ' | b'\t' | b'\n' | 0x0c | b'\r' => SPACE,
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_' => WORD,
            _ => 0,
        };
        b += 1;
    }
    t
};

#[inline]
fn is_space(b: u8) -> bool {
    CLASS[b as usize] & SPACE != 0
}

#[inline]
fn is_word(b: u8) -> bool {
    CLASS[b as usize] & WORD != 0
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

    /// The byte at `pos + i`, or 0 past the end (no lookahead test
    /// matches 0).
    #[inline]
    fn at(&self, i: usize) -> u8 {
        self.bytes.get(self.pos + i).copied().unwrap_or(0)
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
            self.skip_space();
            let Some(&b) = self.bytes.get(self.pos) else {
                break;
            };
            match b {
                b'/' if self.skip_comment()? => continue,
                b'#' => {
                    if let Some((name, body)) = self.directive()? {
                        raw.defines.push(Define {
                            at: raw.tokens.len(),
                            name,
                            body,
                        });
                    }
                    continue;
                }
                _ => {}
            }
            self.token(&mut raw.tokens)?;
        }
        let span = Span::new(self.pos as u32, self.pos as u32);
        raw.tokens.push(Token {
            kind: TokenKind::Eof,
            span,
        });
        Ok(raw)
    }

    /// Skips whitespace.
    #[inline(always)]
    fn skip_space(&mut self) {
        while self.pos < self.bytes.len() && is_space(self.bytes[self.pos]) {
            self.pos += 1;
        }
    }

    /// Skips the comment starting at `pos` (a `/`), if one does.
    fn skip_comment(&mut self) -> Result<bool, CompileError> {
        match self.at(1) {
            b'/' => {
                while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                    self.pos += 1;
                }
                Ok(true)
            }
            b'*' => {
                let start = self.pos;
                self.pos += 2;
                loop {
                    if self.pos + 1 >= self.bytes.len() {
                        return Err(self.err(start, "unterminated block comment"));
                    }
                    if &self.bytes[self.pos..self.pos + 2] == b"*/" {
                        self.pos += 2;
                        return Ok(true);
                    }
                    self.pos += 1;
                }
            }
            _ => Ok(false),
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
                    match self.at(0) {
                        b'\n' => break,
                        _ if self.pos >= self.bytes.len() => break,
                        b'/' if self.at(1) == b'/' => break,
                        // A block comment inside the directive is
                        // skipped like the C preprocessor does
                        // (replaced by a space).
                        b'/' if self.at(1) == b'*' => {
                            self.skip_comment()?;
                        }
                        _ => self.token(&mut body)?,
                    }
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
    #[inline]
    fn ident(&mut self) -> &'a str {
        let start = self.pos;
        while self.pos < self.bytes.len() && is_word(self.bytes[self.pos]) {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    #[cold]
    #[inline(never)]
    fn err(&self, at: usize, msg: &str) -> CompileError {
        CompileError::new(
            ErrorKind::Lex,
            msg.to_string(),
            Span::new(at as u32, (at + 1).min(self.bytes.len()) as u32),
        )
    }

    /// An identifier or keyword.
    #[inline(always)]
    fn word(&mut self) -> TokenKind {
        let s = self.ident();
        match Keyword::lookup(s) {
            Some(kw) => TokenKind::Kw(kw),
            None => TokenKind::Ident(self.names.intern(s)),
        }
    }

    /// Consumes a run of decimal digits.
    #[inline]
    fn digits(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
    }

    #[inline(always)]
    fn number(&mut self, start: usize) -> Result<TokenKind, CompileError> {
        if self.bytes[self.pos] == b'0' && (self.at(1) | 0x20) == b'x' {
            self.pos += 2;
            let digits = self.pos;
            while self.at(0).is_ascii_hexdigit() {
                self.pos += 1;
            }
            if self.pos == digits {
                return Err(self.err(start, "hex literal needs digits"));
            }
            let v = accumulate(&self.bytes[digits..self.pos], 16)
                .ok_or_else(|| self.err(start, "hex literal out of range"))?;
            self.eat_int_suffix();
            return Ok(TokenKind::Int(v));
        }
        self.digits();
        let b = self.at(0);
        if b == b'.' || (b | 0x20) == b'e' && matches!(self.at(1), b'0'..=b'9' | b'-' | b'+') {
            return self.fraction(start);
        }
        let text = &self.bytes[start..self.pos];
        let v = if text.len() > 1 && text[0] == b'0' {
            accumulate(&text[1..], 8).ok_or_else(|| self.err(start, "malformed octal literal"))?
        } else {
            accumulate(text, 10).ok_or_else(|| self.err(start, "integer literal out of range"))?
        };
        self.eat_int_suffix();
        Ok(TokenKind::Int(v))
    }

    /// The rest of a floating constant that started at `start`: an
    /// optional `.` and fraction digits, an optional exponent and an
    /// optional `f` suffix. `pos` is past the integer digits, if any.
    fn fraction(&mut self, start: usize) -> Result<TokenKind, CompileError> {
        if self.at(0) == b'.' {
            self.pos += 1;
            self.digits();
        }
        if (self.at(0) | 0x20) == b'e' {
            self.pos += 1;
            if matches!(self.at(0), b'-' | b'+') {
                self.pos += 1;
            }
            self.digits();
        }
        let v: f64 = self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err(start, "malformed float literal"))?;
        // Allow `f` suffix.
        if (self.at(0) | 0x20) == b'f' {
            self.pos += 1;
        }
        Ok(TokenKind::Float(v))
    }

    fn eat_int_suffix(&mut self) {
        while matches!(self.at(0) | 0x20, b'l' | b'u') {
            self.pos += 1;
        }
    }

    /// The escape sequence at `pos` (a backslash) as one byte. Octal
    /// (`\` and one to three octal digits) and hex (`\x` and hex
    /// digits) escapes must stay within ASCII: literals are interned
    /// as `str`.
    fn escape(&mut self, start: usize) -> Result<u8, CompileError> {
        self.pos += 1; // backslash
        let Some(&c) = self.bytes.get(self.pos) else {
            return Err(self.err(start, "unterminated escape"));
        };
        let spelled = self.pos;
        self.pos += 1;
        let v: u32 = match c {
            b'n' => 10,
            b't' => 9,
            b'r' => 13,
            b'\\' => u32::from(b'\\'),
            b'\'' => u32::from(b'\''),
            b'"' => u32::from(b'"'),
            b'a' => 7,
            b'b' => 8,
            b'f' => 12,
            b'v' => 11,
            b'0'..=b'7' => {
                let mut v = u32::from(c - b'0');
                for _ in 0..2 {
                    match self.at(0) {
                        d @ b'0'..=b'7' => {
                            v = v * 8 + u32::from(d - b'0');
                            self.pos += 1;
                        }
                        _ => break,
                    }
                }
                v
            }
            b'x' => {
                let mut v: u32 = 0;
                while let Some(d) = (self.at(0) as char).to_digit(16) {
                    v = v.saturating_mul(16).saturating_add(d);
                    self.pos += 1;
                }
                if self.pos == spelled + 1 {
                    return Err(self.err(start, "escape \\x needs hex digits"));
                }
                v
            }
            other => return Err(self.err(start, &format!("unknown escape \\{}", other as char))),
        };
        if v > 127 {
            let spelling = &self.src[spelled..self.pos];
            return Err(self.err(
                start,
                &format!("escape \\{spelling} is above 127: literals are ASCII"),
            ));
        }
        Ok(v as u8)
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
        if self.at(0) != b'\'' {
            return Err(self.err(start, "unterminated char constant"));
        }
        self.pos += 1;
        Ok(TokenKind::Int(v))
    }

    /// Lexes the token at `pos`, which is not whitespace, a comment or
    /// a directive, onto `out`: one dispatch on its first byte.
    #[inline(always)]
    fn token(&mut self, out: &mut Vec<Token>) -> Result<(), CompileError> {
        let start = self.pos;
        let kind = match self.bytes[start] {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.word(),
            b'0'..=b'9' => self.number(start)?,
            b'.' if self.at(1).is_ascii_digit() => self.fraction(start)?,
            b'"' => self.string(start)?,
            b'\'' => self.char_const(start)?,
            first => TokenKind::Punct(self.punct(first, start)?),
        };
        out.push(Token {
            kind,
            span: Span::new(start as u32, self.pos as u32),
        });
        Ok(())
    }

    /// The punctuator at `pos`, whose first byte is `first`: its arm
    /// matches the bytes after it for the longest spelling they
    /// complete.
    #[inline(always)]
    fn punct(&mut self, first: u8, start: usize) -> Result<Punct, CompileError> {
        use Punct::*;
        // Picks the two-byte form when the next byte is `second`.
        let pair = |next: u8, second: u8, two: Punct, one: Punct| {
            if next == second {
                (two, 2)
            } else {
                (one, 1)
            }
        };
        let b1 = self.at(1);
        let (p, len) = match first {
            b'(' => (LParen, 1),
            b')' => (RParen, 1),
            b'{' => (LBrace, 1),
            b'}' => (RBrace, 1),
            b'[' => (LBracket, 1),
            b']' => (RBracket, 1),
            b';' => (Semi, 1),
            b',' => (Comma, 1),
            b':' => (Colon, 1),
            b'?' => (Question, 1),
            b'~' => (Tilde, 1),
            b'.' => (Dot, 1),
            b'=' => pair(b1, b'=', EqEq, Assign),
            b'!' => pair(b1, b'=', Ne, Bang),
            b'*' => pair(b1, b'=', StarEq, Star),
            b'/' => pair(b1, b'=', SlashEq, Slash),
            b'%' => pair(b1, b'=', PercentEq, Percent),
            b'^' => pair(b1, b'=', CaretEq, Caret),
            b'+' => match b1 {
                b'+' => (PlusPlus, 2),
                b'=' => (PlusEq, 2),
                _ => (Plus, 1),
            },
            b'-' => match b1 {
                b'-' => (MinusMinus, 2),
                b'=' => (MinusEq, 2),
                b'>' => (Arrow, 2),
                _ => (Minus, 1),
            },
            b'&' => match b1 {
                b'&' => (AmpAmp, 2),
                b'=' => (AmpEq, 2),
                _ => (Amp, 1),
            },
            b'|' => match b1 {
                b'|' => (PipePipe, 2),
                b'=' => (PipeEq, 2),
                _ => (Pipe, 1),
            },
            b'<' => match b1 {
                b'<' if self.at(2) == b'=' => (ShlEq, 3),
                b'<' => (Shl, 2),
                b'=' => (Le, 2),
                _ => (Lt, 1),
            },
            b'>' => match b1 {
                b'>' if self.at(2) == b'=' => (ShrEq, 3),
                b'>' => (Shr, 2),
                b'=' => (Ge, 2),
                _ => (Gt, 1),
            },
            other => {
                return Err(self.err(start, &format!("stray character `{}`", other as char)));
            }
        };
        self.pos += len;
        Ok(p)
    }
}

/// The value of `digits` in `radix`, or `None` if one is not a digit
/// of the radix or the value passes `i64::MAX`.
fn accumulate(digits: &[u8], radix: u32) -> Option<i64> {
    let mut v: i64 = 0;
    for &b in digits {
        let d = (b as char).to_digit(radix)?;
        v = v.checked_mul(i64::from(radix))?.checked_add(i64::from(d))?;
    }
    Some(v)
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
    fn lexes_octal_and_hex_escapes() {
        let (ks, names) = lexed(r#""a\012b|\n" "\0" "\1234" "\x41\x7f""#);
        assert_eq!(ks[0], TokenKind::Str(names.get("a\nb|\n").unwrap()));
        assert_eq!(ks[1], TokenKind::Str(names.get("\0").unwrap()));
        // An octal escape stops after three digits.
        assert_eq!(ks[2], TokenKind::Str(names.get("S4").unwrap()));
        assert_eq!(ks[3], TokenKind::Str(names.get("A\x7f").unwrap()));
        // Leading zeros do not count against the range.
        assert_eq!(kinds(r"'\x0000000000000041'")[0], TokenKind::Int(65));
        assert_eq!(kinds(r"'\101'")[0], TokenKind::Int(65));
        assert_eq!(kinds(r"'\7'")[0], TokenKind::Int(7));
        assert_eq!(kinds(r"'\x0a'")[0], TokenKind::Int(10));
        assert_eq!(kinds(r"'\0'")[0], TokenKind::Int(0));
    }

    #[test]
    fn escapes_past_ascii_are_diagnostics() {
        let msg = |src: &str| lex_fresh(src).unwrap_err().message().to_string();
        assert_eq!(
            msg(r#""\200""#),
            "escape \\200 is above 127: literals are ASCII"
        );
        assert_eq!(
            msg(r"'\377'"),
            "escape \\377 is above 127: literals are ASCII"
        );
        assert_eq!(
            msg(r#""\x80""#),
            "escape \\x80 is above 127: literals are ASCII"
        );
        assert_eq!(
            msg(r#""\x10000000000000000000041""#),
            "escape \\x10000000000000000000041 is above 127: literals are ASCII"
        );
        assert_eq!(msg(r#""\xg""#), "escape \\x needs hex digits");
        assert_eq!(msg(r"'\8'"), "unknown escape \\8");
    }

    #[test]
    fn leading_dot_floats() {
        assert_eq!(kinds(".5")[0], TokenKind::Float(0.5));
        assert_eq!(kinds(".25e1")[0], TokenKind::Float(2.5));
        assert_eq!(kinds(".5f")[0], TokenKind::Float(0.5));
        assert_eq!(kinds("x = .5;")[2], TokenKind::Float(0.5));
        // A `.` before anything but a digit is still member access.
        let (ks, names) = lexed("s.x");
        let ident = |s: &str| TokenKind::Ident(names.get(s).unwrap());
        assert_eq!(
            ks,
            vec![
                ident("s"),
                TokenKind::Punct(Punct::Dot),
                ident("x"),
                TokenKind::Eof
            ]
        );
        assert_eq!(kinds("1.")[0], TokenKind::Float(1.0));
        assert_eq!(kinds("1.")[1], TokenKind::Eof);
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
