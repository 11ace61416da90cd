//! The lexer is pinned token for token: every token's kind, payload
//! (symbol spelling, keyword, punctuator, literal value) and span over
//! the 14 suite programs and the generated programs from seeds
//! 1,000,001–1,000,500 hashes to the digest taken before the lexer
//! moved to a byte-class table and first-byte punctuator dispatch. The
//! edge cases below pin the diagnostics and the token splits that the
//! digest's programs never reach.

use minic::lexer::lex;
use minic::symbol::Interner;
use minic::token::{Keyword, Punct, TokenKind};
use obs::hash::Fnv128;

/// The pinned digest: per program, one field per token, suite
/// programs first, then the seeds in order.
const TOKEN_DIGEST: u128 = 0xfe238c9ee94eeb13c3fbe5cd96228ed4;

fn hash_tokens(h: &mut Fnv128, src: &str) {
    let mut names = Interner::new();
    let toks = lex(src, &mut names).expect("the digest's programs lex");
    h.word(toks.len() as u64);
    for t in &toks {
        match t.kind {
            TokenKind::Ident(s) => {
                h.word(0);
                h.field_str(&names[s]);
            }
            TokenKind::Kw(k) => {
                h.word(1);
                h.field_str(k.as_str());
            }
            TokenKind::Int(v) => {
                h.word(2);
                h.word(v as u64);
            }
            TokenKind::Float(v) => {
                h.word(3);
                h.word(v.to_bits());
            }
            TokenKind::Str(s) => {
                h.word(4);
                h.field_str(&names[s]);
            }
            TokenKind::Punct(p) => {
                h.word(5);
                h.field_str(p.as_str());
            }
            TokenKind::Eof => h.word(6),
        }
        h.word((u64::from(t.span.lo) << 32) | u64::from(t.span.hi));
    }
}

#[test]
fn token_streams_match_the_pinned_digest() {
    let mut h = Fnv128::with_basis(0);
    for p in suite::all() {
        hash_tokens(&mut h, p.source);
    }
    for seed in 1_000_001..=1_000_500u64 {
        hash_tokens(&mut h, &fuzzgen::generate(seed).render());
    }
    assert_eq!(h.digest(), TOKEN_DIGEST, "{:#034x}", h.digest());
}

fn kinds(src: &str) -> Vec<TokenKind> {
    lex(src, &mut Interner::new())
        .unwrap()
        .into_iter()
        .map(|t| t.kind)
        .collect()
}

fn lex_error(src: &str) -> String {
    lex(src, &mut Interner::new()).unwrap_err().to_string()
}

#[test]
fn every_multi_byte_punctuator_lexes_at_end_of_input() {
    use Punct::*;
    let all = [
        ShlEq, ShrEq, EqEq, Ne, Le, Ge, AmpAmp, PipePipe, Shl, Shr, PlusEq, MinusEq, StarEq,
        SlashEq, PercentEq, AmpEq, PipeEq, CaretEq, PlusPlus, MinusMinus, Arrow,
    ];
    for p in all {
        let spelling = p.as_str();
        let toks = lex(spelling, &mut Interner::new()).unwrap();
        assert_eq!(toks.len(), 2, "{spelling}");
        assert_eq!(toks[0].kind, TokenKind::Punct(p), "{spelling}");
        assert_eq!(
            (toks[0].span.lo, toks[0].span.hi),
            (0, spelling.len() as u32)
        );
        assert_eq!(toks[1].kind, TokenKind::Eof);
        // Every proper prefix is itself a punctuator and lexes alone.
        for cut in 1..spelling.len() {
            let prefix = &spelling[..cut];
            let k = kinds(prefix);
            assert_eq!(k.len(), 2, "{prefix}");
            assert!(matches!(k[0], TokenKind::Punct(q) if q.as_str() == prefix));
        }
    }
}

#[test]
fn punctuators_split_greedily() {
    let k = kinds("a---b");
    assert!(matches!(k[0], TokenKind::Ident(_)));
    assert_eq!(k[1], TokenKind::Punct(Punct::MinusMinus));
    assert_eq!(k[2], TokenKind::Punct(Punct::Minus));
    assert!(matches!(k[3], TokenKind::Ident(_)));
    assert_eq!(k.len(), 5);
    assert_eq!(
        kinds("x<<=>>=y")[1..3],
        [
            TokenKind::Punct(Punct::ShlEq),
            TokenKind::Punct(Punct::ShrEq)
        ]
    );
    assert_eq!(
        kinds("p->q")[1],
        TokenKind::Punct(Punct::Arrow),
        "-> is one token"
    );
    assert_eq!(kinds("int")[0], TokenKind::Kw(Keyword::Int));
}

#[test]
fn integer_literal_limits_and_diagnostics() {
    assert_eq!(kinds("9223372036854775807")[0], TokenKind::Int(i64::MAX));
    assert_eq!(
        lex_error("9223372036854775808"),
        "lex error at 0..1: integer literal out of range"
    );
    assert_eq!(kinds("0x7fffffffffffffff")[0], TokenKind::Int(i64::MAX));
    assert_eq!(
        lex_error("0x8000000000000000"),
        "lex error at 0..1: hex literal out of range"
    );
    assert_eq!(
        lex_error("0x"),
        "lex error at 0..1: hex literal needs digits"
    );
    assert_eq!(
        lex_error("x = 0x;"),
        "lex error at 4..5: hex literal needs digits"
    );
    assert_eq!(
        lex_error("08"),
        "lex error at 0..1: malformed octal literal"
    );
    assert_eq!(kinds("0777")[0], TokenKind::Int(0o777));
    assert_eq!(kinds("0")[0], TokenKind::Int(0));
    assert_eq!(kinds("00")[0], TokenKind::Int(0));
    assert_eq!(kinds("12ul")[0], TokenKind::Int(12));
}

#[test]
fn other_lex_diagnostics_keep_their_text() {
    assert_eq!(lex_error("@"), "lex error at 0..1: stray character `@`");
    assert_eq!(
        lex_error("\"ab"),
        "lex error at 0..1: unterminated string literal"
    );
    assert_eq!(
        lex_error("'a"),
        "lex error at 0..1: unterminated char constant"
    );
    assert_eq!(
        lex_error("/* x"),
        "lex error at 0..1: unterminated block comment"
    );
    assert_eq!(
        lex_error(r#""\q""#),
        "lex error at 0..1: unknown escape \\q"
    );
}
