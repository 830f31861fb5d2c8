//! The lint passes.
//!
//! Each lint has a stable ID, walks the token stream of already-lexed
//! [`SourceFile`](crate::scan::SourceFile)s, and reports span-accurate
//! [`Finding`](crate::findings::Finding)s. L005 and L008 skip test code
//! (see `scan` for what counts as test code), L007 does not; inline
//! waivers are applied afterwards by [`crate::waivers`].

pub mod l005_header_keys;
pub mod l007_wire_literals;
pub mod l008_lock_discipline;

use crate::lexer::{Token, TokenKind};

/// Is token `i` the identifier `name`?
pub(crate) fn is_ident(tokens: &[Token], i: usize, name: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == name)
}

/// Is token `i` the punctuation `p`?
pub(crate) fn is_punct(tokens: &[Token], i: usize, p: char) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text.len() == 1 && t.text.starts_with(p))
}
