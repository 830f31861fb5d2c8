//! `#[derive(Serialize, Deserialize)]` for the stand-in `serde`, written
//! against `proc_macro` alone (no `syn`, no `quote`).
//!
//! Supported, because the product crates use nothing else:
//! - structs with named fields (an absent `Option` field reads as `None`),
//! - one-field tuple structs, written as their field (which is also what
//!   `#[serde(transparent)]` asks for),
//! - enums of unit variants, written as the variant name, lower-cased
//!   under `#[serde(rename_all = "lowercase")]`.
//!
//! Anything else (generics, data-carrying variants, other `serde`
//! attributes) stops the build with a message instead of guessing.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    /// Field names of a `struct Name { .. }`.
    Named(Vec<String>),
    /// `struct Name(T);`
    Newtype,
    /// Variant names of an all-unit `enum`.
    Unit(Vec<String>),
}

struct Input {
    name: String,
    lowercase: bool,
    shape: Shape,
}

/// `macro_rules!` wraps substituted fragments in invisible groups; look
/// through them so `$name` and `$(#[$doc])*` parse like hand-written code.
fn flatten(stream: TokenStream, out: &mut Vec<TokenTree>) {
    for tree in stream {
        match tree {
            TokenTree::Group(g) if g.delimiter() == Delimiter::None => flatten(g.stream(), out),
            other => out.push(other),
        }
    }
}

fn is_punct(tree: &TokenTree, ch: char) -> bool {
    matches!(tree, TokenTree::Punct(p) if p.as_char() == ch)
}

fn is_ident(tree: &TokenTree, name: &str) -> bool {
    matches!(tree, TokenTree::Ident(i) if i.to_string() == name)
}

/// Reads the inside of a `#[serde(..)]` attribute.
fn serde_attr(args: TokenStream, lowercase: &mut bool) {
    let mut tokens = Vec::new();
    flatten(args, &mut tokens);
    let text: Vec<String> = tokens.iter().map(ToString::to_string).collect();
    match text.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["transparent"] => {}
        ["rename_all", "=", "\"lowercase\""] => *lowercase = true,
        _ => panic!(
            "serde stand-in: unsupported attribute #[serde({})]",
            text.join(" ")
        ),
    }
}

/// Skips attributes and visibility at `tokens[*at..]`, reporting any
/// `#[serde(..)]` content to `on_serde`.
fn skip_attrs_and_vis(tokens: &[TokenTree], at: &mut usize, on_serde: &mut dyn FnMut(TokenStream)) {
    loop {
        match tokens.get(*at) {
            Some(t) if is_punct(t, '#') => {
                if let Some(TokenTree::Group(attr)) = tokens.get(*at + 1) {
                    let mut inner = Vec::new();
                    flatten(attr.stream(), &mut inner);
                    if let [head, TokenTree::Group(args)] = &inner[..] {
                        if is_ident(head, "serde") {
                            on_serde(args.stream());
                        }
                    }
                }
                *at += 2;
            }
            Some(t) if is_ident(t, "pub") => {
                *at += 1;
                if matches!(tokens.get(*at), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *at += 1;
                }
            }
            _ => return,
        }
    }
}

/// Splits a brace or paren body at top-level commas. Groups are single
/// tokens already, so only `<..>` nesting needs tracking.
fn split_commas(body: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut tokens = Vec::new();
    flatten(body, &mut tokens);
    let mut items = vec![Vec::new()];
    let mut angle = 0usize;
    let mut after_dash = false;
    for tree in tokens {
        let dash = is_punct(&tree, '-');
        if is_punct(&tree, '<') {
            angle += 1;
        } else if is_punct(&tree, '>') && !after_dash {
            angle = angle.saturating_sub(1);
        } else if is_punct(&tree, ',') && angle == 0 {
            items.push(Vec::new());
            after_dash = false;
            continue;
        }
        after_dash = dash;
        if let Some(item) = items.last_mut() {
            item.push(tree);
        }
    }
    items.retain(|item| !item.is_empty());
    items
}

fn no_field_attrs(args: TokenStream) {
    panic!("serde stand-in: field/variant attribute #[serde({args})] is unsupported");
}

fn parse(input: TokenStream) -> Input {
    let mut tokens = Vec::new();
    flatten(input, &mut tokens);
    let mut at = 0;
    let mut lowercase = false;
    skip_attrs_and_vis(&tokens, &mut at, &mut |args| {
        serde_attr(args, &mut lowercase)
    });

    let is_enum = match tokens.get(at) {
        Some(t) if is_ident(t, "struct") => false,
        Some(t) if is_ident(t, "enum") => true,
        other => panic!("serde stand-in: expected struct or enum, found {other:?}"),
    };
    let name = match tokens.get(at + 1) {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde stand-in: expected a type name, found {other:?}"),
    };
    let body = match tokens.get(at + 2) {
        Some(TokenTree::Group(g)) => g,
        Some(t) if is_punct(t, '<') => panic!("serde stand-in: `{name}` is generic; unsupported"),
        other => panic!("serde stand-in: expected the body of `{name}`, found {other:?}"),
    };

    let leading_ident = |item: &[TokenTree]| -> (String, usize) {
        let mut at = 0;
        skip_attrs_and_vis(item, &mut at, &mut no_field_attrs);
        match item.get(at) {
            Some(TokenTree::Ident(i)) => (i.to_string(), at + 1),
            other => panic!("serde stand-in: expected a name in `{name}`, found {other:?}"),
        }
    };

    let shape = match (is_enum, body.delimiter()) {
        (false, Delimiter::Brace) => Shape::Named(
            split_commas(body.stream())
                .iter()
                .map(|field| leading_ident(field).0)
                .collect(),
        ),
        (false, Delimiter::Parenthesis) => {
            if split_commas(body.stream()).len() != 1 {
                panic!("serde stand-in: tuple struct `{name}` must have exactly one field");
            }
            Shape::Newtype
        }
        (true, Delimiter::Brace) => Shape::Unit(
            split_commas(body.stream())
                .iter()
                .map(|variant| {
                    let (ident, next) = leading_ident(variant);
                    if next != variant.len() {
                        panic!("serde stand-in: variant `{name}::{ident}` is not a unit variant");
                    }
                    ident
                })
                .collect(),
        ),
        _ => panic!("serde stand-in: unsupported body for `{name}`"),
    };
    Input {
        name,
        lowercase,
        shape,
    }
}

/// The JSON key or string for a Rust identifier.
fn wire_name(ident: &str, lowercase: bool) -> String {
    let plain = ident.trim_start_matches("r#");
    if lowercase {
        plain.to_lowercase()
    } else {
        plain.to_owned()
    }
}

fn emit(code: String) -> TokenStream {
    code.parse()
        .unwrap_or_else(|e| panic!("serde stand-in generated unparsable code: {e}\n{code}"))
}

/// Derives the stand-in `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Input {
        name,
        lowercase,
        shape,
    } = parse(input);
    let body = match shape {
        Shape::Named(fields) => {
            let inserts: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "map.insert(::std::string::String::from({key:?}), \
                         ::serde::Serialize::to_value(&self.{f}));",
                        key = wire_name(f, false)
                    )
                })
                .collect();
            format!("let mut map = ::serde::Map::new(); {inserts} ::serde::Value::Object(map)")
        }
        Shape::Newtype => "::serde::Serialize::to_value(&self.0)".to_owned(),
        Shape::Unit(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{v} => {:?},", wire_name(v, lowercase)))
                .collect();
            format!("::serde::Value::String(::std::string::String::from(match self {{ {arms} }}))")
        }
    };
    emit(format!(
        "impl ::serde::Serialize for {name} {{ \
             fn to_value(&self) -> ::serde::Value {{ {body} }} \
         }}"
    ))
}

/// Derives the stand-in `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Input {
        name,
        lowercase,
        shape,
    } = parse(input);
    let body = match shape {
        Shape::Named(fields) => {
            let reads: String = fields
                .iter()
                .map(|f| format!("{f}: ::serde::__field(map, {:?})?,", wire_name(f, false)))
                .collect();
            format!(
                "let map = value.as_object().ok_or_else(|| \
                     ::serde::Error::custom(\"expected an object for {name}\"))?; \
                 ::std::result::Result::Ok({name} {{ {reads} }})"
            )
        }
        Shape::Newtype => {
            format!("::serde::Deserialize::from_value(value).map({name})")
        }
        Shape::Unit(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| {
                    format!(
                        "::std::option::Option::Some({:?}) => ::std::result::Result::Ok({name}::{v}),",
                        wire_name(v, lowercase)
                    )
                })
                .collect();
            format!(
                "match value.as_str() {{ {arms} _ => ::std::result::Result::Err(\
                     ::serde::Error::custom(\"unknown variant for {name}\")) }}"
            )
        }
    };
    emit(format!(
        "impl ::serde::Deserialize for {name} {{ \
             fn from_value(value: &::serde::Value) \
                 -> ::std::result::Result<Self, ::serde::Error> {{ {body} }} \
         }}"
    ))
}
