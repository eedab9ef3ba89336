//! Derive macros for the offline `serde` stand-in.
//!
//! Each derive generates exactly one method: `Serialize::write_json`,
//! which prints the value through the `serde::JsonWriter`, or
//! `Deserialize::read_json`, which decodes it straight from the
//! `serde::JsonReader`. There is no intermediate value tree.
//!
//! Implemented directly on `proc_macro::TokenStream` — the environment has
//! no crates.io access, so `syn`/`quote` are unavailable. The parser only
//! understands the shapes this workspace actually uses: non-generic structs
//! (named, tuple, unit) and enums (unit, tuple, struct variants), with
//! arbitrary attributes skipped.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Skips `#[...]` attribute pairs at the cursor.
fn skip_attrs(toks: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < toks.len() {
        match (&toks[i], &toks[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2;
            }
            _ => break,
        }
    }
    i
}

/// Skips `pub` / `pub(...)` visibility at the cursor.
fn skip_vis(toks: &[TokenTree], i: usize) -> usize {
    match (toks.get(i), toks.get(i + 1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(g)))
            if id.to_string() == "pub" && g.delimiter() == Delimiter::Parenthesis =>
        {
            i + 2
        }
        (Some(TokenTree::Ident(id)), _) if id.to_string() == "pub" => i + 1,
        _ => i,
    }
}

/// Advances past one field's type (or a variant's discriminant): everything
/// up to the next comma at angle-bracket depth zero.
fn skip_to_comma(toks: &[TokenTree], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        if let TokenTree::Punct(p) = &toks[i] {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => return i,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

/// The fields in a `{ .. }` (named) or `( .. )` (tuple) body; `None` for
/// any other token.
fn parse_fields(body: Option<&TokenTree>) -> Result<Option<Fields>, String> {
    let Some(TokenTree::Group(g)) = body else {
        return Ok(None);
    };
    let named = match g.delimiter() {
        Delimiter::Brace => true,
        Delimiter::Parenthesis => false,
        _ => return Ok(None),
    };
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let (mut names, mut arity, mut i) = (Vec::new(), 0, 0);
    while i < toks.len() {
        i = skip_vis(&toks, skip_attrs(&toks, i));
        if i >= toks.len() {
            break;
        }
        if named {
            match (&toks[i], toks.get(i + 1)) {
                (TokenTree::Ident(name), Some(TokenTree::Punct(p))) if p.as_char() == ':' => {
                    names.push(name.to_string());
                }
                (other, _) => return Err(format!("expected `field: Type`, got `{other}`")),
            }
        }
        arity += 1;
        i = skip_to_comma(&toks, i) + 1; // past the type and its comma
    }
    Ok(Some(if named {
        Fields::Named(names)
    } else {
        Fields::Tuple(arity)
    }))
}

fn parse_variants(group: &[TokenTree]) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < group.len() {
        i = skip_attrs(group, i);
        if i >= group.len() {
            break;
        }
        let TokenTree::Ident(name) = &group[i] else {
            return Err(format!("expected variant name, got `{}`", group[i]));
        };
        let name = name.to_string();
        i += 1;
        let fields = match parse_fields(group.get(i))? {
            Some(fields) => {
                i += 1;
                fields
            }
            None => Fields::Unit,
        };
        variants.push(Variant { name, fields });
        i = skip_to_comma(group, i) + 1; // past discriminant (if any) + comma
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_vis(&toks, skip_attrs(&toks, 0));
    let kind = match &toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, got {other:?}")),
    };
    i += 1;
    let name = match &toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, got {other:?}")),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "generic type `{name}` is not supported by the serde stub derive"
            ));
        }
    }
    match kind.as_str() {
        "struct" => {
            let fields = match (parse_fields(toks.get(i))?, toks.get(i)) {
                (Some(fields), _) => fields,
                (None, Some(TokenTree::Punct(p))) if p.as_char() == ';' => Fields::Unit,
                (None, other) => return Err(format!("unexpected struct body: {other:?}")),
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                Ok(Item::Enum {
                    name,
                    variants: parse_variants(&inner)?,
                })
            }
            other => Err(format!("unexpected enum body: {other:?}")),
        },
        other => Err(format!("expected `struct` or `enum`, got `{other}`")),
    }
}

fn letters(n: usize) -> Vec<String> {
    (0..n).map(|k| format!("__f{k}")).collect()
}

/// A pattern binding every field of `path` by reference.
fn pattern(path: &str, fields: &Fields) -> String {
    match fields {
        Fields::Named(names) => format!("{path} {{ {} }}", names.join(", ")),
        Fields::Tuple(n) => format!("{path}({})", letters(*n).join(", ")),
        Fields::Unit => path.to_owned(),
    }
}

/// Statements writing the fields bound by [`pattern`]: an object, a
/// transparent newtype, an array, or `null`.
fn write_fields(fields: &Fields) -> String {
    let (open, close, items) = match fields {
        Fields::Named(names) => {
            let items = names.iter().map(|f| format!("__w.field(\"{f}\", {f}); "));
            ("'{'", "'}'", items.collect::<String>())
        }
        Fields::Tuple(1) => return "::serde::Serialize::write_json(__f0, __w);".to_owned(),
        Fields::Tuple(n) => {
            let items = letters(*n)
                .into_iter()
                .map(|f| format!("__w.elem(); ::serde::Serialize::write_json({f}, __w); "));
            ("'['", "']'", items.collect())
        }
        Fields::Unit => return "__w.null();".to_owned(),
    };
    format!("__w.open({open}); {items}__w.close({close});")
}

fn gen_serialize(item: &Item) -> String {
    let (name, arms) = match item {
        Item::Struct { name, fields } => {
            let arm = format!(
                "{} => {{ {} }}\n",
                pattern(name, fields),
                write_fields(fields)
            );
            (name, arm)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let (vn, path) = (&v.name, format!("{name}::{}", v.name));
                let body = match v.fields {
                    Fields::Unit => format!("__w.str(\"{vn}\");"),
                    _ => format!(
                        "__w.open('{{'); __w.key(\"{vn}\"); {} __w.close('}}');",
                        write_fields(&v.fields)
                    ),
                };
                arms.push_str(&format!("{} => {{ {body} }}\n", pattern(&path, &v.fields)));
            }
            (name, arms)
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n  fn write_json(&self, __w: &mut ::serde::JsonWriter) {{\n    match self {{\n{arms}    }}\n  }}\n}}\n"
    )
}

/// An expression reading `path`'s fields. Objects accept keys in any
/// order, validate and skip unknown keys, keep the first of duplicate
/// keys and name a missing field in the error.
fn read_fields(path: &str, fields: &Fields) -> String {
    let names = match fields {
        Fields::Named(names) => names,
        Fields::Tuple(1) => return format!("{path}(::serde::Deserialize::read_json(__r)?)"),
        Fields::Tuple(n) => {
            let elems = vec![format!("__r.elem(\"{path}\")?"); *n].join(", ");
            return format!("{{ __r.open(b'[', \"{path}\")?; let __v = {path}({elems}); __r.end_elems(\"{path}\")?; __v }}");
        }
        Fields::Unit => return format!("{{ __r.skip_value()?; {path} }}"),
    };
    let vars = letters(names.len());
    let mut s = format!("{{ __r.open(b'{{', \"{path}\")?; ");
    for v in &vars {
        s.push_str(&format!("let mut {v} = None; "));
    }
    s.push_str("while let Some(__k) = __r.next_key()? { match &*__k { ");
    for (f, v) in names.iter().zip(&vars) {
        s.push_str(&format!(
            "\"{f}\" if {v}.is_none() => {v} = Some(::serde::Deserialize::read_json(__r)?), "
        ));
    }
    s.push_str(&format!("_ => __r.skip_value()?, }} }} {path} {{ "));
    for (f, v) in names.iter().zip(&vars) {
        s.push_str(&format!(
            "{f}: {v}.ok_or_else(|| ::serde::__missing(\"{f}\"))?, "
        ));
    }
    s + "} }"
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, format!("Ok({})", read_fields(name, fields))),
        Item::Enum { name, variants } => {
            // Unit variants arrive as bare strings, data variants as
            // single-key objects.
            let (mut units, mut datas) = (String::new(), String::new());
            for v in variants {
                let path = format!("{name}::{}", v.name);
                match v.fields {
                    Fields::Unit => units.push_str(&format!("\"{}\" => Ok({path}), ", v.name)),
                    _ => datas.push_str(&format!(
                        "\"{}\" => {},\n",
                        v.name,
                        read_fields(&path, &v.fields)
                    )),
                }
            }
            let unknown =
                format!("::serde::DeError(format!(\"unknown variant `{{}}` for {name}\", __s))");
            let mut body = format!(
                "if __r.peek() == Some(b'\"') {{ let __s = __r.str()?; return match &*__s {{ {units}_ => Err({unknown}) }}; }}\n"
            );
            if datas.is_empty() {
                body.push_str(&format!("Err(__r.expected(\"string for {name}\"))"));
            } else {
                let single = format!("__r.err(\"expected single-key object for {name}\")");
                body.push_str(&format!(
                    "__r.open(b'{{', \"{name}\")?;\nlet __s = __r.next_key()?.ok_or_else(|| {single})?;\n\
                     let __v = match &*__s {{\n{datas}_ => return Err({unknown}),\n}};\n\
                     if __r.next_key()?.is_some() {{ return Err({single}); }}\nOk(__v)"
                ));
            }
            (name, body)
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n  fn read_json(__r: &mut ::serde::JsonReader<'_>) -> ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n  }}\n}}\n"
    )
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen(&item)
            .parse()
            .unwrap_or_else(|e| compile_error(&format!("serde stub derive codegen failed: {e}"))),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("compile_error literal")
}

/// Derives `serde::Serialize` (a generated `write_json`).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derives `serde::Deserialize` (a generated `read_json`).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}
