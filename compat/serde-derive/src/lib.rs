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
//! (named, tuple, unit) and enums (unit, tuple, struct variants).
//!
//! Of serde's attributes it implements four, on named-field structs:
//! field `default` and `default = "path"`, container `default` (absent
//! fields from `Self::default()`) and container `deny_unknown_fields` (an
//! unknown or repeated key is an error). Any other `serde` attribute is a
//! compile error naming it. A struct with one of them names the field in
//! a field's decode error; a struct without any generates the plain
//! reader unchanged.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    /// Field names, and each field's `default` option (`default` or
    /// `default="path"`), if any.
    Named(Vec<String>, Vec<Option<String>>),
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
        /// Container options: `default`, `deny_unknown_fields`.
        opts: Vec<String>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

fn unsupported(opt: &str) -> String {
    let name = opt.split('=').next().unwrap_or(opt);
    format!("serde attribute `{name}` is not supported by the vendored derive")
}

/// The `serde` options of the `#[...]` attributes at the cursor, with
/// whitespace removed (`default="f"`), and the index past them. Other
/// attributes (docs) are skipped; an option that `allowed` does not list
/// (`default=` stands for any `default = "…"`) is an error.
fn parse_attrs(
    toks: &[TokenTree],
    mut i: usize,
    allowed: &[&str],
) -> Result<(Vec<String>, usize), String> {
    let mut opts = Vec::new();
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
        (toks.get(i), toks.get(i + 1))
    {
        if p.as_char() != '#' || g.delimiter() != Delimiter::Bracket {
            break;
        }
        let text: String = g.stream().to_string().split_whitespace().collect();
        if let Some(rest) = text.strip_prefix("serde") {
            let list = rest.strip_prefix('(').and_then(|r| r.strip_suffix(')'));
            for opt in list.ok_or(format!("malformed `#[{text}]`"))?.split(',') {
                let key = opt.find('=').map_or(opt, |eq| &opt[..=eq]);
                if !allowed.contains(&key) {
                    return Err(unsupported(opt));
                }
                opts.push(opt.to_owned());
            }
        }
        i += 2;
    }
    Ok((opts, i))
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
/// any other token. Named fields may carry the `allowed` options.
fn parse_fields(body: Option<&TokenTree>, allowed: &[&str]) -> Result<Option<Fields>, String> {
    let Some(TokenTree::Group(g)) = body else {
        return Ok(None);
    };
    let named = match g.delimiter() {
        Delimiter::Brace => true,
        Delimiter::Parenthesis => false,
        _ => return Ok(None),
    };
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let (mut names, mut defaults, mut arity, mut i) = (Vec::new(), Vec::new(), 0, 0);
    while i < toks.len() {
        let (mut opts, next) = parse_attrs(&toks, i, if named { allowed } else { &[] })?;
        defaults.push(opts.pop());
        i = skip_vis(&toks, next);
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
        Fields::Named(names, defaults)
    } else {
        Fields::Tuple(arity)
    }))
}

fn parse_variants(group: &[TokenTree]) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < group.len() {
        i = parse_attrs(group, i, &[])?.1;
        if i >= group.len() {
            break;
        }
        let TokenTree::Ident(name) = &group[i] else {
            return Err(format!("expected variant name, got `{}`", group[i]));
        };
        let name = name.to_string();
        i += 1;
        let fields = match parse_fields(group.get(i), &[])? {
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
    let (opts, next) = parse_attrs(&toks, 0, &["default", "deny_unknown_fields"])?;
    let mut i = skip_vis(&toks, next);
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
            let fields = match (
                parse_fields(toks.get(i), &["default", "default="])?,
                toks.get(i),
            ) {
                (Some(fields), _) => fields,
                (None, Some(TokenTree::Punct(p))) if p.as_char() == ';' => Fields::Unit,
                (None, other) => return Err(format!("unexpected struct body: {other:?}")),
            };
            match (&fields, opts.first()) {
                (Fields::Named(..), _) | (_, None) => Ok(Item::Struct { name, fields, opts }),
                (_, Some(opt)) => Err(unsupported(opt)),
            }
        }
        "enum" if !opts.is_empty() => Err(unsupported(&opts[0])),
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
        Fields::Named(names, _) => format!("{path} {{ {} }}", names.join(", ")),
        Fields::Tuple(n) => format!("{path}({})", letters(*n).join(", ")),
        Fields::Unit => path.to_owned(),
    }
}

/// Statements writing the fields bound by [`pattern`]: an object, a
/// transparent newtype, an array, or `null`.
fn write_fields(fields: &Fields) -> String {
    let (open, close, items) = match fields {
        Fields::Named(names, _) => {
            let items = names
                .iter()
                .map(|f| format!("__w.ident_field(\"{f}\", {f}); "));
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
        Item::Struct { name, fields, .. } => {
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
/// keys and name a missing field in the error. With `serde` attributes
/// (container `opts` or a field `default`) a field's decode error names
/// the field, an absent field takes its default, and under
/// `deny_unknown_fields` an unknown or repeated key is an error.
fn read_fields(path: &str, fields: &Fields, opts: &[String]) -> String {
    let (names, defaults) = match fields {
        Fields::Named(names, defaults) => (names, defaults),
        Fields::Tuple(1) => return format!("{path}(::serde::Deserialize::read_json(__r)?)"),
        Fields::Tuple(n) => {
            let elems = vec![format!("__r.elem(\"{path}\")?"); *n].join(", ");
            return format!("{{ __r.open(b'[', \"{path}\")?; let __v = {path}({elems}); __r.end_elems(\"{path}\")?; __v }}");
        }
        Fields::Unit => return format!("{{ __r.skip_value()?; {path} }}"),
    };
    let has = |opt: &str| opts.iter().any(|o| o == opt);
    let checked = !opts.is_empty() || defaults.iter().any(Option::is_some);
    let vars = letters(names.len());
    let mut s = format!("{{ __r.open(b'{{', \"{path}\")?; ");
    if has("default") {
        s.push_str(&format!(
            "let __d: {path} = ::std::default::Default::default(); "
        ));
    }
    for v in &vars {
        s.push_str(&format!("let mut {v} = None; "));
    }
    s.push_str("while let Some(__k) = __r.next_key()? { match &*__k { ");
    for (f, v) in names.iter().zip(&vars) {
        let read = if checked {
            format!("::serde::Deserialize::read_json(__r).map_err(|e| ::serde::DeError(format!(\"field `{f}`: {{}}\", e)))?")
        } else {
            "::serde::Deserialize::read_json(__r)?".to_owned()
        };
        s.push_str(&format!("\"{f}\" if {v}.is_none() => {v} = Some({read}), "));
    }
    if has("deny_unknown_fields") {
        let error =
            |what| format!("return Err(__r.err(&format!(\"{what} key `{{}}` for {path}\", __k)))");
        if !names.is_empty() {
            s.push_str(&format!(
                "\"{}\" => {}, ",
                names.join("\" | \""),
                error("duplicate")
            ));
        }
        s.push_str(&format!("_ => {}, ", error("unknown")));
    } else {
        s.push_str("_ => __r.skip_value()?, ");
    }
    s.push_str(&format!("}} }} {path} {{ "));
    for ((f, v), default) in names.iter().zip(&vars).zip(defaults) {
        let absent = match default.as_deref().map(|d| d.strip_prefix("default=")) {
            Some(None) => ".unwrap_or_default()".to_owned(),
            Some(Some(fun)) => format!(".unwrap_or_else({})", fun.trim_matches('"')),
            None if has("default") => format!(".unwrap_or(__d.{f})"),
            None => format!(".ok_or_else(|| ::serde::__missing(\"{f}\"))?"),
        };
        s.push_str(&format!("{f}: {v}{absent}, "));
    }
    s + "} }"
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields, opts } => {
            (name, format!("Ok({})", read_fields(name, fields, opts)))
        }
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
                        read_fields(&path, &v.fields, &[])
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
