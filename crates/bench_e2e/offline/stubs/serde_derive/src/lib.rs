//! Offline stand-in for `serde_derive`.
//!
//! The sandbox has no crates.io access, so there is no `syn` or `quote`:
//! the item is parsed straight off the `proc_macro` token trees and the
//! impl is produced as source text. Supported, because the repository
//! uses it:
//!
//! * structs with named fields;
//! * enums whose variants are unit, newtype, or (internally tagged
//!   only) struct-like;
//! * container attributes `rename_all = "…"` and `tag = "…"`;
//! * variant attribute `rename = "…"`;
//! * field attributes `rename = "…"`, `default`, `default = "path"`,
//!   `skip_serializing_if = "path"` and `with = "module"`.
//!
//! Anything else (generics, tuple structs, other attributes) is a
//! compile error naming what was met, so a later change that needs more
//! fails loudly instead of serializing wrongly.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, generate: fn(&Container) -> Result<String, String>) -> TokenStream {
    let source = parse_container(input).and_then(|container| generate(&container));
    match source {
        Ok(source) => source.parse().unwrap_or_else(|err| {
            compile_error(&format!("serde_derive stand-in wrote bad code: {err}"))
        }),
        Err(message) => compile_error(&message),
    }
}

fn compile_error(message: &str) -> TokenStream {
    format!("::core::compile_error!({message:?});")
        .parse()
        .expect("a compile_error! invocation always parses")
}

// ---------------------------------------------------------------------
// Parsed form
// ---------------------------------------------------------------------

struct Container {
    name: String,
    rename_all: Option<String>,
    tag: Option<String>,
    data: Data,
}

enum Data {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Field {
    ident: String,
    ty: String,
    rename: Option<String>,
    default: FieldDefault,
    skip_serializing_if: Option<String>,
    with: Option<String>,
}

enum FieldDefault {
    Required,
    Trait,
    Path(String),
}

struct Variant {
    ident: String,
    rename: Option<String>,
    shape: Shape,
}

enum Shape {
    Unit,
    Newtype(String),
    Struct(Vec<Field>),
}

impl Field {
    fn wire_name(&self, rename_all: Option<&str>) -> Result<String, String> {
        match (&self.rename, rename_all) {
            (Some(name), _) => Ok(name.clone()),
            (None, Some(rule)) => rename_field(&self.ident, rule),
            (None, None) => Ok(self.ident.trim_start_matches("r#").to_string()),
        }
    }

    fn is_option(&self) -> bool {
        self.ty.trim_start().starts_with("Option")
    }
}

impl Variant {
    fn wire_name(&self, rename_all: Option<&str>) -> Result<String, String> {
        match (&self.rename, rename_all) {
            (Some(name), _) => Ok(name.clone()),
            (None, Some(rule)) => rename_variant(&self.ident, rule),
            (None, None) => Ok(self.ident.clone()),
        }
    }
}

// ---------------------------------------------------------------------
// Case conversion
// ---------------------------------------------------------------------

/// Splits `PascalCase` into lower-case words.
fn pascal_words(ident: &str) -> Vec<String> {
    let mut words: Vec<String> = Vec::new();
    for ch in ident.chars() {
        if ch.is_uppercase() || words.is_empty() {
            words.push(String::new());
        }
        words
            .last_mut()
            .expect("a word was just pushed")
            .extend(ch.to_lowercase());
    }
    words
}

fn capitalize(word: &str) -> String {
    let mut chars = word.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().chain(chars).collect(),
        None => String::new(),
    }
}

fn join_words(words: &[String], rule: &str) -> Result<String, String> {
    Ok(match rule {
        "lowercase" => words.concat(),
        "UPPERCASE" => words.concat().to_uppercase(),
        "snake_case" => words.join("_"),
        "SCREAMING_SNAKE_CASE" => words.join("_").to_uppercase(),
        "kebab-case" => words.join("-"),
        "PascalCase" => words.iter().map(|w| capitalize(w)).collect(),
        "camelCase" => words
            .iter()
            .enumerate()
            .map(|(i, w)| if i == 0 { w.clone() } else { capitalize(w) })
            .collect(),
        other => {
            return Err(format!(
                "serde stand-in: unsupported rename_all = {other:?}"
            ))
        }
    })
}

fn rename_variant(ident: &str, rule: &str) -> Result<String, String> {
    join_words(&pascal_words(ident), rule)
}

fn rename_field(ident: &str, rule: &str) -> Result<String, String> {
    let words: Vec<String> = ident
        .trim_start_matches("r#")
        .split('_')
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect();
    join_words(&words, rule)
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// One `name` or `name = "value"` entry of a `#[serde(...)]` list.
struct Meta {
    name: String,
    value: Option<String>,
}

/// Consumes leading attributes, returning the entries of every
/// `#[serde(...)]` among them; other attributes (docs, `#[default]`,
/// `#[non_exhaustive]`) are skipped.
fn take_attrs(tokens: &mut Tokens) -> Result<Vec<Meta>, String> {
    let mut metas = Vec::new();
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next();
        let Some(TokenTree::Group(group)) = tokens.next() else {
            return Err("serde stand-in: `#` not followed by an attribute".to_string());
        };
        let mut inner = group.stream().into_iter();
        match inner.next() {
            Some(TokenTree::Ident(ident)) if ident.to_string() == "serde" => {}
            _ => continue,
        }
        let Some(TokenTree::Group(list)) = inner.next() else {
            return Err("serde stand-in: expected #[serde(...)]".to_string());
        };
        let mut list = list.stream().into_iter().peekable();
        while let Some(token) = list.next() {
            let TokenTree::Ident(name) = token else {
                return Err(format!(
                    "serde stand-in: unexpected `{token}` in #[serde(...)]"
                ));
            };
            let mut meta = Meta {
                name: name.to_string(),
                value: None,
            };
            if matches!(list.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
                list.next();
                match list.next() {
                    Some(TokenTree::Literal(literal)) => {
                        meta.value = Some(unquote(&literal.to_string())?);
                    }
                    other => {
                        return Err(format!(
                            "serde stand-in: `{}` needs a string literal, found {other:?}",
                            meta.name
                        ))
                    }
                }
            }
            metas.push(meta);
            match list.next() {
                None => break,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
                Some(other) => {
                    return Err(format!(
                        "serde stand-in: unexpected `{other}` in #[serde(...)]"
                    ))
                }
            }
        }
    }
    Ok(metas)
}

fn unquote(literal: &str) -> Result<String, String> {
    let inner = literal
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .ok_or_else(|| {
            format!("serde stand-in: expected a plain string literal, found {literal}")
        })?;
    if inner.contains('\\') {
        return Err(format!(
            "serde stand-in: escapes in {literal} are not supported"
        ));
    }
    Ok(inner.to_string())
}

fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(ident)) if ident.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

fn parse_container(input: TokenStream) -> Result<Container, String> {
    let mut tokens = input.into_iter().peekable();
    let metas = take_attrs(&mut tokens)?;
    let mut rename_all = None;
    let mut tag = None;
    for meta in metas {
        match (meta.name.as_str(), meta.value) {
            ("rename_all", Some(value)) => rename_all = Some(value),
            ("tag", Some(value)) => tag = Some(value),
            (name, _) => {
                return Err(format!(
                    "serde stand-in: unsupported container attribute `{name}`"
                ))
            }
        }
    }
    skip_visibility(&mut tokens);
    let keyword = match tokens.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => {
            return Err(format!(
                "serde stand-in: expected struct or enum, found {other:?}"
            ))
        }
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(ident)) => ident.to_string(),
        other => {
            return Err(format!(
                "serde stand-in: expected a type name, found {other:?}"
            ))
        }
    };
    let body = match tokens.next() {
        Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Brace => group.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            return Err(format!("serde stand-in: generic type `{name}` is not supported"))
        }
        _ => {
            return Err(format!(
                "serde stand-in: `{name}` must have a braced body (tuple and unit structs are not supported)"
            ))
        }
    };
    let data = match keyword.as_str() {
        "struct" => {
            if tag.is_some() {
                return Err(format!(
                    "serde stand-in: `tag` on struct `{name}` is not supported"
                ));
            }
            Data::Struct(parse_fields(body)?)
        }
        "enum" => Data::Enum(parse_variants(body)?),
        other => return Err(format!("serde stand-in: cannot derive for `{other}` items")),
    };
    Ok(Container {
        name,
        rename_all,
        tag,
        data,
    })
}

/// Collects tokens up to the next comma that is outside every `<...>`
/// pair, consuming the comma.
fn take_until_comma(tokens: &mut Tokens) -> String {
    let mut depth = 0usize;
    let mut previous_dash = false;
    let mut collected = TokenStream::new();
    for token in tokens.by_ref() {
        if let TokenTree::Punct(punct) = &token {
            match punct.as_char() {
                ',' if depth == 0 => break,
                '<' => depth += 1,
                // `->` closes nothing.
                '>' if !previous_dash => depth = depth.saturating_sub(1),
                _ => {}
            }
            previous_dash = punct.as_char() == '-';
        } else {
            previous_dash = false;
        }
        collected.extend(std::iter::once(token));
    }
    collected.to_string()
}

fn parse_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let mut tokens = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let metas = take_attrs(&mut tokens)?;
        skip_visibility(&mut tokens);
        let ident = match tokens.next() {
            None => break,
            Some(TokenTree::Ident(ident)) => ident.to_string(),
            Some(other) => {
                return Err(format!(
                    "serde stand-in: expected a field name, found `{other}`"
                ))
            }
        };
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => {
                return Err(format!(
                    "serde stand-in: expected `:` after field `{ident}`"
                ))
            }
        }
        let ty = take_until_comma(&mut tokens);
        let mut field = Field {
            ident,
            ty,
            rename: None,
            default: FieldDefault::Required,
            skip_serializing_if: None,
            with: None,
        };
        for meta in metas {
            match (meta.name.as_str(), meta.value) {
                ("rename", Some(value)) => field.rename = Some(value),
                ("default", None) => field.default = FieldDefault::Trait,
                ("default", Some(path)) => field.default = FieldDefault::Path(path),
                ("skip_serializing_if", Some(path)) => field.skip_serializing_if = Some(path),
                ("with", Some(path)) => field.with = Some(path),
                (name, _) => {
                    return Err(format!(
                        "serde stand-in: unsupported attribute `{name}` on field `{}`",
                        field.ident
                    ))
                }
            }
        }
        fields.push(field);
    }
    Ok(fields)
}

fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let mut tokens = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        let metas = take_attrs(&mut tokens)?;
        let ident = match tokens.next() {
            None => break,
            Some(TokenTree::Ident(ident)) => ident.to_string(),
            Some(other) => {
                return Err(format!(
                    "serde stand-in: expected a variant name, found `{other}`"
                ))
            }
        };
        let mut rename = None;
        for meta in metas {
            match (meta.name.as_str(), meta.value) {
                ("rename", Some(value)) => rename = Some(value),
                (name, _) => {
                    return Err(format!(
                        "serde stand-in: unsupported attribute `{name}` on variant `{ident}`"
                    ))
                }
            }
        }
        let shape = match tokens.peek() {
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Brace => {
                let fields = parse_fields(group.stream())?;
                tokens.next();
                Shape::Struct(fields)
            }
            Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Parenthesis => {
                let mut inner = group.stream().into_iter().peekable();
                let _ = take_attrs(&mut inner)?;
                skip_visibility(&mut inner);
                let ty = take_until_comma(&mut inner);
                if ty.is_empty() || inner.peek().is_some() {
                    return Err(format!(
                        "serde stand-in: variant `{ident}` must hold exactly one value"
                    ));
                }
                tokens.next();
                Shape::Newtype(ty)
            }
            _ => Shape::Unit,
        };
        // An explicit discriminant, then the separating comma.
        let _ = take_until_comma(&mut tokens);
        variants.push(Variant {
            ident,
            rename,
            shape,
        });
    }
    Ok(variants)
}

// ---------------------------------------------------------------------
// Serialize
// ---------------------------------------------------------------------

/// Statements writing `fields` into the open map `__map`. `access`
/// turns a field name into an expression of type `&FieldType`.
fn write_fields(
    fields: &[Field],
    rename_all: Option<&str>,
    access: impl Fn(&str) -> String,
) -> Result<String, String> {
    let mut out = String::new();
    for (index, field) in fields.iter().enumerate() {
        let key = field.wire_name(rename_all)?;
        let value = access(&field.ident);
        let entry = match &field.with {
            None => format!("__map.serialize_entry({key:?}, {value})?;"),
            Some(module) => format!(
                "{{
                    struct __With{index}<'__a>(&'__a {ty});
                    impl<'__a> ::serde::Serialize for __With{index}<'__a> {{
                        fn serialize<__S2: ::serde::Serializer>(&self, __s: __S2)
                            -> ::core::result::Result<__S2::Ok, __S2::Error>
                        {{
                            {module}::serialize(self.0, __s)
                        }}
                    }}
                    __map.serialize_entry({key:?}, &__With{index}({value}))?;
                }}",
                ty = field.ty,
            ),
        };
        match &field.skip_serializing_if {
            None => out.push_str(&entry),
            Some(skip) => out.push_str(&format!("if !{skip}({value}) {{ {entry} }}")),
        }
        out.push('\n');
    }
    Ok(out)
}

fn gen_serialize(container: &Container) -> Result<String, String> {
    let name = &container.name;
    let rename_all = container.rename_all.as_deref();
    let body = match &container.data {
        Data::Struct(fields) => {
            let entries = write_fields(fields, rename_all, |ident| format!("&self.{ident}"))?;
            format!(
                "let mut __map = __serializer.serialize_map(::core::option::Option::None)?;
                 {entries}
                 __map.end()"
            )
        }
        Data::Enum(variants) => {
            let mut arms = String::new();
            for variant in variants {
                let ident = &variant.ident;
                let wire = variant.wire_name(rename_all)?;
                let arm = match (&variant.shape, &container.tag) {
                    (Shape::Unit, None) => {
                        format!("{name}::{ident} => __serializer.serialize_str({wire:?}),")
                    }
                    (Shape::Unit, Some(tag)) => format!(
                        "{name}::{ident} => {{
                            let mut __map = __serializer.serialize_map(::core::option::Option::None)?;
                            __map.serialize_entry({tag:?}, {wire:?})?;
                            __map.end()
                        }}"
                    ),
                    (Shape::Newtype(_), None) => format!(
                        "{name}::{ident}(__inner) => {{
                            let mut __map = __serializer.serialize_map(::core::option::Option::None)?;
                            __map.serialize_entry({wire:?}, __inner)?;
                            __map.end()
                        }}"
                    ),
                    (Shape::Newtype(_), Some(tag)) => format!(
                        "{name}::{ident}(__inner) => ::serde::Serialize::serialize(
                            __inner,
                            ::serde::__private::TaggedSerializer {{
                                tag: {tag:?},
                                variant: {wire:?},
                                delegate: __serializer,
                            }},
                        ),"
                    ),
                    (Shape::Struct(_), None) => {
                        return Err(format!(
                            "serde stand-in: struct variant `{name}::{ident}` needs `tag = \"…\"` on the enum"
                        ))
                    }
                    (Shape::Struct(fields), Some(tag)) => {
                        let bindings: Vec<&str> =
                            fields.iter().map(|f| f.ident.as_str()).collect();
                        // Variant fields are renamed by `rename_all`
                        // on the variant only, which is unsupported,
                        // so they keep their own names.
                        let entries = write_fields(fields, None, |ident| ident.to_string())?;
                        format!(
                            "{name}::{ident} {{ {bindings} }} => {{
                                let mut __map = __serializer.serialize_map(::core::option::Option::None)?;
                                __map.serialize_entry({tag:?}, {wire:?})?;
                                {entries}
                                __map.end()
                            }}",
                            bindings = bindings.join(", "),
                        )
                    }
                };
                arms.push_str(&arm);
                arms.push('\n');
            }
            format!("match self {{ {arms} }}")
        }
    };
    Ok(format!(
        "#[automatically_derived]
        impl ::serde::Serialize for {name} {{
            fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S)
                -> ::core::result::Result<__S::Ok, __S::Error>
            {{
                #[allow(unused_imports)]
                use ::serde::ser::SerializeMap as _;
                {body}
            }}
        }}"
    ))
}

// ---------------------------------------------------------------------
// Deserialize
// ---------------------------------------------------------------------

/// A block expression of type `Result<{value}, __D::Error>` that reads a
/// map from `__deserializer` into `{constructor} { fields… }`.
fn read_fields(
    fields: &[Field],
    rename_all: Option<&str>,
    value: &str,
    constructor: &str,
) -> Result<String, String> {
    let mut field_variants = String::new();
    let mut name_arms = String::new();
    let mut slots = String::new();
    let mut seeds = String::new();
    let mut value_arms = String::new();
    let mut build = String::new();
    for (index, field) in fields.iter().enumerate() {
        let key = field.wire_name(rename_all)?;
        let ty = &field.ty;
        let ident = &field.ident;
        field_variants.push_str(&format!("__f{index}, "));
        name_arms.push_str(&format!("{key:?} => __Field::__f{index},\n"));
        slots.push_str(&format!(
            "let mut __v{index}: ::core::option::Option<{ty}> = ::core::option::Option::None;\n"
        ));
        let read = match &field.with {
            None => format!("__map.next_value::<{ty}>()?"),
            Some(module) => {
                seeds.push_str(&format!(
                    "struct __With{index};
                    impl<'de> ::serde::de::DeserializeSeed<'de> for __With{index} {{
                        type Value = {ty};
                        fn deserialize<__D2: ::serde::Deserializer<'de>>(self, __d: __D2)
                            -> ::core::result::Result<{ty}, __D2::Error>
                        {{
                            {module}::deserialize(__d)
                        }}
                    }}\n"
                ));
                format!("__map.next_value_seed(__With{index})?")
            }
        };
        value_arms.push_str(&format!(
            "__Field::__f{index} => {{
                if __v{index}.is_some() {{
                    return ::core::result::Result::Err(
                        <__A::Error as ::serde::de::Error>::duplicate_field({key:?}));
                }}
                __v{index} = ::core::option::Option::Some({read});
            }}\n"
        ));
        let missing = match &field.default {
            FieldDefault::Trait => "::core::default::Default::default()".to_string(),
            FieldDefault::Path(path) => format!("{path}()"),
            FieldDefault::Required if field.is_option() && field.with.is_none() => {
                "::core::option::Option::None".to_string()
            }
            FieldDefault::Required => format!(
                "return ::core::result::Result::Err(
                    <__A::Error as ::serde::de::Error>::missing_field({key:?}))"
            ),
        };
        build.push_str(&format!(
            "{ident}: match __v{index} {{
                ::core::option::Option::Some(__value) => __value,
                ::core::option::Option::None => {missing},
            }},\n"
        ));
    }
    Ok(format!(
        "{{
            #[allow(non_camel_case_types)]
            enum __Field {{ {field_variants} __ignore }}
            impl<'de> ::serde::Deserialize<'de> for __Field {{
                fn deserialize<__D2: ::serde::Deserializer<'de>>(__d: __D2)
                    -> ::core::result::Result<__Field, __D2::Error>
                {{
                    struct __FieldVisitor;
                    impl<'de> ::serde::de::Visitor<'de> for __FieldVisitor {{
                        type Value = __Field;
                        fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{
                            __f.write_str(\"a field name\")
                        }}
                        fn visit_str<__E: ::serde::de::Error>(self, __name: &str)
                            -> ::core::result::Result<__Field, __E>
                        {{
                            ::core::result::Result::Ok(match __name {{
                                {name_arms}
                                _ => __Field::__ignore,
                            }})
                        }}
                    }}
                    __d.deserialize_identifier(__FieldVisitor)
                }}
            }}
            {seeds}
            struct __Visitor;
            impl<'de> ::serde::de::Visitor<'de> for __Visitor {{
                type Value = {value};
                fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{
                    __f.write_str(\"struct {constructor}\")
                }}
                fn visit_map<__A: ::serde::de::MapAccess<'de>>(self, mut __map: __A)
                    -> ::core::result::Result<{value}, __A::Error>
                {{
                    {slots}
                    while let ::core::option::Option::Some(__key) = __map.next_key::<__Field>()? {{
                        match __key {{
                            {value_arms}
                            __Field::__ignore => {{
                                __map.next_value::<::serde::de::IgnoredAny>()?;
                            }}
                        }}
                    }}
                    ::core::result::Result::Ok({constructor} {{ {build} }})
                }}
            }}
            ::serde::Deserializer::deserialize_map(__deserializer, __Visitor)
        }}"
    ))
}

fn gen_deserialize(container: &Container) -> Result<String, String> {
    let name = &container.name;
    let rename_all = container.rename_all.as_deref();
    let body = match &container.data {
        Data::Struct(fields) => read_fields(fields, rename_all, name, name)?,
        Data::Enum(variants) => {
            let mut wire_names = Vec::new();
            for variant in variants {
                wire_names.push(variant.wire_name(rename_all)?);
            }
            let expected = format!(
                "&[{}]",
                wire_names
                    .iter()
                    .map(|n| format!("{n:?}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            match &container.tag {
                Some(tag) => gen_tagged_enum(name, tag, variants, &wire_names, &expected)?,
                None => gen_plain_enum(name, variants, &wire_names, &expected)?,
            }
        }
    };
    Ok(format!(
        "#[automatically_derived]
        impl<'de> ::serde::Deserialize<'de> for {name} {{
            fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D)
                -> ::core::result::Result<Self, __D::Error>
            {{
                {body}
            }}
        }}"
    ))
}

/// `#[serde(tag = "…")]`: buffer the map, pull the tag out, replay the
/// rest into the variant.
fn gen_tagged_enum(
    name: &str,
    tag: &str,
    variants: &[Variant],
    wire_names: &[String],
    expected: &str,
) -> Result<String, String> {
    let mut arms = String::new();
    for (variant, wire) in variants.iter().zip(wire_names) {
        let ident = &variant.ident;
        let read = match &variant.shape {
            Shape::Unit => format!("::core::result::Result::Ok({name}::{ident})"),
            Shape::Newtype(ty) => format!(
                "::core::result::Result::map(
                    <{ty} as ::serde::Deserialize>::deserialize(__deserializer),
                    {name}::{ident},
                )"
            ),
            Shape::Struct(fields) => read_fields(fields, None, name, &format!("{name}::{ident}"))?,
        };
        arms.push_str(&format!(
            "{wire:?} => {{
                let __deserializer =
                    ::serde::__private::ContentDeserializer::<__D::Error>::new(__rest);
                {read}
            }}\n"
        ));
    }
    Ok(format!(
        "let __content =
            <::serde::__private::Content as ::serde::Deserialize>::deserialize(__deserializer)?;
        let (__variant, __rest) = __content.take_tag::<__D::Error>({tag:?})?;
        match __variant.as_str() {{
            {arms}
            __other => ::core::result::Result::Err(
                <__D::Error as ::serde::de::Error>::unknown_variant(__other, {expected})),
        }}"
    ))
}

/// No `tag`: a unit variant is its name as a string, a newtype variant
/// a one-entry map from its name to its value.
fn gen_plain_enum(
    name: &str,
    variants: &[Variant],
    wire_names: &[String],
    expected: &str,
) -> Result<String, String> {
    let mut str_arms = String::new();
    let mut map_arms = String::new();
    for (variant, wire) in variants.iter().zip(wire_names) {
        let ident = &variant.ident;
        match &variant.shape {
            Shape::Unit => {
                str_arms.push_str(&format!(
                    "{wire:?} => ::core::result::Result::Ok({name}::{ident}),\n"
                ));
                map_arms.push_str(&format!(
                    "{wire:?} => {{
                        __map.next_value::<::serde::de::IgnoredAny>()?;
                        {name}::{ident}
                    }}\n"
                ));
            }
            Shape::Newtype(ty) => {
                str_arms.push_str(&format!(
                    "{wire:?} => ::core::result::Result::Err(__E::custom(
                        \"invalid type: unit variant, expected newtype variant\")),\n"
                ));
                map_arms.push_str(&format!(
                    "{wire:?} => {name}::{ident}(__map.next_value::<{ty}>()?),\n"
                ));
            }
            Shape::Struct(_) => {
                return Err(format!(
                "serde stand-in: struct variant `{name}::{ident}` needs `tag = \"…\"` on the enum"
            ))
            }
        }
    }
    Ok(format!(
        "struct __Visitor;
        impl<'de> ::serde::de::Visitor<'de> for __Visitor {{
            type Value = {name};
            fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{
                __f.write_str(\"enum {name}\")
            }}
            fn visit_str<__E: ::serde::de::Error>(self, __variant: &str)
                -> ::core::result::Result<{name}, __E>
            {{
                match __variant {{
                    {str_arms}
                    __other => ::core::result::Result::Err(__E::unknown_variant(__other, {expected})),
                }}
            }}
            fn visit_map<__A: ::serde::de::MapAccess<'de>>(self, mut __map: __A)
                -> ::core::result::Result<{name}, __A::Error>
            {{
                let __variant: ::std::string::String = match __map.next_key()? {{
                    ::core::option::Option::Some(__variant) => __variant,
                    ::core::option::Option::None => {{
                        return ::core::result::Result::Err(
                            <__A::Error as ::serde::de::Error>::custom(
                                \"expected a map with a single variant key\"));
                    }}
                }};
                let __value = match __variant.as_str() {{
                    {map_arms}
                    __other => {{
                        return ::core::result::Result::Err(
                            <__A::Error as ::serde::de::Error>::unknown_variant(__other, {expected}));
                    }}
                }};
                if __map.next_key::<::serde::de::IgnoredAny>()?.is_some() {{
                    return ::core::result::Result::Err(
                        <__A::Error as ::serde::de::Error>::custom(
                            \"expected a map with a single variant key\"));
                }}
                ::core::result::Result::Ok(__value)
            }}
        }}
        ::serde::Deserializer::deserialize_any(__deserializer, __Visitor)"
    ))
}
