//! The `json!` literal macro.

/// Builds a [`Value`](crate::Value) from JSON-like syntax. Object keys
/// are string literals; a value is `null`, a nested `{…}` or `[…]`, or
/// any expression whose type is `Serialize`.
///
/// # Panics
///
/// When an interpolated expression fails to serialize.
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::Value::Null
    };
    ([ $($elements:tt)* ]) => {
        $crate::Value::Array($crate::__json_array!([] () $($elements)*))
    };
    ({ $($entries:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object = $crate::Map::new();
        $crate::__json_object!(object () $($entries)*);
        $crate::Value::Object(object)
    }};
    ($other:expr) => {
        $crate::to_value(&$other).expect("json!: value failed to serialize")
    };
}

/// Array muncher: gathers tokens up to each top-level comma, keeps the
/// finished elements in the leading bracket, and ends as one `vec![…]`.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_array {
    ([$($done:expr),*] ()) => {
        ::std::vec![$($done),*]
    };
    ([$($done:expr),*] ($($value:tt)+)) => {
        ::std::vec![$($done,)* $crate::json!($($value)+)]
    };
    ([$($done:expr),*] ($($value:tt)+) , $($rest:tt)*) => {
        $crate::__json_array!([$($done,)* $crate::json!($($value)+)] () $($rest)*)
    };
    ([$($done:expr),*] ($($value:tt)*) $next:tt $($rest:tt)*) => {
        $crate::__json_array!([$($done),*] ($($value)* $next) $($rest)*)
    };
}

/// Object muncher: a literal key, a colon, then tokens up to the next
/// top-level comma.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_object {
    ($object:ident ()) => {};
    ($object:ident () $key:literal : $($rest:tt)*) => {
        $crate::__json_object!($object ($key) () $($rest)*);
    };
    ($object:ident ($key:literal) ($($value:tt)+)) => {
        $object.insert(::std::string::String::from($key), $crate::json!($($value)+));
    };
    ($object:ident ($key:literal) ($($value:tt)+) , $($rest:tt)*) => {
        $object.insert(::std::string::String::from($key), $crate::json!($($value)+));
        $crate::__json_object!($object () $($rest)*);
    };
    ($object:ident ($key:literal) ($($value:tt)*) $next:tt $($rest:tt)*) => {
        $crate::__json_object!($object ($key) ($($value)* $next) $($rest)*);
    };
}
