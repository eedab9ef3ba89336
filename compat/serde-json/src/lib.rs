//! Offline stand-in for `serde_json`.
//!
//! One writer, one reader; `Value` is just a type. [`to_string`],
//! [`to_string_pretty`] and [`from_str`] call the [`serde`] stub's
//! [`Serialize::write_json`] / [`Deserialize::read_json`] directly, so a
//! typed value is printed into the output string and decoded from the
//! input bytes with no intermediate tree, and a [`Value`] goes through
//! exactly the same printer and parser as any other type. [`to_value`] and
//! [`from_value`] are text round-trips kept for tests and the [`json!`]
//! macro. Printing is deterministic: struct fields keep their declared
//! order and map entries are sorted, so equal values produce identical
//! bytes.

#![forbid(unsafe_code)]

pub use serde::DeError as Error;
pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Converts any serializable value into a [`Value`] by printing and
/// re-parsing it.
pub fn to_value<T: Serialize>(value: T) -> Result<Value, Error> {
    from_str(&serde::to_json(&value, false))
}

/// Reconstructs a typed value from a [`Value`] by printing and re-parsing
/// it.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T, Error> {
    from_str(&serde::to_json(&value, false))
}

/// Serializes to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::to_json(value, false))
}

/// Serializes to a pretty-printed JSON string (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(serde::to_json(value, true))
}

/// Parses a JSON string into a typed value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    serde::from_json(s)
}

/// `json!` helper: lifts any serializable expression into a [`Value`].
#[doc(hidden)]
pub fn __value_of<T: Serialize>(value: &T) -> Value {
    to_value(value).expect("printed JSON parses")
}

/// Builds a [`Value`] from JSON-like syntax. Supports `null`, literals,
/// arbitrary expressions, and nested `{...}`/`[...]` literals.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_array!(@acc [] $($tt)+)) };
    ({}) => { $crate::Value::Object(::std::vec::Vec::new()) };
    ({ $($tt:tt)+ }) => { $crate::Value::Object($crate::json_object!(@acc [] $($tt)+)) };
    ($expr:expr) => { $crate::__value_of(&$expr) };
}

/// Internal muncher for `json!` object bodies.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    (@acc [$($entry:expr,)*]) => { ::std::vec![$($entry,)*] };
    (@acc [$($entry:expr,)*] $key:literal : null $(, $($rest:tt)*)?) => {
        $crate::json_object!(@acc [$($entry,)* ($key.to_owned(), $crate::Value::Null),] $($($rest)*)?)
    };
    (@acc [$($entry:expr,)*] $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_object!(@acc [$($entry,)* ($key.to_owned(), $crate::json!({ $($inner)* })),] $($($rest)*)?)
    };
    (@acc [$($entry:expr,)*] $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_object!(@acc [$($entry,)* ($key.to_owned(), $crate::json!([ $($inner)* ])),] $($($rest)*)?)
    };
    (@acc [$($entry:expr,)*] $key:literal : $value:expr , $($rest:tt)*) => {
        $crate::json_object!(@acc [$($entry,)* ($key.to_owned(), $crate::__value_of(&$value)),] $($rest)*)
    };
    (@acc [$($entry:expr,)*] $key:literal : $value:expr) => {
        ::std::vec![$($entry,)* ($key.to_owned(), $crate::__value_of(&$value))]
    };
}

/// Internal muncher for `json!` array bodies.
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    (@acc [$($elem:expr,)*]) => { ::std::vec![$($elem,)*] };
    (@acc [$($elem:expr,)*] null $(, $($rest:tt)*)?) => {
        $crate::json_array!(@acc [$($elem,)* $crate::Value::Null,] $($($rest)*)?)
    };
    (@acc [$($elem:expr,)*] { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $crate::json_array!(@acc [$($elem,)* $crate::json!({ $($inner)* }),] $($($rest)*)?)
    };
    (@acc [$($elem:expr,)*] [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $crate::json_array!(@acc [$($elem,)* $crate::json!([ $($inner)* ]),] $($($rest)*)?)
    };
    (@acc [$($elem:expr,)*] $value:expr , $($rest:tt)*) => {
        $crate::json_array!(@acc [$($elem,)* $crate::__value_of(&$value),] $($rest)*)
    };
    (@acc [$($elem:expr,)*] $value:expr) => {
        ::std::vec![$($elem,)* $crate::__value_of(&$value)]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact() {
        let v = json!({
            "name": "svm",
            "count": 3,
            "ratio": 0.5,
            "nested": {"a": [1, 2, 3], "b": null},
        });
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v: Value =
            from_str(r#"{"s": "a\"b\\c\n", "n": -42, "big": 18446744073709551615, "f": 1.5e3}"#)
                .unwrap();
        assert_eq!(v["s"], Value::Str("a\"b\\c\n".to_owned()));
        assert_eq!(v["n"], Value::Int(-42));
        assert_eq!(v["big"], Value::UInt(u64::MAX));
        assert_eq!(v["f"], Value::Float(1500.0));
    }

    #[test]
    fn floats_stay_floats() {
        let s = to_string(&1.0f64).unwrap();
        assert_eq!(s, "1.0");
        let back: f64 = from_str(&s).unwrap();
        assert_eq!(back, 1.0);
    }

    #[test]
    fn pretty_output_reparses() {
        let v = json!({"a": [1, {"b": true}], "empty": []});
        let s = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn json_macro_exprs() {
        let x = 2.0f64;
        let v = json!({"r": x.max(1e-9), "arr": [x, 1]});
        assert_eq!(v["r"], Value::Float(2.0));
        assert_eq!(v["arr"][1], Value::Int(1));
        assert_eq!(json!(7), Value::Int(7));
    }
}
