//! Offline stand-in for `serde`.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the subset of serde's API surface the workspace uses, built around a
//! concrete JSON-like [`Value`] tree instead of serde's visitor machinery:
//!
//! - [`Serialize`] / [`Deserialize`] traits (`T -> Value` / `&Value -> T`),
//! - impls for the primitives and containers the workspace serialises,
//! - the [`fields!`] macro, which implements both traits for a struct
//!   with named fields from its field list (there is no derive).
//!
//! The `serde_json` shim renders [`Value`] to JSON text and parses it back.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A JSON-like value tree.
///
/// Integers are kept in dedicated variants so `u64`/`i64` round-trip
/// exactly (JSON numbers above 2^53 would lose precision through `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    UInt(u64),
    /// Negative integer.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with sorted keys (deterministic output).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Borrows the object map if the value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Borrows the array if the value is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Deserialisation error: a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(String);

impl DeError {
    /// Creates an error from a message.
    pub fn custom(msg: &str) -> Self {
        DeError(msg.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Serialises a value into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn serialize(&self) -> Value;
}

/// Reconstructs a value from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Converts a [`Value`] back into `Self`.
    fn deserialize(v: &Value) -> Result<Self, DeError>;
}

/// Implements [`Serialize`], or [`Serialize`] and [`Deserialize`], for a
/// struct with named fields:
///
/// ```
/// struct Point {
///     x: u64,
///     y: u64,
/// }
/// serde::fields!(Serialize, Deserialize for Point { x, y });
/// let json = serde::Serialize::serialize(&Point { x: 1, y: 2 });
/// let back: Point = serde::Deserialize::deserialize(&json).unwrap();
/// assert_eq!((back.x, back.y), (1, 2));
/// ```
///
/// A struct serialises to a [`Value::Object`] keyed by field name. Reading
/// one back takes each listed field through [`__field`] and ignores unknown
/// keys. Every field must be listed: `Serialize` destructures the struct
/// without `..` and `Deserialize` builds it with a struct literal, so a
/// field left off fails to compile. Invoke it in the struct's own module,
/// where private fields are in scope.
#[macro_export]
macro_rules! fields {
    (Serialize for $t:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::Serialize for $t {
            fn serialize(&self) -> $crate::Value {
                let $t { $($f),+ } = self;
                $crate::Value::Object(::std::collections::BTreeMap::from([$((
                    ::std::string::String::from(stringify!($f)),
                    $crate::Serialize::serialize($f),
                )),+]))
            }
        }
    };
    (Serialize, Deserialize for $t:ident { $($f:ident),+ $(,)? }) => {
        $crate::fields!(Serialize for $t { $($f),+ });
        impl $crate::Deserialize for $t {
            fn deserialize(v: &$crate::Value) -> ::std::result::Result<Self, $crate::DeError> {
                let $crate::Value::Object(obj) = v else {
                    let message = concat!("expected object for ", stringify!($t));
                    return Err($crate::DeError::custom(message));
                };
                Ok($t { $($f: $crate::__field(obj, stringify!($f))?),+ })
            }
        }
    };
}

/// [`fields!`] helper: looks up a struct field by name, treating a missing
/// key as `null` (so `Option` fields tolerate omission).
pub fn __field<T: Deserialize>(obj: &BTreeMap<String, Value>, name: &str) -> Result<T, DeError> {
    match obj.get(name) {
        Some(v) => T::deserialize(v),
        None => {
            T::deserialize(&Value::Null).map_err(|_| DeError(format!("missing field `{name}`")))
        }
    }
}

// ---------------------------------------------------------------- primitives

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::custom("expected bool")),
        }
    }
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, DeError> {
                let raw: u64 = match v {
                    Value::UInt(u) => *u,
                    Value::Int(i) if *i >= 0 => *i as u64,
                    Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => {
                        *f as u64
                    }
                    _ => return Err(DeError::custom("expected unsigned integer")),
                };
                <$t>::try_from(raw).map_err(|_| DeError::custom("integer out of range"))
            }
        }
    )*};
}
impl_uint!(u32, u64, usize);

impl Serialize for i64 {
    fn serialize(&self) -> Value {
        if *self >= 0 {
            Value::UInt(*self as u64)
        } else {
            Value::Int(*self)
        }
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let wide = f64::deserialize(v)?;
        let narrow = wide as f32;
        if !narrow.is_finite() {
            return Err(DeError::custom(&format!("{wide} is outside the f32 range")));
        }
        Ok(narrow)
    }
}

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Float(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::UInt(u) => Ok(*u as f64),
            Value::Int(i) => Ok(*i as f64),
            _ => Err(DeError::custom("expected number")),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::custom("expected string")),
        }
    }
}

// --------------------------------------------------------------- containers

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(a) => a.iter().map(T::deserialize).collect(),
            _ => Err(DeError::custom("expected array")),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self) -> Value {
        Value::Array(vec![self.0.serialize(), self.1.serialize()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(a) if a.len() == 2 => Ok((A::deserialize(&a[0])?, B::deserialize(&a[1])?)),
            _ => Err(DeError::custom("expected 2-element array")),
        }
    }
}

impl<V: Serialize, S> Serialize for HashMap<String, V, S> {
    fn serialize(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize()))
                .collect(),
        )
    }
}

impl<V: Deserialize, S: std::hash::BuildHasher + Default> Deserialize for HashMap<String, V, S> {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Object(m) => m
                .iter()
                .map(|(k, v)| V::deserialize(v).map(|v| (k.clone(), v)))
                .collect(),
            _ => Err(DeError::custom("expected object")),
        }
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_range_boundary() {
        let max = f32::MAX as f64;
        assert_eq!(f32::deserialize(&Value::Float(max)), Ok(f32::MAX));
        assert_eq!(f32::deserialize(&Value::Float(-max)), Ok(f32::MIN));
        assert!(f32::deserialize(&Value::Float(1e39)).is_err());
        assert!(f32::deserialize(&Value::Float(-1e39)).is_err());
        // JSON text such as `1e400` parses to an infinite f64.
        assert!(f32::deserialize(&Value::Float(f64::INFINITY)).is_err());
    }
}
