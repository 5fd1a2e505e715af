//! Strict, path-tracking decoding from [`serde::Content`] trees.
//!
//! The vendored serde derive stand-in has no `deny_unknown_fields`
//! support, so the spec types decode by hand through [`Walk`]: fields are
//! `take`n off a map, and [`Walk::finish`] rejects anything left over,
//! reporting the full dotted path of the unknown field. Scalar accessors
//! coerce between the integer variants (`U64`/`I64`/`F64`) the TOML and
//! JSON front-ends produce, but never silently drop sign or precision.

use crate::error::SpecError;
use serde::Content;

/// Human name of a content variant, for error messages.
fn kind(c: &Content) -> &'static str {
    match c {
        Content::Null => "null",
        Content::Bool(_) => "boolean",
        Content::U64(_) | Content::I64(_) => "integer",
        Content::F64(_) => "float",
        Content::Str(_) => "string",
        Content::Seq(_) => "array",
        Content::Map(_) => "table",
    }
}

/// A map being consumed field-by-field, carrying its dotted path.
pub struct Walk {
    entries: Vec<(String, Content)>,
    path: String,
}

impl Walk {
    /// Starts a walk at the document root.
    pub fn root(content: Content) -> Result<Self, SpecError> {
        Self::at(content, String::new())
    }

    /// Starts a walk over a nested table at `path`.
    pub fn at(content: Content, path: String) -> Result<Self, SpecError> {
        match content {
            Content::Map(entries) => Ok(Self { entries, path }),
            other => Err(SpecError::new(
                path,
                format!("expected a table, found {}", kind(&other)),
            )),
        }
    }

    /// The dotted path of a child field.
    pub fn child(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Removes and returns a field, if present.
    pub fn take(&mut self, key: &str) -> Option<Content> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Removes a required field, erroring with its path when missing.
    pub fn req(&mut self, key: &str) -> Result<Content, SpecError> {
        self.take(key)
            .ok_or_else(|| SpecError::new(self.child(key), "missing required field"))
    }

    /// Whether a field is present (without consuming it).
    pub fn has(&self, key: &str) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }

    /// Rejects any fields that were not consumed (`deny_unknown_fields`).
    pub fn finish(self) -> Result<(), SpecError> {
        if let Some((key, _)) = self.entries.first() {
            return Err(SpecError::new(self.child(key), "unknown field"));
        }
        Ok(())
    }

    // ---- typed convenience accessors ------------------------------------

    /// Optional f64 field.
    pub fn f64_opt(&mut self, key: &str) -> Result<Option<f64>, SpecError> {
        let path = self.child(key);
        self.take(key).map(|c| f64_v(c, &path)).transpose()
    }

    /// f64 field with a default.
    pub fn f64_or(&mut self, key: &str, default: f64) -> Result<f64, SpecError> {
        Ok(self.f64_opt(key)?.unwrap_or(default))
    }

    /// Required f64 field.
    pub fn f64_req(&mut self, key: &str) -> Result<f64, SpecError> {
        let path = self.child(key);
        f64_v(self.req(key)?, &path)
    }

    /// Optional u64 field (rejects negatives and floats).
    pub fn u64_opt(&mut self, key: &str) -> Result<Option<u64>, SpecError> {
        let path = self.child(key);
        self.take(key).map(|c| u64_v(c, &path)).transpose()
    }

    /// u64 field with a default.
    pub fn u64_or(&mut self, key: &str, default: u64) -> Result<u64, SpecError> {
        Ok(self.u64_opt(key)?.unwrap_or(default))
    }

    /// Optional usize field.
    pub fn usize_opt(&mut self, key: &str) -> Result<Option<usize>, SpecError> {
        let path = self.child(key);
        self.take(key).map(|c| usize_v(c, &path)).transpose()
    }

    /// usize field with a default.
    pub fn usize_or(&mut self, key: &str, default: usize) -> Result<usize, SpecError> {
        Ok(self.usize_opt(key)?.unwrap_or(default))
    }

    /// Required usize field.
    pub fn usize_req(&mut self, key: &str) -> Result<usize, SpecError> {
        let path = self.child(key);
        usize_v(self.req(key)?, &path)
    }

    /// bool field with a default.
    pub fn bool_or(&mut self, key: &str, default: bool) -> Result<bool, SpecError> {
        let path = self.child(key);
        self.take(key)
            .map(|c| bool_v(c, &path))
            .transpose()
            .map(|o| o.unwrap_or(default))
    }

    /// Optional string field.
    pub fn str_opt(&mut self, key: &str) -> Result<Option<String>, SpecError> {
        let path = self.child(key);
        self.take(key).map(|c| str_v(c, &path)).transpose()
    }

    /// String field with a default.
    pub fn str_or(&mut self, key: &str, default: &str) -> Result<String, SpecError> {
        Ok(self.str_opt(key)?.unwrap_or_else(|| default.to_string()))
    }

    /// Required string field.
    pub fn str_req(&mut self, key: &str) -> Result<String, SpecError> {
        let path = self.child(key);
        str_v(self.req(key)?, &path)
    }

    /// Optional array field, returned with per-element paths.
    pub fn seq_opt(&mut self, key: &str) -> Result<Option<Vec<(Content, String)>>, SpecError> {
        let path = self.child(key);
        match self.take(key) {
            None => Ok(None),
            Some(Content::Seq(items)) => Ok(Some(
                items
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| (c, format!("{path}[{i}]")))
                    .collect(),
            )),
            Some(other) => Err(SpecError::new(
                path,
                format!("expected an array, found {}", kind(&other)),
            )),
        }
    }

    /// Optional nested-table field, as a sub-walk.
    pub fn table_opt(&mut self, key: &str) -> Result<Option<Walk>, SpecError> {
        let path = self.child(key);
        self.take(key).map(|c| Walk::at(c, path)).transpose()
    }
}

/// Coerces any numeric variant to f64.
pub fn f64_v(c: Content, path: &str) -> Result<f64, SpecError> {
    match c {
        Content::F64(v) => Ok(v),
        Content::U64(v) => Ok(v as f64),
        Content::I64(v) => Ok(v as f64),
        other => Err(SpecError::new(
            path,
            format!("expected a number, found {}", kind(&other)),
        )),
    }
}

/// Accepts only non-negative integers.
pub fn u64_v(c: Content, path: &str) -> Result<u64, SpecError> {
    match c {
        Content::U64(v) => Ok(v),
        Content::I64(v) => Err(SpecError::new(
            path,
            format!("value {v} is out of range: expected a non-negative integer"),
        )),
        other => Err(SpecError::new(
            path,
            format!("expected a non-negative integer, found {}", kind(&other)),
        )),
    }
}

/// Accepts non-negative integers that fit in usize.
pub fn usize_v(c: Content, path: &str) -> Result<usize, SpecError> {
    let v = u64_v(c, path)?;
    usize::try_from(v)
        .map_err(|_| SpecError::new(path, format!("value {v} is out of range for this platform")))
}

/// Accepts only booleans.
pub fn bool_v(c: Content, path: &str) -> Result<bool, SpecError> {
    match c {
        Content::Bool(v) => Ok(v),
        other => Err(SpecError::new(
            path,
            format!("expected a boolean, found {}", kind(&other)),
        )),
    }
}

/// Accepts only strings.
pub fn str_v(c: Content, path: &str) -> Result<String, SpecError> {
    match c {
        Content::Str(v) => Ok(v),
        other => Err(SpecError::new(
            path,
            format!("expected a string, found {}", kind(&other)),
        )),
    }
}

/// Builder for insertion-ordered `Content::Map`s (used by the encoders).
#[derive(Default)]
pub struct MapBuilder {
    entries: Vec<(String, Content)>,
}

impl MapBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field.
    pub fn push(mut self, key: &str, value: Content) -> Self {
        self.entries.push((key.to_string(), value));
        self
    }

    /// Appends a field only when `Some`.
    pub fn push_opt(self, key: &str, value: Option<Content>) -> Self {
        match value {
            Some(v) => self.push(key, v),
            None => self,
        }
    }

    /// Finishes into a `Content::Map`.
    pub fn build(self) -> Content {
        Content::Map(self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Content {
        MapBuilder::new()
            .push("a", Content::U64(3))
            .push(
                "nested",
                MapBuilder::new().push("x", Content::F64(1.5)).build(),
            )
            .push("s", Content::Str("hi".into()))
            .build()
    }

    #[test]
    fn unknown_fields_report_their_full_path() {
        let mut w = Walk::root(demo()).unwrap();
        let _ = w.u64_or("a", 0).unwrap();
        let _ = w.str_opt("s").unwrap();
        let err = w.finish().unwrap_err();
        assert_eq!(err.path, "nested");
        assert_eq!(err.message, "unknown field");

        let mut w = Walk::root(demo()).unwrap();
        let mut nested = w.table_opt("nested").unwrap().unwrap();
        let _ = nested.u64_opt("wrong");
        let err = nested.finish().unwrap_err();
        assert_eq!(err.path, "nested.x");
    }

    #[test]
    fn missing_required_fields_report_the_child_path() {
        let mut w = Walk::root(demo()).unwrap();
        let err = w.f64_req("gone").unwrap_err();
        assert_eq!(err.path, "gone");
        assert_eq!(err.message, "missing required field");
    }

    #[test]
    fn negative_integers_are_out_of_range_for_u64() {
        let c = MapBuilder::new().push("seed", Content::I64(-1)).build();
        let mut w = Walk::root(c).unwrap();
        let err = w.u64_opt("seed").unwrap_err();
        assert_eq!(err.path, "seed");
        assert!(err.message.contains("out of range"), "{err}");
    }

    #[test]
    fn numeric_coercions_accept_integers_for_floats_only() {
        let c = MapBuilder::new()
            .push("f", Content::U64(7))
            .push("u", Content::F64(7.0))
            .build();
        let mut w = Walk::root(c).unwrap();
        assert_eq!(w.f64_req("f").unwrap(), 7.0);
        assert!(w.u64_opt("u").unwrap_err().message.contains("expected"));
    }
}
