//! The workspace's one JSON *writer*.
//!
//! `ct-obs` is deliberately dependency-free, so the workspace hand-rolls
//! both directions of its JSON: parsing lives in [`crate::chrome::json`],
//! and this module is the one serializer — and [`escape_into`] the one
//! string escaper — behind every machine-readable artifact: the Chrome
//! trace, the analysis export, `ct-perfdb` run
//! records, the `gups` reports, experiment `RunReport`s and
//! `cargo xtask analyze --format json`.
//!
//! The builders emit compact one-line JSON with deterministic field
//! order (fields appear in call order), which is exactly what a JSONL
//! stream needs. Non-finite floats have no JSON spelling; they are
//! clamped to `0` so a pathological sample can never corrupt the stream
//! (the parser, symmetrically, rejects literals that overflow `f64`).
//!
//! ```
//! use ct_obs::jsonw::Obj;
//!
//! let mut o = Obj::new();
//! o.field_u64("seq", 7).field_str("stage", "filter");
//! assert_eq!(o.finish(), r#"{"seq":7,"stage":"filter"}"#);
//! ```

use std::fmt::Write as _;

/// Render a `f64` as a JSON number. `NaN`/`inf` clamp to `0` (JSON has
/// no spelling for them); everything else uses Rust's shortest
/// round-trip `Display`, which is valid JSON.
pub fn num_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escape a string for a JSON string literal (quotes not included). The
/// output is pure ASCII: control characters and every non-ASCII scalar
/// are written as `\uXXXX` escapes (UTF-16 surrogate pairs for the
/// astral planes), so the document survives viewers that mishandle raw
/// UTF-8.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 || !c.is_ascii() => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
            c => out.push(c),
        }
    }
}

/// Render a string as a JSON string literal, quotes included.
pub fn str_lit(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Join pre-serialized JSON values into an array literal.
pub fn arr<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// A JSON object under construction. Fields are emitted in call order.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
    any: bool,
}

impl Obj {
    /// Start an empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        self.buf.push_str(&str_lit(key));
        self.buf.push(':');
    }

    /// Add an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Add a float field ([`num_f64`] semantics).
    pub fn field_f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&num_f64(v));
        self
    }

    /// Add a string field (escaped).
    pub fn field_str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(&str_lit(v));
        self
    }

    /// Add a boolean field.
    pub fn field_bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a field whose value is already-serialized JSON (an object or
    /// array built elsewhere). The caller vouches for its validity.
    pub fn field_raw(&mut self, key: &str, raw: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(raw);
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(self) -> String {
        let mut buf = String::with_capacity(self.buf.len() + 2);
        buf.push('{');
        buf.push_str(&self.buf);
        buf.push('}');
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_fields_in_call_order() {
        let mut o = Obj::new();
        o.field_u64("a", 1)
            .field_f64("b", 0.5)
            .field_str("c", "x\"y")
            .field_bool("d", true)
            .field_raw("e", "[1,2]");
        assert_eq!(
            o.finish(),
            r#"{"a":1,"b":0.5,"c":"x\"y","d":true,"e":[1,2]}"#
        );
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(Obj::new().finish(), "{}");
        assert_eq!(arr(Vec::<String>::new()), "[]");
        assert_eq!(arr(vec!["1".to_string(), "2".to_string()]), "[1,2]");
    }

    #[test]
    fn non_finite_floats_clamp_to_zero() {
        assert_eq!(num_f64(f64::NAN), "0");
        assert_eq!(num_f64(f64::INFINITY), "0");
        assert_eq!(num_f64(1.25), "1.25");
    }

    #[test]
    fn escaping_matches_parser() {
        let s = "weird \"name\"\nwith\ttabs and unicode: µs";
        let lit = str_lit(s);
        let parsed = crate::chrome::json::parse(&lit).expect("writer output parses");
        assert_eq!(parsed.as_str(), Some(s));
    }
}
