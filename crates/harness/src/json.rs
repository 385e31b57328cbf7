//! Minimal JSON document builder for bench artifacts (std-only — the repo
//! carries no serde).
//!
//! The bench artifacts (`open_loop --json`, `queue_bench`'s
//! `LSA_BENCH_JSON`) used to hand-roll their JSON with `format!` string
//! surgery; this module is the one emitter they all share, so
//! escaping, number formatting and file writing are decided in exactly one
//! place. The output is a single-line document with a trailing newline —
//! what the CI artifact steps grep and upload.

use std::fmt::Write as _;

/// A JSON value. Construct leaves directly and containers via
/// [`Json::obj`] / [`Json::arr`]; render with [`Json::render`] or persist
/// with [`Json::write_file`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (counters, byte totals).
    U64(u64),
    /// Signed integer (gauges).
    I64(i64),
    /// Float, rendered with a fixed number of decimals (second field) —
    /// non-finite values render as `0`, JSON has no NaN.
    Fixed(f64, usize),
    /// String, escaped on render.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// A string leaf.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Render the document as a single line (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Fixed(v, decimals) => {
                let v = if v.is_finite() { *v } else { 0.0 };
                let _ = write!(out, "{v:.decimals$}");
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Write the rendered document (plus a trailing newline) to `path`.
    pub fn write_file(&self, path: &str) -> std::io::Result<()> {
        let mut doc = self.render();
        doc.push('\n');
        std::fs::write(path, doc)
    }
}

/// JSON string escaping: quotes, backslashes, and control characters.
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_render_as_json() {
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::Fixed(0.73459, 4).render(), "0.7346");
        assert_eq!(Json::Fixed(9283.4, 0).render(), "9283");
        assert_eq!(Json::Fixed(f64::NAN, 2).render(), "0.00");
        assert_eq!(Json::str("plain").render(), "\"plain\"");
    }

    #[test]
    fn strings_escape_quotes_and_control_chars() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn containers_preserve_order_and_nest() {
        let doc = Json::obj([
            (
                "benches",
                Json::arr([Json::obj([
                    ("name", Json::str("ring")),
                    ("ns_per_op", Json::Fixed(12.51, 1)),
                ])]),
            ),
            ("ok", Json::Bool(true)),
        ]);
        assert_eq!(
            doc.render(),
            "{\"benches\":[{\"name\":\"ring\",\"ns_per_op\":12.5}],\"ok\":true}"
        );
    }

    #[test]
    fn write_file_appends_newline() {
        let path = std::env::temp_dir().join("lsa_harness_json_test.json");
        let path = path.to_str().unwrap().to_string();
        Json::obj([("x", Json::U64(1))]).write_file(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"x\":1}\n");
        let _ = std::fs::remove_file(&path);
    }
}
