//! The JSON value `marathon` builds its `MARATHON_<sha>.json` report from.
//! Write-only, std only.

/// A JSON value; object keys keep insertion order.
#[derive(Debug, Clone)]
pub enum Json {
    Bool(bool),
    U64(u64),
    /// Non-finite values render as `null` (JSON has no NaN/Infinity).
    F64(f64),
    Str(String),
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Single-line rendering: `": "` after keys, `", "` between fields.
    pub fn render(&self) -> String {
        match self {
            Json::Bool(b) => b.to_string(),
            Json::U64(n) => n.to_string(),
            Json::F64(x) if x.is_finite() => x.to_string(),
            Json::F64(_) => "null".into(),
            Json::Str(s) => quote(s),
            Json::Obj(fields) => {
                let field = |(k, v): &(&str, Json)| format!("{}: {}", quote(k), v.render());
                format!(
                    "{{{}}}",
                    fields.iter().map(field).collect::<Vec<_>>().join(", ")
                )
            }
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_numbers_render_as_null() {
        let v = Json::Obj(
            [
                ("a", f64::NAN),
                ("b", f64::INFINITY),
                ("c", -0.5),
                ("d", 3.0),
            ]
            .map(|(k, x)| (k, Json::F64(x)))
            .to_vec(),
        );
        assert_eq!(v.render(), r#"{"a": null, "b": null, "c": -0.5, "d": 3}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let got = Json::str("a\"b\\c\n\u{1}λ").render();
        assert_eq!(got, r#""a\"b\\c\u000a\u0001λ""#);
    }

    #[test]
    fn nesting_keeps_insertion_order() {
        let inner = Json::Obj(vec![("z", Json::U64(1)), ("a", Json::Bool(true))]);
        let v = Json::Obj(vec![("x", Json::U64(2)), ("o", inner)]);
        assert_eq!(v.render(), r#"{"x": 2, "o": {"z": 1, "a": true}}"#);
    }
}
