//! The one JSON value the report-writing bins build (`TUNE_`, `SCENARIO_`,
//! `RESILIENCE_`, `REPLAY_`, `MARATHON_<sha>.json`). Write-only, std only.

/// A JSON value; object keys keep insertion order.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    /// Non-finite values render as `null` (JSON has no NaN/Infinity).
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array of unsigned integers (per-window counter columns).
    pub fn u64s(v: &[u64]) -> Json {
        Json::Arr(v.iter().map(|&x| Json::U64(x)).collect())
    }

    /// Single-line rendering: `": "` after keys, `", "` between items.
    pub fn render(&self) -> String {
        let list = |open: char, items: Vec<String>, close: char| {
            format!("{open}{}{close}", items.join(", "))
        };
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::U64(n) => n.to_string(),
            Json::F64(x) if x.is_finite() => x.to_string(),
            Json::F64(_) => "null".into(),
            Json::Str(s) => quote(s),
            Json::Arr(items) => list('[', items.iter().map(Json::render).collect(), ']'),
            Json::Obj(fields) => {
                let field = |(k, v): &(&str, Json)| format!("{}: {}", quote(k), v.render());
                list('{', fields.iter().map(field).collect(), '}')
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
        let v = Json::Arr([f64::NAN, f64::INFINITY, -0.5, 3.0].map(Json::F64).to_vec());
        assert_eq!(v.render(), "[null, null, -0.5, 3]");
    }

    #[test]
    fn strings_are_escaped() {
        let got = Json::str("a\"b\\c\n\u{1}λ").render();
        assert_eq!(got, r#""a\"b\\c\u000a\u0001λ""#);
    }

    #[test]
    fn nesting_keeps_insertion_order() {
        let inner = Json::Obj(vec![("z", Json::Null), ("a", Json::Bool(true))]);
        let v = Json::Obj(vec![
            ("xs", Json::u64s(&[1, 2])),
            ("o", Json::Arr(vec![inner])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"xs": [1, 2], "o": [{"z": null, "a": true}]}"#
        );
    }
}
