//! Checks the three stand-ins together (`serde`, `serde_derive`, this
//! crate) against the wire formats the published crates produce for the
//! shapes the repository uses.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::{from_slice, from_str, from_value, json, to_string, to_string_pretty, to_value, Value};

mod micros {
    use std::time::Duration;

    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(value: &Duration, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_u64(value.as_micros() as u64)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        u64::deserialize(d).map(Duration::from_micros)
    }
}

fn one() -> f64 {
    1.0
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
#[serde(rename_all = "snake_case")]
enum Side {
    #[default]
    Request,
    ResponseSide,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Abort {
    Status(u16),
    Reset,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum Action {
    Abort {
        abort: Abort,
    },
    Delay {
        #[serde(with = "micros")]
        interval: Duration,
    },
    Nothing,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Rule {
    src: String,
    #[serde(default)]
    on: Side,
    #[serde(default = "one")]
    probability: f64,
    action: Action,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    tags: Vec<String>,
    window: Option<Duration>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
struct Span {
    trace_id: String,
    start_time_unix_nano: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Alert {
    seq: u64,
    check: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum Record {
    Verdict(Alert),
}

fn rule() -> Rule {
    Rule {
        src: "a\"b\\c\n\u{1}é".to_string(),
        on: Side::ResponseSide,
        probability: 0.25,
        action: Action::Delay {
            interval: Duration::from_millis(3),
        },
        note: None,
        tags: Vec::new(),
        window: Some(Duration::new(1, 5)),
    }
}

#[test]
fn struct_wire_format_matches_published_serde() {
    assert_eq!(
        to_string(&rule()).unwrap(),
        r#"{"src":"a\"b\\c\n\u0001é","on":"response_side","probability":0.25,"action":{"kind":"delay","interval":3000},"window":{"secs":1,"nanos":5}}"#
    );
}

#[test]
fn struct_round_trips_and_defaults_apply() {
    let back: Rule = from_str(&to_string(&rule()).unwrap()).unwrap();
    assert_eq!(back, rule());

    let minimal: Rule =
        from_str(r#" { "action" : {"abort":{"status":503},"kind":"abort"}, "src":"s", "extra":[1,{"x":null}] } "#)
            .unwrap();
    assert_eq!(minimal.on, Side::Request);
    assert_eq!(minimal.probability, 1.0);
    assert_eq!(minimal.note, None);
    assert_eq!(minimal.window, None);
    assert_eq!(
        minimal.action,
        Action::Abort {
            abort: Abort::Status(503)
        }
    );
}

#[test]
fn enums_use_serde_representations() {
    assert_eq!(to_string(&Abort::Reset).unwrap(), r#""reset""#);
    assert_eq!(to_string(&Abort::Status(503)).unwrap(), r#"{"status":503}"#);
    assert_eq!(from_str::<Abort>(r#""reset""#).unwrap(), Abort::Reset);
    assert_eq!(
        to_string(&Action::Nothing).unwrap(),
        r#"{"kind":"nothing"}"#
    );
    assert_eq!(
        from_str::<Action>(r#"{"kind":"nothing"}"#).unwrap(),
        Action::Nothing
    );
    let record = Record::Verdict(Alert {
        seq: 7,
        check: "c".to_string(),
    });
    let text = to_string(&record).unwrap();
    assert_eq!(text, r#"{"kind":"verdict","seq":7,"check":"c"}"#);
    assert_eq!(from_str::<Record>(&text).unwrap(), record);
    // The tag may come last.
    assert_eq!(
        from_str::<Record>(r#"{"seq":7,"check":"c","kind":"verdict"}"#).unwrap(),
        record
    );
}

#[test]
fn rename_all_camel_case_applies_to_fields() {
    let span = Span {
        trace_id: "t".to_string(),
        start_time_unix_nano: 9,
    };
    let text = to_string(&span).unwrap();
    assert_eq!(text, r#"{"traceId":"t","startTimeUnixNano":9}"#);
    assert_eq!(from_str::<Span>(&text).unwrap(), span);
}

#[test]
fn shape_errors_are_reported() {
    assert!(from_str::<Rule>(r#"{"src":"s"}"#)
        .unwrap_err()
        .to_string()
        .contains("missing field `action`"));
    assert!(from_str::<Action>(r#"{"kind":"explode"}"#)
        .unwrap_err()
        .to_string()
        .contains("unknown variant `explode`"));
    assert!(from_str::<Alert>(r#"{"seq":1,"seq":2,"check":"c"}"#)
        .unwrap_err()
        .to_string()
        .contains("duplicate field `seq`"));
    assert!(from_str::<Alert>(r#"{"seq":"one","check":"c"}"#).is_err());
    assert!(from_str::<u8>("256").is_err());
}

#[test]
fn malformed_json_is_rejected() {
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\":1,}",
        "[1 2]",
        "{\"a\" 1}",
        "{a:1}",
        "01",
        "1.",
        "-",
        "1e",
        "\"abc",
        "\"\\x\"",
        "\"\\ud800\"",
        "tru",
        "nul",
        "[1]]",
        "\"a\nb\"",
    ] {
        assert!(from_str::<Value>(bad).is_err(), "accepted {bad:?}");
    }
    assert!(from_slice::<Value>(b"\"\xff\"").is_err());
    let deep = "[".repeat(200) + &"]".repeat(200);
    assert!(from_str::<Value>(&deep)
        .unwrap_err()
        .to_string()
        .contains("recursion limit"));
}

#[test]
fn numbers_keep_their_kind() {
    assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
    assert_eq!(to_string(&0.1f64).unwrap(), "0.1");
    assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
    assert_eq!(from_str::<f64>("-2.5e-3").unwrap(), -0.0025);
    let value: Value = from_str("[1,-1,1.5]").unwrap();
    assert!(value[0].is_number() && value[0].as_u64() == Some(1));
    assert_eq!(value[1].as_i64(), Some(-1));
    assert_eq!(value[2].as_f64(), Some(1.5));
    assert_eq!(to_string(&value).unwrap(), "[1,-1,1.5]");
}

#[test]
fn strings_unescape() {
    let text: String = from_str(r#""a\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00z""#).unwrap();
    assert_eq!(text, "a\"\\/\u{8}\u{c}\n\r\té😀z");
    assert_eq!(
        from_str::<String>(&to_string(&text).unwrap()).unwrap(),
        text
    );
}

#[test]
fn pretty_output_indents_by_two() {
    let value = json!({"a": [1, 2], "b": {}, "c": []});
    assert_eq!(
        to_string_pretty(&value).unwrap(),
        "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {},\n  \"c\": []\n}"
    );
}

#[test]
fn json_macro_and_value_access() {
    let name = "n";
    let points = vec![json!([1, 2.5]), json!(null)];
    let value = json!({
        "name": name,
        "kind": match name.len() { 1 => "short", _ => "long" },
        "nested": { "flag": true, "list": [1, "two", null] },
        "points": points,
        "sum": 1 + 2,
    });
    assert_eq!(value["name"], "n");
    assert_eq!(value["kind"], "short");
    assert_eq!(value["nested"]["flag"], true);
    assert_eq!(value["nested"]["list"][1], "two");
    assert!(value["nested"]["list"][2].is_null());
    assert_eq!(value["points"][0][1], 2.5);
    assert_eq!(value["sum"], 3);
    assert!(value["absent"]["deeper"].is_null());
    assert_eq!(value.get("name").and_then(Value::as_str), Some("n"));
    assert_eq!(
        value.to_string(),
        r#"{"kind":"short","name":"n","nested":{"flag":true,"list":[1,"two",null]},"points":[[1,2.5],null],"sum":3}"#
    );
}

#[test]
fn value_conversions_round_trip() {
    let as_value = to_value(rule()).unwrap();
    assert_eq!(as_value["action"]["interval"], 3000);
    assert_eq!(from_value::<Rule>(as_value).unwrap(), rule());
    let map: BTreeMap<String, Vec<(String, u64)>> = from_str(r#"{"k":[["a",1],["b",2]]}"#).unwrap();
    assert_eq!(map["k"][1], ("b".to_string(), 2));
    assert_eq!(to_string(&map).unwrap(), r#"{"k":[["a",1],["b",2]]}"#);
    let keyed: BTreeMap<u32, bool> = [(3, true)].into_iter().collect();
    assert_eq!(to_string(&keyed).unwrap(), r#"{"3":true}"#);
}
