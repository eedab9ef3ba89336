//! Property and edge-case tests for the one JSON writer and the one pull
//! reader: typed round-trips in compact and pretty form, the `Value` fixed
//! point, the pinned struct-decoding rules, the nesting-depth limit and
//! UTF-16 surrogate-pair escapes.

use std::collections::{BTreeMap, HashMap};

use proptest::{run_cases, ProptestConfig, TestRng};
use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, to_string_pretty, Value};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
struct Id(u32);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(i32, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Point(f64),
    Segment(f64, f64),
    Labeled { label: String, weight: f32 },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    name: String,
    tags: Vec<String>,
    ratio: f64,
    small: f32,
    count: u64,
    offset: i64,
    id: Id,
    by_id: HashMap<Id, String>,
    by_offset: HashMap<i64, Vec<Option<f64>>>,
    by_name: BTreeMap<String, u8>,
    nested: Option<Vec<Option<Shape>>>,
    shapes: Vec<Shape>,
    pair: Pair,
    tuple: (bool, Option<String>),
    marker: Marker,
}

/// A string mixing characters the printer must escape, multi-byte UTF-8
/// and plain ASCII.
fn string(rng: &mut TestRng) -> String {
    const POOL: [char; 16] = [
        '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}', '\u{7f}', '/', ' ', 'é', '€',
        '😀', 'a', 'Z',
    ];
    let len = rng.next_in(0, 20) as usize;
    (0..len)
        .map(|_| match rng.next_in(0, 3) {
            0 => POOL[rng.next_in(0, POOL.len() as u64) as usize],
            _ => char::from(rng.next_in(0x20, 0x7f) as u8),
        })
        .collect()
}

/// A finite float: signed zeros, subnormals, extremes, integral values
/// and arbitrary bit patterns.
fn float(rng: &mut TestRng) -> f64 {
    match rng.next_in(0, 10) {
        0 => 0.0,
        1 => -0.0,
        2 => 5e-324,
        3 => f64::MIN_POSITIVE / 3.0,
        4 => 1e300,
        5 => -f64::MAX,
        6 => rng.next_in(0, 1 << 40) as f64,
        7 => rng.next_f64() - 0.5,
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn small_float(rng: &mut TestRng) -> f32 {
    loop {
        let x = f32::from_bits(rng.next_u64() as u32);
        if x.is_finite() {
            break x;
        }
    }
}

fn shape(rng: &mut TestRng) -> Shape {
    match rng.next_in(0, 4) {
        0 => Shape::Empty,
        1 => Shape::Point(float(rng)),
        2 => Shape::Segment(float(rng), float(rng)),
        _ => Shape::Labeled {
            label: string(rng),
            weight: small_float(rng),
        },
    }
}

fn vec_of<T>(rng: &mut TestRng, max: u64, mut item: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    let len = rng.next_in(0, max + 1);
    (0..len).map(|_| item(rng)).collect()
}

fn record(rng: &mut TestRng) -> Record {
    let count = match rng.next_in(0, 3) {
        0 => u64::MAX,
        1 => 0,
        _ => rng.next_u64(),
    };
    let offset = match rng.next_in(0, 3) {
        0 => i64::MIN,
        1 => i64::MAX,
        _ => rng.next_u64() as i64,
    };
    Record {
        name: string(rng),
        tags: vec_of(rng, 4, string),
        ratio: float(rng),
        small: small_float(rng),
        count,
        offset,
        id: Id(rng.next_u64() as u32),
        by_id: vec_of(rng, 5, |r| (Id(r.next_in(0, 1000) as u32), string(r)))
            .into_iter()
            .collect(),
        by_offset: vec_of(rng, 4, |r| {
            let key = r.next_u64() as i64 >> r.next_in(0, 64);
            (
                key,
                vec_of(r, 3, |r| (r.next_in(0, 2) == 0).then(|| float(r))),
            )
        })
        .into_iter()
        .collect(),
        by_name: vec_of(rng, 4, |r| (string(r), r.next_u64() as u8))
            .into_iter()
            .collect(),
        nested: (rng.next_in(0, 3) > 0)
            .then(|| vec_of(rng, 3, |r| (r.next_in(0, 3) > 0).then(|| shape(r)))),
        shapes: vec_of(rng, 4, shape),
        pair: Pair(rng.next_u64() as i32, string(rng)),
        tuple: (
            rng.next_in(0, 2) == 1,
            (rng.next_in(0, 2) == 1).then(|| string(rng)),
        ),
        marker: Marker,
    }
}

/// Bitwise float equality, so `-0.0` and `0.0` are told apart.
fn same_bits(a: &Record, b: &Record) -> bool {
    a.ratio.to_bits() == b.ratio.to_bits() && a.small.to_bits() == b.small.to_bits()
}

#[test]
fn typed_values_round_trip_compact_and_pretty() {
    run_cases(
        &ProptestConfig::with_cases(256),
        "typed_round_trip",
        |rng| {
            let x = record(rng);
            for text in [to_string(&x).unwrap(), to_string_pretty(&x).unwrap()] {
                let back: Record = from_str(&text).map_err(|e| format!("{e} in {text}"))?;
                if back != x || !same_bits(&back, &x) {
                    return Err(format!("{back:?} != {x:?} via {text}"));
                }
            }
            // Printing is a pure function of the value: the decoded copy
            // prints the same bytes.
            let back: Record = from_str(&to_string(&x).unwrap()).unwrap();
            if to_string(&back).unwrap() != to_string(&x).unwrap() {
                return Err(format!("re-print differs for {x:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn value_is_a_fixed_point_of_print_and_parse() {
    run_cases(
        &ProptestConfig::with_cases(256),
        "value_fixed_point",
        |rng| {
            let x = record(rng);
            let compact = to_string(&x).unwrap();
            let value: Value = from_str(&compact).map_err(|e| e.to_string())?;
            if to_string(&value).unwrap() != compact {
                return Err(format!("compact Value print differs for {compact}"));
            }
            if to_string_pretty(&value).unwrap() != to_string_pretty(&x).unwrap() {
                return Err(format!("pretty Value print differs for {compact}"));
            }
            let from_pretty: Value = from_str(&to_string_pretty(&x).unwrap()).unwrap();
            if from_pretty != value {
                return Err("pretty and compact parse to different values".to_owned());
            }
            Ok(())
        },
    );
}

#[test]
fn float_printing_rules_are_pinned() {
    assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
    assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(to_string(&0.1f64).unwrap(), "0.1");
    assert_eq!(to_string(&5e-324f64).unwrap(), format!("{}", 5e-324f64));
    assert_eq!(to_string(&1e300f64).unwrap(), format!("{}.0", 1e300f64));
    assert_eq!(to_string(&0.1f32).unwrap(), "0.10000000149011612");
    assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(to_string(&f64::NEG_INFINITY).unwrap(), "null");
    assert_eq!(to_string(&u64::MAX).unwrap(), "18446744073709551615");
    assert_eq!(to_string(&i64::MIN).unwrap(), "-9223372036854775808");
}

#[test]
fn containers_and_escapes_print_as_before() {
    let mut m = HashMap::new();
    m.insert(10u32, vec![1.5f64]);
    m.insert(9u32, Vec::new());
    assert_eq!(to_string(&m).unwrap(), r#"{"10":[1.5],"9":[]}"#);
    assert_eq!(
        to_string_pretty(&m).unwrap(),
        "{\n  \"10\": [\n    1.5\n  ],\n  \"9\": []\n}"
    );
    let empty: BTreeMap<String, u8> = BTreeMap::new();
    assert_eq!(to_string_pretty(&empty).unwrap(), "{}");
    assert_eq!(
        to_string(&"q\"b\\n\n\u{1}\u{7f}é").unwrap(),
        "\"q\\\"b\\\\n\\n\\u0001\u{7f}é\""
    );
    let set: std::collections::HashSet<i32> = [3, -1, 20].into_iter().collect();
    assert_eq!(to_string(&set).unwrap(), "[-1,3,20]");
    assert_eq!(
        to_string(&Shape::Labeled {
            label: "x".into(),
            weight: 0.5
        })
        .unwrap(),
        r#"{"Labeled":{"label":"x","weight":0.5}}"#
    );
    assert_eq!(to_string(&Shape::Empty).unwrap(), r#""Empty""#);
    assert_eq!(
        to_string(&Shape::Segment(1.0, 2.0)).unwrap(),
        r#"{"Segment":[1.0,2.0]}"#
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Point {
    x: u32,
    y: f64,
}

#[test]
fn struct_fields_decode_in_any_order() {
    let p: Point = from_str(r#"{"y": 2.5, "x": 7}"#).unwrap();
    assert_eq!(p, Point { x: 7, y: 2.5 });
}

#[test]
fn unknown_keys_are_validated_and_ignored() {
    let p: Point = from_str(r#"{"x": 1, "extra": {"deep": [1, {"a": null}]}, "y": 0.5}"#).unwrap();
    assert_eq!(p, Point { x: 1, y: 0.5 });
    let err = from_str::<Point>(r#"{"x": 1, "extra": [1,, 2], "y": 0.5}"#).unwrap_err();
    assert!(err.to_string().contains("at byte"), "{err}");
}

#[test]
fn first_duplicate_key_wins() {
    let p: Point = from_str(r#"{"x": 1, "y": 2.0, "x": 3}"#).unwrap();
    assert_eq!(p.x, 1);
    // The later duplicate is validated as JSON but never typed.
    let p: Point = from_str(r#"{"x": 1, "y": 2.0, "x": "three"}"#).unwrap();
    assert_eq!(p.x, 1);
}

#[test]
fn missing_field_error_names_the_field() {
    let err = from_str::<Point>(r#"{"x": 1}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `y`"), "{err}");
}

/// Field `default` and `default = "path"`: absent keys take the field's
/// default, present keys are read as usual.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Knobs {
    name: String,
    #[serde(default)]
    count: u32,
    #[serde(default = "three_halves")]
    ratio: f64,
    #[serde(default)]
    tags: Vec<String>,
}

fn three_halves() -> f64 {
    1.5
}

/// Container `default` with `deny_unknown_fields`: every absent field
/// comes from `Self::default()`, and a stray or repeated key is an error.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
struct Budget {
    limit: f64,
    retries: u32,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            limit: 0.25,
            retries: 3,
        }
    }
}

#[test]
fn field_defaults_fill_absent_keys() {
    let k: Knobs = from_str(r#"{"name": "a"}"#).unwrap();
    assert_eq!(
        k,
        Knobs {
            name: "a".to_owned(),
            count: 0,
            ratio: 1.5,
            tags: vec![],
        }
    );
    let k: Knobs = from_str(r#"{"ratio": 2, "name": "b", "count": 7, "tags": ["t"]}"#).unwrap();
    assert_eq!((k.count, k.ratio, k.tags.len()), (7, 2.0, 1));
    assert_eq!(from_str::<Knobs>(&to_string(&k).unwrap()).unwrap(), k);
    // A field without a default stays required; unknown keys are skipped.
    let err = from_str::<Knobs>(r#"{"count": 1, "extra": 2}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `name`"), "{err}");
    // Only the first of duplicate keys counts, as without attributes.
    let k: Knobs = from_str(r#"{"name": "a", "count": 1, "count": 2}"#).unwrap();
    assert_eq!(k.count, 1);
}

#[test]
fn field_errors_name_the_field() {
    let err = from_str::<Knobs>(r#"{"name": "a", "ratio": "x"}"#).unwrap_err();
    assert!(
        err.to_string()
            .contains("field `ratio`: expected number for f64, got string"),
        "{err}"
    );
}

#[test]
fn container_default_fills_every_absent_field() {
    assert_eq!(from_str::<Budget>("{}").unwrap(), Budget::default());
    let b: Budget = from_str(r#"{"retries": 5}"#).unwrap();
    assert_eq!(
        b,
        Budget {
            limit: 0.25,
            retries: 5
        }
    );
    assert!(from_str::<Budget>("[]").is_err());
}

#[test]
fn deny_unknown_fields_rejects_strays_and_duplicates() {
    let err = from_str::<Budget>(r#"{"limit": 0.5, "limt": 0.1}"#).unwrap_err();
    assert!(
        err.to_string().contains("unknown key `limt` for Budget"),
        "{err}"
    );
    let err = from_str::<Budget>(r#"{"retries": 1, "retries": 2}"#).unwrap_err();
    assert!(
        err.to_string()
            .contains("duplicate key `retries` for Budget"),
        "{err}"
    );
}

#[test]
fn floats_are_rejected_for_integer_fields() {
    assert!(from_str::<Point>(r#"{"x": 1.0, "y": 2}"#).is_err());
    assert!(from_str::<Point>(r#"{"x": 1e3, "y": 2}"#).is_err());
    assert!(from_str::<u8>("256").is_err());
    assert!(from_str::<u32>("-1").is_err());
}

#[test]
fn integers_are_accepted_for_float_fields() {
    let p: Point = from_str(r#"{"x": 1, "y": 2}"#).unwrap();
    assert_eq!(p.y, 2.0);
    assert_eq!(
        from_str::<f64>("18446744073709551615").unwrap(),
        u64::MAX as f64
    );
}

#[test]
fn malformed_documents_are_errors() {
    for bad in [
        "",
        "[",
        "[1,]",
        "[,1]",
        "{\"x\":1,}",
        "{\"x\" 1}",
        "{x:1}",
        "nul",
        "tru",
        "1 2",
        "\"abc",
        "[1 2]",
        "-",
        "\"\\q\"",
        "{\"x\":1}}",
    ] {
        assert!(from_str::<Value>(bad).is_err(), "{bad:?} parsed");
    }
    assert!(from_str::<Shape>(r#"{"Point": 1.0, "Empty": null}"#).is_err());
    assert!(from_str::<Shape>(r#"{"Empty": null}"#).is_err());
    assert!(from_str::<Shape>(r#""Point""#).is_err());
    assert!(from_str::<Pair>("[1]").is_err());
    assert!(from_str::<Pair>(r#"[1, "a", 2]"#).is_err());
}

#[test]
fn malformed_numbers_name_the_fault() {
    for (bad, want) in [
        ("[-]", "invalid number at byte 2"),
        ("[-x]", "invalid number at byte 2"),
        ("[1e400]", "number out of range at byte 6"),
        ("[-1e400]", "number out of range at byte 7"),
        ("[1.5e999]", "number out of range at byte 8"),
    ] {
        let err = from_str::<Value>(bad).unwrap_err().to_string();
        assert_eq!(err, want, "{bad:?}");
        assert!(from_str::<Vec<f64>>(bad).is_err(), "{bad:?} read as f64");
    }
    assert!(from_str::<Vec<f32>>("[1e400]").is_err());
}

#[test]
fn integers_beyond_u64_read_as_the_nearest_float() {
    let text = "[18446744073709551616]";
    let nearest = 18_446_744_073_709_551_616.0_f64;
    assert_eq!(from_str::<Vec<f64>>(text).unwrap(), [nearest]);
    assert_eq!(from_str::<Vec<f32>>(text).unwrap(), [nearest as f32]);
    assert_eq!(
        from_str::<Value>(text).unwrap(),
        Value::Array(vec![Value::Float(nearest)])
    );
    let long = format!("[{}]", "9".repeat(400));
    assert!(
        from_str::<Value>(&long).is_err(),
        "a number beyond f64 read"
    );
    // Integer targets keep the out-of-range error.
    let err = from_str::<Vec<u64>>(text).unwrap_err().to_string();
    assert_eq!(err, "number out of range at byte 21");
    assert!(from_str::<Vec<i64>>("[-9223372036854775809]").is_err());
}

#[test]
fn nesting_deeper_than_the_limit_is_an_error_not_a_stack_overflow() {
    let deep_arrays = "[".repeat(200_000);
    let err = from_str::<Value>(&deep_arrays).unwrap_err().to_string();
    assert!(
        err.contains("nesting deeper than 128 levels at byte 128"),
        "{err}"
    );

    let deep_objects = "{\"a\":".repeat(200_000);
    let err = from_str::<Value>(&deep_objects).unwrap_err().to_string();
    assert!(err.contains("nesting deeper than 128"), "{err}");

    // Skipped unknown keys are bounded by the same limit.
    let hidden = format!(r#"{{"x": 1, "y": 2, "junk": {}}}"#, "[".repeat(200_000));
    assert!(from_str::<Point>(&hidden).is_err());

    let at_limit = format!("{}{}", "[".repeat(128), "]".repeat(128));
    let v: Value = from_str(&at_limit).unwrap();
    assert_eq!(to_string(&v).unwrap(), at_limit);
    let over = format!("{}{}", "[".repeat(129), "]".repeat(129));
    assert!(from_str::<Value>(&over).is_err());
}

#[test]
fn surrogate_pairs_decode_to_one_character() {
    let s: String = from_str(r#""\ud83d\ude00""#).unwrap();
    assert_eq!(s, "😀");
    let s: String = from_str(r#""a\uD83D\uDE00b\u00e9""#).unwrap();
    assert_eq!(s, "a😀bé");
    let v: Value = from_str(r#"{"\ud83d\ude00": "\ud834\udd1e"}"#).unwrap();
    assert_eq!(v["😀"], Value::Str("𝄞".to_owned()));
    // The printer writes non-BMP characters raw, and they read back.
    assert_eq!(to_string(&"😀").unwrap(), "\"😀\"");
    assert_eq!(from_str::<String>("\"😀\"").unwrap(), "😀");
}

#[test]
fn lone_or_mismatched_surrogates_are_errors() {
    for bad in [
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83d\n""#,
        r#""\ud83d\u0041""#,
        r#""\ud83d\ud83d""#,
        r#""\ude00""#,
        r#""\ude00\ud83d""#,
        r#""\ud83d\ude0""#,
        r#""\u+123""#,
    ] {
        assert!(from_str::<String>(bad).is_err(), "{bad} decoded");
    }
}

#[test]
fn escape_free_strings_and_long_strings_read_back() {
    // Long strings cross the word-at-a-time scan with escapes at every
    // offset modulo eight.
    for offset in 0..16 {
        let mut s = "x".repeat(offset);
        s.push('"');
        s.push_str(&"y".repeat(40));
        s.push('\u{1}');
        let text = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&text).unwrap(), s);
    }
    let big = "z".repeat(1 << 20);
    assert_eq!(from_str::<String>(&to_string(&big).unwrap()).unwrap(), big);
}
