//! Generator-driven properties for the JSON layer: arbitrary documents
//! round-trip exactly, serialization is stable, and malformed inputs
//! are rejected with errors — never panics.

use check::gen::{boolean, choice, constant, f64_in, i64_in, one_of, usize_in, vec_of, Gen};
use check::{prop_assert, prop_assert_eq};
use obs::Json;

/// Characters that stress the escaper: quotes, backslashes, control
/// characters, multi-byte unicode, and plain ASCII.
fn char_palette() -> Vec<char> {
    vec![
        'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '→',
        '🦀', '/',
    ]
}

/// Short strings over the stress palette.
fn json_string() -> Gen<String> {
    vec_of(&one_of(char_palette()), 0..=12).map(|chars| chars.into_iter().collect())
}

/// Scalar JSON values. Non-finite numbers are excluded: the writer
/// (correctly) renders them as `null`, which is lossy by design.
fn json_scalar() -> Gen<Json> {
    choice(vec![
        constant(Json::Null),
        boolean().map(Json::Bool),
        i64_in(i64::MIN..=i64::MAX).map(Json::Int),
        f64_in(-1.0e9, 1.0e9).map(Json::Num),
        json_string().map(Json::Str),
    ])
}

/// Arbitrary JSON documents nested at most `depth` levels deep.
fn json_value(depth: usize) -> Gen<Json> {
    if depth == 0 {
        return json_scalar();
    }
    let inner = json_value(depth - 1);
    choice(vec![
        json_scalar(),
        vec_of(&inner, 0..=4).map(Json::Array),
        vec_of(&json_string().zip(&inner), 0..=4).map(Json::Object),
    ])
}

/// Every generated document survives value → text → value exactly, and
/// a second render produces byte-identical text (stable serialization).
#[test]
fn compact_rendering_round_trips_exactly() {
    check::check("JSON compact round-trip", &json_value(3), |value| {
        let text = value.to_string_compact();
        let parsed = Json::parse(&text).map_err(|e| format!("rendered JSON unparsable: {e}"))?;
        prop_assert_eq!(&parsed, value, "value changed across round-trip");
        prop_assert_eq!(parsed.to_string_compact(), text, "serialization not stable");
        Ok(())
    });
}

/// Pretty rendering parses back to the same value too.
#[test]
fn pretty_rendering_parses_back() {
    check::check("JSON pretty round-trip", &json_value(3), |value| {
        let text = value.to_string_pretty();
        let parsed = Json::parse(&text).map_err(|e| format!("pretty JSON unparsable: {e}"))?;
        prop_assert_eq!(&parsed, value);
        Ok(())
    });
}

/// Truncating a valid document at any char boundary never panics the
/// parser: it returns `Ok` (for a prefix that happens to be complete)
/// or a structured error.
#[test]
fn truncated_documents_never_panic() {
    let input = json_value(3).zip(&usize_in(0..=4096));
    check::check("JSON truncation safe", &input, |(value, cut_raw)| {
        let text = value.to_string_compact();
        let mut cut = cut_raw % (text.len() + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        // A panic here would fail the property via the harness.
        let _ = Json::parse(&text[..cut]);
        Ok(())
    });
}

/// Replacing one character of a valid document with arbitrary syntax
/// never panics the parser.
#[test]
fn mutated_documents_never_panic() {
    let noise = one_of(vec![
        '{', '}', '[', ']', ',', ':', '"', '\\', 'x', '9', '.', '-',
    ]);
    let input = json_value(3).zip(&usize_in(0..=4096)).zip(&noise);
    check::check("JSON mutation safe", &input, |((value, pos_raw), junk)| {
        let text = value.to_string_compact();
        let chars: Vec<char> = text.chars().collect();
        let pos = pos_raw % chars.len().max(1);
        let mutated: String = chars
            .iter()
            .enumerate()
            .map(|(i, &c)| if i == pos { *junk } else { c })
            .collect();
        let _ = Json::parse(&mutated);
        Ok(())
    });
}

/// A corpus of classic malformed inputs is rejected with an error (and
/// without a panic).
#[test]
fn malformed_corpus_is_rejected() {
    let cases = [
        "",
        "   ",
        "{",
        "}",
        "[1,",
        "[1 2]",
        "{\"a\":}",
        "{\"a\" 1}",
        "{a:1}",
        "\"unterminated",
        "\"bad escape \\q\"",
        "\"bad unicode \\u12\"",
        "tru",
        "nul",
        "+1",
        "0x10",
        "1e",
        "--3",
        "[1]]",
        "{} {}",
        "\u{0}",
    ];
    for case in cases {
        let result = Json::parse(case);
        assert!(result.is_err(), "accepted malformed input {case:?}");
    }
}

/// The reported error offset always points inside (or just past) the
/// input, for any mangled document.
#[test]
fn error_offsets_are_in_bounds() {
    let input = json_value(2).zip(&usize_in(0..=4096));
    check::check(
        "JSON error offsets in bounds",
        &input,
        |(value, cut_raw)| {
            let text = value.to_string_compact();
            let mut cut = cut_raw % (text.len() + 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            if let Err(e) = Json::parse(&text[..cut]) {
                prop_assert!(
                    e.offset <= cut,
                    "error offset {} beyond input length {cut}",
                    e.offset
                );
            }
            Ok(())
        },
    );
}

/// For any span array — paths of 1–4 segments, depths often wrong
/// (zero, negative, fractional, huge or NaN) — `SpanSummary::from_json`
/// either rejects it or yields a summary whose table renders.
#[test]
fn parsed_span_summaries_always_render() {
    let path = vec_of(&one_of(vec!["plan", "a", "", "é→"]), 1..=4).map(|s| s.join(";"));
    let depth = choice(vec![
        i64_in(-2..=6).map(Json::Int),
        one_of(vec![1.5, 1e30, f64::NAN]).map(Json::Num),
        constant(Json::Int(i64::MAX)),
    ]);
    let span = path
        .zip(&json_string())
        .zip(&depth)
        .map(|((path, name), depth)| {
            Json::obj([
                ("path", Json::Str(path)),
                ("name", Json::Str(name)),
                ("depth", depth),
                ("calls", Json::Int(1)),
                ("total_secs", Json::Num(0.5)),
                ("self_secs", Json::Num(0.5)),
            ])
        });
    let input = vec_of(&span, 0..=6).zip(&f64_in(0.0, 10.0));
    check::check("span summary parse/render safe", &input, |(spans, wall)| {
        let json = Json::obj([
            ("wall_secs", Json::Num(*wall)),
            ("spans", Json::Array(spans.clone())),
        ]);
        if let Ok(summary) = obs::SpanSummary::from_json(&json) {
            prop_assert_eq!(summary.to_string().lines().count(), spans.len() + 2);
        }
        Ok(())
    });
}
