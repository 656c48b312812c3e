//! Generator-driven properties for the CSV trace reader: arbitrary text
//! at any step, zero included, never panics `parse_trace_csv`, and every
//! trace it accepts round-trips bitwise through `write_trace_csv`.

use check::gen::{choice, constant, f64_in, f64_unit, one_of, u64_in, vec_of, Gen};
use check::{prop_assert, prop_assert_eq};
use simcore::SimDuration;
use workload::io::{parse_trace_csv, write_trace_csv, ParseTraceError};
use workload::DemandTrace;

/// In-range samples in the spellings a hand-written file might use.
fn sample_text() -> Gen<String> {
    choice(vec![
        f64_unit().map(|v| v.to_string()),
        f64_unit().map(|v| format!("{v:e}")),
        f64_unit().map(|v| format!("  {v:.3}\t")),
        f64_unit().map(|v| format!("+{v}")),
        one_of(
            [
                "0",
                "1",
                "-0",
                ".5",
                "1e0",
                "0.1E+0",
                "5e-324",
                "1.0000000000000000001",
            ]
            .map(String::from)
            .to_vec(),
        ),
    ])
}

/// Lines a trace file may hold: samples, comments and blanks.
fn well_formed_line() -> Gen<String> {
    choice(vec![
        sample_text(),
        sample_text(),
        sample_text(),
        constant("# a comment, 0.5".to_string()),
        constant("   ".to_string()),
    ])
}

/// Characters that stress the reader: digits, signs, exponents, the
/// comment mark, whitespace, separators and multi-byte unicode.
fn junk_line() -> Gen<String> {
    let palette = vec![
        '0', '1', '9', '.', '-', '+', 'e', 'E', '#', ' ', '\t', '\r', ',', ';', 'x', 'n', 'a', 'i',
        'f', 'é', '→', '🦀', '\u{0}', '\u{a0}',
    ];
    vec_of(&one_of(palette), 0..=10).map(|chars| chars.into_iter().collect())
}

/// Any line: mostly well-formed, else out of range, non-finite, or junk.
fn any_line() -> Gen<String> {
    choice(vec![
        well_formed_line(),
        well_formed_line(),
        well_formed_line(),
        f64_in(-2.0, 3.0).map(|v| v.to_string()),
        one_of(
            ["NaN", "inf", "-infinity", "1e400", "-1e-400"]
                .map(String::from)
                .to_vec(),
        ),
        junk_line(),
    ])
}

/// Lines each ended by `\n` or `\r\n`, the last one possibly by nothing.
fn text(line: Gen<String>) -> Gen<String> {
    let ended = line.zip(&one_of(vec!["\n", "\r\n", ""]));
    vec_of(&ended, 0..=12).map(|lines| {
        let last = lines.len().saturating_sub(1);
        lines
            .into_iter()
            .enumerate()
            .map(|(i, (line, end))| match end {
                "" if i < last => line + "\n",
                _ => line + end,
            })
            .collect()
    })
}

/// Any step, zero and the largest included.
fn step() -> Gen<SimDuration> {
    choice(vec![
        constant(0),
        u64_in(1..=3_600_000),
        u64_in(0..=u64::MAX),
        constant(u64::MAX),
    ])
    .map(SimDuration::from_millis)
}

/// `trace` written out and read back at its own step is the same trace,
/// bit for bit.
fn round_trips(trace: &DemandTrace) -> Result<(), String> {
    let csv = write_trace_csv(trace);
    let back = parse_trace_csv(&csv, trace.step())
        .map_err(|e| format!("written trace rejected: {e}\n{csv}"))?;
    prop_assert_eq!(back.step(), trace.step());
    let bits = |t: &DemandTrace| t.samples().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(
        bits(&back),
        bits(trace),
        "samples changed across the round trip"
    );
    Ok(())
}

#[test]
fn parse_never_panics_and_accepted_traces_round_trip() {
    check::check(
        "CSV parse is total; accepted parses round-trip",
        &text(any_line()).zip(&step()),
        |(text, step)| match parse_trace_csv(text, *step) {
            Ok(trace) => {
                prop_assert!(!step.is_zero(), "accepted a zero step");
                round_trips(&trace)
            }
            Err(ParseTraceError::ZeroStep) => {
                prop_assert!(step.is_zero(), "ZeroStep at a non-zero step");
                Ok(())
            }
            Err(_) => Ok(()),
        },
    );
}

#[test]
fn well_formed_traces_are_accepted_and_round_trip() {
    let input = text(well_formed_line())
        .zip(&sample_text())
        .zip(&step().filter(|s| !s.is_zero()));
    check::check(
        "well-formed CSV accepted and round-trips",
        &input,
        |((text, last), step)| {
            // At least one sample, so the file is never empty; a zero
            // step is still refused.
            let text = format!("{text}\n{last}\n");
            let samples = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .count();
            prop_assert_eq!(
                parse_trace_csv(&text, SimDuration::ZERO),
                Err(ParseTraceError::ZeroStep)
            );
            let trace = parse_trace_csv(&text, *step)
                .map_err(|e| format!("well-formed text rejected: {e}"))?;
            prop_assert_eq!(trace.len(), samples);
            round_trips(&trace)
        },
    );
}
