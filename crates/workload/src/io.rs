//! Importing and exporting demand traces as CSV.
//!
//! The synthetic generator stands in for the production traces the paper
//! evaluated on; a user who *has* real utilization traces should feed
//! them in directly. The format is deliberately minimal: one demand
//! fraction (`0.0..=1.0`) per line, in time order at a fixed step;
//! blank lines and `#` comments are ignored.

use std::error::Error;
use std::fmt;

use simcore::SimDuration;

use crate::DemandTrace;

/// Errors from [`parse_trace_csv`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseTraceError {
    /// A line did not parse as a number.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A sample was outside `[0, 1]`.
    OutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending value.
        value: f64,
    },
    /// The file contained no samples.
    Empty,
    /// The sample step was zero.
    ZeroStep,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::BadNumber { line, text } => {
                write!(f, "line {line}: `{text}` is not a number")
            }
            ParseTraceError::OutOfRange { line, value } => {
                write!(f, "line {line}: sample {value} outside [0, 1]")
            }
            ParseTraceError::Empty => write!(f, "trace file contains no samples"),
            ParseTraceError::ZeroStep => write!(f, "trace sample step must be non-zero"),
        }
    }
}

impl Error for ParseTraceError {}

/// Parses a demand trace from CSV text (one sample per line).
///
/// # Errors
///
/// Returns [`ParseTraceError`] naming the first offending line, or
/// [`ParseTraceError::ZeroStep`] for a zero `step`.
///
/// # Example
///
/// ```
/// use simcore::SimDuration;
/// use workload::io::parse_trace_csv;
///
/// let trace = parse_trace_csv("# web server cpu\n0.2\n0.5\n0.8\n", SimDuration::from_mins(5))?;
/// assert_eq!(trace.len(), 3);
/// assert_eq!(trace.samples()[1], 0.5);
/// # Ok::<(), workload::io::ParseTraceError>(())
/// ```
pub fn parse_trace_csv(text: &str, step: SimDuration) -> Result<DemandTrace, ParseTraceError> {
    if step.is_zero() {
        return Err(ParseTraceError::ZeroStep);
    }
    let mut samples = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let value: f64 = trimmed.parse().map_err(|_| ParseTraceError::BadNumber {
            line,
            text: trimmed.to_string(),
        })?;
        if !value.is_finite() || !(0.0..=1.0).contains(&value) {
            return Err(ParseTraceError::OutOfRange { line, value });
        }
        samples.push(value);
    }
    if samples.is_empty() {
        return Err(ParseTraceError::Empty);
    }
    Ok(DemandTrace::from_samples(step, samples))
}

/// Serializes a trace back to the CSV format accepted by
/// [`parse_trace_csv`] (round-trip safe).
pub fn write_trace_csv(trace: &DemandTrace) -> String {
    let mut out = format!(
        "# demand trace: {} samples at {} step\n",
        trace.len(),
        trace.step()
    );
    for &s in trace.samples() {
        out.push_str(&format!("{s}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_with_comments_and_blanks() {
        let t = parse_trace_csv("# hdr\n\n0.1\n  0.9  \n", SimDuration::from_mins(1)).unwrap();
        assert_eq!(t.samples(), &[0.1, 0.9]);
    }

    #[test]
    fn rejects_garbage_with_line_number() {
        let e = parse_trace_csv("0.1\nnope\n", SimDuration::from_mins(1)).unwrap_err();
        assert_eq!(
            e,
            ParseTraceError::BadNumber {
                line: 2,
                text: "nope".to_string()
            }
        );
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_out_of_range() {
        let e = parse_trace_csv("1.5\n", SimDuration::from_mins(1)).unwrap_err();
        assert!(matches!(e, ParseTraceError::OutOfRange { line: 1, .. }));
        let e = parse_trace_csv("NaN\n", SimDuration::from_mins(1)).unwrap_err();
        assert!(matches!(e, ParseTraceError::OutOfRange { .. }));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            parse_trace_csv("# only comments\n", SimDuration::from_mins(1)).unwrap_err(),
            ParseTraceError::Empty
        );
    }

    #[test]
    fn rejects_a_zero_step() {
        let e = parse_trace_csv("0.5\n", SimDuration::ZERO).unwrap_err();
        assert_eq!(e, ParseTraceError::ZeroStep);
        assert!(e.to_string().contains("non-zero"), "{e}");
    }

    #[test]
    fn round_trips() {
        let original =
            DemandTrace::from_samples(SimDuration::from_mins(5), vec![0.0, 0.25, 0.5, 1.0]);
        let csv = write_trace_csv(&original);
        let parsed = parse_trace_csv(&csv, SimDuration::from_mins(5)).unwrap();
        assert_eq!(parsed, original);
    }
}
