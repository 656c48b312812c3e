//! The streaming trace writer.
//!
//! [`JsonlSink`] writes one [`Json`] record per line through a writer
//! and keeps resident memory at the writer's buffer, however long the
//! run. A write error must not abort a simulation, so the sink latches
//! the first one, writes nothing after it, and returns it from
//! [`flush`](JsonlSink::flush).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::json::Json;

/// Streams records as JSON Lines (one compact document per line).
pub struct JsonlSink<W: Write> {
    writer: W,
    /// The first write error, returned by the next flush.
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a buffered JSONL file sink at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer (callers wanting buffering supply their own
    /// [`BufWriter`]; [`JsonlSink::create`] does this for files).
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            error: None,
        }
    }

    /// Writes one record as a line. After a write error this is a
    /// no-op; the error surfaces at [`flush`](Self::flush).
    pub fn emit(&mut self, record: &Json) {
        if self.error.is_some() {
            return;
        }
        let mut line = record.to_string_compact();
        line.push('\n');
        if let Err(e) = self.writer.write_all(line.as_bytes()) {
            self.error = Some(e);
        }
    }

    /// Flushes buffered output.
    ///
    /// # Errors
    ///
    /// Returns the first error any earlier [`emit`](Self::emit) hit,
    /// else the flush's own.
    pub fn flush(&mut self) -> io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.writer.flush(),
        }
    }
}

impl<W: Write> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: i64) -> Json {
        Json::obj([("seq", Json::Int(i)), ("kind", Json::Str("test".into()))])
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut buf = Vec::new();
        {
            let mut s = JsonlSink::new(&mut buf);
            s.emit(&record(1));
            s.emit(&record(2));
            s.flush().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("seq").unwrap().as_i64(), Some(i as i64 + 1));
        }
    }

    /// A full disk: counts write attempts and fails every one.
    struct Full(usize);

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            self.0 += 1;
            Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn first_write_error_is_latched_until_flush() {
        let mut s = JsonlSink::new(Full(0));
        s.emit(&record(1));
        // Nothing is written after the failure.
        s.emit(&record(2));
        assert_eq!(s.writer.0, 1);
        let err = s.flush().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }
}
