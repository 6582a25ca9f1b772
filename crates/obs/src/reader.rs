//! Reading JSONL traces back: the inverse of [`crate::observe::JsonlSink`].
//!
//! Every consumer of trace files (the `analyze` subcommands, the trace
//! analysis crate, tests) goes through [`TraceReader`] so that parse
//! failures are reported uniformly — with the 1-based line number and the
//! offending line — instead of as a context-free serde message.

use crate::trace::TraceRecord;
use std::io::BufRead;
use std::path::Path;

/// A parse failure, pinned to its position in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReadError {
    /// 1-based line number of the bad record.
    pub line: usize,
    /// The underlying parse or I/O message.
    pub message: String,
    /// The offending line, truncated for display (empty for I/O errors).
    pub snippet: String,
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)?;
        if !self.snippet.is_empty() {
            write!(f, " in {:?}", self.snippet)?;
        }
        Ok(())
    }
}

impl std::error::Error for TraceReadError {}

const SNIPPET_MAX: usize = 80;

fn snippet_of(line: &str) -> String {
    if line.len() <= SNIPPET_MAX {
        return line.to_string();
    }
    let mut cut = SNIPPET_MAX;
    while !line.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &line[..cut])
}

/// Streaming reader over JSONL trace records.
///
/// Blank lines are skipped (a trailing newline is not an error); any other
/// malformed line aborts the iteration with a [`TraceReadError`] carrying
/// its line number.
#[derive(Debug)]
pub struct TraceReader<R> {
    input: R,
    line: usize,
}

impl<R: BufRead> TraceReader<R> {
    pub fn new(input: R) -> Self {
        TraceReader { input, line: 0 }
    }

    /// 1-based number of the last line handed out (0 before the first).
    pub fn line(&self) -> usize {
        self.line
    }

    /// Read every remaining record.
    pub fn read_all(mut self) -> Result<Vec<TraceRecord>, TraceReadError> {
        let mut records = Vec::new();
        while let Some(record) = self.next_record()? {
            records.push(record);
        }
        Ok(records)
    }

    /// Pull the next record, `Ok(None)` at end of input.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceReadError> {
        let mut buf = String::new();
        loop {
            buf.clear();
            self.line += 1;
            let n = self.input.read_line(&mut buf).map_err(|e| TraceReadError {
                line: self.line,
                message: format!("read failed: {e}"),
                snippet: String::new(),
            })?;
            if n == 0 {
                return Ok(None);
            }
            let text = buf.trim_end_matches(['\n', '\r']);
            if text.trim().is_empty() {
                continue;
            }
            return serde_json::from_str::<TraceRecord>(text)
                .map(Some)
                .map_err(|e| TraceReadError {
                    line: self.line,
                    message: format!("invalid trace record: {e}"),
                    snippet: snippet_of(text),
                });
        }
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Parse a whole trace held in memory (tests, fixtures).
pub fn read_trace_str(text: &str) -> Result<Vec<TraceRecord>, TraceReadError> {
    TraceReader::new(text.as_bytes()).read_all()
}

/// Open and parse a trace file, prefixing errors with the path.
pub fn read_trace_file(path: impl AsRef<Path>) -> Result<Vec<TraceRecord>, String> {
    let path = path.as_ref();
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    TraceReader::new(std::io::BufReader::new(file))
        .read_all()
        .map_err(|e| format!("{}:{e}", path.display()))
}

/// Serialize records back to the exact JSONL bytes [`crate::JsonlSink`]
/// writes — the round-trip counterpart of [`read_trace_str`].
pub fn write_trace_string(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r).expect("trace records always serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn sample(time: u64) -> TraceRecord {
        TraceRecord {
            time,
            machine: 0,
            event: TraceEvent::JobSubmitted {
                job: time,
                size: 8,
                paired: true,
            },
        }
    }

    #[test]
    fn roundtrips_jsonl() {
        let records = vec![sample(1), sample(2), sample(3)];
        let text = write_trace_string(&records);
        assert_eq!(read_trace_str(&text).unwrap(), records);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!(
            "\n{}\n\n{}\n",
            write_trace_string(&[sample(1)]).trim(),
            write_trace_string(&[sample(2)]).trim()
        );
        let records = read_trace_str(&text).unwrap();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn malformed_line_is_pinned_to_its_number() {
        let good = write_trace_string(&[sample(1)]);
        let text = format!("{good}{{\"not\": \"a record\"}}\n");
        let err = read_trace_str(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("invalid trace record"), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.snippet.contains("not"), "{err:?}");
    }

    #[test]
    fn long_bad_lines_are_truncated_in_the_snippet() {
        let text = format!("{}\n", "x".repeat(500));
        let err = read_trace_str(&text).unwrap_err();
        assert!(err.snippet.len() < 200, "{}", err.snippet.len());
        assert!(err.snippet.ends_with('…'));
    }

    /// A trace written by an older build may carry kinds this vocabulary
    /// no longer has; reading it fails at that line instead of panicking.
    #[test]
    fn removed_event_kind_is_an_error_at_its_file_and_line() {
        let good = write_trace_string(&[sample(1)]);
        let text = format!(
            "{good}{{\"time\":5,\"machine\":0,\"event\":{{\"EngineDispatch\":{{\"seq\":7}}}}}}\n"
        );
        let err = read_trace_str(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.snippet.contains("EngineDispatch"), "{err:?}");

        let path = std::env::temp_dir().join(format!(
            "cosched-reader-removed-kind-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, &text).unwrap();
        let result = read_trace_file(&path);
        std::fs::remove_file(&path).unwrap();
        let message = result.unwrap_err();
        let location = format!("{}:line 2: invalid trace record", path.display());
        assert!(message.starts_with(&location), "{message}");
    }

    #[test]
    fn iterator_yields_then_errors() {
        let good = write_trace_string(&[sample(1)]);
        let text = format!("{good}garbage\n");
        let mut reader = TraceReader::new(text.as_bytes());
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(
            reader.next().is_none(),
            "input is exhausted after the error"
        );
    }
}
