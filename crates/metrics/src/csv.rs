//! Minimal CSV writing (RFC-4180-style quoting), so experiment outputs can
//! be post-processed without pulling in a serialization framework.

use std::fmt::Write as _;

/// Builds a CSV document in memory.
#[derive(Debug, Default, Clone)]
pub struct CsvWriter {
    buf: String,
    columns: Option<usize>,
}

impl CsvWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes one record. The first record fixes the column count.
    ///
    /// # Panics
    /// Panics if a later record has a different width.
    pub fn record<S: AsRef<str>>(&mut self, fields: &[S]) {
        match self.columns {
            None => self.columns = Some(fields.len()),
            Some(n) => assert_eq!(
                n,
                fields.len(),
                "record width {} != established width {n}",
                fields.len()
            ),
        }
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.push_field(f.as_ref());
        }
        self.buf.push('\n');
    }

    /// Writes one record of displayable values.
    pub fn record_display<T: std::fmt::Display>(&mut self, fields: &[T]) {
        let fields: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
        self.record(&fields);
    }

    fn push_field(&mut self, f: &str) {
        if f.contains([',', '"', '\n', '\r']) {
            self.buf.push('"');
            for c in f.chars() {
                if c == '"' {
                    self.buf.push('"');
                }
                self.buf.push(c);
            }
            self.buf.push('"');
        } else {
            let _ = write!(self.buf, "{f}");
        }
    }

    /// The document so far.
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_fields_join_with_commas() {
        let mut w = CsvWriter::new();
        w.record(&["a", "b", "c"]);
        w.record(&["1", "2", "3"]);
        assert_eq!(w.as_str(), "a,b,c\n1,2,3\n");
    }

    #[test]
    fn quoting_commas_and_quotes() {
        let mut w = CsvWriter::new();
        w.record(&["x,y", "say \"hi\"", "line\nbreak"]);
        assert_eq!(w.as_str(), "\"x,y\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
    }

    #[test]
    fn display_records() {
        let mut w = CsvWriter::new();
        w.record_display(&[1.5, 2.0]);
        assert_eq!(w.as_str(), "1.5,2\n");
    }

    #[test]
    #[should_panic(expected = "record width")]
    fn ragged_records_panic() {
        let mut w = CsvWriter::new();
        w.record(&["a", "b"]);
        w.record(&["only-one"]);
    }
}
