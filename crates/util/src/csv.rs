//! A minimal CSV writer for experiment output.
//!
//! `serde_json`/`csv` crates are outside the allowed dependency set, so
//! the experiment harness uses this small writer: it quotes fields that
//! need it and enforces a constant column count per file.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Writes rows of a fixed-width CSV table.
pub struct CsvWriter<W: Write> {
    out: W,
    columns: usize,
}

impl CsvWriter<BufWriter<File>> {
    /// Create a CSV file at `path` with the given header.
    pub fn create<P: AsRef<Path>>(path: P, header: &[&str]) -> io::Result<Self> {
        let file = File::create(path)?;
        Self::new(BufWriter::new(file), header)
    }
}

impl<W: Write> CsvWriter<W> {
    /// Wrap a writer and emit the header row.
    pub fn new(mut out: W, header: &[&str]) -> io::Result<Self> {
        assert!(
            !header.is_empty(),
            "CSV header must have at least one column"
        );
        writeln!(out, "{}", encode_row(header.iter().map(|s| s.to_string())))?;
        Ok(CsvWriter {
            out,
            columns: header.len(),
        })
    }

    /// Write one data row. Panics if the column count differs from the
    /// header (that is a harness bug, not an I/O condition).
    pub fn row<I, S>(&mut self, fields: I) -> io::Result<()>
    where
        I: IntoIterator<Item = S>,
        S: ToString,
    {
        let fields: Vec<String> = fields.into_iter().map(|f| f.to_string()).collect();
        assert_eq!(
            fields.len(),
            self.columns,
            "CSV row has {} fields, header has {}",
            fields.len(),
            self.columns
        );
        writeln!(self.out, "{}", encode_row(fields.into_iter()))
    }

    /// Flush and return the inner writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

fn encode_row<I: Iterator<Item = String>>(fields: I) -> String {
    let mut line = String::new();
    for (i, f) in fields.enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "{}", encode_field(&f));
    }
    line
}

fn encode_field(f: &str) -> String {
    if f.contains(',') || f.contains('"') || f.contains('\n') {
        format!("\"{}\"", f.replace('"', "\"\""))
    } else {
        f.to_string()
    }
}

/// Parse a CSV line produced by [`CsvWriter`] back into fields.
///
/// Supports the same quoting dialect the writer emits; used by tests and
/// by the trace format round-trip checks.
pub fn parse_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut cur)),
                _ => cur.push(c),
            }
        }
    }
    fields.push(cur);
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        let mut buf = Vec::new();
        {
            let mut w = CsvWriter::new(&mut buf, &["day", "sharers", "freeriders"]).unwrap();
            w.row(["1", "800.0", "950.0"]).unwrap();
            w.row(["2", "900.0", "700.0"]).unwrap();
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "day,sharers,freeriders");
        assert_eq!(lines[1], "1,800.0,950.0");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn quotes_special_fields() {
        let mut buf = Vec::new();
        {
            let mut w = CsvWriter::new(&mut buf, &["a", "b"]).unwrap();
            w.row(["has,comma", "has\"quote"]).unwrap();
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().nth(1).unwrap().contains("\"has,comma\""));
        assert!(text.lines().nth(1).unwrap().contains("\"has\"\"quote\""));
    }

    #[test]
    #[should_panic(expected = "CSV row has")]
    fn wrong_arity_panics() {
        let mut buf = Vec::new();
        let mut w = CsvWriter::new(&mut buf, &["a", "b"]).unwrap();
        let _ = w.row(["only-one"]);
    }

    #[test]
    fn parse_roundtrip() {
        let fields = vec!["plain", "with,comma", "with\"quote", "multi\nline"];
        let line = encode_row(fields.iter().map(|s| s.to_string()));
        let parsed = parse_line(&line);
        assert_eq!(parsed, fields);
    }

    #[test]
    fn parse_empty_fields() {
        assert_eq!(parse_line("a,,c"), vec!["a", "", "c"]);
        assert_eq!(parse_line(""), vec![""]);
    }
}
