//! Schedule trace files: read and write schedules in the paper's textual
//! notation, one or more requests per line, with `#` comments.
//!
//! ```text
//! # remote-reader adversary, processor 2
//! r2 r2 r2 r2
//! w0
//! r2 r2
//! ```

use doma_core::{DomaError, Result, Schedule};
use std::io::{BufRead, BufReader, Read, Write};

/// Parses a trace from any reader: whitespace/newline separated `r<i>` /
/// `w<i>` tokens; `#` starts a comment running to end of line.
pub fn read_trace<R: Read>(reader: R) -> Result<Schedule> {
    let mut tokens = String::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line.map_err(|e| DomaError::InvalidConfig(format!("I/O error: {e}")))?;
        let body = line.split('#').next().unwrap_or("");
        if !body.trim().is_empty() {
            tokens.push_str(body);
            tokens.push(' ');
        }
        let _ = lineno;
    }
    if tokens.trim().is_empty() {
        return Err(DomaError::InvalidConfig(
            "trace contains no requests".into(),
        ));
    }
    tokens
        .parse::<Schedule>()
        .map_err(|e| DomaError::InvalidConfig(format!("bad trace: {e}")))
}

/// Writes a schedule as a trace, wrapping at `per_line` requests per line
/// (0 = everything on one line), with an optional leading comment.
pub fn write_trace<W: Write>(
    mut writer: W,
    schedule: &Schedule,
    comment: Option<&str>,
    per_line: usize,
) -> Result<()> {
    let io_err = |e: std::io::Error| DomaError::InvalidConfig(format!("I/O error: {e}"));
    if let Some(comment) = comment {
        for line in comment.lines() {
            writeln!(writer, "# {line}").map_err(io_err)?;
        }
    }
    if per_line == 0 {
        writeln!(writer, "{schedule}").map_err(io_err)?;
        return Ok(());
    }
    for chunk in schedule.requests().chunks(per_line) {
        let line: Vec<String> = chunk.iter().map(|r| r.to_string()).collect();
        writeln!(writer, "{}", line.join(" ")).map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_memory() {
        let schedule: Schedule = "r1 w2 r3 r3 w0 r1 r2".parse().unwrap();
        let mut buf = Vec::new();
        write_trace(&mut buf, &schedule, Some("a test trace\nsecond line"), 3).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("# a test trace\n# second line\n"));
        assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 3);
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back, schedule);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# header\n\nr1 r2 # trailing comment\n   \nw0\n";
        let s = read_trace(text.as_bytes()).unwrap();
        assert_eq!(s.to_string(), "r1 r2 w0");
    }

    #[test]
    fn bad_tokens_are_reported() {
        let err = read_trace("r1 xyz".as_bytes()).unwrap_err().to_string();
        assert!(err.contains("bad trace"), "{err}");
        let err = read_trace("q7".as_bytes()).unwrap_err().to_string();
        assert!(err.contains("bad trace"), "{err}");
    }

    #[test]
    fn out_of_range_processor_is_reported() {
        let err = read_trace("r99".as_bytes()).unwrap_err().to_string();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn empty_trace_is_an_error() {
        let err = read_trace("".as_bytes()).unwrap_err().to_string();
        assert!(err.contains("no requests"), "{err}");
    }

    #[test]
    fn comment_only_trace_is_an_error() {
        let text = "# only commentary\n\n   # and blanks\n";
        let err = read_trace(text.as_bytes()).unwrap_err().to_string();
        assert!(err.contains("no requests"), "{err}");
    }

    #[test]
    fn single_line_mode() {
        let schedule: Schedule = "r1 w2".parse().unwrap();
        let mut buf = Vec::new();
        write_trace(&mut buf, &schedule, None, 0).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "r1 w2\n");
    }
}
