//! Reading and writing search logs.
//!
//! Two formats are supported:
//!
//! * **Native TSV** — `user \t query \t url \t count`, one aggregated
//!   tuple per line. This is the sanitized-output format: it has the
//!   identical schema as the input (the paper's headline property).
//! * **AOL format** — `AnonID \t Query \t QueryTime \t ItemRank \t
//!   ClickURL` as released in 2006. Only rows with a click (non-empty
//!   `ClickURL`) are kept, matching the paper's "only collect the tuples
//!   with clicks"; each click row contributes count 1 and duplicates
//!   aggregate.
//!
//! TSV parsing is exposed at two altitudes: [`read_tsv`] materializes a
//! whole [`SearchLog`] in one shot, and [`TsvStream`] yields parsed
//! [`RawRecord`]s one line (or one bounded chunk) at a time so callers
//! like `dpsan-stream` can ingest logs far larger than memory. Both run
//! the identical parser, so a streamed-then-merged log can be proven
//! equal to the one-shot build.

use std::io::{BufRead, Write};

use crate::error::LogError;
use crate::ids::PairId;
use crate::log::{SearchLog, SearchLogBuilder};

/// One parsed-but-uninterned line of the native TSV format: owned
/// strings, exactly as they appeared in the file.
///
/// This is the unit the streaming reader hands out; interning happens
/// downstream (once per session, in `dpsan-stream`) so the reader
/// itself holds no vocabulary state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// Pseudonymous user id string.
    pub user: String,
    /// Query string.
    pub query: String,
    /// Clicked url string.
    pub url: String,
    /// Click-through count (strictly positive).
    pub count: u64,
}

/// An incremental reader of the native 4-column TSV format.
///
/// Yields one [`RawRecord`] per data line (comments and blank lines are
/// skipped), in file order, without buffering more than the current
/// line. [`TsvStream::read_chunk`] bounds the resident row count for
/// chunked intake.
#[derive(Debug)]
pub struct TsvStream<R> {
    reader: R,
    lineno: usize,
    // reusable line buffer: one allocation for the whole stream, not
    // one per physical line (this is the ingestion hot loop)
    line: String,
}

impl<R: BufRead> TsvStream<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R) -> Self {
        TsvStream { reader, lineno: 0, line: String::new() }
    }

    /// The number of physical lines consumed so far (including skipped
    /// comments/blanks).
    pub fn lines_read(&self) -> usize {
        self.lineno
    }

    /// Read up to `max` records into `buf` (which is cleared first).
    /// Returns the number of records read; `0` means end of input.
    ///
    /// This is the bounded-memory intake primitive: a caller that
    /// re-uses one buffer never holds more than `max` raw rows at once.
    pub fn read_chunk(&mut self, buf: &mut Vec<RawRecord>, max: usize) -> Result<usize, LogError> {
        buf.clear();
        while buf.len() < max {
            match self.next() {
                Some(rec) => buf.push(rec?),
                None => break,
            }
        }
        Ok(buf.len())
    }

    fn parse_line(&self, line: &str) -> Result<Option<RawRecord>, LogError> {
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut f = line.split('\t');
        let (user, query, url, count) = match (f.next(), f.next(), f.next(), f.next(), f.next()) {
            (Some(u), Some(q), Some(l), Some(c), None) => (u, q, l, c),
            _ => {
                return Err(LogError::Parse {
                    line: self.lineno,
                    message: "expected 4 tab-separated fields: user, query, url, count".into(),
                })
            }
        };
        let count: u64 = count.parse().map_err(|e| LogError::Parse {
            line: self.lineno,
            message: format!("bad count {count:?}: {e}"),
        })?;
        if count == 0 {
            return Err(LogError::ZeroCount { line: self.lineno });
        }
        Ok(Some(RawRecord {
            user: user.to_string(),
            query: query.to_string(),
            url: url.to_string(),
            count,
        }))
    }
}

impl<R: BufRead> Iterator for TsvStream<R> {
    type Item = Result<RawRecord, LogError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.line.clear();
            match self.reader.read_line(&mut self.line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(e.into())),
            }
            self.lineno += 1;
            match self.parse_line(&self.line) {
                Ok(Some(rec)) => return Some(Ok(rec)),
                Ok(None) => continue,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// Parse the native 4-column TSV format into a whole [`SearchLog`].
///
/// Built on [`TsvStream`], so the one-shot and streaming paths share
/// one parser; interning order is file order (first occurrence).
pub fn read_tsv<R: BufRead>(reader: R) -> Result<SearchLog, LogError> {
    let mut b = SearchLogBuilder::new();
    for rec in TsvStream::new(reader) {
        let r = rec?;
        b.add(&r.user, &r.query, &r.url, r.count)?;
    }
    Ok(b.build())
}

/// Serialize a log in the native 4-column TSV format, pair-major, users
/// ascending within each pair.
pub fn write_tsv<W: Write>(log: &SearchLog, mut w: W) -> Result<(), LogError> {
    for i in 0..log.n_pairs() {
        let p = PairId::from_index(i);
        let (q, u) = log.pair_key(p);
        let query = log.queries().resolve(q.0);
        let url = log.urls().resolve(u.0);
        for t in log.holders(p) {
            let user = log.users().resolve(t.user.0);
            writeln!(w, "{user}\t{query}\t{url}\t{}", t.count)?;
        }
    }
    Ok(())
}

/// Parse the 2006 AOL research-collection format.
///
/// Columns: `AnonID, Query, QueryTime, ItemRank, ClickURL`. A header
/// line starting with `AnonID` is skipped. Rows without a `ClickURL`
/// (pure queries, no click) are ignored; query time and item rank are
/// dropped, as in the paper ("we ignore query time and item rank").
pub fn read_aol<R: BufRead>(reader: R) -> Result<SearchLog, LogError> {
    let mut b = SearchLogBuilder::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            continue;
        }
        if lineno == 0 && line.starts_with("AnonID") {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < 2 {
            return Err(LogError::Parse {
                line: lineno + 1,
                message: "expected at least AnonID and Query fields".into(),
            });
        }
        // Click rows have 5 fields with a non-empty url; query-only rows
        // have 3 (or trailing empties).
        let url = fields.get(4).copied().unwrap_or("");
        if url.is_empty() {
            continue;
        }
        let user = fields[0];
        let query = fields[1].trim();
        if query.is_empty() {
            continue;
        }
        b.add(user, query, url, 1)?;
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn tsv_roundtrip() {
        let text = "u1\tgoogle\tgoogle.com\t5\nu2\tgoogle\tgoogle.com\t3\nu2\tcars\tkbb.com\t1\n";
        let log = read_tsv(Cursor::new(text)).unwrap();
        assert_eq!(log.size(), 9);
        assert_eq!(log.n_pairs(), 2);
        let mut out = Vec::new();
        write_tsv(&log, &mut out).unwrap();
        let log2 = read_tsv(Cursor::new(out)).unwrap();
        assert_eq!(log2.size(), log.size());
        assert_eq!(log2.n_pairs(), log.n_pairs());
        assert_eq!(log2.n_user_logs(), log.n_user_logs());
    }

    #[test]
    fn tsv_skips_comments_and_blanks() {
        let text = "# header\n\nu1\tq\tl\t2\n";
        let log = read_tsv(Cursor::new(text)).unwrap();
        assert_eq!(log.size(), 2);
    }

    #[test]
    fn tsv_rejects_bad_field_count() {
        let err = read_tsv(Cursor::new("u1\tq\tl\n")).unwrap_err();
        assert!(err.to_string().contains("4 tab-separated"));
    }

    #[test]
    fn tsv_rejects_bad_count() {
        let err = read_tsv(Cursor::new("u1\tq\tl\tNaN\n")).unwrap_err();
        assert!(err.to_string().contains("bad count"));
    }

    #[test]
    fn tsv_rejects_zero_count() {
        let err = read_tsv(Cursor::new("u1\tq\tl\t0\n")).unwrap_err();
        assert!(matches!(err, LogError::ZeroCount { line: 1 }));
    }

    #[test]
    fn aol_keeps_only_clicks_and_aggregates() {
        let text = "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n\
                    142\tpizza\t2006-03-01 10:00:00\t\t\n\
                    142\tpizza\t2006-03-01 10:01:00\t1\thttp://www.pizzahut.com\n\
                    142\tpizza\t2006-03-02 11:00:00\t1\thttp://www.pizzahut.com\n\
                    217\tpizza\t2006-03-04 09:00:00\t2\thttp://www.pizzahut.com\n";
        let log = read_aol(Cursor::new(text)).unwrap();
        assert_eq!(log.n_pairs(), 1);
        assert_eq!(log.size(), 3);
        assert_eq!(log.n_user_logs(), 2);
    }

    #[test]
    fn aol_rejects_truncated_line() {
        let err = read_aol(Cursor::new("只\n".replace('只', "onefield"))).unwrap_err();
        assert!(err.to_string().contains("AnonID"));
    }

    #[test]
    fn aol_skips_empty_queries() {
        let text = "9\t \t2006-03-01 10:01:00\t1\thttp://x.com\n";
        let log = read_aol(Cursor::new(text)).unwrap();
        assert_eq!(log.n_pairs(), 0);
    }

    #[test]
    fn stream_yields_records_in_file_order() {
        let text = "# header\nu1\tq1\tl1\t5\n\nu2\tq2\tl2\t3\n";
        let recs: Result<Vec<_>, _> = TsvStream::new(Cursor::new(text)).collect();
        let recs = recs.unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].user, "u1");
        assert_eq!(recs[0].count, 5);
        assert_eq!(recs[1].query, "q2");
    }

    #[test]
    fn stream_chunking_bounds_resident_rows() {
        let text: String = (0..10).map(|i| format!("u{i}\tq\tl\t1\n")).collect();
        let mut stream = TsvStream::new(Cursor::new(text));
        let mut buf = Vec::new();
        let mut total = 0;
        let mut chunks = 0;
        loop {
            let n = stream.read_chunk(&mut buf, 4).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 4, "chunk never exceeds the requested bound");
            total += n;
            chunks += 1;
        }
        assert_eq!(total, 10);
        assert_eq!(chunks, 3);
        assert_eq!(stream.lines_read(), 10);
    }

    #[test]
    fn stream_errors_carry_line_numbers() {
        let text = "u1\tq\tl\t2\nu2\tq\tl\t0\n";
        let err = TsvStream::new(Cursor::new(text)).collect::<Result<Vec<_>, _>>().unwrap_err();
        assert!(matches!(err, LogError::ZeroCount { line: 2 }));
    }

    #[test]
    fn stream_and_one_shot_agree() {
        let text = "u1\tgoogle\tgoogle.com\t5\nu2\tgoogle\tgoogle.com\t3\nu2\tcars\tkbb.com\t1\n";
        let via_stream = {
            let mut b = SearchLogBuilder::new();
            for rec in TsvStream::new(Cursor::new(text)) {
                let r = rec.unwrap();
                b.add(&r.user, &r.query, &r.url, r.count).unwrap();
            }
            b.build()
        };
        let one_shot = read_tsv(Cursor::new(text)).unwrap();
        assert_eq!(via_stream.size(), one_shot.size());
        assert_eq!(via_stream.n_pairs(), one_shot.n_pairs());
        let r1: Vec<_> = via_stream.records().collect();
        let r2: Vec<_> = one_shot.records().collect();
        assert_eq!(r1, r2, "identical interning order, ids and counts");
    }
}
