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
//! TSV is read by one loop, [`TsvStream::read_chunk`]: it parses a
//! bounded chunk of lines at a time into a caller-owned, reused
//! [`TsvChunk`] that lends out borrowed [`RecordRef`]s, so callers like
//! `dpsan-stream` can ingest logs far larger than memory without
//! allocating per row, and can parse one chunk while another is
//! applied.
//! [`read_tsv`] runs the same loop into a [`SearchLogBuilder`], the
//! independent one-shot oracle a streamed-then-merged log is proven
//! equal to.

use std::io::{BufRead, Write};

use crate::error::LogError;
use crate::ids::PairId;
use crate::log::{SearchLog, SearchLogBuilder};

/// One parsed line of the native TSV format, borrowing its fields from
/// the reader's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Pseudonymous user id string.
    pub user: &'a str,
    /// Query string.
    pub query: &'a str,
    /// Clicked url string.
    pub url: &'a str,
    /// Click-through count (strictly positive).
    pub count: u64,
}

/// The one field parser of the native format: `None` for a comment or
/// blank line, otherwise the four fields of `line` (`\r\n` accepted).
/// `lineno` is the line's number, for errors.
fn parse_line(line: &str, lineno: usize) -> Result<Option<RecordRef<'_>>, LogError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut f = line.split('\t');
    let (user, query, url, count) = match (f.next(), f.next(), f.next(), f.next(), f.next()) {
        (Some(u), Some(q), Some(l), Some(c), None) => (u, q, l, c),
        _ => {
            return Err(LogError::Parse {
                line: lineno,
                message: "expected 4 tab-separated fields: user, query, url, count".into(),
            })
        }
    };
    let count: u64 = count.parse().map_err(|e| LogError::Parse {
        line: lineno,
        message: format!("bad count {count:?}: {e}"),
    })?;
    if count == 0 {
        return Err(LogError::ZeroCount { line: lineno });
    }
    Ok(Some(RecordRef { user, query, url, count }))
}

/// Where one parsed row's fields sit in the chunk buffer: the line
/// starts at `start` with the user, and single tabs separate the fields.
#[derive(Debug, Clone, Copy)]
struct RowSpan {
    start: usize,
    user_len: usize,
    query_len: usize,
    url_len: usize,
    count: u64,
}

/// An incremental reader of the native 4-column TSV format.
///
/// [`TsvStream::read_chunk`] is the bounded-memory intake primitive: it
/// reads up to `max` data lines into a caller-owned [`TsvChunk`] and
/// parses them all — no allocation per row, and none at all once the
/// chunk's buffers have grown to fit. Comments and blank lines are
/// skipped, records come in file order, and errors carry the physical
/// line number.
#[derive(Debug)]
pub struct TsvStream<R> {
    reader: R,
    lineno: usize,
}

/// One chunk of parsed records: the buffer [`TsvStream::read_chunk`]
/// fills. The caller owns it and passes it back for the next chunk, so
/// its allocations are reused, and it can hand a filled chunk to another
/// thread while the stream fills a second one.
#[derive(Debug, Default)]
pub struct TsvChunk {
    // the data lines of the chunk, back to back
    text: String,
    rows: Vec<RowSpan>,
}

impl TsvChunk {
    /// An empty chunk with room for `rows` records of `bytes` bytes in
    /// all (both grow as needed).
    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        TsvChunk { text: String::with_capacity(bytes), rows: Vec::with_capacity(rows) }
    }

    /// Number of records in the chunk.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the chunk holds no record (end of input).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The records, in file order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RecordRef<'_>> + '_ {
        let text = self.text.as_str();
        self.rows.iter().map(move |r| {
            let query = r.start + r.user_len + 1;
            let url = query + r.query_len + 1;
            RecordRef {
                user: &text[r.start..r.start + r.user_len],
                query: &text[query..query + r.query_len],
                url: &text[url..url + r.url_len],
                count: r.count,
            }
        })
    }
}

impl<R: BufRead> TsvStream<R> {
    /// Wrap a buffered reader.
    pub fn new(reader: R) -> Self {
        TsvStream { reader, lineno: 0 }
    }

    /// The number of physical lines consumed so far (including skipped
    /// comments/blanks).
    pub fn lines_read(&self) -> usize {
        self.lineno
    }

    /// Read and parse up to `max` records into `chunk`, replacing what
    /// it held; an empty chunk means end of input. The whole chunk is
    /// parsed before this returns, so an error discards it whole (its
    /// contents are then unspecified).
    ///
    /// A caller that reads chunk after chunk never holds more than `max`
    /// raw rows per chunk it owns.
    pub fn read_chunk(&mut self, max: usize, chunk: &mut TsvChunk) -> Result<(), LogError> {
        chunk.text.clear();
        chunk.rows.clear();
        while chunk.rows.len() < max {
            let start = chunk.text.len();
            if self.reader.read_line(&mut chunk.text)? == 0 {
                break;
            }
            self.lineno += 1;
            let span = parse_line(&chunk.text[start..], self.lineno)?.map(|r| RowSpan {
                start,
                user_len: r.user.len(),
                query_len: r.query.len(),
                url_len: r.url.len(),
                count: r.count,
            });
            match span {
                Some(span) => chunk.rows.push(span),
                None => chunk.text.truncate(start),
            }
        }
        Ok(())
    }
}

/// Records per [`TsvStream::read_chunk`] call in [`read_tsv`].
const READ_CHUNK_ROWS: usize = 8 * 1024;

/// Parse the native 4-column TSV format into a whole [`SearchLog`].
///
/// Reads through [`TsvStream::read_chunk`], so the one-shot and
/// streaming paths share one read loop and one parser, and aggregates
/// through a [`SearchLogBuilder`]; interning order is file order (first
/// occurrence).
pub fn read_tsv<R: BufRead>(reader: R) -> Result<SearchLog, LogError> {
    let mut b = SearchLogBuilder::new();
    let mut stream = TsvStream::new(reader);
    let mut chunk = TsvChunk::default();
    loop {
        stream.read_chunk(READ_CHUNK_ROWS, &mut chunk)?;
        if chunk.is_empty() {
            return Ok(b.build());
        }
        for r in chunk.iter() {
            b.add(r.user, r.query, r.url, r.count)?;
        }
    }
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

    /// One record with owned fields.
    type Owned = (String, String, String, u64);

    /// Every record of `text`, read `max` at a time, and the physical
    /// lines consumed.
    fn read_all(text: &str, max: usize) -> Result<(Vec<Owned>, usize), LogError> {
        let mut stream = TsvStream::new(Cursor::new(text));
        let mut chunk = TsvChunk::default();
        let mut recs = Vec::new();
        loop {
            stream.read_chunk(max, &mut chunk)?;
            if chunk.is_empty() {
                return Ok((recs, stream.lines_read()));
            }
            let owned = |r: RecordRef<'_>| (r.user.into(), r.query.into(), r.url.into(), r.count);
            recs.extend(chunk.iter().map(owned));
        }
    }

    #[test]
    fn chunks_yield_records_in_file_order() {
        let text = "# header\nu1\tq1\tl1\t5\n\nu2\tq2\tl2\t3\nu3\tq3\tl3\t1\n";
        let (recs, lines) = read_all(text, 2).unwrap();
        let users: Vec<_> = recs.iter().map(|r| r.0.as_str()).collect();
        assert_eq!(users, ["u1", "u2", "u3"]);
        assert_eq!(recs[0].3, 5);
        assert_eq!(recs[1].1, "q2");
        assert_eq!(lines, 5);
    }

    #[test]
    fn stream_chunking_bounds_resident_rows() {
        let text: String = (0..10).map(|i| format!("u{i}\tq\tl\t1\n")).collect();
        let mut stream = TsvStream::new(Cursor::new(text));
        let mut chunk = TsvChunk::default();
        let mut total = 0;
        let mut chunks = 0;
        loop {
            stream.read_chunk(4, &mut chunk).unwrap();
            let n = chunk.len();
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
    fn chunks_parse_crlf_empty_fields_and_a_missing_final_newline() {
        let text = "# c\r\nu1\tq1\tl1\t5\r\n\nuser-two\t\tl2\t3\nu3\tq3\tl3\t7";
        let want = vec![
            ("u1".to_string(), "q1".to_string(), "l1".to_string(), 5),
            ("user-two".into(), "".into(), "l2".into(), 3),
            ("u3".into(), "q3".into(), "l3".into(), 7),
        ];
        for max in [1, 2, 100] {
            assert_eq!(read_all(text, max).unwrap(), (want.clone(), 5), "chunks of {max}");
        }
    }

    #[test]
    fn chunk_errors_carry_global_line_numbers() {
        let text = "u1\tq\tl\t2\n#\nu2\tq\tl\t1\nu3\tq\tl\n";
        let mut stream = TsvStream::new(Cursor::new(text));
        let mut chunk = TsvChunk::default();
        stream.read_chunk(2, &mut chunk).unwrap();
        assert_eq!(chunk.len(), 2);
        let err = stream.read_chunk(2, &mut chunk).unwrap_err();
        assert!(matches!(err, LogError::Parse { line: 4, .. }), "{err}");
    }

    #[test]
    fn chunk_errors_carry_line_numbers() {
        let text = "u1\tq\tl\t2\nu2\tq\tl\t0\n";
        let err = read_all(text, 100).unwrap_err();
        assert!(matches!(err, LogError::ZeroCount { line: 2 }), "{err}");
    }
}
