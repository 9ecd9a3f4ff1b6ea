//! Spans around the benchmark's calls into the node, kept in memory by the
//! thread that records them and written out when the run ends.

use std::io::Write as _;
use std::time::Instant;

/// Which call a span times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// `handle_request` of a write on the primary.
    Write,
    /// `handle_request` of a read.
    Read,
    /// `handle_request` of a receipt.
    Receipt,
    /// `receive` of an `AppendEntries` that carries entries.
    Append,
    /// `receive` of an empty `AppendEntries`.
    Heartbeat,
    /// `receive` of an `AppendEntriesResponse`.
    Ack,
    /// `receive` of any other message.
    Vote,
    /// `tick`.
    Tick,
    /// `emit_signature`.
    Sign,
    /// `is_primary`.
    Role,
    /// `commit_seqno`, which does trivial work under the node lock.
    LockWait,
    /// The thread had nothing to do (sleep or blocking wait).
    Idle,
}

impl Name {
    /// The span's name in the trace file and in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Name::Write => "write",
            Name::Read => "read",
            Name::Receipt => "receipt",
            Name::Append => "append",
            Name::Heartbeat => "heartbeat",
            Name::Ack => "ack",
            Name::Vote => "vote",
            Name::Tick => "tick",
            Name::Sign => "sign",
            Name::Role => "role",
            Name::LockWait => "lock_wait",
            Name::Idle => "idle",
        }
    }

    /// True for the delivery of a consensus message.
    pub fn is_message(self) -> bool {
        matches!(
            self,
            Name::Append | Name::Heartbeat | Name::Ack | Name::Vote
        )
    }
}

/// The thread a span was recorded on.
pub const GENERATOR: u8 = 0;
/// The thread a span was recorded on.
pub const DRIVER: u8 = 1;

/// One timed call. `lo..=hi` is the seqno range it covers (empty when
/// `lo > hi`), so the spans of one write join across threads.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The call.
    pub name: Name,
    /// Index of the node called.
    pub node: u8,
    /// For a message: index of the node that sent it; otherwise `node`.
    pub peer: u8,
    /// [`GENERATOR`] or [`DRIVER`].
    pub thread: u8,
    /// Start, ns since the run's origin.
    pub start: u64,
    /// End, ns since the run's origin.
    pub end: u64,
    /// First seqno covered.
    pub lo: u64,
    /// Last seqno covered.
    pub hi: u64,
    /// For a message: ns it waited in the driver's inbox.
    pub queued: u64,
    /// For an `AppendEntries`: write-set bytes it carried.
    pub bytes: u64,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// A thread's span buffer, or nothing when the run is untraced.
pub struct Tracer {
    origin: Instant,
    thread: u8,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A tracer for `thread`; records only when `on`.
    pub fn new(origin: Instant, thread: u8, on: bool) -> Tracer {
        Tracer {
            origin,
            thread,
            spans: on.then(|| Vec::with_capacity(1 << 20)),
        }
    }

    /// True when spans are recorded.
    pub fn on(&self) -> bool {
        self.spans.is_some()
    }

    /// ns since the origin, or 0 when untraced (no clock read).
    pub fn now(&self) -> u64 {
        if self.on() {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Records a span that started at `start` (from [`Tracer::now`]) and
    /// ends now.
    pub fn end(&mut self, name: Name, node: usize, start: u64, lo: u64, hi: u64) {
        let node = node as u8;
        self.record(Span {
            name,
            node,
            peer: node,
            thread: 0,
            start,
            end: 0,
            lo,
            hi,
            queued: 0,
            bytes: 0,
        });
    }

    /// Records `span`, filling in its thread and ending it now.
    pub fn record(&mut self, mut span: Span) {
        if let Some(spans) = &mut self.spans {
            span.thread = self.thread;
            span.end = self.origin.elapsed().as_nanos() as u64;
            spans.push(span);
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Writes spans as tab-separated lines, one per span, sorted by start.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "name\tnode\tpeer\tthread\tstart_ns\tend_ns\tseq_lo\tseq_hi\tqueued_ns\tbytes"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name.label(),
            s.node,
            s.peer,
            s.thread,
            s.start,
            s.end,
            s.lo,
            s.hi,
            s.queued,
            s.bytes
        )?;
    }
    out.flush()
}
