//! # gctrace — structured events for the gc-safety pipeline
//!
//! Every stage of the pipeline (annotator, optimizer, collector, VM,
//! postprocessor) can emit typed [`Event`]s through a shared
//! [`TraceHandle`]. The handle is a thin `Option<Arc<dyn Sink>>`:
//!
//! * **Disabled** (the default, [`TraceHandle::disabled`]): `emit` takes a
//!   closure and never calls it — no timestamps are read, no strings are
//!   built, no allocation happens. The only cost is one branch on an
//!   `Option`, so instrumented hot paths stay at their uninstrumented
//!   speed.
//! * **Enabled**: the closure builds the event once and the sink decides
//!   what to do with it — buffer it ([`MemorySink`]), or serialize it as
//!   one JSON object per line ([`JsonlSink`]).
//!
//! Events are deliberately flat: a `stage` (which crate emitted it), a
//! `kind` (what happened), and a list of `(&'static str, Value)` fields.
//! Flat events keep the emitting side allocation-light and make the
//! JSON-Lines export trivially greppable.
//!
//! The [`json`] module carries the hand-rolled writer/parser used both
//! here and by the stats structs in `gcheap` / `asmpost` — the workspace
//! has no serde, by design.

#![warn(missing_docs)]

use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

pub mod json;

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// A single typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Borrowed or owned text (rule names, pass names, snippets).
    Str(String),
    /// Signed counter / offset.
    Int(i64),
    /// Unsigned counter (sizes, addresses, nanoseconds).
    UInt(u64),
    /// Flag.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::UInt(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::UInt(v as u64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One structured event: which stage, what happened, and typed fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Emitting pipeline stage: `"annotate"`, `"opt"`, `"gc"`, `"vm"`,
    /// `"peephole"`, `"bench"`, `"prof"`, …
    pub stage: &'static str,
    /// Event kind within the stage: `"wrap"`, `"pass"`, `"collection"`, …
    pub kind: &'static str,
    /// Flat key/value payload, in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Starts an event for `stage` / `kind` with no fields yet.
    pub fn new(stage: &'static str, kind: &'static str) -> Self {
        Event {
            stage,
            kind,
            fields: Vec::new(),
        }
    }

    /// Builder-style field append.
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Starts a `("prof", "histogram")` event — the standard shape a
    /// histogram crosses the trace boundary in: a `name`, the sample
    /// `count` and `sum`, and the sparse `"index:count ..."` bucket
    /// encoding (see `gcprof::encode_buckets`). Only *deterministic*
    /// histograms should travel as events: traces are compared
    /// byte-for-byte across worker counts, so wall-clock series belong in
    /// gcprof exports, never here.
    pub fn histogram(name: &'static str, count: u64, sum: u64, buckets: String) -> Self {
        Event::new("prof", "histogram")
            .field("name", name)
            .field("count", count)
            .field("sum", sum)
            .field("buckets", buckets)
    }

    /// Looks a field up by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Serializes the event as a single JSON object (one JSONL line,
    /// without the trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.str_field("stage", self.stage);
        w.str_field("kind", self.kind);
        for (k, v) in &self.fields {
            match v {
                Value::Str(s) => w.str_field(k, s),
                Value::Int(i) => w.int_field(k, *i),
                Value::UInt(u) => w.uint_field(k, *u),
                Value::Bool(b) => w.bool_field(k, *b),
            }
        }
        w.finish()
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Where events go. Implementations must be thread-safe: the VM and the
/// collector share one handle.
pub trait Sink: Send + Sync {
    /// Receives one event.
    fn emit(&self, event: Event);
}

/// Buffers events in memory; the test- and report-side sink.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<Event>>,
}

impl MemorySink {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a snapshot of everything emitted so far.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().expect("sink lock").clone()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink lock").len()
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn emit(&self, event: Event) {
        self.events.lock().expect("sink lock").push(event);
    }
}

/// A buffering sink for one task of a fan-out, tagged with the
/// coordinates that [`merge_tagged`] sorts by.
///
/// The parallel measurement driver gives every (workload, mode) cell its
/// own `TaggedSink`; once all cells have finished, the buffered streams
/// are replayed into the user's real sink in ascending
/// `(primary, secondary, seq)` order, where `seq` is simply each event's
/// position within its own buffer. The tag lives on the *sink*, not on
/// the events, so the replayed stream is byte-identical to what a serial
/// run would have emitted.
pub struct TaggedSink {
    tag: (u64, u64),
    events: Mutex<Vec<Event>>,
}

impl TaggedSink {
    /// A fresh buffer tagged `(primary, secondary)` — for the measurement
    /// matrix, `(workload index, mode index)`.
    pub fn new(primary: u64, secondary: u64) -> Self {
        TaggedSink {
            tag: (primary, secondary),
            events: Mutex::new(Vec::new()),
        }
    }

    /// The merge coordinates this sink was created with.
    pub fn tag(&self) -> (u64, u64) {
        self.tag
    }

    /// Removes and returns everything buffered so far, in emission order.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("sink lock"))
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink lock").len()
    }

    /// True when nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for TaggedSink {
    fn emit(&self, event: Event) {
        self.events.lock().expect("sink lock").push(event);
    }
}

/// Drains a set of [`TaggedSink`]s into `out` in deterministic
/// `(primary, secondary, seq)` order, regardless of the order the
/// buffers were filled in. Within one sink, emission order is preserved.
///
/// Sinks sharing a tag are replayed in the order given.
pub fn merge_tagged(streams: &[Arc<TaggedSink>], out: &TraceHandle) {
    let mut ordered: Vec<&Arc<TaggedSink>> = streams.iter().collect();
    ordered.sort_by_key(|s| s.tag());
    for sink in ordered {
        for event in sink.take() {
            out.emit(|| event.clone());
        }
    }
}

/// Writes each event as one JSON object per line to any `Write`.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Wraps a writer (file, stdout, `Vec<u8>`, …).
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(out),
        }
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: Event) {
        let mut line = event.to_json();
        line.push('\n');
        let mut out = self.out.lock().expect("sink lock");
        // A full disk mid-trace must not take the measured program down.
        let _ = out.write_all(line.as_bytes());
    }
}

// ---------------------------------------------------------------------
// Handle
// ---------------------------------------------------------------------

/// The handle every pipeline stage holds. Cloning is cheap (an `Arc`
/// bump or a `None` copy); the disabled handle does literally nothing.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<dyn Sink>>);

impl TraceHandle {
    /// The zero-overhead handle: `emit` never evaluates its closure.
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// A handle feeding the given sink.
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        TraceHandle(Some(sink))
    }

    /// A handle buffering into a fresh [`MemorySink`]; returns both.
    pub fn memory() -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        (TraceHandle(Some(sink.clone())), sink)
    }

    /// Whether events will actually be recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emits the event built by `build` — but only if the handle is
    /// enabled. When disabled, `build` is never called, so constructing
    /// field values costs nothing.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if let Some(sink) = &self.0 {
            sink.emit(build());
        }
    }
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_enabled() {
            "TraceHandle(enabled)"
        } else {
            "TraceHandle(disabled)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_events_carry_the_standard_shape() {
        let e = Event::histogram("alloc_size", 3, 96, "5:2 6:1".to_string());
        assert_eq!((e.stage, e.kind), ("prof", "histogram"));
        assert_eq!(e.get("name"), Some(&Value::Str("alloc_size".into())));
        assert_eq!(e.get("count"), Some(&Value::UInt(3)));
        assert_eq!(e.get("sum"), Some(&Value::UInt(96)));
        let json = e.to_json();
        let obj = json::parse_object(&json).expect("round-trips");
        assert_eq!(
            obj["buckets"].as_str(),
            Some("5:2 6:1"),
            "bucket encoding survives JSON: {json}"
        );
    }

    #[test]
    fn disabled_handle_never_builds_the_event() {
        let h = TraceHandle::disabled();
        let mut called = false;
        h.emit(|| {
            called = true;
            Event::new("t", "x")
        });
        assert!(!called, "disabled handle must not evaluate the closure");
        assert!(!h.is_enabled());
    }

    #[test]
    fn memory_sink_buffers_in_order() {
        let (h, sink) = TraceHandle::memory();
        h.emit(|| Event::new("gc", "collection").field("n", 1u64));
        h.emit(|| Event::new("opt", "pass").field("name", "licm"));
        let evs = sink.snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].stage, "gc");
        assert_eq!(evs[0].get("n"), Some(&Value::UInt(1)));
        assert_eq!(evs[1].get("name"), Some(&Value::Str("licm".into())));
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let h = TraceHandle::new(Arc::new(JsonlSink::new(Box::new(Shared(buf.clone())))));
        h.emit(|| {
            Event::new("gc", "collection")
                .field("pause_ns", 125u64)
                .field("full", true)
        });
        h.emit(|| Event::new("annotate", "wrap").field("rule", "Base::Var"));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"stage":"gc","kind":"collection","pause_ns":125,"full":true}"#
        );
        let parsed = json::parse_object(lines[1]).expect("valid json");
        assert_eq!(
            parsed.get("kind"),
            Some(&json::JsonValue::Str("wrap".into()))
        );
    }

    #[test]
    fn tagged_sinks_merge_in_tag_then_seq_order() {
        // Fill the buffers deliberately out of tag order, as parallel
        // workers would.
        let b10 = Arc::new(TaggedSink::new(1, 0));
        let b01 = Arc::new(TaggedSink::new(0, 1));
        let b00 = Arc::new(TaggedSink::new(0, 0));
        b10.emit(Event::new("t", "c"));
        b01.emit(Event::new("t", "b1"));
        b01.emit(Event::new("t", "b2"));
        b00.emit(Event::new("t", "a"));
        assert_eq!(b01.len(), 2);
        assert!(!b01.is_empty());
        assert_eq!(b10.tag(), (1, 0));
        let (out, sink) = TraceHandle::memory();
        merge_tagged(&[b10.clone(), b01, b00], &out);
        let kinds: Vec<&str> = sink.snapshot().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, ["a", "b1", "b2", "c"]);
        assert!(b10.is_empty(), "merge drains the buffers");
    }

    #[test]
    fn merged_stream_is_byte_identical_to_a_serial_one() {
        // The serial reference: one handle, events in program order.
        let (serial, serial_sink) = TraceHandle::memory();
        for (w, m) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
            serial.emit(|| Event::new("bench", "cell").field("w", w).field("m", m));
            serial.emit(|| Event::new("gc", "collection").field("w", w).field("m", m));
        }
        // The parallel run: per-cell buffers filled in scrambled order.
        let sinks: Vec<Arc<TaggedSink>> = [(1u64, 1u64), (0, 1), (1, 0), (0, 0)]
            .iter()
            .map(|&(w, m)| {
                let s = Arc::new(TaggedSink::new(w, m));
                s.emit(Event::new("bench", "cell").field("w", w).field("m", m));
                s.emit(Event::new("gc", "collection").field("w", w).field("m", m));
                s
            })
            .collect();
        let (merged, merged_sink) = TraceHandle::memory();
        merge_tagged(&sinks, &merged);
        let serial_jsonl: Vec<String> = serial_sink.snapshot().iter().map(Event::to_json).collect();
        let merged_jsonl: Vec<String> = merged_sink.snapshot().iter().map(Event::to_json).collect();
        assert_eq!(serial_jsonl, merged_jsonl);
    }

    #[test]
    fn event_json_escapes_strings() {
        let e = Event::new("vm", "output").field("text", "a\"b\\c\nd\te");
        let line = e.to_json();
        let parsed = json::parse_object(&line).expect("valid json");
        assert_eq!(
            parsed.get("text"),
            Some(&json::JsonValue::Str("a\"b\\c\nd\te".into()))
        );
    }
}
