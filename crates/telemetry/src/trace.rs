//! The tracing half of the substrate: spans and instant events on the
//! **simulation clock**.
//!
//! Wall time would make every export nondeterministic, so a span's start
//! and end are `SimTime`s supplied by the instrumented code — the same
//! virtual instants the DES kernel dispatches on. Spans nest through an
//! explicit open-span stack (instrumented request paths are
//! single-threaded), carry ordered key/value attributes, and everything
//! lands in a bounded ring buffer: when it fills, the oldest events are
//! dropped and counted, never reallocated.
//!
//! Ring events are plain `Copy` data: span, point and attribute names
//! (and string attribute values) are interned into a per-collector name
//! table and stored as `u32` ids, so recording allocates nothing once a
//! name has been seen, evicting an event frees nothing, and formatting
//! happens only at export.

use std::collections::{HashMap, VecDeque};

use osdc_sim::SimTime;

/// Handle to a span. `SpanId(0)` is the reserved null span produced by a
/// disabled `Telemetry`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

/// An attribute value; kept as a closed enum so exports need no trait
/// machinery and stay byte-deterministic.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Index of a string in a [`TraceCore`]'s name table.
pub(crate) type NameId = u32;

/// A collector's interned span, point and attribute names. Recording
/// resolves a name with one hash lookup and stores only its id, so ring
/// events stay plain `Copy` data; the strings themselves are looked up
/// again only at export.
#[derive(Debug, Default)]
pub(crate) struct Names {
    index: HashMap<Box<str>, NameId>,
    names: Vec<Box<str>>,
}

impl Names {
    /// Idempotent name → id interning.
    pub(crate) fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as NameId;
        self.index.insert(name.into(), id);
        self.names.push(name.into());
        id
    }

    pub(crate) fn get(&self, id: NameId) -> &str {
        &self.names[id as usize]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|n| &**n)
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// An attribute value as the ring stores it: [`AttrValue`] with strings
/// interned into the name table.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EventValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(NameId),
}

/// One entry in the ring-buffered event log. Names are ids into the
/// owning core's [`Names`]; a root span's `parent` is [`SpanId::NONE`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum TraceEvent {
    SpanStart {
        id: SpanId,
        parent: SpanId,
        name: NameId,
        t: SimTime,
    },
    SpanEnd {
        id: SpanId,
        t: SimTime,
    },
    Attr {
        span: SpanId,
        key: NameId,
        value: EventValue,
    },
    /// A `(name, t, value)` sample — per-flow throughput traces and the
    /// like.
    Point {
        name: NameId,
        t: SimTime,
        value: f64,
    },
}

/// Default ring capacity: big enough for a full Table 3 sweep (ten
/// transfers' worth of stage spans plus coarse flow samples) without
/// letting a runaway emitter grow memory unboundedly.
pub const DEFAULT_RING_CAPACITY: usize = 131_072;

/// Marks a name of an absorbed core not yet interned here.
const UNMAPPED: NameId = NameId::MAX;

#[derive(Debug)]
pub(crate) struct TraceCore {
    next_span: u64,
    stack: Vec<SpanId>,
    pub(crate) events: VecDeque<TraceEvent>,
    pub(crate) names: Names,
    pub(crate) capacity: usize,
    pub(crate) dropped: u64,
    /// [`TraceCore::absorb_tail`]'s scratch: the absorbed core's name ids
    /// mapped to this core's, filled as the names are first met.
    remap: Vec<NameId>,
}

impl Default for TraceCore {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

impl TraceCore {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        TraceCore {
            next_span: 1, // 0 is SpanId::NONE
            stack: Vec::new(),
            events: VecDeque::new(),
            names: Names::default(),
            capacity: capacity.max(1),
            dropped: 0,
            remap: Vec::new(),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    pub(crate) fn span_start(&mut self, name: &str, t: SimTime) -> SpanId {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        let parent = self.stack.last().copied().unwrap_or(SpanId::NONE);
        self.stack.push(id);
        let name = self.names.intern(name);
        self.push(TraceEvent::SpanStart {
            id,
            parent,
            name,
            t,
        });
        id
    }

    pub(crate) fn span_end(&mut self, id: SpanId, t: SimTime) {
        // Tolerate out-of-order ends: unwind the stack through `id` if it
        // is open, otherwise leave the stack alone.
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
        self.push(TraceEvent::SpanEnd { id, t });
    }

    pub(crate) fn attr(&mut self, span: SpanId, key: &str, value: AttrValue) {
        let key = self.names.intern(key);
        let value = match value {
            AttrValue::U64(n) => EventValue::U64(n),
            AttrValue::I64(n) => EventValue::I64(n),
            AttrValue::F64(x) => EventValue::F64(x),
            AttrValue::Bool(b) => EventValue::Bool(b),
            AttrValue::Str(s) => EventValue::Str(self.names.intern(&s)),
        };
        self.push(TraceEvent::Attr { span, key, value });
    }

    pub(crate) fn point(&mut self, name: &str, t: SimTime, value: f64) {
        let name = self.names.intern(name);
        self.push(TraceEvent::Point { name, t, value });
    }

    pub(crate) fn current_span(&self) -> Option<SpanId> {
        self.stack.last().copied()
    }

    /// Append the last `keep` events of another core's stream onto this
    /// one, in that core's recording order, renumbering span ids past the
    /// ids already issued here and name ids into this core's table. The
    /// `other.events.len() - keep` events left out count as dropped, so
    /// calling this with `keep` equal to what would survive in the ring
    /// leaves the same ring and the same `dropped` as appending every
    /// event one by one.
    ///
    /// This is the submission-order merge behind the parallel scenario
    /// runner: per-scenario rings absorbed one after another reproduce the
    /// very stream a single shared ring would have recorded from the same
    /// scenarios run serially (span ids are contiguous per scenario in
    /// both cases). Ring capacity and drop accounting apply to each
    /// appended event exactly as if it had been recorded live.
    pub(crate) fn absorb_tail(&mut self, other: &TraceCore, keep: usize) {
        debug_assert!(
            other.stack.is_empty(),
            "absorbing a trace with open spans loses nesting"
        );
        let skip = other.events.len() - keep;
        self.dropped += other.dropped + skip as u64;
        let offset = self.next_span - 1; // span ids are 1-based
        let span = |id: SpanId| {
            if id == SpanId::NONE {
                id
            } else {
                SpanId(id.0 + offset)
            }
        };
        self.remap.clear();
        self.remap.resize(other.names.len(), UNMAPPED);
        for ev in other.events.range(skip..) {
            let mut name = |id: NameId| {
                let slot = &mut self.remap[id as usize];
                if *slot == UNMAPPED {
                    *slot = self.names.intern(other.names.get(id));
                }
                *slot
            };
            let remapped = match *ev {
                TraceEvent::SpanStart {
                    id,
                    parent,
                    name: n,
                    t,
                } => TraceEvent::SpanStart {
                    id: span(id),
                    parent: span(parent),
                    name: name(n),
                    t,
                },
                TraceEvent::SpanEnd { id, t } => TraceEvent::SpanEnd { id: span(id), t },
                TraceEvent::Attr {
                    span: s,
                    key,
                    value,
                } => TraceEvent::Attr {
                    span: span(s),
                    key: name(key),
                    value: match value {
                        EventValue::Str(v) => EventValue::Str(name(v)),
                        v => v,
                    },
                },
                TraceEvent::Point { name: n, t, value } => TraceEvent::Point {
                    name: name(n),
                    t,
                    value,
                },
            };
            self.push(remapped);
        }
        self.next_span += other.next_span - 1;
    }
}
