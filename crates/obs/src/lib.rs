//! Observability primitives for the charm workspace: named counters,
//! event tracing on the virtual clock, and a mergeable campaign-level
//! provenance report with a JSONL exporter.
//!
//! The paper's methodology (§V, Figure 13) insists on retaining every
//! raw measurement *plus* the metadata needed to interpret it. The
//! simulators decide phenomena internally — governor transitions, cache
//! evictions, protocol-regime switches, intruder preemptions — but
//! historically emitted only the resulting timing. This crate lets each
//! subsystem report *why* a measurement came out the way it did, without
//! perturbing the measurement itself.
//!
//! # Design rules
//!
//! - **Zero cost when disabled.** Every recording entry point checks a
//!   single `enabled` flag first; a disabled [`Recorder`] allocates
//!   nothing and touches nothing. Callers must guard any argument
//!   construction that allocates (e.g. `format!` keys) behind
//!   [`Recorder::is_enabled`].
//! - **Never touch the measurement path.** Recording must not draw from
//!   random streams or advance virtual clocks, so records are
//!   bit-identical with the observer on or off.
//! - **Shard-invariant merges.** All counters are `u64` and every
//!   per-measurement contribution is a pure function of the measurement
//!   index, so integer addition makes [`CampaignReport::merge`] exact at
//!   any shard count (mirroring the engine's determinism contract).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A set of named monotonic `u64` counters.
///
/// Keys are dot-separated paths (`"simmem.cache.l1.misses"`). Values are
/// kept in a sorted map so iteration, serialization, and equality are
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    map: BTreeMap<String, u64>,
}

impl Counters {
    /// An empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to the counter `key`, creating it at zero first if absent.
    ///
    /// The hot path — a key that already exists — is one map descent and
    /// no allocation. Only the first touch of a key allocates, routed
    /// through the single-descent [`Counters::add_owned`].
    pub fn add(&mut self, key: &str, n: u64) {
        if let Some(v) = self.map.get_mut(key) {
            *v += n;
        } else {
            self.add_owned(key.to_string(), n);
        }
    }

    /// Adds `n` to the counter `key` when the caller already owns the
    /// key: the `entry` API finds-or-creates the slot in a single map
    /// descent, with no re-lookup and no copy of the key.
    pub fn add_owned(&mut self, key: String, n: u64) {
        *self.map.entry(key).or_insert(0) += n;
    }

    /// Takes back `n` from the counter `key`, saturating at zero: the
    /// undo of an [`Counters::add`] whose event was rolled back. A key
    /// never touched stays absent.
    pub fn sub(&mut self, key: &str, n: u64) {
        if let Some(v) = self.map.get_mut(key) {
            *v = v.saturating_sub(n);
        }
    }

    /// Current value of `key` (zero if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.map.get(key).copied().unwrap_or(0)
    }

    /// Adds every counter of `other` into `self`.
    ///
    /// Integer addition is associative and commutative, so folding any
    /// partition of per-shard counters yields the same totals.
    pub fn merge_from(&mut self, other: &Counters) {
        for (k, v) in &other.map {
            self.add(k, *v);
        }
    }

    /// Iterates `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Whether no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Pre-interned `"<prefix><index><suffix>"` counter names.
///
/// Hot recording paths that tally per-index counters (cache levels, page
/// colours) must not `format!` a fresh key per increment — the design
/// rules above make the *disabled* path allocation-free, and this keeps
/// the *enabled* path cheap too: each name is formatted once, on the
/// first use of its index, and handed out as `&str` forever after.
#[derive(Debug, Clone)]
pub struct IndexedNames {
    prefix: &'static str,
    suffix: &'static str,
    names: Vec<String>,
}

impl IndexedNames {
    /// A name table for keys of the form `"<prefix><index><suffix>"`.
    pub fn new(prefix: &'static str, suffix: &'static str) -> Self {
        IndexedNames { prefix, suffix, names: Vec::new() }
    }

    /// The interned name for `index`, formatting it (and any smaller
    /// missing indices) on first use.
    pub fn get(&mut self, index: usize) -> &str {
        while self.names.len() <= index {
            let i = self.names.len();
            self.names.push(format!("{}{}{}", self.prefix, i, self.suffix));
        }
        &self.names[index]
    }
}

/// One traced occurrence, stamped with the virtual clock.
///
/// `seq` is the global measurement sequence number the event belongs to,
/// which is exactly the `sequence` column of the campaign CSV — the
/// provenance pointer from a retained record back to its trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Global measurement sequence number (record provenance pointer).
    pub seq: u64,
    /// Event kind, e.g. `"measure"`.
    pub kind: String,
    /// Virtual-clock timestamp (µs) at which the event occurred.
    pub t_us: f64,
    /// Free-form string attributes, in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl Event {
    /// The value of attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// A named interval on the virtual clock, with the host wall-clock cost
/// of producing it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, e.g. `"campaign"` or `"shard0"`.
    pub name: String,
    /// Virtual-clock start (µs).
    pub t_start_us: f64,
    /// Virtual-clock end (µs).
    pub t_end_us: f64,
    /// Host wall-clock duration spent producing the interval (ns).
    pub wall_ns: u64,
}

/// In-flight instrumentation state owned by a simulator.
///
/// Disabled by default: every entry point returns immediately after one
/// branch, so an unobserved simulation pays nothing. Events go into a
/// bounded ring buffer — when full, the *oldest* event is dropped and
/// counted, so the tail of a long campaign is always retained.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    enabled: bool,
    capacity: usize,
    counters: Counters,
    events: VecDeque<Event>,
    dropped: u64,
}

impl Recorder {
    /// A recorder that ignores everything (the default).
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// A live recorder whose event ring holds at most `event_capacity`
    /// events.
    pub fn enabled(event_capacity: usize) -> Self {
        Recorder { enabled: true, capacity: event_capacity, ..Recorder::default() }
    }

    /// Whether recording is live. Callers must guard any allocating
    /// argument construction (`format!` keys, attribute strings) behind
    /// this, so the disabled path stays allocation-free.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `n` to counter `key` (no-op when disabled).
    pub fn count(&mut self, key: &str, n: u64) {
        if self.enabled {
            self.counters.add(key, n);
        }
    }

    /// Records an event (no-op when disabled). If the ring is full the
    /// oldest event is evicted and tallied in the drop count.
    pub fn event(&mut self, seq: u64, kind: &str, t_us: f64, attrs: Vec<(String, String)>) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        if self.capacity > 0 {
            self.events.push_back(Event { seq, kind: kind.to_string(), t_us, attrs });
        }
    }

    /// Drains everything recorded so far into an [`Observation`],
    /// leaving the recorder live (if it was) but empty.
    pub fn take(&mut self) -> Observation {
        Observation {
            counters: std::mem::take(&mut self.counters),
            events: std::mem::take(&mut self.events).into(),
            dropped_events: std::mem::replace(&mut self.dropped, 0),
        }
    }

    /// A fresh, empty recorder with the same enablement and capacity —
    /// what a forked shard should carry.
    pub fn fork(&self) -> Recorder {
        if self.enabled {
            Recorder::enabled(self.capacity)
        } else {
            Recorder::disabled()
        }
    }
}

/// Configuration handed to a campaign to switch observability on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observer {
    /// Per-shard event ring capacity. Event traces are shard-invariant
    /// only while nothing overflows, i.e. while the capacity is at least
    /// the number of rows a shard runs; counters are always exact.
    pub event_capacity: usize,
}

impl Default for Observer {
    fn default() -> Self {
        Observer { event_capacity: 65_536 }
    }
}

/// Everything one recorder (one shard) observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observation {
    /// Counter totals for this shard.
    pub counters: Counters,
    /// Events in the order they were recorded.
    pub events: Vec<Event>,
    /// Events evicted from the ring because it overflowed.
    pub dropped_events: u64,
}

/// The merged, campaign-level provenance record, emitted next to the CSV.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReport {
    /// Counter totals over all shards (integer-summed: shard-invariant).
    pub counters: Counters,
    /// Events from all shards, concatenated in shard block order — which
    /// is global sequence order, since shards own contiguous row blocks.
    pub events: Vec<Event>,
    /// Spans (whole campaign, one per shard, …).
    pub spans: Vec<Span>,
    /// Total events dropped to ring overflow across shards.
    pub dropped_events: u64,
    /// Number of shards merged into this report.
    pub shards: usize,
    /// Execution diagnostics: cache hit/miss tallies, scheduler steal
    /// counts and the like. Unlike [`CampaignReport::counters`] these
    /// describe *how* the run executed, not *what* it measured, so they
    /// are **not** shard-count-invariant — a different shard count or
    /// batch interleaving legitimately changes them while leaving every
    /// scientific counter and record untouched.
    pub diagnostics: Counters,
}

impl CampaignReport {
    /// An empty report.
    pub(crate) fn new() -> Self {
        CampaignReport::default()
    }

    /// Merges per-shard observations (in shard order) into one report.
    ///
    /// Counters are integer-summed, so the totals are identical for any
    /// shard count. Events concatenate in shard order; because shards run
    /// contiguous row blocks, this is global sequence order.
    pub fn merge(observations: Vec<Observation>) -> Self {
        let mut report = CampaignReport { shards: observations.len(), ..CampaignReport::default() };
        for obs in observations {
            report.counters.merge_from(&obs.counters);
            report.events.extend(obs.events);
            report.dropped_events += obs.dropped_events;
        }
        report
    }

    /// All events attached to measurement sequence number `seq` — the
    /// provenance trail of one retained record.
    pub fn provenance_for(&self, seq: u64) -> Vec<&Event> {
        self.events.iter().filter(|e| e.seq == seq).collect()
    }

    /// Serializes the report as JSON Lines: one `meta` object, then one
    /// object per counter, event, and span. See DESIGN.md §10 for the
    /// schema. Non-finite floats are written as `0` (JSON has no NaN).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"type\":\"meta\",\"version\":1,\"shards\":{},\"dropped_events\":{}}}\n",
            self.shards, self.dropped_events
        ));
        for (key, value) in self.counters.iter() {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"key\":{},\"value\":{}}}\n",
                json::string(key),
                value
            ));
        }
        for (key, value) in self.diagnostics.iter() {
            out.push_str(&format!(
                "{{\"type\":\"diag\",\"key\":{},\"value\":{}}}\n",
                json::string(key),
                value
            ));
        }
        for e in &self.events {
            out.push_str(&format!(
                "{{\"type\":\"event\",\"seq\":{},\"kind\":{},\"t_us\":{},\"attrs\":{{",
                e.seq,
                json::string(&e.kind),
                json::number(e.t_us)
            ));
            for (i, (k, v)) in e.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", json::string(k), json::string(v)));
            }
            out.push_str("}}\n");
        }
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"type\":\"span\",\"name\":{},\"t_start_us\":{},\"t_end_us\":{},\"wall_ns\":{}}}\n",
                json::string(&s.name),
                json::number(s.t_start_us),
                json::number(s.t_end_us),
                s.wall_ns
            ));
        }
        out
    }

    /// Parses a report back from its [`CampaignReport::to_jsonl`] form.
    ///
    /// Round-trips exactly: `u64` fields are parsed as integers and `f64`
    /// fields use Rust's shortest-round-trip formatting, so
    /// serialize → parse → serialize is byte-identical.
    pub fn from_jsonl(text: &str) -> Result<CampaignReport, JsonlError> {
        let mut report = CampaignReport::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let obj = json::parse_object(line)
                .map_err(|msg| JsonlError { line: lineno + 1, message: msg })?;
            let fail = |msg: &str| JsonlError { line: lineno + 1, message: msg.to_string() };
            match obj.get_str("type").ok_or_else(|| fail("missing \"type\""))? {
                "meta" => {
                    report.shards =
                        obj.get_u64("shards").ok_or_else(|| fail("meta: bad \"shards\""))? as usize;
                    report.dropped_events = obj
                        .get_u64("dropped_events")
                        .ok_or_else(|| fail("meta: bad \"dropped_events\""))?;
                }
                "counter" => {
                    let key = obj.get_str("key").ok_or_else(|| fail("counter: bad \"key\""))?;
                    let value =
                        obj.get_u64("value").ok_or_else(|| fail("counter: bad \"value\""))?;
                    report.counters.add(key, value);
                }
                "diag" => {
                    let key = obj.get_str("key").ok_or_else(|| fail("diag: bad \"key\""))?;
                    let value = obj.get_u64("value").ok_or_else(|| fail("diag: bad \"value\""))?;
                    report.diagnostics.add(key, value);
                }
                "event" => {
                    let attrs = match obj.get("attrs") {
                        Some(json::Value::Map(m)) => m
                            .iter()
                            .map(|(k, v)| match v {
                                json::Value::Str(s) => Ok((k.clone(), s.clone())),
                                _ => Err(fail("event: non-string attr")),
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                        _ => return Err(fail("event: bad \"attrs\"")),
                    };
                    report.events.push(Event {
                        seq: obj.get_u64("seq").ok_or_else(|| fail("event: bad \"seq\""))?,
                        kind: obj
                            .get_str("kind")
                            .ok_or_else(|| fail("event: bad \"kind\""))?
                            .to_string(),
                        t_us: obj.get_f64("t_us").ok_or_else(|| fail("event: bad \"t_us\""))?,
                        attrs,
                    });
                }
                "span" => {
                    report.spans.push(Span {
                        name: obj
                            .get_str("name")
                            .ok_or_else(|| fail("span: bad \"name\""))?
                            .to_string(),
                        t_start_us: obj
                            .get_f64("t_start_us")
                            .ok_or_else(|| fail("span: bad \"t_start_us\""))?,
                        t_end_us: obj
                            .get_f64("t_end_us")
                            .ok_or_else(|| fail("span: bad \"t_end_us\""))?,
                        wall_ns: obj
                            .get_u64("wall_ns")
                            .ok_or_else(|| fail("span: bad \"wall_ns\""))?,
                    });
                }
                other => {
                    return Err(JsonlError {
                        line: lineno + 1,
                        message: format!("unknown record type {other:?}"),
                    })
                }
            }
        }
        Ok(report)
    }
}

/// A parse failure in [`CampaignReport::from_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSONL parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JsonlError {}

/// Minimal JSON formatting and parsing for the report schema: objects
/// whose values are strings, numbers, booleans, arrays or nested
/// objects (`attrs`), at most 32 levels deep. `null`
/// is not part of the dialect.
///
/// Public so downstream crates that share the no-external-JSON policy
/// (e.g. `charm-trace`'s Chrome exporter, the store manifest and the
/// perf gate's `charm_perf` result lines) emit and parse
/// byte-compatible documents instead of growing a second hand-rolled
/// parser.
pub mod json {
    /// A restricted JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// A string.
        Str(String),
        /// A number, kept as its raw token.
        Num(String),
        /// An object, fields in source order.
        Map(Vec<(String, Value)>),
        /// `true` or `false`.
        Bool(bool),
        /// An array.
        List(Vec<Value>),
    }

    /// The deepest nesting of objects and arrays the parser accepts, so
    /// a hostile line cannot exhaust the stack.
    pub(crate) const MAX_DEPTH: usize = 32;

    /// A parsed flat object with typed field accessors.
    pub struct Object(Vec<(String, Value)>);

    impl Object {
        /// Looks up a field by key (first occurrence wins).
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }

        /// The field's string value, if present and a string.
        pub fn get_str(&self, key: &str) -> Option<&str> {
            match self.get(key) {
                Some(Value::Str(s)) => Some(s),
                _ => None,
            }
        }

        /// The field's value parsed as `u64`, if present and numeric.
        pub fn get_u64(&self, key: &str) -> Option<u64> {
            match self.get(key) {
                Some(Value::Num(raw)) => raw.parse().ok(),
                _ => None,
            }
        }

        /// The field's value parsed as `f64`, if present and numeric.
        pub fn get_f64(&self, key: &str) -> Option<f64> {
            match self.get(key) {
                Some(Value::Num(raw)) => raw.parse().ok(),
                _ => None,
            }
        }

        /// The field's value, if present and a boolean.
        pub fn get_bool(&self, key: &str) -> Option<bool> {
            match self.get(key) {
                Some(Value::Bool(b)) => Some(*b),
                _ => None,
            }
        }
    }

    /// Formats a JSON string literal with escaping.
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Formats a float; non-finite values become `0`.
    pub fn number(x: f64) -> String {
        if x.is_finite() {
            format!("{x}")
        } else {
            "0".to_string()
        }
    }

    /// Parses one object literal (a full JSONL line).
    pub fn parse_object(line: &str) -> Result<Object, String> {
        let mut p =
            Parser { chars: line.trim().char_indices().peekable(), src: line.trim(), depth: 0 };
        let fields = p.object()?;
        p.skip_ws();
        if p.chars.peek().is_some() {
            return Err("trailing garbage after object".to_string());
        }
        Ok(Object(fields))
    }

    struct Parser<'a> {
        chars: std::iter::Peekable<std::str::CharIndices<'a>>,
        src: &'a str,
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
                self.chars.next();
            }
        }

        fn expect(&mut self, want: char) -> Result<(), String> {
            self.skip_ws();
            match self.chars.next() {
                Some((_, c)) if c == want => Ok(()),
                Some((i, c)) => Err(format!("expected {want:?} at byte {i}, found {c:?}")),
                None => Err(format!("expected {want:?}, found end of line")),
            }
        }

        fn object(&mut self) -> Result<Vec<(String, Value)>, String> {
            self.expect('{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if matches!(self.chars.peek(), Some((_, '}'))) {
                self.chars.next();
                return Ok(fields);
            }
            loop {
                self.skip_ws();
                let key = self.string_literal()?;
                self.expect(':')?;
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.chars.next() {
                    Some((_, ',')) => continue,
                    Some((_, '}')) => return Ok(fields),
                    Some((i, c)) => return Err(format!("expected ',' or '}}' at byte {i}: {c:?}")),
                    None => return Err("unterminated object".to_string()),
                }
            }
        }

        fn list(&mut self) -> Result<Vec<Value>, String> {
            self.expect('[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if matches!(self.chars.peek(), Some((_, ']'))) {
                self.chars.next();
                return Ok(items);
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.chars.next() {
                    Some((_, ',')) => continue,
                    Some((_, ']')) => return Ok(items),
                    Some((i, c)) => return Err(format!("expected ',' or ']' at byte {i}: {c:?}")),
                    None => return Err("unterminated array".to_string()),
                }
            }
        }

        /// Parses a nested object or array, one level deeper.
        fn nested<T>(&mut self, f: fn(&mut Self) -> Result<T, String>) -> Result<T, String> {
            if self.depth == MAX_DEPTH {
                return Err(format!("nested deeper than {MAX_DEPTH} levels"));
            }
            self.depth += 1;
            let out = f(self);
            self.depth -= 1;
            out
        }

        fn literal(&mut self, word: &str, value: bool) -> Result<Value, String> {
            for want in word.chars() {
                match self.chars.next() {
                    Some((_, c)) if c == want => {}
                    Some((i, c)) => return Err(format!("bad literal at byte {i}: {c:?}")),
                    None => return Err("unterminated literal".to_string()),
                }
            }
            Ok(Value::Bool(value))
        }

        fn value(&mut self) -> Result<Value, String> {
            self.skip_ws();
            match self.chars.peek() {
                Some((_, '"')) => Ok(Value::Str(self.string_literal()?)),
                Some((_, '{')) => Ok(Value::Map(self.nested(Self::object)?)),
                Some((_, '[')) => Ok(Value::List(self.nested(Self::list)?)),
                Some((_, 't')) => self.literal("true", true),
                Some((_, 'f')) => self.literal("false", false),
                Some((_, c)) if *c == '-' || c.is_ascii_digit() => Ok(Value::Num(self.number()?)),
                Some((i, c)) => Err(format!("unexpected value start at byte {i}: {c:?}")),
                None => Err("expected a value, found end of line".to_string()),
            }
        }

        fn number(&mut self) -> Result<String, String> {
            let start = match self.chars.peek() {
                Some((i, _)) => *i,
                None => return Err("expected a number".to_string()),
            };
            let mut end = start;
            while let Some((i, c)) = self.chars.peek() {
                if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                    end = *i + c.len_utf8();
                    self.chars.next();
                } else {
                    break;
                }
            }
            let raw = &self.src[start..end];
            if raw.parse::<f64>().is_err() {
                return Err(format!("bad number token {raw:?}"));
            }
            Ok(raw.to_string())
        }

        fn string_literal(&mut self) -> Result<String, String> {
            self.expect('"')?;
            let mut out = String::new();
            loop {
                match self.chars.next() {
                    Some((_, '"')) => return Ok(out),
                    Some((_, '\\')) => match self.chars.next() {
                        Some((_, '"')) => out.push('"'),
                        Some((_, '\\')) => out.push('\\'),
                        Some((_, '/')) => out.push('/'),
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 'r')) => out.push('\r'),
                        Some((_, 't')) => out.push('\t'),
                        Some((_, 'u')) => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d = self
                                    .chars
                                    .next()
                                    .and_then(|(_, c)| c.to_digit(16))
                                    .ok_or("bad \\u escape")?;
                                code = code * 16 + d;
                            }
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        Some((i, c)) => return Err(format!("bad escape at byte {i}: {c:?}")),
                        None => return Err("unterminated escape".to_string()),
                    },
                    Some((_, c)) => out.push(c),
                    None => return Err("unterminated string".to_string()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_names_intern_once() {
        let mut names = IndexedNames::new("simmem.cache.l", ".hits");
        assert_eq!(names.get(2), "simmem.cache.l2.hits");
        assert_eq!(names.get(0), "simmem.cache.l0.hits");
        assert_eq!(names.get(2), "simmem.cache.l2.hits");
        let ptr_a = names.get(5).as_ptr();
        let ptr_b = names.get(5).as_ptr();
        assert_eq!(ptr_a, ptr_b, "repeated gets must hand out the same interned string");
        let mut colors = IndexedNames::new("simmem.paging.color.", "");
        assert_eq!(colors.get(7), "simmem.paging.color.7");
    }

    #[test]
    fn counters_sub_saturates_and_never_creates() {
        let mut c = Counters::new();
        c.add("serve.accepted", 2);
        c.sub("serve.accepted", 1);
        assert_eq!(c.get("serve.accepted"), 1);
        c.sub("serve.accepted", 5);
        assert_eq!(c.get("serve.accepted"), 0);
        assert_eq!(c.iter().count(), 1, "a drained counter keeps its key");
        c.sub("absent", 1);
        assert_eq!(c.iter().count(), 1);
    }

    #[test]
    fn counters_add_get_merge() {
        let mut a = Counters::new();
        a.add("x.hits", 3);
        a.add("x.hits", 2);
        a.add("y", 1);
        assert_eq!(a.get("x.hits"), 5);
        assert_eq!(a.get("absent"), 0);
        let mut b = Counters::new();
        b.add("x.hits", 10);
        b.add("z", 7);
        a.merge_from(&b);
        assert_eq!(a.get("x.hits"), 15);
        assert_eq!(a.get("z"), 7);
        assert_eq!(a.iter().count(), 3);
    }

    #[test]
    fn merge_is_partition_invariant() {
        // Split 100 increments over 1, 2, and 5 "shards": same totals.
        let totals = |splits: &[std::ops::Range<u64>]| {
            let mut all = Counters::new();
            for r in splits {
                let mut shard = Counters::new();
                for i in r.clone() {
                    shard.add("k", i);
                    shard.add(if i % 2 == 0 { "even" } else { "odd" }, 1);
                }
                all.merge_from(&shard);
            }
            all
        };
        let one = totals(std::slice::from_ref(&(0..100)));
        let two = totals(&[0..50, 50..100]);
        let five = totals(&[0..20, 20..40, 40..60, 60..80, 80..100]);
        assert_eq!(one, two);
        assert_eq!(one, five);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        r.count("k", 5);
        r.event(0, "measure", 1.0, vec![]);
        let obs = r.take();
        assert!(obs.counters.is_empty());
        assert!(obs.events.is_empty());
        assert_eq!(obs.dropped_events, 0);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut r = Recorder::enabled(3);
        for i in 0..5u64 {
            r.event(i, "e", i as f64, vec![]);
        }
        let obs = r.take();
        assert_eq!(obs.dropped_events, 2);
        assert_eq!(obs.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn take_leaves_recorder_live_and_empty() {
        let mut r = Recorder::enabled(8);
        r.count("k", 1);
        r.event(0, "e", 0.0, vec![]);
        let first = r.take();
        assert_eq!(first.counters.get("k"), 1);
        assert!(r.is_enabled());
        let second = r.take();
        assert!(second.counters.is_empty());
        assert!(second.events.is_empty());
    }

    #[test]
    fn fork_is_empty_with_same_config() {
        let mut r = Recorder::enabled(7);
        r.count("k", 3);
        let mut f = r.fork();
        assert!(f.is_enabled());
        assert!(f.take().counters.is_empty());
        assert!(!Recorder::disabled().fork().is_enabled());
    }

    #[test]
    fn report_merge_and_provenance() {
        let mk = |seq: u64| Observation {
            counters: {
                let mut c = Counters::new();
                c.add("n", seq + 1);
                c
            },
            events: vec![Event {
                seq,
                kind: "measure".into(),
                t_us: seq as f64,
                attrs: vec![("intruded".into(), "true".into())],
            }],
            dropped_events: seq,
        };
        let report = CampaignReport::merge(vec![mk(0), mk(1), mk(2)]);
        assert_eq!(report.shards, 3);
        assert_eq!(report.counters.get("n"), 6);
        assert_eq!(report.dropped_events, 3);
        let prov = report.provenance_for(1);
        assert_eq!(prov.len(), 1);
        assert_eq!(prov[0].attr("intruded"), Some("true"));
        assert_eq!(prov[0].attr("absent"), None);
    }

    fn sample_report() -> CampaignReport {
        let mut counters = Counters::new();
        counters.add("simmem.cache.l1.misses", 12345);
        counters.add("weird \"key\"\n", 1);
        let mut diagnostics = Counters::new();
        diagnostics.add("simmem.profile_cache.hits", 97);
        diagnostics.add("engine.scheduler.steals", 3);
        CampaignReport {
            counters,
            diagnostics,
            events: vec![
                Event {
                    seq: 7,
                    kind: "measure".into(),
                    t_us: 301.1251879234,
                    attrs: vec![
                        ("max_freq_fraction".into(), "0.4705882352941177".into()),
                        ("path\\".into(), "a\tb".into()),
                    ],
                },
                Event { seq: 8, kind: "measure".into(), t_us: 602.25, attrs: vec![] },
            ],
            spans: vec![Span {
                name: "shard0".into(),
                t_start_us: 0.0,
                t_end_us: 903.375,
                wall_ns: 18_250_111,
            }],
            dropped_events: 4,
            shards: 2,
        }
    }

    #[test]
    fn jsonl_round_trips_byte_identically() {
        let report = sample_report();
        let text = report.to_jsonl();
        let parsed = CampaignReport::from_jsonl(&text).expect("parse");
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_jsonl(), text, "serialize→parse→serialize must be byte-identical");
    }

    #[test]
    fn jsonl_rejects_garbage() {
        assert!(CampaignReport::from_jsonl("not json").is_err());
        assert!(CampaignReport::from_jsonl("{\"type\":\"mystery\"}").is_err());
        assert!(CampaignReport::from_jsonl("{\"type\":\"counter\",\"key\":\"k\"}").is_err());
        let err =
            CampaignReport::from_jsonl("{\"type\":\"meta\",\"shards\":1,\"dropped_events\":0}\n{")
                .unwrap_err();
        assert_eq!(err.line, 2);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn json_reads_booleans_and_arrays_and_caps_nesting() {
        use json::Value;
        let o = json::parse_object(r#"{"ok": true, "no": false, "xs": [1, "a", [], {}]}"#).unwrap();
        assert_eq!(o.get_bool("ok"), Some(true));
        assert_eq!(o.get_bool("no"), Some(false));
        assert_eq!(o.get_bool("xs"), None);
        let Some(Value::List(xs)) = o.get("xs") else { panic!("xs is an array") };
        assert_eq!(xs.len(), 4);
        assert_eq!(xs[0], Value::Num("1".into()));
        for bad in [r#"{"a": tru}"#, r#"{"a": [1,]}"#, r#"{"a": [1"#, r#"{"a": null}"#] {
            assert!(json::parse_object(bad).is_err(), "{bad}");
        }
        let deep = |n: usize| format!("{{\"a\": {}0{}}}", "[".repeat(n), "]".repeat(n));
        assert!(json::parse_object(&deep(json::MAX_DEPTH)).is_ok());
        let err = json::parse_object(&deep(json::MAX_DEPTH + 1)).err().unwrap();
        assert!(err.contains("deeper"), "{err}");
        // Far past the cap fails the same way instead of overflowing the stack.
        assert!(json::parse_object(&deep(100_000)).is_err());
    }

    #[test]
    fn jsonl_truncated_line_reports_its_line_number() {
        // A report cut off mid-write: the last line stops inside a field.
        let mut text = sample_report().to_jsonl();
        let cut = text.len() - 25;
        text.truncate(cut);
        let err = CampaignReport::from_jsonl(&text).unwrap_err();
        assert_eq!(err.line, text.lines().count(), "error points at the truncated line");
        // Truncating to a line boundary instead parses fine (fewer records).
        let whole_lines: String =
            text.lines().take(text.lines().count() - 1).map(|l| format!("{l}\n")).collect();
        assert!(CampaignReport::from_jsonl(&whole_lines).is_ok());
    }

    #[test]
    fn jsonl_wrong_field_types_are_rejected() {
        // String where a number belongs.
        let err =
            CampaignReport::from_jsonl("{\"type\":\"counter\",\"key\":\"k\",\"value\":\"twelve\"}")
                .unwrap_err();
        assert!(err.message.contains("value"), "{err}");
        // Number where a string belongs.
        let err = CampaignReport::from_jsonl(
            "{\"type\":\"event\",\"seq\":0,\"kind\":7,\"t_us\":1,\"attrs\":{}}",
        )
        .unwrap_err();
        assert!(err.message.contains("kind"), "{err}");
        // Non-string attr value.
        let err = CampaignReport::from_jsonl(
            "{\"type\":\"event\",\"seq\":0,\"kind\":\"m\",\"t_us\":1,\"attrs\":{\"a\":{}}}",
        )
        .unwrap_err();
        assert!(err.message.contains("attr"), "{err}");
        // `type` itself not a string.
        assert!(CampaignReport::from_jsonl("{\"type\":3}").is_err());
        // Span with a string wall_ns.
        let err = CampaignReport::from_jsonl(
            "{\"type\":\"span\",\"name\":\"s\",\"t_start_us\":0,\"t_end_us\":1,\"wall_ns\":\"x\"}",
        )
        .unwrap_err();
        assert!(err.message.contains("wall_ns"), "{err}");
    }

    #[test]
    fn jsonl_duplicate_seq_events_both_survive() {
        // Duplicate sequence numbers are legal: several events may
        // annotate one measurement. Both parse and both show up in the
        // record's provenance trail; duplicate *counter* keys sum.
        let text = "{\"type\":\"event\",\"seq\":4,\"kind\":\"measure\",\"t_us\":1,\"attrs\":{}}\n\
                    {\"type\":\"event\",\"seq\":4,\"kind\":\"preempt\",\"t_us\":2,\"attrs\":{}}\n\
                    {\"type\":\"counter\",\"key\":\"k\",\"value\":3}\n\
                    {\"type\":\"counter\",\"key\":\"k\",\"value\":5}\n";
        let report = CampaignReport::from_jsonl(text).expect("parse");
        let prov = report.provenance_for(4);
        assert_eq!(prov.len(), 2);
        assert_eq!(prov[0].kind, "measure");
        assert_eq!(prov[1].kind, "preempt");
        assert_eq!(report.counters.get("k"), 8);
    }

    #[test]
    fn add_owned_matches_add() {
        let mut a = Counters::new();
        let mut b = Counters::new();
        for (k, n) in [("x", 1u64), ("y", 10), ("x", 2)] {
            a.add(k, n);
            b.add_owned(k.to_string(), n);
        }
        assert_eq!(a, b);
        assert_eq!(a.get("x"), 3);
    }

    #[test]
    fn jsonl_escapes_control_chars() {
        let quoted = "he said \"hi\"\u{1}";
        let mut counters = Counters::new();
        counters.add(quoted, 2);
        let report = CampaignReport { counters, ..CampaignReport::default() };
        let text = report.to_jsonl();
        let parsed = CampaignReport::from_jsonl(&text).expect("parse");
        assert_eq!(parsed.counters.get(quoted), 2);
    }

    #[test]
    fn non_finite_floats_serialize_as_zero() {
        let report = CampaignReport {
            events: vec![Event { seq: 0, kind: "e".into(), t_us: f64::NAN, attrs: vec![] }],
            ..CampaignReport::default()
        };
        let parsed = CampaignReport::from_jsonl(&report.to_jsonl()).expect("parse");
        assert_eq!(parsed.events[0].t_us, 0.0);
    }
}
