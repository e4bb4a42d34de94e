//! Chrome trace-event JSON export.
//!
//! [`to_chrome_json`] renders a [`TraceData`] capture as the trace-event
//! format understood by Perfetto (<https://ui.perfetto.dev>) and
//! `chrome://tracing`: one *process* per distributed rank, one named
//! *thread* per pipeline role, complete (`"ph":"X"`) events for spans and
//! counter (`"ph":"C"`) samples for the final counter/gauge values. The
//! format reference is the "Trace Event Format" document; only the subset
//! below is emitted:
//!
//! * `M` metadata events naming each rank's process and each role's
//!   thread lane;
//! * `X` complete events with microsecond `ts`/`dur` (fractional, so
//!   sub-microsecond stages survive the export);
//! * `C` counter events carrying the end-of-run counters and high-water
//!   gauges.
//!
//! The writer is hand-rolled: the vocabulary is tiny, the crate stays
//! dependency-free, and the output is deterministic (events are emitted
//! in the capture's sorted order).

use crate::jsonw::escape_into;
use crate::recorder::ThreadRole;
use crate::trace::TraceData;
use std::fmt::Write as _;

/// All roles, in lane order.
const ROLES: [ThreadRole; 5] = [
    ThreadRole::Filter,
    ThreadRole::Main,
    ThreadRole::Backprojection,
    ThreadRole::Io,
    ThreadRole::Other,
];

/// Format nanoseconds as fractional microseconds (the unit `ts`/`dur`
/// use). Three decimals keep full nanosecond resolution.
fn micros(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

/// Render a capture as Chrome trace-event JSON.
///
/// The result is a single JSON object `{"traceEvents": [...],
/// "displayTimeUnit": "ms"}` — load it directly in Perfetto or
/// `chrome://tracing`.
pub fn to_chrome_json(data: &TraceData) -> String {
    let mut events: Vec<String> = Vec::new();

    // Metadata: name one process per rank, one thread lane per role that
    // actually recorded something on that rank.
    let ranks = data.ranks();
    let seen_role = |rank: u32, role: ThreadRole| -> bool {
        data.events.iter().any(|e| e.rank == rank && e.role == role)
            || data.stages.iter().any(|s| s.rank == rank && s.role == role)
            || data
                .counters
                .iter()
                .chain(data.gauges.iter())
                .any(|m| m.rank == rank && m.role == role)
    };
    for &rank in &ranks {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{rank},\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"rank {rank}\"}}}}"
        ));
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{rank},\"tid\":0,\"name\":\"process_sort_index\",\
             \"args\":{{\"sort_index\":{rank}}}}}"
        ));
        for role in ROLES {
            if !seen_role(rank, role) {
                continue;
            }
            let tid = role.tid();
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{rank},\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                role.as_str()
            ));
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":{rank},\"tid\":{tid},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{tid}}}}}"
            ));
        }
    }

    // Spans as complete events.
    for e in &data.events {
        let mut ev = String::with_capacity(128);
        ev.push_str("{\"ph\":\"X\",\"pid\":");
        let _ = write!(ev, "{}", e.rank);
        let _ = write!(ev, ",\"tid\":{}", e.role.tid());
        let _ = write!(ev, ",\"ts\":{}", micros(e.start_ns));
        let _ = write!(ev, ",\"dur\":{}", micros(e.dur_ns));
        ev.push_str(",\"cat\":\"stage\",\"name\":\"");
        escape_into(&mut ev, e.name);
        ev.push('"');
        if e.index.is_some() || e.bytes.is_some() || e.deps.is_some() {
            ev.push_str(",\"args\":{");
            let mut first = true;
            if let Some(i) = e.index {
                let _ = write!(ev, "\"index\":{i}");
                first = false;
            }
            if let Some(b) = e.bytes {
                if !first {
                    ev.push(',');
                }
                let _ = write!(ev, "\"bytes\":{b}");
                first = false;
            }
            if let Some(d) = e.deps {
                if !first {
                    ev.push(',');
                }
                ev.push_str("\"dep_stage\":\"");
                escape_into(&mut ev, d.stage);
                let _ = write!(ev, "\",\"dep_lo\":{},\"dep_hi\":{}", d.lo, d.hi);
            }
            ev.push('}');
        }
        ev.push('}');
        events.push(ev);
    }

    // Producer -> consumer dependency arrows as flow-event pairs: a
    // `ph:"s"` start anchored at the end of each producer span and a
    // `ph:"f"` (binding point `"e"`: enclosing slice) at the start of the
    // consumer. Perfetto binds the pair by `(cat, name, id)`.
    let mut flow_id: u64 = 0;
    for e in &data.events {
        let Some(d) = e.deps else { continue };
        for p in data.events.iter().filter(|p| {
            p.rank == e.rank && p.name == d.stage && p.index.is_some_and(|i| d.contains(i))
        }) {
            flow_id += 1;
            let mut s = String::with_capacity(96);
            s.push_str("{\"ph\":\"s\",\"pid\":");
            let _ = write!(s, "{}", p.rank);
            let _ = write!(s, ",\"tid\":{}", p.role.tid());
            let _ = write!(s, ",\"ts\":{}", micros(p.end_ns().saturating_sub(1)));
            s.push_str(",\"cat\":\"dep\",\"name\":\"");
            escape_into(&mut s, d.stage);
            let _ = write!(s, "\",\"id\":{flow_id}}}");
            events.push(s);
            let mut f = String::with_capacity(96);
            f.push_str("{\"ph\":\"f\",\"bp\":\"e\",\"pid\":");
            let _ = write!(f, "{}", e.rank);
            let _ = write!(f, ",\"tid\":{}", e.role.tid());
            let _ = write!(f, ",\"ts\":{}", micros(e.start_ns));
            f.push_str(",\"cat\":\"dep\",\"name\":\"");
            escape_into(&mut f, d.stage);
            let _ = write!(f, "\",\"id\":{flow_id}}}");
            events.push(f);
        }
    }

    // Counters and gauges as counter samples at the end of the capture,
    // so the tracks render next to the span timeline.
    let end_ns = data
        .events
        .iter()
        .map(|e| e.end_ns())
        .max()
        .unwrap_or_default();
    for (kind, metrics) in [("counter", &data.counters), ("gauge", &data.gauges)] {
        for m in metrics.iter() {
            let mut ev = String::with_capacity(96);
            ev.push_str("{\"ph\":\"C\",\"pid\":");
            let _ = write!(ev, "{}", m.rank);
            let _ = write!(ev, ",\"tid\":{}", m.role.tid());
            let _ = write!(ev, ",\"ts\":{}", micros(end_ns));
            let _ = write!(ev, ",\"cat\":\"{kind}\",\"name\":\"");
            escape_into(&mut ev, m.name);
            let _ = write!(ev, "\",\"args\":{{\"value\":{}}}", m.value);
            ev.push('}');
            events.push(ev);
        }
    }

    let mut out = String::with_capacity(events.iter().map(|e| e.len() + 2).sum::<usize>() + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(ev);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// What [`validate`] extracts from a trace-event JSON document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceCheck {
    /// Number of `"ph":"X"` complete (span) events.
    pub span_events: usize,
    /// Number of `"ph":"s"` / `"ph":"f"` flow events (starts + finishes).
    pub flow_events: usize,
    /// Distinct `pid`s (ranks) observed on span events.
    pub ranks: Vec<u64>,
    /// Thread names announced by `thread_name` metadata events.
    pub thread_names: Vec<String>,
    /// Distinct span names observed.
    pub span_names: Vec<String>,
}

impl TraceCheck {
    /// True when a thread lane with this name was announced.
    pub fn has_thread(&self, name: &str) -> bool {
        self.thread_names.iter().any(|n| n == name)
    }

    /// True when at least one span with this name was recorded.
    pub fn has_span(&self, name: &str) -> bool {
        self.span_names.iter().any(|n| n == name)
    }
}

/// Parse a trace-event JSON document and check the invariants the
/// exporter promises: a `traceEvents` array whose `X` entries all carry
/// `ph`, `ts`, `dur`, `pid`, `tid` and `name`. Returns a summary of what
/// the trace contains, or a description of the first violation.
///
/// This uses the crate's own minimal JSON parser, so CI smoke tests and
/// the `tracereport` tool can validate captures without further
/// dependencies.
pub fn validate(json: &str) -> Result<TraceCheck, String> {
    let doc = json::parse(json)?;
    let obj = doc.as_object().ok_or("top level is not an object")?;
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut check = TraceCheck::default();
    for (i, ev) in events.iter().enumerate() {
        let ev = ev
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let field = |name: &str| -> Result<&json::Value, String> {
            ev.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("event {i} missing field {name}"))
        };
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("event {i}: ph is not a string"))?;
        // Every event kind carries pid, tid and name.
        let pid = field("pid")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: pid is not a number"))?;
        field("tid")?
            .as_f64()
            .ok_or_else(|| format!("event {i}: tid is not a number"))?;
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("event {i}: name is not a string"))?;
        match ph {
            "X" => {
                field("ts")?
                    .as_f64()
                    .ok_or_else(|| format!("event {i}: ts is not a number"))?;
                let dur = field("dur")?
                    .as_f64()
                    .ok_or_else(|| format!("event {i}: dur is not a number"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                check.span_events += 1;
                if !check.ranks.contains(&(pid as u64)) {
                    check.ranks.push(pid as u64);
                }
                if !check.span_names.iter().any(|n| n == name) {
                    check.span_names.push(name.to_string());
                }
            }
            "M" if name == "thread_name" => {
                let args = field("args")?
                    .as_object()
                    .ok_or_else(|| format!("event {i}: args is not an object"))?;
                let tname = args
                    .iter()
                    .find(|(k, _)| k == "name")
                    .and_then(|(_, v)| v.as_str())
                    .ok_or_else(|| format!("event {i}: thread_name missing args.name"))?;
                if !check.thread_names.iter().any(|n| n == tname) {
                    check.thread_names.push(tname.to_string());
                }
            }
            "s" | "f" => {
                // Flow events bind by id; an unbindable arrow is a bug.
                field("id")?
                    .as_f64()
                    .ok_or_else(|| format!("event {i}: flow id is not a number"))?;
                field("ts")?
                    .as_f64()
                    .ok_or_else(|| format!("event {i}: ts is not a number"))?;
                check.flow_events += 1;
            }
            "M" | "C" => {}
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    check.ranks.sort_unstable();
    check.span_names.sort_unstable();
    check.thread_names.sort_unstable();
    Ok(check)
}

/// Stage/metric names in a re-imported trace are interned (and leaked)
/// so they can live as the `&'static str`s [`TraceData`] carries. The
/// pool is deduplicated, so total leakage is bounded by the vocabulary —
/// dozens of short names, once per process.
fn intern(s: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(Vec::new()));
    let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(&hit) = pool.iter().find(|&&n| n == s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.push(leaked);
    leaked
}

/// Re-import an exported trace-event JSON document as a [`TraceData`],
/// the inverse of [`to_chrome_json`]: `X` events become span events
/// (with `index`/`bytes`/`dep_*` args restored), per-stage aggregates
/// are rebuilt from the spans, and `C` events become counters or gauges
/// according to their `cat`. Flow and metadata events carry no
/// information the spans don't, and are skipped.
///
/// This is what lets `tracereport` and [`crate::analysis`] run offline on
/// a trace file long after the run that produced it.
pub fn parse_trace(json: &str) -> Result<TraceData, String> {
    use crate::trace::{Hist, MetricStat, SpanDeps, SpanEvent, StageStat};
    use std::collections::BTreeMap;

    let doc = self::json::parse(json)?;
    let events_json = doc
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;

    let ns_of = |micros: f64| -> u64 { (micros * 1e3).round().max(0.0) as u64 };
    let mut data = TraceData::default();
    for (i, ev) in events_json.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let num = |field: &str| -> Result<f64, String> {
            ev.get(field)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("event {i}: missing numeric {field}"))
        };
        match ph {
            "X" => {
                let rank = num("pid")? as u32;
                let role = ThreadRole::from_tid(num("tid")? as u64).unwrap_or(ThreadRole::Other);
                let name = ev
                    .get("name")
                    .and_then(json::Value::as_str)
                    .ok_or_else(|| format!("event {i}: missing name"))?;
                let args = ev.get("args");
                let arg_num = |key: &str| -> Option<u64> {
                    args.and_then(|a| a.get(key))
                        .and_then(json::Value::as_f64)
                        .map(|v| v as u64)
                };
                let deps = args
                    .and_then(|a| a.get("dep_stage"))
                    .and_then(json::Value::as_str)
                    .map(|stage| SpanDeps {
                        stage: intern(stage),
                        lo: arg_num("dep_lo").unwrap_or(0),
                        hi: arg_num("dep_hi").unwrap_or(0),
                    });
                data.events.push(SpanEvent {
                    rank,
                    role,
                    name: intern(name),
                    start_ns: ns_of(num("ts")?),
                    dur_ns: ns_of(num("dur")?),
                    index: arg_num("index"),
                    bytes: arg_num("bytes"),
                    deps,
                });
            }
            "C" => {
                let rank = num("pid")? as u32;
                let role = ThreadRole::from_tid(num("tid")? as u64).unwrap_or(ThreadRole::Other);
                let name = ev
                    .get("name")
                    .and_then(json::Value::as_str)
                    .ok_or_else(|| format!("event {i}: missing name"))?;
                let value = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(json::Value::as_f64)
                    .ok_or_else(|| format!("event {i}: counter missing args.value"))?
                    as u64;
                let m = MetricStat {
                    rank,
                    role,
                    name: intern(name),
                    value,
                };
                match ev.get("cat").and_then(json::Value::as_str) {
                    Some("gauge") => data.gauges.push(m),
                    _ => data.counters.push(m),
                }
            }
            // Metadata and flow arrows are derived views of the spans.
            _ => {}
        }
    }

    // Rebuild the per-stage aggregates the exporter's source had.
    let mut aggs: BTreeMap<(u32, ThreadRole, &'static str), StageStat> = BTreeMap::new();
    for e in &data.events {
        let s = aggs
            .entry((e.rank, e.role, e.name))
            .or_insert_with(|| StageStat {
                rank: e.rank,
                role: e.role,
                name: e.name,
                count: 0,
                total_ns: 0,
                min_ns: 0,
                max_ns: 0,
                bytes: 0,
                hist: Hist::default(),
            });
        s.min_ns = if s.count == 0 {
            e.dur_ns
        } else {
            s.min_ns.min(e.dur_ns)
        };
        s.count += 1;
        s.total_ns += e.dur_ns;
        s.max_ns = s.max_ns.max(e.dur_ns);
        s.bytes += e.bytes.unwrap_or(0);
        s.hist.record(e.dur_ns);
    }
    data.stages = aggs.into_values().collect();
    data.events
        .sort_by_key(|e| (e.rank, e.role, e.start_ns, e.name, e.index));
    data.counters.sort_by_key(|m| (m.rank, m.role, m.name));
    data.gauges.sort_by_key(|m| (m.rank, m.role, m.name));
    Ok(data)
}

/// The workspace's one JSON reader (the writer is [`crate::jsonw`]).
///
/// Deliberately small: objects keep insertion order as `(key, value)`
/// pairs and numbers are finite `f64`s. Its input arrives from outside
/// the program (trace files, cached trajectories, gate arguments), so
/// nesting is capped at [`json::MAX_DEPTH`] and a literal that
/// overflows `f64` is an error, not `inf`.
pub mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, as ordered key/value pairs.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The `f64` if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The `&str` if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The elements if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }

        /// The key/value pairs if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(v) => Some(v),
                _ => None,
            }
        }

        /// Look a key up in an object.
        pub fn get(&self, key: &str) -> Option<&Value> {
            self.as_object()?
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Deepest array/object nesting [`parse`] accepts. The parser
    /// recurses once per level, so unbounded depth is a stack overflow —
    /// an abort no exit-code contract covers.
    pub const MAX_DEPTH: usize = 128;

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn eat(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!(
                    "expected {:?} at byte {}, found {:?}",
                    b as char,
                    self.pos,
                    self.peek().map(|c| c as char)
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.nested(Self::object),
                Some(b'[') => self.nested(Self::array),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|c| c as char),
                    self.pos
                )),
            }
        }

        /// Run a container parser one nesting level down.
        fn nested(
            &mut self,
            container: fn(&mut Self) -> Result<Value, String>,
        ) -> Result<Value, String> {
            if self.depth == MAX_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {}",
                    self.pos
                ));
            }
            self.depth += 1;
            let v = container(self);
            self.depth -= 1;
            v
        }

        fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while matches!(
                self.peek(),
                Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            ) {
                self.pos += 1;
            }
            // `"1e999".parse::<f64>()` is `Ok(inf)`: a non-finite value
            // would make every later comparison pass or fail vacuously.
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .filter(|n| n.is_finite())
                .map(Value::Num)
                .ok_or_else(|| format!("invalid or non-finite number at byte {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                if self.pos + 5 > self.bytes.len() {
                                    return Err("truncated \\u escape".into());
                                }
                                let hex =
                                    std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                        .map_err(|_| "bad \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                if (0xd800..0xdc00).contains(&code)
                                    && self.bytes.get(self.pos + 5) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 6) == Some(&b'u')
                                    && self.pos + 11 <= self.bytes.len()
                                {
                                    // A high surrogate followed by another
                                    // \u escape: try to combine the pair.
                                    let hex2 = std::str::from_utf8(
                                        &self.bytes[self.pos + 7..self.pos + 11],
                                    )
                                    .map_err(|_| "bad \\u escape".to_string())?;
                                    let low = u32::from_str_radix(hex2, 16)
                                        .map_err(|_| "bad \\u escape".to_string())?;
                                    if (0xdc00..0xe000).contains(&low) {
                                        let scalar =
                                            0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                        out.push(char::from_u32(scalar).unwrap_or('\u{fffd}'));
                                        self.pos += 10;
                                    } else {
                                        // Unpaired high surrogate.
                                        out.push('\u{fffd}');
                                        self.pos += 4;
                                    }
                                } else {
                                    // Lone surrogates have no scalar value;
                                    // everything else maps directly.
                                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                    self.pos += 4;
                                }
                            }
                            _ => return Err(format!("bad escape at byte {}", self.pos)),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Copy one UTF-8 character verbatim.
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| "invalid utf-8".to_string())?;
                        let c = rest.chars().next().expect("rest is non-empty");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.eat(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected , or ] at byte {}", self.pos)),
                }
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.eat(b'{')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(items));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                let value = self.value()?;
                items.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(items));
                    }
                    _ => return Err(format!("expected , or }} at byte {}", self.pos)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json::Value;
    use super::*;
    use crate::recorder::Recorder;

    fn synthetic_capture() -> TraceData {
        let rec = Recorder::trace();
        for rank in 0..2u32 {
            let filter = rec.track(rank, ThreadRole::Filter);
            for i in 0..3u64 {
                let mut sp = filter.span("load").with_index(i);
                sp.set_bytes(1024);
                drop(sp);
                let _f = filter.span("filter").with_index(i);
            }
            drop(filter);
            let main = rec.track(rank, ThreadRole::Main);
            {
                let _outer = main
                    .span("allgather")
                    .with_index(0)
                    .with_deps("filter", 0, 1);
                let _inner = main.span("send");
            }
            main.counter_add("ring.push_stalls", 4);
            main.gauge_max("ring.high_water", 7);
        }
        rec.collect()
    }

    #[test]
    fn json_parser_roundtrips_basic_values() {
        let v =
            json::parse(r#"{"a": [1, -2.5e1, "x\n\"yA"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-25.0)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("x\n\"yA")
        );
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert!(json::parse("[1, 2,]").is_err());
        assert!(json::parse("{\"a\" 1}").is_err());
        assert!(json::parse("123 45").is_err());
    }

    #[test]
    fn json_parser_bounds_nesting_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(json::parse(&nested(json::MAX_DEPTH)).is_ok());
        let err = json::parse(&nested(json::MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        // Objects count against the same budget, and an unclosed flood
        // of brackets is an error, not a stack overflow.
        let objects = "{\"a\":".repeat(json::MAX_DEPTH + 1);
        assert!(json::parse(&objects)
            .expect_err("too deep")
            .contains("nesting deeper"));
        assert!(json::parse(&"[".repeat(200_000)).is_err());
        // Depth is nesting, not container count.
        assert!(json::parse(&format!("[{}]", vec!["[]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn json_parser_rejects_non_finite_numbers() {
        for text in ["1e999", "-1e999", "[1, 1e400]"] {
            let err = json::parse(text).expect_err("non-finite literal");
            assert!(err.contains("non-finite number"), "{text}: {err}");
        }
        assert_eq!(json::parse("1e308").unwrap().as_f64(), Some(1e308));
        assert_eq!(json::parse("1e-999").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn export_is_valid_trace_event_json() {
        let data = synthetic_capture();
        let out = to_chrome_json(&data);
        let doc = json::parse(&out).expect("exporter emits parseable JSON");
        assert!(doc.get("traceEvents").is_some());
        let check = validate(&out).expect("trace-event invariants hold");
        // 2 ranks x (3 load + 3 filter + allgather + send) spans.
        assert_eq!(check.span_events, 16);
        // Each allgather depends on filter 0..=1: 2 arrows x 2 events x 2 ranks.
        assert_eq!(check.flow_events, 8);
        assert_eq!(check.ranks, vec![0, 1]);
        assert!(check.has_thread("filter"));
        assert!(check.has_thread("main"));
        assert!(!check.has_thread("backprojection"));
        for name in ["load", "filter", "allgather", "send"] {
            assert!(check.has_span(name), "missing span {name}");
        }
    }

    #[test]
    fn required_fields_present_on_every_span_event() {
        let data = synthetic_capture();
        let doc = json::parse(&to_chrome_json(&data)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let mut spans = 0;
        for ev in events {
            for f in ["ph", "pid", "tid", "name"] {
                assert!(ev.get(f).is_some(), "event missing {f}: {ev:?}");
            }
            if ev.get("ph").unwrap().as_str() == Some("X") {
                spans += 1;
                assert!(ev.get("ts").unwrap().as_f64().is_some());
                assert!(ev.get("dur").unwrap().as_f64().is_some());
            }
        }
        assert_eq!(spans, data.events.len());
    }

    #[test]
    fn span_args_carry_index_and_bytes() {
        let data = synthetic_capture();
        let doc = json::parse(&to_chrome_json(&data)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let load = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Value::as_str) == Some("X")
                    && e.get("name").and_then(Value::as_str) == Some("load")
            })
            .unwrap();
        let args = load.get("args").unwrap();
        assert_eq!(args.get("bytes").unwrap().as_f64(), Some(1024.0));
        assert!(args.get("index").unwrap().as_f64().is_some());
    }

    #[test]
    fn counters_and_gauges_become_counter_events() {
        let data = synthetic_capture();
        let doc = json::parse(&to_chrome_json(&data)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("C"))
            .collect();
        // Per rank: one counter + one gauge.
        assert_eq!(counters.len(), 4);
        let stall = counters
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("ring.push_stalls"))
            .unwrap();
        assert_eq!(
            stall.get("args").unwrap().get("value").unwrap().as_f64(),
            Some(4.0)
        );
    }

    #[test]
    fn thread_metadata_announces_one_lane_per_role() {
        let data = synthetic_capture();
        let doc = json::parse(&to_chrome_json(&data)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let lanes: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .map(|e| {
                (
                    e.get("pid").unwrap().as_f64().unwrap() as u32,
                    e.get("args")
                        .unwrap()
                        .get("name")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string(),
                )
            })
            .collect();
        // 2 ranks x (filter + main) lanes, each announced exactly once.
        assert_eq!(lanes.len(), 4);
        for rank in 0..2 {
            assert!(lanes.contains(&(rank, "filter".to_string())));
            assert!(lanes.contains(&(rank, "main".to_string())));
        }
    }

    #[test]
    fn empty_capture_exports_cleanly() {
        let out = to_chrome_json(&TraceData::default());
        let check = validate(&out).unwrap();
        assert_eq!(check.span_events, 0);
        assert!(check.ranks.is_empty());
    }

    #[test]
    fn validate_rejects_malformed_traces() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"traceEvents": 3}"#).is_err());
        assert!(validate(r#"{"traceEvents": [{"ph":"X"}]}"#).is_err());
        assert!(
            validate(r#"{"traceEvents": [{"ph":"X","pid":0,"tid":1,"name":"a","ts":0}]}"#).is_err(),
            "missing dur must be rejected"
        );
    }

    #[test]
    fn micros_keeps_nanosecond_resolution() {
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_500), "1.500");
        assert_eq!(micros(0), "0.000");
    }

    #[test]
    fn flow_events_pair_producers_with_consumers() {
        let data = synthetic_capture();
        let doc = json::parse(&to_chrome_json(&data)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let mut by_id: std::collections::BTreeMap<u64, Vec<&str>> = Default::default();
        for ev in events {
            let ph = ev.get("ph").and_then(Value::as_str).unwrap();
            if ph == "s" || ph == "f" {
                let id = ev.get("id").unwrap().as_f64().unwrap() as u64;
                assert_eq!(ev.get("cat").and_then(Value::as_str), Some("dep"));
                assert_eq!(ev.get("name").and_then(Value::as_str), Some("filter"));
                if ph == "f" {
                    assert_eq!(ev.get("bp").and_then(Value::as_str), Some("e"));
                }
                by_id
                    .entry(id)
                    .or_default()
                    .push(if ph == "s" { "s" } else { "f" });
            }
        }
        assert_eq!(by_id.len(), 4, "2 ranks x 2 producer arrows");
        for (id, phs) in by_id {
            assert_eq!(phs, vec!["s", "f"], "flow id {id} must pair start+finish");
        }
    }

    #[test]
    fn non_ascii_and_control_names_round_trip() {
        let mut data = TraceData::default();
        data.events.push(crate::trace::SpanEvent {
            rank: 0,
            role: ThreadRole::Other,
            name: "stage β→\t\"x\"\u{1F680}",
            start_ns: 10,
            dur_ns: 5,
            index: None,
            bytes: None,
            deps: None,
        });
        let out = to_chrome_json(&data);
        assert!(out.is_ascii(), "exporter must emit pure-ASCII JSON");
        let check = validate(&out).expect("escaped names stay valid");
        assert!(check.has_span("stage β→\t\"x\"\u{1F680}"));
        let parsed = parse_trace(&out).unwrap();
        assert_eq!(parsed.events[0].name, "stage β→\t\"x\"\u{1F680}");
    }

    #[test]
    fn parse_trace_round_trips_the_capture() {
        let data = synthetic_capture();
        let parsed = parse_trace(&to_chrome_json(&data)).unwrap();
        assert_eq!(parsed.structure(), data.structure());
        assert_eq!(parsed.events.len(), data.events.len());
        for (a, b) in parsed.events.iter().zip(data.events.iter()) {
            assert_eq!(a.start_ns, b.start_ns);
            assert_eq!(a.dur_ns, b.dur_ns);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.deps.map(|d| (d.lo, d.hi)), b.deps.map(|d| (d.lo, d.hi)));
            assert_eq!(a.deps.map(|d| d.stage), b.deps.map(|d| d.stage));
        }
        // Aggregates are rebuilt faithfully from the spans...
        assert_eq!(parsed.stages.len(), data.stages.len());
        for (a, b) in parsed.stages.iter().zip(data.stages.iter()) {
            assert_eq!((a.rank, a.role, a.name), (b.rank, b.role, b.name));
            assert_eq!(a.count, b.count);
            assert_eq!(a.total_ns, b.total_ns);
            assert_eq!(a.bytes, b.bytes);
        }
        // ...and metrics keep their kind and value.
        assert_eq!(parsed.counters, data.counters);
        assert_eq!(parsed.gauges, data.gauges);
    }

    #[test]
    fn parser_decodes_surrogate_pairs() {
        let v = json::parse(r#""🚀 ok é""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F680} ok \u{e9}"));
        let v = json::parse(r#""\ud83d\ude80 \u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F680} \u{e9}"));
        // Lone surrogates degrade to the replacement character.
        let v = json::parse(r#""\ud83d!""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd}!"));
        let v = json::parse(r#""\ud83dA""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd}A"));
    }

    #[test]
    fn validate_requires_flow_ids() {
        let good = r#"{"traceEvents": [{"ph":"s","pid":0,"tid":1,"ts":1,"name":"d","id":7}]}"#;
        assert_eq!(validate(good).unwrap().flow_events, 1);
        let bad = r#"{"traceEvents": [{"ph":"s","pid":0,"tid":1,"ts":1,"name":"d"}]}"#;
        assert!(validate(bad).is_err(), "flow event without id must fail");
    }
}
