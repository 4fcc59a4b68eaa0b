//! The JSON-lines wire protocol (and the minimal hand-rolled JSON it
//! needs — the workspace is std-only, so there is no serde).
//!
//! Every message is one JSON object per line. Requests carry an `op`:
//!
//! ```text
//! {"op":"alloc","id":3,"fn":"<lra_ir::textio text, JSON-escaped>"}
//! {"op":"alloc","id":4,"fn":"...","deadline_ms":250}
//! {"op":"alloc","id":5,"fn":"...","trace_id":"req-5","trace":true}
//! {"op":"stats","id":7}
//! {"op":"metrics","id":8}
//! {"op":"shutdown","id":9}
//! ```
//!
//! The optional `deadline_ms` is a relative wall-clock budget: the
//! server anchors it at parse time and sheds the request
//! (`"reason":"deadline_exceeded"`) if it is still queued when the
//! budget runs out. An optional `trace_id` string is echoed verbatim
//! in the request's response (alloc rows and rejections alike) so
//! callers can correlate pipelined traffic; `trace:true` additionally
//! asks the server to run the request with
//! [`lra_core::trace`] armed and return flat per-phase timing fields.
//!
//! Responses echo the request `id`:
//!
//! ```text
//! {"id":3,"ok":true,"function":"gzip::f0","spill_cost":12,"rounds":2,
//!  "stores":3,"loads":5,"converged":true,"verified":true}
//! {"id":5,"ok":true,...,"trace_id":"req-5","trace_total_us":812,
//!  "phase_allocate_us":301,...,"trace_rounds":2,"trace_fuel":100000,
//!  "trace_cache_hits":0,"trace_cache_misses":1}
//! {"id":3,"ok":false,"function":"gzip::f0","error":"..."}
//! {"id":3,"rejected":true,"reason":"queue_full"}
//! {"id":4,"rejected":true,"reason":"deadline_exceeded"}
//! {"id":7,"ok":true,"served":27,...}
//! ```
//!
//! The `metrics` op answers with a multi-line Prometheus text
//! exposition ([`crate::ServiceMetrics::render_prometheus`]) instead
//! of a JSON line, terminated by a `# EOF` line — the one deliberate
//! departure from one-object-per-line framing.
//!
//! The JSON subset implemented here is exactly what the protocol
//! uses: one flat object per line with string / integer / float /
//! bool / null values. Strings unescape `\" \\ \/ \b \f \n \r \t`
//! and non-surrogate `\uXXXX`.

use lra_core::batch::{ReportRow, RowStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON scalar. Numbers keep their raw text so integers round-trip
/// exactly (no f64 detour for `u64` counters).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A string value.
    Str(String),
    /// A number, kept as its raw token.
    Num(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
}

impl Json {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, if this is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Parses one flat JSON object line into its key → value map.
///
/// # Errors
///
/// Returns a description of the first syntax problem (including
/// nested arrays/objects, which the protocol never uses).
pub fn parse_object(line: &str) -> Result<BTreeMap<String, Json>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            map.insert(key, value);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing content after object".to_string());
    }
    Ok(map)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next().ok_or("unterminated string")? {
                b'"' => return Ok(out),
                b'\\' => match self.next().ok_or("truncated escape")? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        if self.pos + 4 > self.bytes.len() {
                            return Err("truncated \\u escape".to_string());
                        }
                        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                            .map_err(|_| "non-ASCII \\u escape")?;
                        self.pos += 4;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u{hex}"))?;
                        let c = char::from_u32(code)
                            .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                        out.push(c);
                    }
                    other => return Err(format!("unknown escape \\{}", other as char)),
                },
                // Multi-byte UTF-8: copy the raw bytes of this char.
                b if b >= 0x80 => {
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|n| n & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(s);
                }
                b => out.push(b as char),
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("missing value")? {
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true").map(|()| Json::Bool(true)),
            b'f' => self.literal("false").map(|()| Json::Bool(false)),
            b'n' => self.literal("null").map(|()| Json::Null),
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                self.pos += 1;
                while self.peek().is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-')
                }) {
                    self.pos += 1;
                }
                // The consumed bytes are all ASCII digits/signs, but a
                // wire parser never panics on principle: surface any
                // impossibility as a parse error instead.
                let tok = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-UTF-8 number token".to_string())?;
                // Validate: every number token must at least parse as f64.
                tok.parse::<f64>()
                    .map_err(|_| format!("bad number {tok:?}"))?;
                Ok(Json::Num(tok.to_string()))
            }
            b'{' | b'[' => Err("nested containers are not part of the protocol".to_string()),
            other => Err(format!("unexpected value start {:?}", other as char)),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected {word}"))
        }
    }
}

/// Builds the `alloc` request line for one function (already rendered
/// by [`lra_ir::textio::print`]).
pub fn alloc_request(id: u64, function_text: &str) -> String {
    alloc_request_deadline(id, function_text, None)
}

/// [`alloc_request`] with an optional relative deadline: with
/// `deadline_ms` set the request carries a wall-clock budget the
/// server anchors at parse time; past it, a still-queued request is
/// shed with [`RejectReason::DeadlineExceeded`] instead of served.
pub fn alloc_request_deadline(id: u64, function_text: &str, deadline_ms: Option<u64>) -> String {
    alloc_request_full(id, function_text, deadline_ms, None, false)
}

/// The fully-general `alloc` request builder: optional relative
/// deadline, optional correlation `trace_id` (echoed in the
/// response), optional `trace:true` (the response then carries flat
/// per-phase timing fields). [`alloc_request`] and
/// [`alloc_request_deadline`] are the common-case shorthands.
pub fn alloc_request_full(
    id: u64,
    function_text: &str,
    deadline_ms: Option<u64>,
    trace_id: Option<&str>,
    trace: bool,
) -> String {
    let mut line = format!(
        "{{\"op\":\"alloc\",\"id\":{id},\"fn\":\"{}\"",
        escape(function_text)
    );
    if let Some(ms) = deadline_ms {
        let _ = write!(line, ",\"deadline_ms\":{ms}");
    }
    if let Some(tid) = trace_id {
        let _ = write!(line, ",\"trace_id\":\"{}\"", escape(tid));
    }
    if trace {
        line.push_str(",\"trace\":true");
    }
    line.push('}');
    line
}

/// Builds a bare-op request line (`stats`, `metrics`, `shutdown`).
pub fn op_request(id: u64, op: &str) -> String {
    format!("{{\"op\":\"{}\",\"id\":{id}}}", escape(op))
}

/// Builds the response line for one completed request.
pub fn alloc_response(id: u64, row: &ReportRow) -> String {
    match &row.outcome {
        Ok(r) => format!(
            "{{\"id\":{id},\"ok\":true,\"function\":\"{}\",\"spill_cost\":{},\"rounds\":{},\"stores\":{},\"loads\":{},\"converged\":{},\"verified\":{},\"escalated\":{}}}",
            escape(&row.function),
            r.spill_cost,
            r.rounds,
            r.stores,
            r.loads,
            r.converged,
            r.verified,
            r.escalated
        ),
        Err(e) => format!(
            "{{\"id\":{id},\"ok\":false,\"function\":\"{}\",\"error\":\"{}\"}}",
            escape(&row.function),
            escape(e)
        ),
    }
}

/// [`alloc_response`] with the optional trace extensions: the
/// request's `trace_id` echoed verbatim, and — for a successful row
/// whose request asked `trace:true` — the per-phase timing report as
/// **flat** scalar fields (the protocol's parser rejects nested
/// containers by design): `trace_total_us`, one `phase_<name>_us`
/// self-time per [`lra_core::trace::Phase`], `trace_rounds`,
/// `trace_spill_delta`, `trace_fuel` (exact-solve fuel consumed: DP
/// masks plus search nodes, at most the grant), `trace_cache_hits` and
/// `trace_cache_misses`. Without either extension this is byte-for-
/// byte [`alloc_response`].
pub fn alloc_response_traced(
    id: u64,
    row: &ReportRow,
    trace_id: Option<&str>,
    trace: Option<&lra_core::trace::TraceReport>,
) -> String {
    let mut line = alloc_response(id, row);
    let mut extra = String::new();
    if let Some(tid) = trace_id {
        let _ = write!(extra, ",\"trace_id\":\"{}\"", escape(tid));
    }
    if let (Some(t), Ok(_)) = (trace, &row.outcome) {
        let _ = write!(extra, ",\"trace_total_us\":{}", t.total_self_ns() / 1_000);
        for phase in lra_core::trace::Phase::ALL {
            let _ = write!(
                extra,
                ",\"phase_{}_us\":{}",
                phase.name(),
                t.phase_self_us(phase)
            );
        }
        let _ = write!(
            extra,
            ",\"trace_rounds\":{},\"trace_spill_delta\":{},\"trace_fuel\":{},\
             \"trace_cache_hits\":{},\"trace_cache_misses\":{}",
            t.rounds,
            t.spill_delta,
            t.fuel,
            t.cache_hits(),
            t.cache_misses()
        );
    }
    if !extra.is_empty() {
        debug_assert!(line.ends_with('}'));
        line.pop();
        line.push_str(&extra);
        line.push('}');
    }
    line
}

/// Why the server shed a request instead of serving it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded request queue was full — backpressure; the request
    /// is safe to resubmit after a backoff.
    QueueFull,
    /// The request's `deadline_ms` budget ran out while it was still
    /// queued — resubmitting is pointless unless the caller extends
    /// the deadline.
    DeadlineExceeded,
}

impl RejectReason {
    /// The wire token carried in the `reason` field.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::DeadlineExceeded => "deadline_exceeded",
        }
    }

    fn from_wire(token: Option<&str>) -> Self {
        // Absent/unknown reasons read as backpressure: that was the
        // only rejection cause before reasons existed, so old servers
        // stay interpretable.
        match token {
            Some("deadline_exceeded") => RejectReason::DeadlineExceeded,
            _ => RejectReason::QueueFull,
        }
    }
}

/// Builds the load-shedding rejection line.
pub fn rejected_response(id: u64, reason: RejectReason) -> String {
    rejected_response_traced(id, reason, None)
}

/// [`rejected_response`] with the request's `trace_id` echoed, so a
/// pipelined caller can correlate sheds too (a shed request has no
/// timing to report — the pipeline never ran).
pub fn rejected_response_traced(id: u64, reason: RejectReason, trace_id: Option<&str>) -> String {
    let mut line = format!(
        "{{\"id\":{id},\"rejected\":true,\"reason\":\"{}\"",
        reason.as_str()
    );
    if let Some(tid) = trace_id {
        let _ = write!(line, ",\"trace_id\":\"{}\"", escape(tid));
    }
    line.push('}');
    line
}

/// Builds a protocol-error response (unparsable request, bad function
/// text, unknown op).
pub fn error_response(id: Option<u64>, msg: &str) -> String {
    match id {
        Some(id) => format!("{{\"id\":{id},\"ok\":false,\"error\":\"{}\"}}", escape(msg)),
        None => format!("{{\"ok\":false,\"error\":\"{}\"}}", escape(msg)),
    }
}

/// Decodes a response line back into `(id, ReportRow)`, or the
/// rejection/readiness variants the client loop handles.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A completed request's row.
    Row {
        /// Echoed request id.
        id: u64,
        /// The report row.
        row: ReportRow,
    },
    /// The request was shed; whether resubmitting can help depends on
    /// the reason.
    Rejected {
        /// Echoed request id.
        id: u64,
        /// Why the server shed it.
        reason: RejectReason,
    },
    /// A non-alloc reply (stats/shutdown acks) or a protocol error —
    /// the raw field map for the caller to pick over.
    Other {
        /// Echoed request id, when present.
        id: Option<u64>,
        /// The raw parsed fields.
        fields: BTreeMap<String, Json>,
    },
}

/// Parses one server response line.
///
/// # Errors
///
/// Returns a description when the line is not valid protocol JSON or
/// an `ok:true` row is missing a required column.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let fields = parse_object(line)?;
    let id = fields.get("id").and_then(Json::as_u64);
    if fields.get("rejected").and_then(Json::as_bool) == Some(true) {
        return Ok(Response::Rejected {
            id: id.ok_or("rejected response without id")?,
            reason: RejectReason::from_wire(fields.get("reason").and_then(Json::as_str)),
        });
    }
    let function = fields.get("function").and_then(Json::as_str);
    match (fields.get("ok").and_then(Json::as_bool), function) {
        (Some(true), Some(function)) => {
            let need = |k: &str| -> Result<u64, String> {
                fields
                    .get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("response missing {k}"))
            };
            let flag = |k: &str| -> Result<bool, String> {
                fields
                    .get(k)
                    .and_then(Json::as_bool)
                    .ok_or_else(|| format!("response missing {k}"))
            };
            Ok(Response::Row {
                id: id.ok_or("row response without id")?,
                row: ReportRow {
                    function: function.to_string(),
                    outcome: Ok(RowStats {
                        spill_cost: need("spill_cost")?,
                        rounds: need("rounds")? as u32,
                        stores: need("stores")? as usize,
                        loads: need("loads")? as usize,
                        converged: flag("converged")?,
                        verified: flag("verified")?,
                        escalated: flag("escalated")?,
                    }),
                },
            })
        }
        (Some(false), Some(function)) => Ok(Response::Row {
            id: id.ok_or("row response without id")?,
            row: ReportRow {
                function: function.to_string(),
                outcome: Err(fields
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string()),
            },
        }),
        _ => Ok(Response::Other { id, fields }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_round_trip() {
        let line = r#"{"op":"alloc","id":3,"fn":"fn f\nbb0: succs=-\nend\n","deep":null,"x":-1.5e3,"b":false}"#;
        let map = parse_object(line).unwrap();
        assert_eq!(map["op"].as_str(), Some("alloc"));
        assert_eq!(map["id"].as_u64(), Some(3));
        assert_eq!(map["fn"].as_str(), Some("fn f\nbb0: succs=-\nend\n"));
        assert_eq!(map["deep"], Json::Null);
        assert_eq!(map["b"].as_bool(), Some(false));
        assert_eq!(map["x"], Json::Num("-1.5e3".to_string()));
    }

    #[test]
    fn escape_and_unescape_agree() {
        let nasty = "a\"b\\c\nd\te\u{1}f ünicode 💡";
        let line = format!("{{\"s\":\"{}\"}}", escape(nasty));
        let map = parse_object(&line).unwrap();
        assert_eq!(map["s"].as_str(), Some(nasty));
    }

    #[test]
    fn malformed_objects_are_rejected() {
        for bad in [
            "",
            "{",
            "{}x",
            r#"{"a":}"#,
            r#"{"a":[1]}"#,
            r#"{"a":{"b":1}}"#,
            r#"{"a":truthy}"#,
            r#"{"a":"unterminated}"#,
            r#"{"a":1,}"#,
        ] {
            assert!(parse_object(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn alloc_responses_round_trip() {
        let ok = ReportRow {
            function: "jit::m0".to_string(),
            outcome: Ok(RowStats {
                spill_cost: 42,
                rounds: 3,
                stores: 7,
                loads: 9,
                converged: true,
                verified: true,
                escalated: false,
            }),
        };
        let err = ReportRow {
            function: "jit::m1".to_string(),
            outcome: Err("pipeline panicked: \"boom\"".to_string()),
        };
        for (id, row) in [(5u64, &ok), (6, &err)] {
            let line = alloc_response(id, row);
            match parse_response(&line).unwrap() {
                Response::Row { id: got, row: r } => {
                    assert_eq!(got, id);
                    assert_eq!(&r, row);
                }
                other => panic!("expected row, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejection_and_error_lines_parse() {
        match parse_response(&rejected_response(11, RejectReason::QueueFull)).unwrap() {
            Response::Rejected { id, reason } => {
                assert_eq!(id, 11);
                assert_eq!(reason, RejectReason::QueueFull);
            }
            other => panic!("{other:?}"),
        }
        match parse_response(&rejected_response(12, RejectReason::DeadlineExceeded)).unwrap() {
            Response::Rejected { id, reason } => {
                assert_eq!(id, 12);
                assert_eq!(reason, RejectReason::DeadlineExceeded);
            }
            other => panic!("{other:?}"),
        }
        // A reason-less rejection (pre-reason servers) reads as
        // backpressure.
        match parse_response(r#"{"id":13,"rejected":true}"#).unwrap() {
            Response::Rejected { id, reason } => {
                assert_eq!(id, 13);
                assert_eq!(reason, RejectReason::QueueFull);
            }
            other => panic!("{other:?}"),
        }
        match parse_response(&error_response(Some(2), "bad fn")).unwrap() {
            Response::Other { id, fields } => {
                assert_eq!(id, Some(2));
                assert_eq!(fields["error"].as_str(), Some("bad fn"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn request_builders_emit_single_lines() {
        let req = alloc_request(0, "fn f values=1 entry=0 params=-\nbb0: succs=-\nend\n");
        assert!(!req.contains('\n'));
        let map = parse_object(&req).unwrap();
        assert_eq!(map["op"].as_str(), Some("alloc"));
        assert!(map["fn"].as_str().unwrap().contains("bb0"));
        let map = parse_object(&op_request(1, "stats")).unwrap();
        assert_eq!(map["op"].as_str(), Some("stats"));
    }

    #[test]
    fn traced_requests_and_responses_stay_flat_and_parse() {
        let req = alloc_request_full(
            5,
            "fn f values=0 entry=0 params=-\nbb0: succs=-\nend\n",
            Some(100),
            Some("req-5"),
            true,
        );
        let map = parse_object(&req).unwrap();
        assert_eq!(map["trace_id"].as_str(), Some("req-5"));
        assert_eq!(map["trace"].as_bool(), Some(true));
        assert_eq!(map["deadline_ms"].as_u64(), Some(100));

        let row = ReportRow {
            function: "jit::m0".to_string(),
            outcome: Ok(RowStats {
                spill_cost: 42,
                rounds: 3,
                stores: 7,
                loads: 9,
                converged: true,
                verified: true,
                escalated: false,
            }),
        };
        // Without extensions, byte-identical to the plain builder.
        assert_eq!(
            alloc_response_traced(5, &row, None, None),
            alloc_response(5, &row)
        );
        let mut t = lra_core::trace::TraceReport::default();
        t.phases[lra_core::trace::Phase::Allocate as usize].self_ns = 301_000;
        t.phases[lra_core::trace::Phase::Allocate as usize].count = 3;
        t.rounds = 3;
        t.fuel = 100_000;
        t.shard_hits[2] = 1;
        let line = alloc_response_traced(5, &row, Some("req-5"), Some(&t));
        // The extended line is still one flat object the protocol
        // parser accepts, and the standard row survives intact.
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields["trace_id"].as_str(), Some("req-5"));
        assert_eq!(fields["phase_allocate_us"].as_u64(), Some(301));
        assert_eq!(fields["trace_total_us"].as_u64(), Some(301));
        assert_eq!(fields["trace_rounds"].as_u64(), Some(3));
        assert_eq!(fields["trace_fuel"].as_u64(), Some(100_000));
        assert_eq!(fields["trace_cache_hits"].as_u64(), Some(1));
        assert_eq!(fields["trace_cache_misses"].as_u64(), Some(0));
        match parse_response(&line).unwrap() {
            Response::Row { id, row: parsed } => {
                assert_eq!(id, 5);
                assert_eq!(parsed, row);
            }
            other => panic!("expected row, got {other:?}"),
        }
        // An error row echoes the trace_id but carries no timing (the
        // pipeline failed; there is nothing to attribute).
        let err = ReportRow {
            function: "jit::m1".to_string(),
            outcome: Err("boom".to_string()),
        };
        let line = alloc_response_traced(6, &err, Some("req-6"), Some(&t));
        let fields = parse_object(&line).unwrap();
        assert_eq!(fields["trace_id"].as_str(), Some("req-6"));
        assert!(!fields.contains_key("trace_total_us"));

        let rej = rejected_response_traced(7, RejectReason::QueueFull, Some("req-7"));
        let fields = parse_object(&rej).unwrap();
        assert_eq!(fields["trace_id"].as_str(), Some("req-7"));
        match parse_response(&rej).unwrap() {
            Response::Rejected { id, reason } => {
                assert_eq!((id, reason), (7, RejectReason::QueueFull));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deadline_requests_carry_the_budget() {
        let req = alloc_request_deadline(
            9,
            "fn f values=0 entry=0 params=-\nbb0: succs=-\nend\n",
            Some(250),
        );
        let map = parse_object(&req).unwrap();
        assert_eq!(map["deadline_ms"].as_u64(), Some(250));
        // Without a deadline the field is absent, keeping the wire
        // format of deadline-free clients unchanged.
        let bare = alloc_request(9, "fn f values=0 entry=0 params=-\nbb0: succs=-\nend\n");
        assert!(!parse_object(&bare).unwrap().contains_key("deadline_ms"));
    }
}
