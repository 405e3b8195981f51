//! Shared helpers for the figure-regeneration binaries and Criterion
//! benchmarks.
//!
//! Every binary in `src/bin/` regenerates one figure of the paper and prints
//! it as CSV on stdout (see README's "Figure reproduction" section);
//! `tests/figure_reproduction.rs` checks each figure's shape against the
//! paper's claims.  The Criterion benches in `benches/` measure the library
//! itself (kernels, pruning algorithms, planner) rather than the modelled
//! GPU times.

/// Prints a CSV header line.
pub fn csv_header(columns: &[&str]) {
    println!("{}", columns.join(","));
}

/// Formats a float with enough precision for the figures without drowning
/// the CSV in digits.
pub fn fmt(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints one CSV row of heterogeneous fields.
pub fn csv_row(fields: &[String]) {
    println!("{}", fields.join(","));
}

/// Minimal JSON emission (the workspace builds offline, so no serde): just
/// enough structure for machine-readable benchmark artifacts like
/// `BENCH_serving.json`.  Values are pre-rendered strings; the helpers only
/// handle quoting, escaping and composition.
pub mod json {
    /// A quoted, escaped JSON string literal.
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

    /// A JSON number; non-finite values (which JSON cannot represent)
    /// become `null`.
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// `[a,b,c]` from pre-rendered values.
    pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
        format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
    }

    /// `{"k":v,...}` from pre-rendered values (keys are escaped here).
    pub fn object(fields: &[(&str, String)]) -> String {
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}:{v}", string(k))).collect();
        format!("{{{}}}", body.join(","))
    }

    /// A parsed JSON value — just enough structure for the perf-regression
    /// gate to read benchmark artifacts back.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number (parsed as `f64`).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object field lookup; `None` on non-objects or missing keys.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The number inside, if any.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(v) => Some(*v),
                _ => None,
            }
        }

        /// The string inside, if any.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The array elements, if any.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// Deepest container nesting [`parse`] accepts.  The parser recurses
    /// per nesting level, so without a cap a hostile artifact of a few
    /// hundred kilobytes of `[` could overflow the stack; real benchmark
    /// reports nest a handful of levels.
    pub const MAX_PARSE_DEPTH: usize = 128;

    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else).  Containers may nest at most [`MAX_PARSE_DEPTH`] deep;
    /// `\uXXXX` escapes cover the full plane, including UTF-16 surrogate
    /// pairs (an unpaired surrogate parses as U+FFFD rather than failing
    /// the whole document).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                if depth >= MAX_PARSE_DEPTH {
                    return Err(format!("nesting deeper than {MAX_PARSE_DEPTH} at byte {}", *pos));
                }
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = parse_string(bytes, pos)?;
                    skip_ws(bytes, pos);
                    expect(bytes, pos, b':')?;
                    let value = parse_value(bytes, pos, depth + 1)?;
                    fields.push((key, value));
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                    }
                }
            }
            Some(b'[') => {
                if depth >= MAX_PARSE_DEPTH {
                    return Err(format!("nesting deeper than {MAX_PARSE_DEPTH} at byte {}", *pos));
                }
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(bytes, pos, depth + 1)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b't') if bytes[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if bytes[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'n') if bytes[*pos..].starts_with(b"null") => {
                *pos += 4;
                Ok(Value::Null)
            }
            Some(_) => {
                let start = *pos;
                while *pos < bytes.len()
                    && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    *pos += 1;
                }
                let token = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number");
                token
                    .parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| format!("invalid number {token:?} at byte {start}"))
            }
        }
    }

    /// Four hex digits starting at `start`, as a code unit.
    fn parse_hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
        let hex = bytes.get(start..start + 4).ok_or_else(|| "truncated \\u escape".to_string())?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err("bad \\u escape".to_string());
        }
        u32::from_str_radix(std::str::from_utf8(hex).expect("hex digits are ASCII"), 16)
            .map_err(|_| "bad \\u escape".to_string())
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let unit = parse_hex4(bytes, *pos + 1)?;
                            *pos += 4;
                            let c = if (0xD800..=0xDBFF).contains(&unit) {
                                // UTF-16 high surrogate: only a following
                                // low-surrogate escape completes it into a
                                // non-BMP scalar; anything else decodes the
                                // lone surrogate as U+FFFD (JSON cannot
                                // carry it, but one bad escape should not
                                // sink a whole benchmark artifact).
                                let low = (bytes.get(*pos + 1) == Some(&b'\\')
                                    && bytes.get(*pos + 2) == Some(&b'u'))
                                .then(|| parse_hex4(bytes, *pos + 3).ok())
                                .flatten()
                                .filter(|low| (0xDC00..=0xDFFF).contains(low));
                                match low {
                                    Some(low) => {
                                        *pos += 6;
                                        let code =
                                            0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                        char::from_u32(code).unwrap_or('\u{fffd}')
                                    }
                                    None => '\u{fffd}',
                                }
                            } else {
                                char::from_u32(unit).unwrap_or('\u{fffd}')
                            };
                            out.push(c);
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().expect("non-empty rest");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }
}

/// JSON run records for serving and cluster benchmark reports — the
/// `runs[]` elements of `BENCH_serving.json`-style artifacts the `compare`
/// gate reads back.  Shared between the `serving` binary and the round-trip
/// tests so the emitted and gated schemas cannot drift apart.
pub mod report {
    use crate::json;
    use tw_cluster::ClusterReport;
    use tw_serve::{ClassStats, ServeReport};

    fn class_rows(classes: &[ClassStats]) -> String {
        json::array(classes.iter().map(|c| {
            json::object(&[
                ("name", json::string(&c.name)),
                ("completed", c.completed.to_string()),
                ("shed", c.shed.to_string()),
                ("good", c.good.to_string()),
                ("p50_ms", json::number(c.latency.p50_s * 1e3)),
                ("p99_ms", json::number(c.latency.p99_s * 1e3)),
            ])
        }))
    }

    fn model_rows(models: &[tw_serve::ModelStats]) -> String {
        json::array(models.iter().map(|m| {
            json::object(&[
                ("name", json::string(&m.name)),
                ("completed", m.completed.to_string()),
                ("cold", m.cold.to_string()),
                ("tile_hit_rate", json::number(m.tile_hit_rate())),
                ("bytes_paged", m.bytes_paged.to_string()),
                ("warm_p99_ms", json::number(m.warm_latency.p99_s * 1e3)),
                ("cold_p99_ms", json::number(m.cold_latency.p99_s * 1e3)),
            ])
        }))
    }

    /// One single-server run.  `scenario`, `backend` and `workers` are the
    /// key the perf-regression gate matches runs by.
    pub fn serve_run(
        scenario: &str,
        backend: &str,
        workers: usize,
        report: &ServeReport,
    ) -> String {
        let mut fields = vec![
            ("scenario", json::string(scenario)),
            ("backend", json::string(backend)),
            ("plan", json::array(report.backend_plan.iter().map(|p| json::string(p)))),
            ("modelled_plan", json::array(report.modelled_plan.iter().map(|p| json::string(p)))),
            ("workers", workers.to_string()),
            ("requests", report.completed.to_string()),
            ("shed", report.shed.to_string()),
            ("throughput_rps", json::number(report.throughput_rps())),
            ("goodput_rps", json::number(report.goodput_rps())),
            ("p50_ms", json::number(report.latency.p50_s * 1e3)),
            ("p95_ms", json::number(report.latency.p95_s * 1e3)),
            ("p99_ms", json::number(report.latency.p99_s * 1e3)),
            ("mean_batch", json::number(report.mean_batch_size())),
            ("sim_gpu_s", json::number(report.sim_gpu_s)),
            ("classes", class_rows(&report.classes)),
        ];
        if !report.models.is_empty() {
            fields.push(("bytes_paged", report.bytes_paged.to_string()));
            fields.push(("transfer_sim_s", json::number(report.transfer_sim_s)));
            fields.push(("models", model_rows(&report.models)));
        }
        json::object(&fields)
    }

    /// One cluster run, gate-compatible: the gate key is
    /// `(scenario, backend, total workers)` with `backend` supplied by the
    /// caller (`cluster-<balancer>`, or `mmN-cluster-<balancer>` for
    /// multi-model runs so paging fleets never share a baseline entry with
    /// single-model ones), and the record adds balance skew, scale events
    /// and one row per replica.
    pub fn cluster_run(scenario: &str, backend: &str, report: &ClusterReport) -> String {
        let replicas = json::array(report.replicas.iter().map(|r| {
            json::object(&[
                ("name", json::string(&r.name)),
                ("device", json::string(&r.device)),
                ("workers", r.report.workers.len().to_string()),
                ("plan", json::array(r.report.backend_plan.iter().map(|p| json::string(p)))),
                ("routed", r.routed.to_string()),
                ("completed", r.report.completed.to_string()),
                ("shed", r.report.shed.to_string()),
                ("p99_ms", json::number(r.report.latency.p99_s * 1e3)),
            ])
        }));
        let total_workers: usize = report.replicas.iter().map(|r| r.report.workers.len()).sum();
        let mut fields = vec![
            ("scenario", json::string(scenario)),
            ("backend", json::string(backend)),
            ("balancer", json::string(&report.balancer)),
            ("workers", total_workers.to_string()),
            ("requests", report.completed.to_string()),
            ("shed", report.shed.to_string()),
            ("throughput_rps", json::number(report.throughput_rps())),
            ("goodput_rps", json::number(report.goodput_rps())),
            ("p50_ms", json::number(report.latency.p50_s * 1e3)),
            ("p95_ms", json::number(report.latency.p95_s * 1e3)),
            ("p99_ms", json::number(report.latency.p99_s * 1e3)),
            ("mean_batch", json::number(report.mean_batch_size())),
            ("sim_gpu_s", json::number(report.sim_gpu_s())),
            ("balance_skew", json::number(report.balance_skew())),
            ("scale_events", json::array(report.scale_events.iter().map(|e| json::string(e)))),
            ("classes", class_rows(&report.classes)),
            ("replicas", replicas),
        ];
        if !report.models.is_empty() {
            fields.push(("bytes_paged", report.bytes_paged().to_string()));
            fields.push(("models", model_rows(&report.models)));
        }
        json::object(&fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(0.123456), "0.1235");
        assert_eq!(fmt(1234.5678), "1234.57");
        assert_eq!(fmt(-0.5), "-0.5000");
    }

    #[test]
    fn json_composition_and_escaping() {
        assert_eq!(json::string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json::number(1.5), "1.5");
        assert_eq!(json::number(f64::NAN), "null");
        let obj = json::object(&[
            ("name", json::string("tw")),
            ("workers", "2".to_string()),
            ("plan", json::array(["tile-wise", "csr"].map(json::string))),
        ]);
        assert_eq!(obj, r#"{"name":"tw","workers":2,"plan":["tile-wise","csr"]}"#);
    }

    #[test]
    fn json_parse_round_trips_emitted_documents() {
        let doc = json::object(&[
            ("benchmark", json::string("serving")),
            ("throughput_rps", json::number(1234.5)),
            ("nan", json::number(f64::NAN)),
            ("ok", "true".to_string()),
            (
                "runs",
                json::array(vec![
                    json::object(&[("workers", "2".to_string())]),
                    json::object(&[("workers", "4".to_string())]),
                ]),
            ),
        ]);
        let parsed = json::parse(&doc).expect("round trip");
        assert_eq!(parsed.get("benchmark").unwrap().as_str(), Some("serving"));
        assert_eq!(parsed.get("throughput_rps").unwrap().as_f64(), Some(1234.5));
        assert_eq!(parsed.get("nan"), Some(&json::Value::Null));
        assert_eq!(parsed.get("ok"), Some(&json::Value::Bool(true)));
        let runs = parsed.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("workers").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn json_parse_handles_escapes_whitespace_and_errors() {
        let v = json::parse(" {\n  \"a\\n\\\"b\" : [1, -2.5e1, null] }\n").unwrap();
        let arr = v.get("a\n\"b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(json::parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        assert!(json::parse("{\"a\":1,}").is_err());
        assert!(json::parse("[1, 2] trailing").is_err());
        assert!(json::parse("").is_err());
        assert!(json::parse("{\"unterminated").is_err());
    }

    #[test]
    fn json_parse_decodes_surrogate_pairs_and_survives_lone_surrogates() {
        // A non-BMP scalar escaped the UTF-16 way round-trips to one char.
        assert_eq!(json::parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
        // Lone or mispaired surrogates decode as U+FFFD instead of sinking
        // the document.
        assert_eq!(json::parse("\"\\ud83dx\"").unwrap().as_str(), Some("\u{fffd}x"));
        assert_eq!(json::parse("\"a\\ud83d\"").unwrap().as_str(), Some("a\u{fffd}"));
        assert_eq!(
            json::parse("\"\\ud83d\\u0041\"").unwrap().as_str(),
            Some("\u{fffd}A"),
            "a high surrogate followed by a BMP escape keeps both"
        );
        // A lone *low* surrogate is equally unrepresentable.
        assert_eq!(json::parse("\"\\ude00\"").unwrap().as_str(), Some("\u{fffd}"));
        // Truncated and non-hex escapes are still hard errors.
        assert!(json::parse("\"\\u00\"").is_err());
        assert!(json::parse("\"\\uzzzz\"").is_err());
        // Raw (unescaped) non-BMP output from json::string round-trips too.
        let doc = json::string("emoji 🚀 and text");
        assert_eq!(json::parse(&doc).unwrap().as_str(), Some("emoji 🚀 and text"));
    }

    #[test]
    fn json_parse_caps_container_nesting() {
        let nested = |depth: usize| format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        // Comfortably deep documents parse...
        assert!(json::parse(&nested(json::MAX_PARSE_DEPTH)).is_ok());
        // ...one past the cap is a clean error...
        let err = json::parse(&nested(json::MAX_PARSE_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // ...and a hostile megabyte of '[' cannot blow the stack (this is
        // the case the cap exists for — unterminated, pure recursion bait).
        assert!(json::parse(&"[".repeat(1_000_000)).is_err());
        let mixed = "{\"a\":".repeat(500_000) + "1" + &"}".repeat(500_000);
        assert!(json::parse(&mixed).is_err());
    }

    #[test]
    fn serve_run_record_round_trips_through_parse() {
        use std::time::Duration;
        use tw_serve::{ClassPolicy, RunObservation, ServeReport, ShedReason, ShedRecord};
        let classes = vec![
            ClassPolicy::with_deadline("interactive", Duration::from_millis(50)),
            ClassPolicy::best_effort("batch"),
        ];
        let observations = vec![
            RunObservation {
                class: 0,
                model: 0,
                cold: false,
                latency_s: 0.010,
                deadline_met: Some(true),
            },
            RunObservation {
                class: 1,
                model: 0,
                cold: false,
                latency_s: 0.200,
                deadline_met: None,
            },
            RunObservation {
                class: 1,
                model: 0,
                cold: false,
                latency_s: 0.300,
                deadline_met: None,
            },
        ];
        let shed = vec![ShedRecord { id: 9, class: 0, reason: ShedReason::Deadline }];
        let report = ServeReport::from_observations(
            &observations,
            &shed,
            &classes,
            &[],
            Duration::from_secs(2),
            Vec::new(),
        )
        .with_backend_plan(
            vec!["tile-wise".into(), "csr".into()],
            vec!["bsr".into(), "csr".into()],
        );

        let doc = report::serve_run("bursty", "auto", 2, &report);
        let parsed = json::parse(&doc).expect("emitted record parses");
        assert_eq!(parsed.get("scenario").unwrap().as_str(), Some("bursty"));
        assert_eq!(parsed.get("backend").unwrap().as_str(), Some("auto"));
        assert_eq!(parsed.get("workers").unwrap().as_f64(), Some(2.0));
        assert_eq!(parsed.get("requests").unwrap().as_f64(), Some(3.0));
        assert_eq!(parsed.get("shed").unwrap().as_f64(), Some(1.0));
        assert_eq!(parsed.get("throughput_rps").unwrap().as_f64(), Some(report.throughput_rps()));
        assert_eq!(
            parsed.get("p99_ms").unwrap().as_f64(),
            Some(report.latency.p99_s * 1e3),
            "the gate's p99 survives the round trip exactly"
        );
        let plan = parsed.get("plan").unwrap().as_arr().unwrap();
        assert_eq!(plan[1].as_str(), Some("csr"));
        let modelled_plan = parsed.get("modelled_plan").unwrap().as_arr().unwrap();
        assert_eq!(modelled_plan[0].as_str(), Some("bsr"));
        let class_rows = parsed.get("classes").unwrap().as_arr().unwrap();
        assert_eq!(class_rows.len(), 2);
        assert_eq!(class_rows[0].get("name").unwrap().as_str(), Some("interactive"));
        assert_eq!(class_rows[0].get("good").unwrap().as_f64(), Some(1.0));
        assert_eq!(class_rows[1].get("completed").unwrap().as_f64(), Some(2.0));
    }

    #[test]
    fn cluster_run_record_round_trips_through_parse() {
        use std::time::Duration;
        use tw_cluster::{ClusterReport, ReplicaReport};
        use tw_serve::{LatencySummary, ServeReport, WorkerStats};
        let replica = |name: &str, workers: usize, completed: usize| ReplicaReport {
            name: name.into(),
            device: "a100".into(),
            routed: completed,
            report: ServeReport::from_latencies(
                vec![0.01; completed],
                Duration::from_secs(1),
                vec![WorkerStats::default(); workers],
            )
            .with_backend_plan(vec!["bsr".into(), "bsr".into()], vec!["bsr".into(), "bsr".into()]),
        };
        let report = ClusterReport {
            balancer: "jsq".into(),
            issued: 30,
            completed: 30,
            shed: 0,
            wall: Duration::from_secs(1),
            latency: LatencySummary::from_samples(vec![0.01; 30]),
            classes: Vec::new(),
            models: Vec::new(),
            replicas: vec![replica("r0", 4, 20), replica("r1", 1, 10)],
            scale_events: vec!["+auto-1 at submission 12 (fleet depth 40, 3 live)".into()],
        };

        let doc = report::cluster_run("bursty", "cluster-jsq", &report);
        let parsed = json::parse(&doc).expect("emitted record parses");
        assert_eq!(parsed.get("backend").unwrap().as_str(), Some("cluster-jsq"));
        assert_eq!(parsed.get("balancer").unwrap().as_str(), Some("jsq"));
        assert_eq!(parsed.get("workers").unwrap().as_f64(), Some(5.0), "fleet total");
        assert_eq!(parsed.get("requests").unwrap().as_f64(), Some(30.0));
        assert_eq!(parsed.get("balance_skew").unwrap().as_f64(), Some(report.balance_skew()));
        let replicas = parsed.get("replicas").unwrap().as_arr().unwrap();
        assert_eq!(replicas.len(), 2);
        assert_eq!(replicas[0].get("name").unwrap().as_str(), Some("r0"));
        assert_eq!(replicas[0].get("device").unwrap().as_str(), Some("a100"));
        assert_eq!(replicas[1].get("routed").unwrap().as_f64(), Some(10.0));
        let events = parsed.get("scale_events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].as_str().unwrap().starts_with("+auto-1"));
        // The gate key fields exist with the same names as serve records,
        // so `compare` consumes both artifact kinds unchanged.
        for key in ["scenario", "backend", "workers", "throughput_rps", "p99_ms"] {
            assert!(parsed.get(key).is_some(), "gate field {key} missing");
        }
    }
}
