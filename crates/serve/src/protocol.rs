//! The `charm-serve/1` wire protocol (DESIGN.md §17).
//!
//! Line-oriented JSONL over TCP in the restricted dialect of
//! [`charm_obs::json`] — strings, numbers, and string-keyed objects
//! only, one object per line. A connection opens with a versioned
//! `hello` exchange; after that the client issues requests (`submit`,
//! `status`, `cancel`, `result`) and the server answers each with one
//! response object or, for campaign streams, a sequence of `head` /
//! `record` / `counter` lines closed by a terminal `done` or `failed`.
//!
//! Both directions are implemented here — [`Request`] is what clients
//! send, [`Event`] what servers send — with symmetric `render`/`parse`
//! so the daemon, the load generator and the tests all speak through
//! one codec. Record payloads are verbatim `records.csv` data rows (see
//! `RawRecord::csv_row`), which is what makes "streamed campaign ≡
//! archived campaign" a byte-for-byte contract rather than a
//! same-numbers-after-parsing one.

use charm_obs::json::{self, Object, Value};

/// The protocol identifier exchanged in the `hello` handshake. Bump the
/// suffix on any incompatible change; servers refuse other versions.
pub(crate) const PROTOCOL: &str = "charm-serve/1";

/// Why a submission was refused at admission (the `reason` field of a
/// `rejected` response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue is full; retry later.
    QueueFull,
    /// The tenant already runs its maximum number of concurrent jobs.
    QuotaJobs,
    /// The tenant exhausted its plan-row budget for the current window.
    QuotaRows,
    /// The plan/spec did not compile or resolve (or asks for something
    /// the service refuses, e.g. an external-engine target).
    BadPlan,
    /// The request itself was malformed (missing fields, bad values).
    BadRequest,
}

impl RejectReason {
    /// Wire token for the reason.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::QuotaJobs => "quota_jobs",
            RejectReason::QuotaRows => "quota_rows",
            RejectReason::BadPlan => "bad_plan",
            RejectReason::BadRequest => "bad_request",
        }
    }

    fn parse(raw: &str) -> Option<RejectReason> {
        Some(match raw {
            "queue_full" => RejectReason::QueueFull,
            "quota_jobs" => RejectReason::QuotaJobs,
            "quota_rows" => RejectReason::QuotaRows,
            "bad_plan" => RejectReason::BadPlan,
            "bad_request" => RejectReason::BadRequest,
            _ => return None,
        })
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a served campaign's records came from (the `source` field of
/// `accepted` and `done`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Measured by the engine for this submission.
    Engine,
    /// Served from the content-addressed archive without engine work.
    Archive,
    /// Measured, resuming from checkpoint segments an interrupted
    /// earlier run of the same campaign left behind.
    Resume,
}

impl Source {
    /// Wire token for the source.
    pub fn as_str(&self) -> &'static str {
        match self {
            Source::Engine => "engine",
            Source::Archive => "archive",
            Source::Resume => "resume",
        }
    }

    fn parse(raw: &str) -> Option<Source> {
        Some(match raw {
            "engine" => Source::Engine,
            "archive" => Source::Archive,
            "resume" => Source::Resume,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Source {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a submission's plan text is to be interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// The experiment-design DSL (`factor … replicates … order …`);
    /// the `platform` field names the target.
    Dsl,
    /// A `charm-spec/1` benchmark spec (TOML); the spec carries its own
    /// `[target]` table.
    Spec,
}

/// A client request, one JSON object per line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the connection: protocol version plus the tenant the
    /// connection's submissions are accounted to.
    Hello {
        /// Must equal the protocol version, `charm-serve/1`.
        proto: String,
        /// Client-supplied tenant ID (quota accounting key).
        tenant: String,
    },
    /// Submits a campaign plan for execution (or archive service).
    Submit {
        /// How to interpret `plan`.
        kind: PlanKind,
        /// The plan text (DSL) or spec text (TOML).
        plan: String,
        /// Target platform name (DSL mode only; ignored for specs).
        platform: String,
        /// Stream/shuffle seed (same role as `run_campaign --seed`).
        seed: u64,
        /// Requested shard count; the service takes it literally.
        shards: u64,
        /// Attach an observer and stream `counter` lines after the
        /// records. Observed jobs never resume from checkpoints.
        observe: bool,
    },
    /// Asks for the service counters and per-tenant tallies.
    Status,
    /// Requests cooperative cancellation of a job by ID (usually from a
    /// second connection — the submitting one is busy streaming).
    Cancel {
        /// The job ID from the `accepted` response.
        job: String,
    },
    /// Streams an already-archived run by ID.
    Result {
        /// The 32-hex run ID.
        run_id: String,
    },
}

impl Request {
    /// Renders the request as one JSONL line (no trailing newline).
    pub(crate) fn render(&self) -> String {
        match self {
            Request::Hello { proto, tenant } => obj(&[
                ("type", json::string("hello")),
                ("proto", json::string(proto)),
                ("tenant", json::string(tenant)),
            ]),
            Request::Submit { kind, plan, platform, seed, shards, observe } => {
                let kind = match kind {
                    PlanKind::Dsl => "dsl",
                    PlanKind::Spec => "spec",
                };
                obj(&[
                    ("type", json::string("submit")),
                    ("kind", json::string(kind)),
                    ("plan", json::string(plan)),
                    ("platform", json::string(platform)),
                    ("seed", seed.to_string()),
                    ("shards", shards.to_string()),
                    ("observe", json::string(if *observe { "true" } else { "false" })),
                ])
            }
            Request::Status => obj(&[("type", json::string("status"))]),
            Request::Cancel { job } => {
                obj(&[("type", json::string("cancel")), ("job", json::string(job))])
            }
            Request::Result { run_id } => {
                obj(&[("type", json::string("result")), ("run_id", json::string(run_id))])
            }
        }
    }

    /// Parses one request line.
    pub(crate) fn parse(line: &str) -> Result<Request, String> {
        let o = json::parse_object(line)?;
        let ty = o.get_str("type").ok_or("request lacks a \"type\" field")?;
        match ty {
            "hello" => Ok(Request::Hello {
                proto: req_str(&o, "proto")?,
                tenant: o.get_str("tenant").unwrap_or("anon").to_string(),
            }),
            "submit" => {
                let kind = match o.get_str("kind").unwrap_or("dsl") {
                    "dsl" => PlanKind::Dsl,
                    "spec" => PlanKind::Spec,
                    other => return Err(format!("unknown plan kind {other:?}")),
                };
                Ok(Request::Submit {
                    kind,
                    plan: req_str(&o, "plan")?,
                    platform: o.get_str("platform").unwrap_or_default().to_string(),
                    seed: o.get_u64("seed").unwrap_or(0),
                    shards: o.get_u64("shards").unwrap_or(1).max(1),
                    observe: o.get_str("observe") == Some("true"),
                })
            }
            "status" => Ok(Request::Status),
            "cancel" => Ok(Request::Cancel { job: req_str(&o, "job")? }),
            "result" => Ok(Request::Result { run_id: req_str(&o, "run_id")? }),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

/// A server response line. Campaign streams are sequences of `Head`,
/// `Record` and `Counter` events closed by exactly one `Done` or
/// `Failed`.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Handshake answer.
    Hello {
        /// Echoes the protocol version, `charm-serve/1`.
        proto: String,
        /// Server software identifier.
        server: String,
    },
    /// A submission was refused at admission; no stream follows.
    Rejected {
        /// Machine-readable reason.
        reason: RejectReason,
        /// Human-readable detail.
        detail: String,
    },
    /// A submission was admitted; a stream follows.
    Accepted {
        /// Job ID (cancellation handle).
        job: String,
        /// Content-addressed run ID the campaign archives under.
        run_id: String,
        /// Where the records will come from.
        source: Source,
        /// Plan rows the stream will carry.
        rows: u64,
    },
    /// The stream's header row (factor columns plus the fixed columns).
    Head {
        /// Owning job ID.
        job: String,
        /// The `records.csv` header line.
        columns: String,
    },
    /// One streamed measurement, as a verbatim `records.csv` data row.
    Record {
        /// Owning job ID.
        job: String,
        /// The CSV data row.
        row: String,
    },
    /// One observability counter (observed jobs, after the records).
    Counter {
        /// Owning job ID.
        job: String,
        /// Counter key.
        key: String,
        /// Counter value.
        value: u64,
    },
    /// Terminal: the campaign completed and was archived.
    Done {
        /// Owning job ID.
        job: String,
        /// The archived run ID.
        run_id: String,
        /// Records streamed.
        records: u64,
        /// Where the records came from.
        source: Source,
    },
    /// Terminal: the campaign did not complete.
    Failed {
        /// Owning job ID.
        job: String,
        /// `cancelled` for cooperative cancellation, `error` otherwise.
        reason: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Answer to `status`: counters plus per-tenant tallies.
    Status {
        /// `serve.*` counters, sorted by key.
        counters: Vec<(String, u64)>,
        /// Per-tenant tallies, sorted by tenant.
        tenants: Vec<(String, Vec<(String, u64)>)>,
    },
    /// Answer to `cancel`.
    CancelOk {
        /// The job the cancel addressed.
        job: String,
        /// `cancelled`, `finished` (too late), or `unknown`.
        state: String,
    },
    /// A request-level error (bad line, unknown run ID); the connection
    /// stays open.
    Error {
        /// What went wrong.
        detail: String,
    },
}

impl Event {
    /// Renders the event as one JSONL line (no trailing newline).
    pub(crate) fn render(&self) -> String {
        match self {
            Event::Hello { proto, server } => obj(&[
                ("type", json::string("hello")),
                ("proto", json::string(proto)),
                ("server", json::string(server)),
            ]),
            Event::Rejected { reason, detail } => obj(&[
                ("type", json::string("rejected")),
                ("reason", json::string(reason.as_str())),
                ("detail", json::string(detail)),
            ]),
            Event::Accepted { job, run_id, source, rows } => obj(&[
                ("type", json::string("accepted")),
                ("job", json::string(job)),
                ("run_id", json::string(run_id)),
                ("source", json::string(source.as_str())),
                ("rows", rows.to_string()),
            ]),
            Event::Head { job, columns } => obj(&[
                ("type", json::string("head")),
                ("job", json::string(job)),
                ("columns", json::string(columns)),
            ]),
            Event::Record { job, row } => obj(&[
                ("type", json::string("record")),
                ("job", json::string(job)),
                ("row", json::string(row)),
            ]),
            Event::Counter { job, key, value } => obj(&[
                ("type", json::string("counter")),
                ("job", json::string(job)),
                ("key", json::string(key)),
                ("value", value.to_string()),
            ]),
            Event::Done { job, run_id, records, source } => obj(&[
                ("type", json::string("done")),
                ("job", json::string(job)),
                ("run_id", json::string(run_id)),
                ("records", records.to_string()),
                ("source", json::string(source.as_str())),
            ]),
            Event::Failed { job, reason, detail } => obj(&[
                ("type", json::string("failed")),
                ("job", json::string(job)),
                ("reason", json::string(reason)),
                ("detail", json::string(detail)),
            ]),
            Event::Status { counters, tenants } => {
                let counters = counters
                    .iter()
                    .map(|(k, v)| format!("{}: {v}", json::string(k)))
                    .collect::<Vec<_>>()
                    .join(", ");
                let tenants = tenants
                    .iter()
                    .map(|(t, fields)| {
                        let fields = fields
                            .iter()
                            .map(|(k, v)| format!("{}: {v}", json::string(k)))
                            .collect::<Vec<_>>()
                            .join(", ");
                        format!("{}: {{{fields}}}", json::string(t))
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "{{\"type\": \"status\", \"counters\": {{{counters}}}, \
                     \"tenants\": {{{tenants}}}}}"
                )
            }
            Event::CancelOk { job, state } => obj(&[
                ("type", json::string("cancel_ok")),
                ("job", json::string(job)),
                ("state", json::string(state)),
            ]),
            Event::Error { detail } => {
                obj(&[("type", json::string("error")), ("detail", json::string(detail))])
            }
        }
    }

    /// Parses one event line.
    pub fn parse(line: &str) -> Result<Event, String> {
        let o = json::parse_object(line)?;
        let ty = o.get_str("type").ok_or("event lacks a \"type\" field")?;
        match ty {
            "hello" => Ok(Event::Hello {
                proto: req_str(&o, "proto")?,
                server: o.get_str("server").unwrap_or_default().to_string(),
            }),
            "rejected" => Ok(Event::Rejected {
                reason: RejectReason::parse(o.get_str("reason").unwrap_or_default())
                    .ok_or("unknown rejection reason")?,
                detail: o.get_str("detail").unwrap_or_default().to_string(),
            }),
            "accepted" => Ok(Event::Accepted {
                job: req_str(&o, "job")?,
                run_id: req_str(&o, "run_id")?,
                source: Source::parse(o.get_str("source").unwrap_or_default())
                    .ok_or("unknown source")?,
                rows: o.get_u64("rows").unwrap_or(0),
            }),
            "head" => {
                Ok(Event::Head { job: req_str(&o, "job")?, columns: req_str(&o, "columns")? })
            }
            "record" => Ok(Event::Record { job: req_str(&o, "job")?, row: req_str(&o, "row")? }),
            "counter" => Ok(Event::Counter {
                job: req_str(&o, "job")?,
                key: req_str(&o, "key")?,
                value: o.get_u64("value").unwrap_or(0),
            }),
            "done" => Ok(Event::Done {
                job: req_str(&o, "job")?,
                run_id: req_str(&o, "run_id")?,
                records: o.get_u64("records").unwrap_or(0),
                source: Source::parse(o.get_str("source").unwrap_or_default())
                    .ok_or("unknown source")?,
            }),
            "failed" => Ok(Event::Failed {
                job: req_str(&o, "job")?,
                reason: o.get_str("reason").unwrap_or("error").to_string(),
                detail: o.get_str("detail").unwrap_or_default().to_string(),
            }),
            "status" => Ok(Event::Status {
                counters: map_u64(&o, "counters")?,
                tenants: {
                    match o.get("tenants") {
                        Some(Value::Map(fields)) => {
                            let mut out = Vec::new();
                            for (tenant, v) in fields {
                                match v {
                                    Value::Map(inner) => {
                                        let mut tallies = Vec::new();
                                        for (k, v) in inner {
                                            if let Value::Num(raw) = v {
                                                tallies.push((
                                                    k.clone(),
                                                    raw.parse().unwrap_or_default(),
                                                ));
                                            }
                                        }
                                        out.push((tenant.clone(), tallies));
                                    }
                                    _ => return Err("tenant tally is not an object".into()),
                                }
                            }
                            out
                        }
                        _ => Vec::new(),
                    }
                },
            }),
            "cancel_ok" => {
                Ok(Event::CancelOk { job: req_str(&o, "job")?, state: req_str(&o, "state")? })
            }
            "error" => Ok(Event::Error { detail: o.get_str("detail").unwrap_or_default().into() }),
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}

/// Renders a flat object from pre-rendered field values.
fn obj(fields: &[(&str, String)]) -> String {
    let body = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect::<Vec<_>>().join(", ");
    format!("{{{body}}}")
}

fn req_str(o: &Object, key: &str) -> Result<String, String> {
    o.get_str(key).map(str::to_string).ok_or_else(|| format!("missing string field {key:?}"))
}

fn map_u64(o: &Object, key: &str) -> Result<Vec<(String, u64)>, String> {
    match o.get(key) {
        Some(Value::Map(fields)) => {
            let mut out = Vec::new();
            for (k, v) in fields {
                match v {
                    Value::Num(raw) => out.push((k.clone(), raw.parse().unwrap_or_default())),
                    _ => return Err(format!("{key}.{k} is not a number")),
                }
            }
            Ok(out)
        }
        Some(_) => Err(format!("{key} is not an object")),
        None => Ok(Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Hello { proto: PROTOCOL.into(), tenant: "t1".into() },
            Request::Submit {
                kind: PlanKind::Dsl,
                plan: "factor op in [ping_pong]\nreplicates 3\norder randomized 7\n".into(),
                platform: "taurus".into(),
                seed: 9,
                shards: 4,
                observe: true,
            },
            Request::Submit {
                kind: PlanKind::Spec,
                plan: "[benchmark]\nname = \"x\"\n".into(),
                platform: String::new(),
                seed: 0,
                shards: 1,
                observe: false,
            },
            Request::Status,
            Request::Cancel { job: "j7".into() },
            Request::Result { run_id: "ab".repeat(16) },
        ];
        for r in cases {
            let line = r.render();
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(Request::parse(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn events_round_trip() {
        let cases = vec![
            Event::Hello { proto: PROTOCOL.into(), server: "charm-serve 0.1.0".into() },
            Event::Rejected { reason: RejectReason::QueueFull, detail: "queue at 16".into() },
            Event::Accepted {
                job: "j1".into(),
                run_id: "cd".repeat(16),
                source: Source::Engine,
                rows: 800,
            },
            Event::Head {
                job: "j1".into(),
                columns: "op,size,replicate,sequence,start_us,value".into(),
            },
            Event::Record { job: "j1".into(), row: "ping_pong,64,0,0,31.5,12.25".into() },
            Event::Counter { job: "j1".into(), key: "engine.rows".into(), value: 800 },
            Event::Done {
                job: "j1".into(),
                run_id: "cd".repeat(16),
                records: 800,
                source: Source::Archive,
            },
            Event::Failed { job: "j1".into(), reason: "cancelled".into(), detail: String::new() },
            Event::Status {
                counters: vec![("serve.accepted".into(), 3), ("serve.dedup_hits".into(), 1)],
                tenants: vec![("t1".into(), vec![("accepted".into(), 3), ("rows".into(), 54)])],
            },
            Event::CancelOk { job: "j1".into(), state: "cancelled".into() },
            Event::Error { detail: "unknown run".into() },
        ];
        for e in cases {
            let line = e.render();
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(Event::parse(&line).unwrap(), e, "{line}");
        }
    }

    #[test]
    fn plan_text_with_newlines_survives_the_wire() {
        let plan = "factor size in [64, 1024]\nreplicates 10\norder randomized 42\n";
        let r = Request::Submit {
            kind: PlanKind::Dsl,
            plan: plan.into(),
            platform: "myrinet".into(),
            seed: 1,
            shards: 2,
            observe: false,
        };
        match Request::parse(&r.render()).unwrap() {
            Request::Submit { plan: back, .. } => assert_eq!(back, plan),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"type\": \"warp\"}").is_err());
        assert!(Request::parse("{\"no_type\": 1}").is_err());
        assert!(Event::parse("{\"type\": \"accepted\"}").is_err(), "missing fields");
    }
}
