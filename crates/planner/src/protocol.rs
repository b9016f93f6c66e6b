//! The planner wire protocol: length-prefixed compact-JSON frames.
//!
//! Framing is [`mics_dataplane::transport::wire`]'s: every frame is a
//! `u32` little-endian payload length followed by that many bytes. Payloads
//! here are UTF-8 compact JSON documents ([`Json::emit`]) rather than the
//! dataplane's binary collective records — planning queries are small,
//! human-debuggable, and latency-insensitive enough that a text wire wins.
//!
//! # Requests
//!
//! ```text
//! {"type":"hello","budget_flops":1e18}
//! {"type":"simulate","id":7,"job":JOB[,"deadline_ms":N]}
//! {"type":"tune","id":8,"job":JOB[,"compression":["none","int8",…]][,"deadline_ms":N]}
//! {"type":"sweep","id":9,"jobs":[JOB,…][,"deadline_ms":N]}
//! {"type":"stats","id":10}
//! {"type":"shutdown"}
//! ```
//!
//! where `JOB` is `{"model":"bert-10b","micro_batch":8,"instance":"p3dn",
//! "nodes":2,"strategy":"mics:8","accum":4}` — model names from
//! [`mics_model::preset_names`], instances from
//! [`mics_cluster::InstanceType::preset`], strategies in the
//! [`mics_core::Strategy::parse`] grammar (`tune` ignores `strategy`).
//! `micro_batch`, `nodes` and `accum` are integers from 1 to 1024; any
//! other value, `2.5` or `1e12` say, answers `BadRequest`.
//!
//! # Responses
//!
//! `simulate` answers `{"type":"report","id":N,"report":{…}}` or — when the
//! memory model rejects the job, which is a *result*, not an error —
//! `{"type":"oom","id":N,"oom":{…}}`. `tune` answers
//! `{"type":"tuned","id":N,"best":{…},"report":{…},"explored":K}` (or
//! `oom`). `sweep` streams one `{"type":"sweep_item","id":N,"index":I,…}`
//! per job *as each completes*, closed by
//! `{"type":"sweep_done","id":N,"count":K}`. Failures answer
//! `{"type":"error","id":N,"code":…,"message":…}` with codes from
//! [`PlanError`].

use mics_core::{Json, ToJson};
use mics_dataplane::transport::wire;
use std::io::{Read, Write};
use std::time::Duration;

/// Upper bound on one frame's payload. Planning documents are small; a
/// larger length prefix is a corrupt or hostile stream.
pub const MAX_FRAME: usize = 1 << 24;

/// Write one frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    assert!(payload.len() <= MAX_FRAME, "frame over MAX_FRAME");
    wire::write_frame(w, &[payload.as_bytes()])
}

/// Read one frame's payload (blocking).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<String> {
    let mut buf = Vec::new();
    wire::read_frame_into(r, MAX_FRAME, &mut buf)?;
    String::from_utf8(buf)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Why the planner refused or abandoned a query — the service-side analogue
/// of the dataplane's `CommError` taxonomy (`Timeout { waited }`,
/// `Io { kind }`, …): every failure mode is a typed variant with the
/// evidence a caller needs, stringly-typed only at the wire boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The request does not decode to a job (unknown model/instance/
    /// strategy, partition size not dividing the cluster, malformed JSON).
    BadRequest {
        /// What was wrong with it.
        reason: String,
    },
    /// The connection's FLOP ledger cannot cover this query.
    BudgetExceeded {
        /// Estimated simulated FLOPs this query would cost.
        needed: f64,
        /// FLOPs left in the ledger.
        remaining: f64,
    },
    /// The query's deadline passed before a result was ready (queued too
    /// long, or waited on an in-flight duplicate past the bound) — the
    /// planner's `CommError::Timeout`.
    DeadlineExceeded {
        /// How long the query waited before giving up.
        waited: Duration,
    },
    /// The bounded work queue was full — backpressure, try again.
    Overloaded {
        /// The queue depth that was full.
        depth: usize,
    },
    /// The server is draining; no new queries are accepted.
    ShuttingDown,
    /// The transport failed mid-query — the planner's `CommError::Io`.
    Io {
        /// Description of the underlying I/O error.
        message: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            PlanError::BudgetExceeded { needed, remaining } => write!(
                f,
                "budget exceeded: query needs {needed:.3e} simulated FLOPs, {remaining:.3e} left"
            ),
            PlanError::DeadlineExceeded { waited } => {
                write!(f, "deadline exceeded after {waited:?}")
            }
            PlanError::Overloaded { depth } => {
                write!(f, "server overloaded (queue of {depth} full)")
            }
            PlanError::ShuttingDown => write!(f, "server is shutting down"),
            PlanError::Io { message } => write!(f, "transport error: {message}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl PlanError {
    /// The stable wire code of this variant.
    pub fn code(&self) -> &'static str {
        match self {
            PlanError::BadRequest { .. } => "BadRequest",
            PlanError::BudgetExceeded { .. } => "BudgetExceeded",
            PlanError::DeadlineExceeded { .. } => "DeadlineExceeded",
            PlanError::Overloaded { .. } => "Overloaded",
            PlanError::ShuttingDown => "ShuttingDown",
            PlanError::Io { .. } => "Io",
        }
    }

    /// Encode as an `error` response frame for request `id`.
    pub fn to_response(&self, id: u64) -> Json {
        let mut pairs = vec![
            ("type".to_string(), Json::from("error")),
            ("id".to_string(), Json::Num(id as f64)),
            ("code".to_string(), Json::from(self.code())),
            ("message".to_string(), Json::from(self.to_string().as_str())),
        ];
        match self {
            PlanError::BudgetExceeded { needed, remaining } => {
                pairs.push(("needed".into(), Json::Num(*needed)));
                pairs.push(("remaining".into(), Json::Num(*remaining)));
            }
            PlanError::DeadlineExceeded { waited } => {
                pairs.push(("waited_ms".into(), Json::Num(waited.as_secs_f64() * 1e3)));
            }
            PlanError::Overloaded { depth } => {
                pairs.push(("depth".into(), Json::Num(*depth as f64)));
            }
            _ => {}
        }
        Json::Obj(pairs)
    }

    /// Decode an `error` response frame (`None` if `doc` is not one).
    pub fn from_response(doc: &Json) -> Option<Self> {
        if doc.get("type")?.as_str()? != "error" {
            return None;
        }
        let message =
            doc.get("message").and_then(Json::as_str).unwrap_or("unspecified").to_string();
        Some(match doc.get("code")?.as_str()? {
            "BudgetExceeded" => PlanError::BudgetExceeded {
                needed: doc.get("needed").and_then(Json::as_num).unwrap_or(0.0),
                remaining: doc.get("remaining").and_then(Json::as_num).unwrap_or(0.0),
            },
            "DeadlineExceeded" => PlanError::DeadlineExceeded {
                waited: Duration::from_secs_f64(
                    doc.get("waited_ms").and_then(Json::as_num).unwrap_or(0.0).max(0.0) / 1e3,
                ),
            },
            "Overloaded" => PlanError::Overloaded {
                depth: doc.get("depth").and_then(Json::as_num).unwrap_or(0.0) as usize,
            },
            "ShuttingDown" => PlanError::ShuttingDown,
            "Io" => PlanError::Io { message },
            _ => PlanError::BadRequest { reason: message },
        })
    }
}

/// One planning job as it travels on the wire: preset names plus geometry,
/// the same grammar `mics-sim` speaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Model preset name (see [`mics_model::preset_names`]).
    pub model: String,
    /// Micro-batch size per device.
    pub micro_batch: usize,
    /// Instance preset: `p3dn`, `p4d`, or `dgx`.
    pub instance: String,
    /// Cluster nodes.
    pub nodes: usize,
    /// Strategy in the [`mics_core::Strategy::parse`] grammar (ignored by
    /// `tune`, which searches strategies itself).
    pub strategy: String,
    /// Gradient-accumulation depth.
    pub accum: usize,
}

impl JobSpec {
    /// A MiCS paper-default job: `model` on `nodes` p3dn nodes, micro-batch
    /// 8, accumulation 4, partition size `p`.
    pub fn mics(model: &str, nodes: usize, p: usize) -> Self {
        JobSpec {
            model: model.to_string(),
            micro_batch: 8,
            instance: "p3dn".to_string(),
            nodes,
            strategy: format!("mics:{p}"),
            accum: 4,
        }
    }
}

impl ToJson for JobSpec {
    fn to_json(&self) -> Json {
        Json::obj([
            ("model", Json::from(self.model.as_str())),
            ("micro_batch", Json::Num(self.micro_batch as f64)),
            ("instance", Json::from(self.instance.as_str())),
            ("nodes", Json::Num(self.nodes as f64)),
            ("strategy", Json::from(self.strategy.as_str())),
            ("accum", Json::Num(self.accum as f64)),
        ])
    }
}

impl JobSpec {
    /// Decode the [`ToJson`] encoding. A count that is not a non-negative
    /// integer (`2.5`, `-1`) does not decode.
    pub fn from_json(doc: &Json) -> Option<Self> {
        let count = |key| {
            let x = doc.get(key)?.as_num()?;
            (x >= 0.0 && x.fract() == 0.0).then_some(x as usize)
        };
        Some(JobSpec {
            model: doc.get("model")?.as_str()?.to_string(),
            micro_batch: count("micro_batch")?,
            instance: doc.get("instance")?.as_str()?.to_string(),
            nodes: count("nodes")?,
            strategy: doc.get("strategy")?.as_str()?.to_string(),
            accum: count("accum")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"type":"stats","id":1}"#).unwrap();
        write_frame(&mut buf, "x").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), r#"{"type":"stats","id":1}"#);
        assert_eq!(read_frame(&mut r).unwrap(), "x");
        assert!(read_frame(&mut r).is_err(), "stream exhausted");
    }

    #[test]
    fn oversized_and_empty_frames_rejected() {
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &huge[..]).is_err());
        let mut empty = Vec::new();
        empty.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_frame(&mut &empty[..]).is_err());
    }

    /// What a connection does with inbound bytes — frame, UTF-8, JSON, job —
    /// holding the contract on the way: typed errors only, and a payload
    /// buffer bounded by the bytes actually supplied.
    fn read_hostile(bytes: &[u8]) -> Option<JobSpec> {
        let text = match read_frame(&mut &bytes[..]) {
            Ok(text) => text,
            Err(e) => {
                use std::io::ErrorKind::{InvalidData, UnexpectedEof};
                assert!(matches!(e.kind(), InvalidData | UnexpectedEof), "untyped: {e:?}");
                return None;
            }
        };
        assert!(text.capacity() <= bytes.len() + (1 << 20), "{} reserved", text.capacity());
        JobSpec::from_json(Json::parse(&text).ok()?.get("job")?)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn hostile_bytes_fail_typed_and_bounded(
            nodes in 0usize..1 << 40,
            at in 0usize..1 << 16,
            byte in 0u8..=255,
            salt in 1u32..1 << 30,
        ) {
            let job = JobSpec::mics("bert-10b", nodes, nodes % 64);
            let mut bytes = Vec::new();
            let doc = Json::obj([("type", Json::from("simulate")), ("job", job.to_json())]);
            write_frame(&mut bytes, &doc.emit()).unwrap();
            proptest::prop_assert_eq!(read_hostile(&bytes), Some(job));
            let mutated = |mutate: &dyn Fn(&mut Vec<u8>)| {
                let mut hostile = bytes.clone();
                mutate(&mut hostile);
                read_hostile(&hostile)
            };
            let put = |b: &mut Vec<u8>, v: u32| b[..4].copy_from_slice(&v.to_le_bytes());
            // Truncated at every offset; the prefix lying up and down;
            // trailing bytes the prefix owns up to.
            for cut in 0..bytes.len() {
                proptest::prop_assert_eq!(mutated(&|b| b.truncate(cut)), None, "cut at {}", cut);
            }
            let len = bytes.len() as u32 - 4;
            proptest::prop_assert_eq!(mutated(&|b| put(b, len + salt)), None);
            proptest::prop_assert_eq!(mutated(&|b| put(b, len - 1 - salt % len)), None);
            proptest::prop_assert_eq!(
                mutated(&|b| {
                    b.extend_from_slice(&salt.to_le_bytes());
                    put(b, len + 4);
                }),
                None
            );
            // Any one byte overwritten: a job, or a typed refusal — no panic.
            mutated(&|b| b[4 + at % len as usize] = byte);
        }
    }

    #[test]
    fn errors_round_trip_the_wire() {
        let cases = [
            PlanError::BadRequest { reason: "no such model".into() },
            PlanError::BudgetExceeded { needed: 1e15, remaining: 2e14 },
            PlanError::DeadlineExceeded { waited: Duration::from_millis(1500) },
            PlanError::Overloaded { depth: 64 },
            PlanError::ShuttingDown,
            PlanError::Io { message: "broken pipe".into() },
        ];
        for e in cases {
            let doc = Json::parse(&e.to_response(9).emit()).unwrap();
            assert_eq!(doc.get("id").and_then(Json::as_num), Some(9.0));
            let back = PlanError::from_response(&doc).unwrap();
            match (&e, &back) {
                // The reason string is folded into `message` on the wire.
                (PlanError::BadRequest { .. }, PlanError::BadRequest { .. }) => {}
                (PlanError::Io { .. }, PlanError::Io { .. }) => {}
                _ => assert_eq!(back, e),
            }
        }
    }

    #[test]
    fn job_spec_round_trips() {
        let spec = JobSpec::mics("bert-10b", 2, 8);
        assert_eq!(JobSpec::from_json(&spec.to_json()), Some(spec));
        assert_eq!(JobSpec::from_json(&Json::Null), None);
    }
}
