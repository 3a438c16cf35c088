//! The HTTP side: an in-process server, its set-up, the timed closed
//! loop, and `GET /stats` snapshots.

use crate::client::{request, Conn, Reply};
use crate::plan::{Class, Op, Plan};
use crate::verify::Expect;
use axml::Engine;
use axml_server::{ServerConfig, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Evaluation pool size of the server under test.
pub const POOL_WORKERS: usize = 2;

/// A server with the workload's set-up done, and the load generator's
/// one keep-alive connection to it.
pub struct Served {
    server: ServerHandle,
    conn: Option<Conn>,
}

impl Served {
    /// Start the server and run the plan's set-up: corpus loads,
    /// prepares and warm-up requests. Every one must succeed.
    pub fn start(plan: &Plan) -> Result<Served, String> {
        let setup: Vec<Vec<u8>> = plan.setup.iter().map(|op| plan.request(op)).collect();
        let config = ServerConfig {
            pool_workers: POOL_WORKERS,
            ..ServerConfig::default()
        };
        let server = axml_server::start(config, Arc::new(Engine::new()))
            .map_err(|e| format!("server start: {e}"))?;
        let mut conn = Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        for (op, req) in plan.setup.iter().zip(&setup) {
            let reply = conn
                .roundtrip(req, true)
                .map_err(|e| format!("set-up: {e}"))?;
            let prepared_as_expected = match op {
                Op::Prepare { query } => Expect::Prefix(format!(
                    "{{\"handle\":\"{}\",",
                    axml::query_handle(&plan.queries[*query])
                ))
                .accepts(reply.body_hash, &reply.body),
                _ => true,
            };
            if !reply.ok() || !prepared_as_expected {
                return Err(format!(
                    "set-up {op:?} failed: status {}: {}",
                    reply.status,
                    String::from_utf8_lossy(&reply.body)
                ));
            }
        }
        Ok(Served {
            server,
            conn: Some(conn),
        })
    }

    pub fn conn(&mut self) -> &mut Conn {
        self.conn
            .as_mut()
            .expect("connection is open until shutdown")
    }

    /// `GET /stats`, flattened to `(key, number)` pairs.
    pub fn stats(&mut self) -> Result<Stats, String> {
        let reply = self
            .conn()
            .roundtrip(&request("GET", "/stats", b""), true)
            .map_err(|e| format!("stats: {e}"))?;
        if !reply.ok() {
            return Err(format!("GET /stats: status {}", reply.status));
        }
        Ok(Stats::parse(&String::from_utf8_lossy(&reply.body)))
    }

    /// Close the connection, then stop the server and join its threads.
    pub fn shutdown(mut self) {
        self.conn = None;
        self.server.shutdown();
    }
}

/// Numeric fields of a `GET /stats` body, by key (the keys are unique
/// across its nested objects).
pub struct Stats(Vec<(String, f64)>);

impl Stats {
    fn parse(body: &str) -> Stats {
        let mut out = Vec::new();
        let mut rest = body;
        while let Some(open) = rest.find('"') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('"') else { break };
            let key = &after[..close];
            rest = &after[close + 1..];
            if let Some(value) = rest.strip_prefix(':') {
                let digits: String = value.chars().take_while(|c| c.is_ascii_digit()).collect();
                if let Ok(n) = digits.parse::<f64>() {
                    out.push((key.to_string(), n));
                }
            }
        }
        Stats(out)
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// One completed request of the timed phase.
pub struct Rec {
    /// Index into the sequence the request came from.
    pub index: usize,
    pub class: Class,
    pub latency: Duration,
    /// When the response was complete.
    pub done: Instant,
    pub first_byte: Option<Duration>,
    pub reply: Reply,
}

/// Send `ops` in order on one connection, cyclically, until `until`
/// passes. Request bytes are built before the first request goes out.
pub fn closed_loop(
    served: &mut Served,
    plan: &Plan,
    ops: &[Op],
    until: Instant,
) -> Result<Vec<Rec>, String> {
    let reqs: Vec<Vec<u8>> = ops.iter().map(|op| plan.request(op)).collect();
    let keep: Vec<bool> = ops.iter().map(Expect::needs_body).collect();
    let mut recs = Vec::with_capacity(1 << 16);
    let conn = served.conn();
    for index in (0..ops.len()).cycle() {
        if Instant::now() >= until {
            break;
        }
        let start = Instant::now();
        let reply = conn
            .roundtrip(&reqs[index], keep[index])
            .map_err(|e| format!("reconnect failed: {e}"))?;
        let done = Instant::now();
        recs.push(Rec {
            index,
            class: ops[index].class(),
            latency: done - start,
            done,
            first_byte: reply.first_body.map(|t| t.duration_since(start)),
            reply,
        });
    }
    Ok(recs)
}
