//! Line-oriented text format for traces.
//!
//! Binary serde formats are outside the allowed dependency set, so
//! traces are stored as a simple text format that is easy to produce
//! from real tracker scrapes:
//!
//! ```text
//! # comment
//! trace horizon=<secs>
//! swarm id=<u32> size=<bytes> piece=<bytes> seeder=<u32>
//! peer id=<u32> connectable=<0|1> down=<Bps> up=<Bps>
//! session peer=<u32> start=<secs> end=<secs>
//! request peer=<u32> swarm=<u32> time=<secs>
//! ```
//!
//! Line order is free except that `session`/`request` lines must follow
//! their `peer` line's declaration (they reference it by id, so in fact
//! any order parses; the writer emits them grouped).

use crate::model::{FileRequest, PeerTrace, Session, SwarmId, SwarmTrace, Trace};
use bartercast_util::units::{Bandwidth, Bytes, PeerId, Seconds};
use std::fmt::Write as _;

/// Parse errors with line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serialize a trace to the text format.
pub fn write_trace(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# bartercast trace v1");
    let _ = writeln!(out, "trace horizon={}", trace.horizon.0);
    for s in &trace.swarms {
        let _ = writeln!(
            out,
            "swarm id={} size={} piece={} seeder={}",
            s.swarm.0, s.file_size.0, s.piece_size.0, s.initial_seeder.0
        );
    }
    for p in &trace.peers {
        let _ = writeln!(
            out,
            "peer id={} connectable={} down={} up={}",
            p.peer.0,
            u8::from(p.connectable),
            p.down_bw.0,
            p.up_bw.0
        );
        for s in &p.sessions {
            let _ = writeln!(
                out,
                "session peer={} start={} end={}",
                p.peer.0, s.start.0, s.end.0
            );
        }
        for r in &p.requests {
            let _ = writeln!(
                out,
                "request peer={} swarm={} time={}",
                p.peer.0, r.swarm.0, r.time.0
            );
        }
    }
    out
}

/// Parse the text format back into a [`Trace`].
pub fn parse_trace(text: &str) -> Result<Trace, ParseError> {
    let mut trace = Trace::default();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let kind = parts.next().unwrap_or_default();
        let kv = parse_kv(parts, lineno)?;
        match kind {
            "trace" => {
                trace.horizon = Seconds(get(&kv, "horizon", lineno)?);
            }
            "swarm" => {
                trace.swarms.push(SwarmTrace {
                    swarm: SwarmId(get(&kv, "id", lineno)? as u32),
                    file_size: Bytes(get(&kv, "size", lineno)?),
                    piece_size: Bytes(get(&kv, "piece", lineno)?),
                    initial_seeder: PeerId(get(&kv, "seeder", lineno)? as u32),
                });
            }
            "peer" => {
                trace.peers.push(PeerTrace {
                    peer: PeerId(get(&kv, "id", lineno)? as u32),
                    connectable: get(&kv, "connectable", lineno)? != 0,
                    down_bw: Bandwidth(get(&kv, "down", lineno)?),
                    up_bw: Bandwidth(get(&kv, "up", lineno)?),
                    sessions: Vec::new(),
                    requests: Vec::new(),
                });
            }
            "session" => {
                let peer = PeerId(get(&kv, "peer", lineno)? as u32);
                let session = Session {
                    start: Seconds(get(&kv, "start", lineno)?),
                    end: Seconds(get(&kv, "end", lineno)?),
                };
                find_peer(&mut trace, peer, lineno)?.sessions.push(session);
            }
            "request" => {
                let peer = PeerId(get(&kv, "peer", lineno)? as u32);
                let request = FileRequest {
                    swarm: SwarmId(get(&kv, "swarm", lineno)? as u32),
                    time: Seconds(get(&kv, "time", lineno)?),
                };
                find_peer(&mut trace, peer, lineno)?.requests.push(request);
            }
            other => {
                return Err(ParseError {
                    line: lineno,
                    message: format!("unknown record kind '{other}'"),
                });
            }
        }
    }
    Ok(trace)
}

fn parse_kv<'a, I: Iterator<Item = &'a str>>(
    parts: I,
    line: usize,
) -> Result<Vec<(&'a str, &'a str)>, ParseError> {
    parts
        .map(|p| {
            p.split_once('=').ok_or_else(|| ParseError {
                line,
                message: format!("malformed field '{p}' (expected key=value)"),
            })
        })
        .collect()
}

fn get(kv: &[(&str, &str)], key: &str, line: usize) -> Result<u64, ParseError> {
    let (_, v) = kv
        .iter()
        .find(|(k, _)| *k == key)
        .ok_or_else(|| ParseError {
            line,
            message: format!("missing field '{key}'"),
        })?;
    v.parse().map_err(|_| ParseError {
        line,
        message: format!("field '{key}' is not a number: '{v}'"),
    })
}

fn find_peer(trace: &mut Trace, id: PeerId, line: usize) -> Result<&mut PeerTrace, ParseError> {
    trace
        .peers
        .iter_mut()
        .find(|p| p.peer == id)
        .ok_or_else(|| ParseError {
            line,
            message: format!("session/request references undeclared peer {id}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthConfig, TraceBuilder};

    #[test]
    fn roundtrip_synthetic_trace() {
        let t = TraceBuilder::new(SynthConfig::default()).build(42);
        let text = write_trace(&t);
        let back = parse_trace(&text).unwrap();
        assert_eq!(t, back);
        back.validate().unwrap();
    }

    #[test]
    fn roundtrip_small_trace() {
        let cfg = SynthConfig {
            peers: 4,
            swarms: 2,
            ..Default::default()
        };
        let t = TraceBuilder::new(cfg).build(0);
        assert_eq!(parse_trace(&write_trace(&t)).unwrap(), t);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\ntrace horizon=100\n  # indented comment\n";
        let t = parse_trace(text).unwrap();
        assert_eq!(t.horizon, Seconds(100));
    }

    #[test]
    fn unknown_kind_rejected() {
        let err = parse_trace("bogus id=1\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unknown record kind"));
    }

    #[test]
    fn missing_field_rejected() {
        let err = parse_trace("swarm id=0 size=100 piece=10\n").unwrap_err();
        assert!(err.message.contains("missing field 'seeder'"));
    }

    #[test]
    fn malformed_field_rejected() {
        let err = parse_trace("trace horizon\n").unwrap_err();
        assert!(err.message.contains("malformed field"));
    }

    #[test]
    fn non_numeric_rejected() {
        let err = parse_trace("trace horizon=abc\n").unwrap_err();
        assert!(err.message.contains("not a number"));
    }

    #[test]
    fn orphan_session_rejected() {
        let err = parse_trace("session peer=5 start=0 end=10\n").unwrap_err();
        assert!(err.message.contains("undeclared peer"));
    }

    #[test]
    fn error_display_contains_line() {
        let err = parse_trace("trace horizon=1\nbogus x=1\n").unwrap_err();
        assert!(err.to_string().starts_with("line 2:"));
    }
}
