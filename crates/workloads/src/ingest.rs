//! External trace ingestion: converts event logs from other tools into
//! validated, checksummed `.ertr` traces the replay machinery accepts.
//!
//! Two line-oriented source formats are read, mirroring the interchange
//! shapes of the usual HPC tracers:
//!
//! * **dumpi-style text** — whitespace-separated `cycle src dst` columns
//!   (extra trailing columns ignored), `#` comments and blank lines
//!   skipped. The shape `sst-dumpi`'s ASCII converters emit.
//! * **OTF2-style JSONL** — one `{"t":…,"src":…,"dst":…}` object per
//!   line, the shape OTF2 event dumps reduce to.
//!
//! Ingestion is strict where replay correctness depends on it: node ids
//! must fit the declared geometry, self-sends are rejected (the simulator
//! never generates them), and cycles must be non-decreasing — each
//! violation is a typed [`IngestError`] carrying the 1-based source line.
//! The output is an [`InjectionTrace`] whose binary form carries the
//! standard FNV-1a checksum, so a converted trace is indistinguishable
//! from a recorded one downstream.

use std::fmt;
use traffic::trace::{InjectionTrace, TraceEntry, TraceMeta};

/// The external log formats [`ingest_str`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExternalFormat {
    /// Whitespace-separated `cycle src dst` columns (dumpi-style ASCII).
    DumpiText,
    /// One `{"t":…,"src":…,"dst":…}` JSON object per line (OTF2-style).
    Otf2Jsonl,
}

/// A rejected external log, pinpointing the offending line.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The line is not parseable in the declared format.
    Parse {
        /// 1-based line number in the source document.
        line: usize,
        /// What failed.
        msg: String,
    },
    /// Event timestamps went backwards.
    NonMonotone {
        /// 1-based line number of the offending event.
        line: usize,
        /// The offending cycle.
        cycle: u64,
        /// The previous event's cycle.
        prev: u64,
    },
    /// A node id (or a self-send) does not fit the declared geometry.
    OutOfRange {
        /// 1-based line number of the offending event.
        line: usize,
        /// Which field (`"src"` / `"dst"`).
        field: &'static str,
        /// The offending value.
        value: u64,
        /// The exclusive limit it must stay under.
        limit: u64,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            IngestError::NonMonotone { line, cycle, prev } => write!(
                f,
                "line {line}: cycle {cycle} precedes the previous event's {prev}"
            ),
            IngestError::OutOfRange {
                line,
                field,
                value,
                limit,
            } => write!(f, "line {line}: {field} {value} outside 0..{limit}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// One parsed external event before validation.
struct RawEvent {
    line: usize,
    cycle: u64,
    src: u64,
    dst: u64,
}

fn parse_dumpi(text: &str) -> Result<Vec<RawEvent>, IngestError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut cols = t.split_whitespace();
        let mut col = |what: &'static str| -> Result<u64, IngestError> {
            let tok = cols.next().ok_or(IngestError::Parse {
                line: lineno,
                msg: format!("missing {what} column (want `cycle src dst`)"),
            })?;
            tok.parse().map_err(|_| IngestError::Parse {
                line: lineno,
                msg: format!("{what} column {tok:?} is not an unsigned integer"),
            })
        };
        let cycle = col("cycle")?;
        let src = col("src")?;
        let dst = col("dst")?;
        // Extra trailing columns (sizes, tags) are tolerated and ignored.
        out.push(RawEvent {
            line: lineno,
            cycle,
            src,
            dst,
        });
    }
    Ok(out)
}

/// Extracts an unsigned integer value for `key` from a one-line JSON
/// object — the same minimal scanner the trace JSONL reader uses, kept
/// local so ingest errors carry line numbers.
fn jsonl_u64(line: &str, lineno: usize, key: &str) -> Result<u64, IngestError> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle).ok_or_else(|| IngestError::Parse {
        line: lineno,
        msg: format!("missing key \"{key}\""),
    })? + needle.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().map_err(|_| IngestError::Parse {
        line: lineno,
        msg: format!("\"{key}\" is not an unsigned integer"),
    })
}

fn parse_otf2_jsonl(text: &str) -> Result<Vec<RawEvent>, IngestError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if !t.starts_with('{') || !t.ends_with('}') {
            return Err(IngestError::Parse {
                line: lineno,
                msg: "expected one JSON object per line".to_string(),
            });
        }
        out.push(RawEvent {
            line: lineno,
            cycle: jsonl_u64(t, lineno, "t")?,
            src: jsonl_u64(t, lineno, "src")?,
            dst: jsonl_u64(t, lineno, "dst")?,
        });
    }
    Ok(out)
}

/// Converts an external event log into a validated [`InjectionTrace`] for
/// a `boards × nodes_per_board` system. `meta.boards`/`nodes_per_board`
/// are taken as the geometry contract; `meta.pattern` conventionally names
/// the source (e.g. `"ingest:dumpi"`).
pub fn ingest_str(
    text: &str,
    format: ExternalFormat,
    meta: TraceMeta,
) -> Result<InjectionTrace, IngestError> {
    let nodes = meta.boards as u64 * meta.nodes_per_board as u64;
    let events = match format {
        ExternalFormat::DumpiText => parse_dumpi(text)?,
        ExternalFormat::Otf2Jsonl => parse_otf2_jsonl(text)?,
    };
    let mut entries = Vec::with_capacity(events.len());
    let mut prev: Option<u64> = None;
    for ev in events {
        if let Some(p) = prev {
            if ev.cycle < p {
                return Err(IngestError::NonMonotone {
                    line: ev.line,
                    cycle: ev.cycle,
                    prev: p,
                });
            }
        }
        for (field, value) in [("src", ev.src), ("dst", ev.dst)] {
            if value >= nodes {
                return Err(IngestError::OutOfRange {
                    line: ev.line,
                    field,
                    value,
                    limit: nodes,
                });
            }
        }
        if ev.src == ev.dst {
            return Err(IngestError::OutOfRange {
                line: ev.line,
                field: "dst",
                value: ev.dst,
                limit: nodes, // self-send: dst must differ from src
            });
        }
        prev = Some(ev.cycle);
        entries.push(TraceEntry {
            cycle: ev.cycle,
            src: ev.src as u32,
            dst: ev.dst as u32,
        });
    }
    Ok(InjectionTrace { meta, entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            seed: 0,
            boards: 4,
            nodes_per_board: 4,
            pattern: "ingest:test".to_string(),
            load: 0.0,
            git_sha: "test".to_string(),
        }
    }

    #[test]
    fn dumpi_text_parses_with_comments_and_extra_columns() {
        let text = "# sst-dumpi ascii dump\n\n0 1 2\n0 3 4 1024 tag=7\n5 1 6\n";
        let t = ingest_str(text, ExternalFormat::DumpiText, meta()).unwrap();
        assert_eq!(t.entries.len(), 3);
        assert_eq!(
            t.entries[1],
            TraceEntry {
                cycle: 0,
                src: 3,
                dst: 4
            }
        );
        // The converted trace survives the checksummed binary round trip.
        let back = InjectionTrace::from_binary(&t.to_binary()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn otf2_jsonl_parses_and_detects() {
        let text = "{\"t\":3,\"src\":0,\"dst\":5}\n{\"t\":9,\"src\":2,\"dst\":0}\n";
        let t = ingest_str(text, ExternalFormat::Otf2Jsonl, meta()).unwrap();
        assert_eq!(t.entries.len(), 2);
        assert_eq!(t.entries[1].cycle, 9);
    }

    #[test]
    fn non_monotone_cycles_are_rejected_with_the_line() {
        let text = "0 1 2\n9 3 4\n5 1 6\n";
        assert_eq!(
            ingest_str(text, ExternalFormat::DumpiText, meta()),
            Err(IngestError::NonMonotone {
                line: 3,
                cycle: 5,
                prev: 9
            })
        );
    }

    #[test]
    fn out_of_range_nodes_are_rejected() {
        let err = ingest_str("0 1 16\n", ExternalFormat::DumpiText, meta()).unwrap_err();
        assert_eq!(
            err,
            IngestError::OutOfRange {
                line: 1,
                field: "dst",
                value: 16,
                limit: 16
            }
        );
        assert!(err.to_string().contains("line 1"));
        // Self-sends never occur in simulator traffic.
        assert!(matches!(
            ingest_str("0 3 3\n", ExternalFormat::DumpiText, meta()),
            Err(IngestError::OutOfRange { line: 1, .. })
        ));
    }

    #[test]
    fn malformed_lines_are_parse_errors() {
        assert!(matches!(
            ingest_str("0 1\n", ExternalFormat::DumpiText, meta()),
            Err(IngestError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            ingest_str("zero 1 2\n", ExternalFormat::DumpiText, meta()),
            Err(IngestError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            ingest_str("{\"t\":1,\"src\":0}\n", ExternalFormat::Otf2Jsonl, meta()),
            Err(IngestError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            ingest_str("not json", ExternalFormat::Otf2Jsonl, meta()),
            Err(IngestError::Parse { line: 1, .. })
        ));
    }
}
