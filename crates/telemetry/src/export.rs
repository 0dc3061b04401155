//! Trace exporters: JSONL (one event per line, grep/jq-friendly) and the
//! Chrome trace-event format, loadable in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`.
//!
//! Both exporters are deterministic: records are written in emission order
//! and numbers use Rust's built-in formatting (shortest round-trip floats),
//! so the same record stream always yields byte-identical output.
//!
//! Chrome-trace timestamps are in "microseconds" by convention; we map one
//! simulation cycle to one microsecond, so Perfetto's time axis reads
//! directly in cycles. Tracks: one process per board (`pid = board + 1`,
//! channel events land on the home board of the wavelength), one thread per
//! wavelength (`tid = wavelength + 1`), plus a `system` process (`pid = 0`)
//! for window boundaries and Lock-Step/DBR ring events.

use crate::event::{TraceEvent, TraceRecord};
use std::fmt::Write as _;

/// Serializes one record as a single JSON object (no trailing newline).
pub fn jsonl_line(rec: &TraceRecord) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"at\":{},\"type\":\"{}\"", rec.at, rec.event.tag());
    match rec.event {
        TraceEvent::WindowBoundary {
            index,
            kind,
            router_peak_flits,
            lasers_on,
        } => {
            let _ = write!(
                s,
                ",\"index\":{index},\"kind\":\"{}\",\"router_peak_flits\":{router_peak_flits},\"lasers_on\":{lasers_on}",
                kind.name()
            );
        }
        TraceEvent::DpmRetune {
            src,
            dest,
            wavelength,
            from_level,
            to_level,
            penalty,
        } => {
            let _ = write!(
                s,
                ",\"src\":{src},\"dest\":{dest},\"wavelength\":{wavelength},\"from_level\":{from_level},\"to_level\":{to_level},\"penalty\":{penalty}"
            );
        }
        TraceEvent::DpmApplied {
            src,
            dest,
            wavelength,
            level,
        } => {
            let _ = write!(
                s,
                ",\"src\":{src},\"dest\":{dest},\"wavelength\":{wavelength},\"level\":{level}"
            );
        }
        TraceEvent::RelockStart {
            src,
            dest,
            wavelength,
            penalty,
        } => {
            let _ = write!(
                s,
                ",\"src\":{src},\"dest\":{dest},\"wavelength\":{wavelength},\"penalty\":{penalty}"
            );
        }
        TraceEvent::RelockEnd {
            src,
            dest,
            wavelength,
        } => {
            let _ = write!(
                s,
                ",\"src\":{src},\"dest\":{dest},\"wavelength\":{wavelength}"
            );
        }
        TraceEvent::LsStage { round, stage, end } => {
            let _ = write!(
                s,
                ",\"round\":{round},\"stage\":\"{}\",\"end\":{end}",
                stage.name()
            );
        }
        TraceEvent::DbrOutcome {
            round,
            grants,
            retries,
            aborted,
        } => {
            let _ = write!(
                s,
                ",\"round\":{round},\"grants\":{grants},\"retries\":{retries},\"aborted\":{aborted}"
            );
        }
        TraceEvent::Grant {
            dest,
            wavelength,
            from,
            to,
        } => {
            let _ = write!(
                s,
                ",\"dest\":{dest},\"wavelength\":{wavelength},\"from\":{from},\"to\":{to}"
            );
        }
        TraceEvent::Revoke {
            dest,
            wavelength,
            owner,
        } => {
            let _ = write!(
                s,
                ",\"dest\":{dest},\"wavelength\":{wavelength},\"owner\":{owner}"
            );
        }
        TraceEvent::Fault {
            label,
            board,
            dest,
            wavelength,
        } => {
            let _ = write!(
                s,
                ",\"label\":\"{}\",\"board\":{board},\"dest\":{dest},\"wavelength\":{wavelength},\"repair\":{}",
                label.name(),
                label.is_repair()
            );
        }
        TraceEvent::BufferThreshold {
            board,
            dest,
            above,
            util_milli,
        } => {
            let _ = write!(
                s,
                ",\"board\":{board},\"dest\":{dest},\"above\":{above},\"util_milli\":{util_milli}"
            );
        }
    }
    s.push('}');
    s
}

/// Serializes records as JSON Lines, one event per line, in emission order.
pub fn jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for rec in records {
        out.push_str(&jsonl_line(rec));
        out.push('\n');
    }
    out
}

/// Process id of the synthetic `system` track.
const SYSTEM_PID: u32 = 0;

/// (pid, tid) track for an event: boards are processes, wavelengths are
/// threads; control-plane events live on the `system` track.
fn track(event: &TraceEvent) -> (u32, u32) {
    match *event {
        TraceEvent::DpmRetune {
            dest, wavelength, ..
        }
        | TraceEvent::DpmApplied {
            dest, wavelength, ..
        }
        | TraceEvent::RelockStart {
            dest, wavelength, ..
        }
        | TraceEvent::RelockEnd {
            dest, wavelength, ..
        }
        | TraceEvent::Grant {
            dest, wavelength, ..
        }
        | TraceEvent::Revoke {
            dest, wavelength, ..
        }
        | TraceEvent::Fault {
            dest, wavelength, ..
        } => (u32::from(dest) + 1, u32::from(wavelength) + 1),
        TraceEvent::BufferThreshold { board, dest, .. } => {
            (u32::from(board) + 1, u32::from(dest) + 1)
        }
        TraceEvent::WindowBoundary { .. }
        | TraceEvent::LsStage { .. }
        | TraceEvent::DbrOutcome { .. } => (SYSTEM_PID, 0),
    }
}

/// Human-readable slice name for the Perfetto track.
fn slice_name(event: &TraceEvent) -> String {
    match *event {
        TraceEvent::WindowBoundary { index, kind, .. } => {
            format!("window {index} ({})", kind.name())
        }
        TraceEvent::DpmRetune {
            from_level,
            to_level,
            ..
        } => format!("retune L{from_level}->L{to_level}"),
        TraceEvent::DpmApplied { level, .. } => format!("rate L{level}"),
        TraceEvent::RelockStart { .. } => "relock".to_string(),
        TraceEvent::RelockEnd { .. } => "relock_end".to_string(),
        TraceEvent::LsStage { round, stage, .. } => format!("r{round} {}", stage.name()),
        TraceEvent::DbrOutcome {
            round,
            grants,
            aborted,
            ..
        } => {
            if aborted {
                format!("round {round} aborted")
            } else {
                format!("round {round}: {grants} grants")
            }
        }
        TraceEvent::Grant { from, to, .. } => format!("grant {from}->{to}"),
        TraceEvent::Revoke { owner, .. } => format!("revoke (owner {owner})"),
        TraceEvent::Fault { label, .. } => label.name().to_string(),
        TraceEvent::BufferThreshold { above, .. } => {
            if above {
                "buffer>Bmax".to_string()
            } else {
                "buffer<Bmax".to_string()
            }
        }
    }
}

/// Serializes records as a Chrome trace-event JSON document.
///
/// Spans (`ph: "X"`) are used for events with a known deterministic
/// duration (DPM retunes, CDR relocks, Lock-Step stages); everything else
/// is an instant (`ph: "i"`). Open the file in Perfetto or
/// `chrome://tracing`.
pub fn chrome_trace(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 128 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    // Metadata: name each process track once, in first-appearance order.
    let mut named: Vec<u32> = Vec::new();
    for rec in records {
        let (pid, tid) = track(&rec.event);
        if !named.contains(&pid) {
            named.push(pid);
            let pname = if pid == SYSTEM_PID {
                "system".to_string()
            } else {
                format!("board {}", pid - 1)
            };
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{pname}\"}}}}"
            );
        }
        if !first {
            out.push(',');
        }
        first = false;
        let name = slice_name(&rec.event);
        match rec.event {
            TraceEvent::DpmRetune { penalty, .. } | TraceEvent::RelockStart { penalty, .. } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{},\"dur\":{penalty},\"pid\":{pid},\"tid\":{tid}}}",
                    rec.at
                );
            }
            TraceEvent::LsStage { end, .. } => {
                let dur = end.saturating_sub(rec.at);
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid}}}",
                    rec.at
                );
            }
            TraceEvent::WindowBoundary {
                router_peak_flits,
                lasers_on,
                ..
            } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"router_peak_flits\":{router_peak_flits},\"lasers_on\":{lasers_on}}}}}",
                    rec.at
                );
            }
            _ => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{tid}}}",
                    rec.at
                );
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FaultLabel, LsStageLabel, WindowLabel};

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                at: 2000,
                event: TraceEvent::WindowBoundary {
                    index: 1,
                    kind: WindowLabel::Power,
                    router_peak_flits: 9,
                    lasers_on: 48,
                },
            },
            TraceRecord {
                at: 2000,
                event: TraceEvent::DpmRetune {
                    src: 0,
                    dest: 1,
                    wavelength: 2,
                    from_level: 0,
                    to_level: 2,
                    penalty: 77,
                },
            },
            TraceRecord {
                at: 4000,
                event: TraceEvent::LsStage {
                    round: 1,
                    stage: LsStageLabel::LinkRequest,
                    end: 4016,
                },
            },
            TraceRecord {
                at: 4100,
                event: TraceEvent::Fault {
                    label: FaultLabel::ReceiverDrop,
                    board: 1,
                    dest: 1,
                    wavelength: 3,
                },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let text = jsonl(&sample_records());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line: {line}"
            );
        }
        assert!(lines[0].ends_with("\"router_peak_flits\":9,\"lasers_on\":48}"));
        assert!(lines[1].contains("\"type\":\"dpm_retune\""));
        assert!(lines[1].contains("\"penalty\":77"));
        assert!(lines[3].contains("\"label\":\"receiver_drop\""));
        assert!(lines[3].contains("\"repair\":false"));
    }

    #[test]
    fn chrome_trace_has_tracks_and_spans() {
        let text = chrome_trace(&sample_records());
        assert!(text.starts_with('{') && text.ends_with('}'));
        // Both the system track and board 1's track get named.
        assert!(text.contains("\"args\":{\"name\":\"system\"}"));
        assert!(text.contains("\"args\":{\"name\":\"board 1\"}"));
        // The retune and LS stage become spans with durations.
        assert!(text.contains("\"ph\":\"X\",\"ts\":2000,\"dur\":77"));
        assert!(text.contains("\"ph\":\"X\",\"ts\":4000,\"dur\":16"));
        // The window instant carries its gauges as args.
        assert!(text.contains("\"args\":{\"router_peak_flits\":9,\"lasers_on\":48}"));
        // The fault is an instant.
        assert!(text.contains("\"name\":\"receiver_drop\",\"ph\":\"i\""));
    }

    #[test]
    fn exports_are_deterministic() {
        let recs = sample_records();
        assert_eq!(jsonl(&recs), jsonl(&recs));
        assert_eq!(chrome_trace(&recs), chrome_trace(&recs));
    }
}
