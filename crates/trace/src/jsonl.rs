//! The JSONL line format: one JSON object per event, one event per line.
//!
//! The vendored offline dependency set has no `serde_json`, so both the
//! writer and the parser are hand-rolled against exactly the subset of
//! JSON this schema emits: objects with fixed keys, unsigned integers,
//! fixed enum strings, and `null`. The parser is strict — escapes,
//! floats, booleans, arrays, and duplicate keys are errors — and total:
//! hostile input yields a [`JsonlError`], never a panic.
//!
//! Every line carries an `"ev"` discriminator; see DESIGN.md §10 for
//! the full schema. `parse_line(event_to_json(e)) == e` for every
//! event (property: round-trip tests in this module and the workspace
//! golden tests).

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use discsp_core::{AgentId, MessageClass, RunMetrics, Termination, Value, VariableId};

use crate::event::{FaultKind, RuntimeKind, TraceEvent};

/// A parse failure, located by 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonlError {
    /// 1-based line the failure was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for JsonlError {}

fn class_name(class: MessageClass) -> &'static str {
    match class {
        MessageClass::Ok => "ok",
        MessageClass::Nogood => "nogood",
        MessageClass::Other => "other",
    }
}

fn termination_name(t: Termination) -> &'static str {
    match t {
        Termination::Solved => "solved",
        Termination::CutOff => "cutoff",
        Termination::Insoluble => "insoluble",
    }
}

fn push_metrics(out: &mut String, m: &RunMetrics) {
    let _ = write!(
        out,
        "{{\"termination\":\"{}\",\"cycles\":{},\"maxcck\":{},\"total_checks\":{},\
         \"ok_messages\":{},\"nogood_messages\":{},\"other_messages\":{},\
         \"nogoods_generated\":{},\"redundant_nogoods\":{},\"largest_nogood\":{},\
         \"messages_sent\":{},\"messages_dropped\":{},\"messages_duplicated\":{},\
         \"messages_reordered\":{},\"messages_retransmitted\":{},\"max_delivery_delay\":{}}}",
        termination_name(m.termination),
        m.cycles,
        m.maxcck,
        m.total_checks,
        m.ok_messages,
        m.nogood_messages,
        m.other_messages,
        m.nogoods_generated,
        m.redundant_nogoods,
        m.largest_nogood,
        m.messages_sent,
        m.messages_dropped,
        m.messages_duplicated,
        m.messages_reordered,
        m.messages_retransmitted,
        m.max_delivery_delay,
    );
}

/// Serializes one event to its (newline-free) JSONL line.
pub fn event_to_json(event: &TraceEvent) -> String {
    let mut out = String::new();
    match event {
        TraceEvent::AgentStep {
            cycle,
            agent,
            checks,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"agent_step\",\"cycle\":{cycle},\"agent\":{},\"checks\":{checks}}}",
                agent.raw()
            );
        }
        TraceEvent::Sent {
            cycle,
            from,
            to,
            class,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"sent\",\"cycle\":{cycle},\"from\":{},\"to\":{},\"class\":\"{}\"}}",
                from.raw(),
                to.raw(),
                class_name(*class)
            );
        }
        TraceEvent::Delivered {
            cycle,
            from,
            to,
            class,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"delivered\",\"cycle\":{cycle},\"from\":{},\"to\":{},\"class\":\"{}\"}}",
                from.raw(),
                to.raw(),
                class_name(*class)
            );
        }
        TraceEvent::Fault {
            cycle,
            from,
            to,
            class,
            kind,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"fault\",\"cycle\":{cycle},\"from\":{},\"to\":{},\"class\":\"{}\",",
                from.raw(),
                to.raw(),
                class_name(*class)
            );
            match kind {
                FaultKind::Dropped => out.push_str("\"kind\":\"dropped\"}"),
                FaultKind::Duplicated => out.push_str("\"kind\":\"duplicated\"}"),
                FaultKind::Reordered => out.push_str("\"kind\":\"reordered\"}"),
                FaultKind::Delayed(ticks) => {
                    let _ = write!(out, "\"kind\":\"delayed\",\"delay\":{ticks}}}");
                }
                FaultKind::Retransmitted => out.push_str("\"kind\":\"retransmitted\"}"),
            }
        }
        TraceEvent::ValueChanged {
            cycle,
            var,
            old,
            new,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"value_changed\",\"cycle\":{cycle},\"var\":{},\"old\":",
                var.raw()
            );
            match old {
                Some(v) => {
                    let _ = write!(out, "{}", v.raw());
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"new\":{}}}", new.raw());
        }
        TraceEvent::PriorityChanged {
            cycle,
            agent,
            priority,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"priority_changed\",\"cycle\":{cycle},\"agent\":{},\
                 \"priority\":{priority}}}",
                agent.raw()
            );
        }
        TraceEvent::NogoodLearned { cycle, agent, size } => {
            let _ = write!(
                out,
                "{{\"ev\":\"nogood_learned\",\"cycle\":{cycle},\"agent\":{},\"size\":{size}}}",
                agent.raw()
            );
        }
        TraceEvent::NogoodForgotten {
            cycle,
            agent,
            count,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"nogood_forgotten\",\"cycle\":{cycle},\"agent\":{},\"count\":{count}}}",
                agent.raw()
            );
        }
        TraceEvent::CycleBarrier { cycle } => {
            let _ = write!(out, "{{\"ev\":\"cycle_barrier\",\"cycle\":{cycle}}}");
        }
        TraceEvent::RunEnd {
            cycle,
            runtime,
            in_flight,
            metrics,
        } => {
            let _ = write!(
                out,
                "{{\"ev\":\"run_end\",\"cycle\":{cycle},\"runtime\":\"{}\",\
                 \"in_flight\":{in_flight},\"metrics\":",
                runtime.name()
            );
            push_metrics(&mut out, metrics);
            out.push('}');
        }
    }
    out
}

/// The strict subset of JSON values this schema uses.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Json {
    Null,
    Num(u64),
    Str(String),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        match self.bump() {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(format!(
                "expected '{}', found '{}'",
                want as char, b as char
            )),
            None => Err(format!("expected '{}', found end of line", want as char)),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let start = self.pos;
        loop {
            match self.bump() {
                Some(b'"') => {
                    let bytes = self.bytes.get(start..self.pos - 1).unwrap_or(&[]);
                    return String::from_utf8(bytes.to_vec())
                        .map_err(|_| "invalid utf-8 in string".to_string());
                }
                Some(b'\\') => return Err("string escapes are not part of the schema".to_string()),
                Some(_) => {}
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err("expected a digit".to_string());
        }
        let digits = self.bytes.get(start..self.pos).unwrap_or(&[]);
        let text = std::str::from_utf8(digits).map_err(|_| "invalid number".to_string())?;
        text.parse::<u64>()
            .map_err(|_| format!("number out of range: {text}"))
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'0'..=b'9') => Ok(Json::Num(self.parse_number()?)),
            Some(b'n') => {
                for want in b"null" {
                    self.expect_byte(*want)
                        .map_err(|_| "expected null".to_string())?;
                }
                Ok(Json::Null)
            }
            Some(b) => Err(format!(
                "unexpected '{}' (schema uses only objects, unsigned integers, \
                 fixed strings, and null)",
                b as char
            )),
            None => Err("unexpected end of line".to_string()),
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut obj = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(obj));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.parse_value()?;
            if obj.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key \"{key}\""));
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(obj)),
                Some(b) => return Err(format!("expected ',' or '}}', found '{}'", b as char)),
                None => return Err("unterminated object".to_string()),
            }
        }
    }

    fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            None => Ok(()),
            Some(b) => Err(format!("trailing '{}' after the event object", b as char)),
        }
    }
}

fn num_field(obj: &BTreeMap<String, Json>, key: &str) -> Result<u64, String> {
    match obj.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        Some(_) => Err(format!("field \"{key}\" must be an unsigned integer")),
        None => Err(format!("missing field \"{key}\"")),
    }
}

fn str_field<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Result<&'a str, String> {
    match obj.get(key) {
        Some(Json::Str(s)) => Ok(s.as_str()),
        Some(_) => Err(format!("field \"{key}\" must be a string")),
        None => Err(format!("missing field \"{key}\"")),
    }
}

fn nullable_num_field(obj: &BTreeMap<String, Json>, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        Some(Json::Num(n)) => Ok(Some(*n)),
        Some(Json::Null) => Ok(None),
        Some(_) => Err(format!("field \"{key}\" must be an unsigned integer or null")),
        None => Err(format!("missing field \"{key}\"")),
    }
}

fn agent_field(obj: &BTreeMap<String, Json>, key: &str) -> Result<AgentId, String> {
    let raw = num_field(obj, key)?;
    u32::try_from(raw)
        .map(AgentId::new)
        .map_err(|_| format!("field \"{key}\" exceeds the agent-id range"))
}

fn value_of(raw: u64, key: &str) -> Result<Value, String> {
    u16::try_from(raw)
        .map(Value::new)
        .map_err(|_| format!("field \"{key}\" exceeds the value range"))
}

fn class_field(obj: &BTreeMap<String, Json>) -> Result<MessageClass, String> {
    match str_field(obj, "class")? {
        "ok" => Ok(MessageClass::Ok),
        "nogood" => Ok(MessageClass::Nogood),
        "other" => Ok(MessageClass::Other),
        other => Err(format!("unknown message class \"{other}\"")),
    }
}

fn metrics_field(obj: &BTreeMap<String, Json>) -> Result<RunMetrics, String> {
    let m = match obj.get("metrics") {
        Some(Json::Obj(m)) => m,
        Some(_) => return Err("field \"metrics\" must be an object".to_string()),
        None => return Err("missing field \"metrics\"".to_string()),
    };
    let termination = match str_field(m, "termination")? {
        "solved" => Termination::Solved,
        "cutoff" => Termination::CutOff,
        "insoluble" => Termination::Insoluble,
        other => return Err(format!("unknown termination \"{other}\"")),
    };
    let mut metrics = RunMetrics::new(termination);
    metrics.cycles = num_field(m, "cycles")?;
    metrics.maxcck = num_field(m, "maxcck")?;
    metrics.total_checks = num_field(m, "total_checks")?;
    metrics.ok_messages = num_field(m, "ok_messages")?;
    metrics.nogood_messages = num_field(m, "nogood_messages")?;
    metrics.other_messages = num_field(m, "other_messages")?;
    metrics.nogoods_generated = num_field(m, "nogoods_generated")?;
    metrics.redundant_nogoods = num_field(m, "redundant_nogoods")?;
    metrics.largest_nogood = num_field(m, "largest_nogood")?;
    metrics.messages_sent = num_field(m, "messages_sent")?;
    metrics.messages_dropped = num_field(m, "messages_dropped")?;
    metrics.messages_duplicated = num_field(m, "messages_duplicated")?;
    metrics.messages_reordered = num_field(m, "messages_reordered")?;
    metrics.messages_retransmitted = num_field(m, "messages_retransmitted")?;
    metrics.max_delivery_delay = num_field(m, "max_delivery_delay")?;
    Ok(metrics)
}

fn event_from_object(obj: &BTreeMap<String, Json>) -> Result<TraceEvent, String> {
    let cycle = num_field(obj, "cycle")?;
    match str_field(obj, "ev")? {
        "agent_step" => Ok(TraceEvent::AgentStep {
            cycle,
            agent: agent_field(obj, "agent")?,
            checks: num_field(obj, "checks")?,
        }),
        "sent" => Ok(TraceEvent::Sent {
            cycle,
            from: agent_field(obj, "from")?,
            to: agent_field(obj, "to")?,
            class: class_field(obj)?,
        }),
        "delivered" => Ok(TraceEvent::Delivered {
            cycle,
            from: agent_field(obj, "from")?,
            to: agent_field(obj, "to")?,
            class: class_field(obj)?,
        }),
        "fault" => {
            let kind = match str_field(obj, "kind")? {
                "dropped" => FaultKind::Dropped,
                "duplicated" => FaultKind::Duplicated,
                "reordered" => FaultKind::Reordered,
                "delayed" => FaultKind::Delayed(num_field(obj, "delay")?),
                "retransmitted" => FaultKind::Retransmitted,
                other => return Err(format!("unknown fault kind \"{other}\"")),
            };
            Ok(TraceEvent::Fault {
                cycle,
                from: agent_field(obj, "from")?,
                to: agent_field(obj, "to")?,
                class: class_field(obj)?,
                kind,
            })
        }
        "value_changed" => {
            let var_raw = num_field(obj, "var")?;
            let var = u32::try_from(var_raw)
                .map(VariableId::new)
                .map_err(|_| "field \"var\" exceeds the variable-id range".to_string())?;
            let old = match nullable_num_field(obj, "old")? {
                Some(raw) => Some(value_of(raw, "old")?),
                None => None,
            };
            Ok(TraceEvent::ValueChanged {
                cycle,
                var,
                old,
                new: value_of(num_field(obj, "new")?, "new")?,
            })
        }
        "priority_changed" => Ok(TraceEvent::PriorityChanged {
            cycle,
            agent: agent_field(obj, "agent")?,
            priority: num_field(obj, "priority")?,
        }),
        "nogood_learned" => Ok(TraceEvent::NogoodLearned {
            cycle,
            agent: agent_field(obj, "agent")?,
            size: num_field(obj, "size")?,
        }),
        "nogood_forgotten" => Ok(TraceEvent::NogoodForgotten {
            cycle,
            agent: agent_field(obj, "agent")?,
            count: num_field(obj, "count")?,
        }),
        "cycle_barrier" => Ok(TraceEvent::CycleBarrier { cycle }),
        "run_end" => {
            let runtime = match str_field(obj, "runtime")? {
                "sync" => RuntimeKind::Sync,
                "virtual" => RuntimeKind::Virtual,
                "net" => RuntimeKind::Net,
                "service" => RuntimeKind::Service,
                "sharded" => RuntimeKind::Sharded,
                other => return Err(format!("unknown runtime \"{other}\"")),
            };
            Ok(TraceEvent::RunEnd {
                cycle,
                runtime,
                in_flight: num_field(obj, "in_flight")?,
                metrics: metrics_field(obj)?,
            })
        }
        other => Err(format!("unknown event discriminator \"{other}\"")),
    }
}

fn parse_line_inner(line: &str) -> Result<TraceEvent, String> {
    let mut parser = Parser::new(line);
    let value = parser.parse_object()?;
    parser.finish()?;
    match value {
        Json::Obj(obj) => event_from_object(&obj),
        _ => Err("an event line must be a JSON object".to_string()),
    }
}

/// Parses one JSONL line into an event.
pub fn parse_line(line: &str) -> Result<TraceEvent, JsonlError> {
    parse_line_inner(line).map_err(|message| JsonlError { line: 1, message })
}

/// Parses a whole JSONL document (blank lines are skipped); errors carry
/// the offending 1-based line number.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, JsonlError> {
    let mut events = Vec::new();
    for (index, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let event = parse_line_inner(trimmed).map_err(|message| JsonlError {
            line: index + 1,
            message,
        })?;
        events.push(event);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let mut metrics = RunMetrics::new(Termination::Solved);
        metrics.cycles = 9;
        metrics.maxcck = 12;
        metrics.total_checks = 40;
        metrics.messages_sent = 7;
        metrics.messages_dropped = 1;
        metrics.messages_retransmitted = 1;
        metrics.ok_messages = 7;
        vec![
            TraceEvent::AgentStep {
                cycle: 0,
                agent: AgentId::new(3),
                checks: 11,
            },
            TraceEvent::Sent {
                cycle: 0,
                from: AgentId::new(3),
                to: AgentId::new(1),
                class: MessageClass::Ok,
            },
            TraceEvent::Fault {
                cycle: 0,
                from: AgentId::new(3),
                to: AgentId::new(1),
                class: MessageClass::Ok,
                kind: FaultKind::Delayed(2),
            },
            TraceEvent::Fault {
                cycle: 1,
                from: AgentId::new(1),
                to: AgentId::new(2),
                class: MessageClass::Nogood,
                kind: FaultKind::Dropped,
            },
            TraceEvent::Delivered {
                cycle: 3,
                from: AgentId::new(3),
                to: AgentId::new(1),
                class: MessageClass::Ok,
            },
            TraceEvent::ValueChanged {
                cycle: 3,
                var: VariableId::new(1),
                old: None,
                new: Value::new(2),
            },
            TraceEvent::ValueChanged {
                cycle: 4,
                var: VariableId::new(1),
                old: Some(Value::new(2)),
                new: Value::new(0),
            },
            TraceEvent::PriorityChanged {
                cycle: 4,
                agent: AgentId::new(1),
                priority: 3,
            },
            TraceEvent::NogoodLearned {
                cycle: 4,
                agent: AgentId::new(1),
                size: 2,
            },
            TraceEvent::NogoodForgotten {
                cycle: 4,
                agent: AgentId::new(1),
                count: 3,
            },
            TraceEvent::CycleBarrier { cycle: 4 },
            TraceEvent::RunEnd {
                cycle: 9,
                runtime: RuntimeKind::Virtual,
                in_flight: 0,
                metrics,
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for event in sample_events() {
            let line = event_to_json(&event);
            assert!(!line.contains('\n'));
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "{line}");
        }
    }

    #[test]
    fn document_round_trips_with_blank_lines() {
        let events = sample_events();
        let mut text = String::new();
        for event in &events {
            text.push_str(&event_to_json(event));
            text.push('\n');
            text.push('\n');
        }
        assert_eq!(parse_trace(&text), Ok(events));
    }

    #[test]
    fn errors_locate_the_line() {
        let good = event_to_json(&TraceEvent::CycleBarrier { cycle: 1 });
        let text = format!("{good}\nnot json\n");
        let err = parse_trace(&text).expect_err("second line is garbage");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn hostile_lines_are_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "{}",
            "[1,2]",
            "{\"ev\":\"agent_step\"}",
            "{\"ev\":\"nope\",\"cycle\":1}",
            "{\"ev\":\"agent_step\",\"cycle\":1,\"agent\":1,\"checks\":-3}",
            "{\"ev\":\"agent_step\",\"cycle\":1,\"agent\":99999999999,\"checks\":0}",
            "{\"ev\":\"agent_step\",\"cycle\":1,\"agent\":1,\"checks\":1.5}",
            "{\"ev\":\"sent\",\"cycle\":1,\"from\":0,\"to\":1,\"class\":\"bogus\"}",
            "{\"ev\":\"agent_step\",\"cycle\":1,\"cycle\":2,\"agent\":0,\"checks\":0}",
            "{\"ev\":\"cycle_barrier\",\"cycle\":1} trailing",
            "{\"ev\":\"run_end\",\"cycle\":1,\"runtime\":\"sync\",\"in_flight\":0,\"metrics\":{}}",
            "{\"ev\":\"agent_step\",\"cycle\":18446744073709551616,\"agent\":0,\"checks\":0}",
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn retired_runtime_names_are_rejected() {
        let run_end = sample_events().pop().expect("ends with RunEnd");
        let line = event_to_json(&run_end);
        assert!(line.contains("\"runtime\":\"virtual\""), "{line}");
        let retired = line.replace("\"runtime\":\"virtual\"", "\"runtime\":\"async\"");
        assert_eq!(
            parse_line(&retired),
            Err(JsonlError {
                line: 1,
                message: "unknown runtime \"async\"".to_string(),
            })
        );
    }

    #[test]
    fn escapes_are_out_of_schema() {
        assert!(parse_line("{\"ev\":\"cycle_\\u0062arrier\",\"cycle\":1}").is_err());
    }
}
