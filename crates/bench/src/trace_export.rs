//! Chrome/Perfetto trace export for the fleet flight recorder.
//!
//! [`perfetto_trace`] turns the [`TelemetryResult`] embedded in a
//! [`ClusterResult`] into the Trace Event Format (`trace.json`) that
//! both `chrome://tracing` and <https://ui.perfetto.dev> load directly:
//! one thread track per lane plus a trailing fleet track, flight-recorder
//! events as instants, completed requests as async begin/end slice pairs
//! (they overlap — a lane serves several requests at once), and the
//! metric registry as counter tracks. Timestamps are the simulator's
//! microseconds, which is exactly the unit the format expects.
//!
//! [`validate_trace`] is the CI well-formedness checker: schema fields,
//! per-track timestamp monotonicity, balanced/paired slices. It
//! validates the in-memory document so a failure points at the exporter,
//! not at a reparse.

use std::collections::HashMap;

use crate::json::Json;
use workload::cluster::ClusterResult;
use workload::telemetry::{EventKind, TelemetryResult, FLEET_TRACK};
use workload::ScaleEventKind;

fn scale_kind_name(kind: &ScaleEventKind) -> &'static str {
    match kind {
        ScaleEventKind::Provision { .. } => "provision",
        ScaleEventKind::Activate => "activate",
        ScaleEventKind::DrainStart => "drain_start",
        ScaleEventKind::CancelProvision => "cancel_provision",
        ScaleEventKind::Retire => "retire",
    }
}

/// One instant event (`ph: "i"`, thread scope).
fn instant(name: &str, tid: usize, ts: f64, args: Json) -> Json {
    Json::obj()
        .set("name", name)
        .set("ph", "i")
        .set("s", "t")
        .set("pid", 0u64)
        .set("tid", tid)
        .set("ts", ts)
        .set("args", args)
}

/// Builds the Trace Event Format document for `result`. Returns `None`
/// when the run was executed without telemetry.
pub fn perfetto_trace(result: &ClusterResult) -> Option<Json> {
    let tel: &TelemetryResult = result.telemetry.as_ref()?;
    let n = result.replicas.len();
    let fleet_tid = n;
    let tid_of = |lane: u32| {
        if lane == FLEET_TRACK {
            fleet_tid
        } else {
            lane as usize
        }
    };
    let mut events: Vec<Json> = Vec::new();
    events.push(
        Json::obj()
            .set("name", "process_name")
            .set("ph", "M")
            .set("pid", 0u64)
            .set("args", Json::obj().set("name", "sgdrc fleet")),
    );
    for (r, rep) in result.replicas.iter().enumerate() {
        events.push(
            Json::obj()
                .set("name", "thread_name")
                .set("ph", "M")
                .set("pid", 0u64)
                .set("tid", r)
                .set(
                    "args",
                    Json::obj().set("name", format!("lane{} ({})", r, rep.gpu.name())),
                ),
        );
    }
    events.push(
        Json::obj()
            .set("name", "thread_name")
            .set("ph", "M")
            .set("pid", 0u64)
            .set("tid", fleet_tid)
            .set("args", Json::obj().set("name", "fleet")),
    );

    for e in &tel.events {
        let tid = tid_of(e.lane);
        let name = e.kind.name();
        match e.kind {
            EventKind::Completed {
                task,
                latency_us,
                slo_ok,
            } => {
                // Requests overlap on a lane, so each is an async slice
                // pair keyed by the globally unique event sequence — the
                // begin is back-dated by the observed latency.
                let slice = format!("task{task}");
                events.push(
                    Json::obj()
                        .set("name", slice.as_str())
                        .set("cat", "request")
                        .set("ph", "b")
                        .set("id", e.seq)
                        .set("pid", 0u64)
                        .set("tid", tid)
                        .set("ts", e.at_us - latency_us)
                        .set(
                            "args",
                            Json::obj()
                                .set("task", u64::from(task))
                                .set("latency_us", latency_us)
                                .set("slo_ok", slo_ok),
                        ),
                );
                events.push(
                    Json::obj()
                        .set("name", slice.as_str())
                        .set("cat", "request")
                        .set("ph", "e")
                        .set("id", e.seq)
                        .set("pid", 0u64)
                        .set("tid", tid)
                        .set("ts", e.at_us),
                );
            }
            // Verdict payloads are exactly what the counter tracks plot.
            EventKind::TickVerdict { .. } => {}
            EventKind::Routed { task } => {
                events.push(instant(
                    name,
                    tid,
                    e.at_us,
                    Json::obj().set("task", u64::from(task)),
                ));
            }
            EventKind::Requeued { task, cause } => {
                events.push(instant(
                    name,
                    tid,
                    e.at_us,
                    Json::obj()
                        .set("task", u64::from(task))
                        .set("cause", cause.name()),
                ));
            }
            EventKind::RetryDispatched { task, attempt } => {
                events.push(instant(
                    name,
                    tid,
                    e.at_us,
                    Json::obj()
                        .set("task", u64::from(task))
                        .set("attempt", u64::from(attempt)),
                ));
            }
            EventKind::Refused { task, tier, reason } => {
                events.push(instant(
                    name,
                    tid,
                    e.at_us,
                    Json::obj()
                        .set("task", u64::from(task))
                        .set("tier", u64::from(tier))
                        .set("reason", reason.name()),
                ));
            }
            EventKind::TimeoutDropped { task } => {
                events.push(instant(
                    name,
                    tid,
                    e.at_us,
                    Json::obj().set("task", u64::from(task)),
                ));
            }
            EventKind::LsShed { task, count } => {
                events.push(instant(
                    name,
                    tid,
                    e.at_us,
                    Json::obj()
                        .set("task", u64::from(task))
                        .set("count", u64::from(count)),
                ));
            }
            EventKind::BeParked { count } | EventKind::BeResumed { count } => {
                events.push(instant(
                    name,
                    tid,
                    e.at_us,
                    Json::obj().set("count", u64::from(count)),
                ));
            }
            EventKind::FaultOnset { kind } | EventKind::FaultRecovered { kind } => {
                events.push(instant(
                    name,
                    tid,
                    e.at_us,
                    Json::obj().set("kind", kind.name()),
                ));
            }
            EventKind::MigrationOut { job, to } => {
                events.push(instant(
                    name,
                    tid,
                    e.at_us,
                    Json::obj()
                        .set("job", u64::from(job))
                        .set("to", u64::from(to)),
                ));
            }
            EventKind::MigrationIn { job, from } => {
                events.push(instant(
                    name,
                    tid,
                    e.at_us,
                    Json::obj()
                        .set("job", u64::from(job))
                        .set("from", u64::from(from)),
                ));
            }
            EventKind::Scale(kind) => {
                events.push(instant(
                    name,
                    tid,
                    e.at_us,
                    Json::obj().set("kind", scale_kind_name(&kind)),
                ));
            }
        }
    }

    // Counter tracks from the metric registry, sampled at tick instants.
    for s in &tel.series {
        // Per-tier series reuse the `lane` field for the tier rank.
        let counter = match s.lane {
            Some(rank) if s.name.starts_with("tier_") => format!("{}[tier{}]", s.name, rank),
            Some(lane) => format!("{}[lane{}]", s.name, lane),
            None => s.name.to_string(),
        };
        for (i, &v) in s.values.iter().enumerate() {
            events.push(
                Json::obj()
                    .set("name", counter.as_str())
                    .set("ph", "C")
                    .set("pid", 0u64)
                    .set("ts", tel.tick_us[i])
                    .set("args", Json::obj().set("value", v)),
            );
        }
    }

    Some(
        Json::obj()
            .set("traceEvents", Json::Arr(events))
            .set("displayTimeUnit", "ms"),
    )
}

fn field<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_f64(j: &Json) -> Option<f64> {
    match j {
        Json::Num(x) => Some(*x),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn as_str(j: &Json) -> Option<&str> {
    match j {
        Json::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Checks that `doc` is a well-formed Trace Event Format document:
/// every event carries the schema fields its phase requires, timestamps
/// are finite and monotone non-decreasing per thread track (async slice
/// pairs live on their own `(cat, id)` timelines and counters on their
/// own named timelines), synchronous `B`/`E` slices balance per track,
/// async `b`/`e` pairs match with `begin.ts <= end.ts`, and `X` slices
/// have non-negative durations.
pub fn validate_trace(doc: &Json) -> Result<(), String> {
    let events = match field(doc, "traceEvents") {
        Some(Json::Arr(events)) => events,
        Some(_) => return Err("traceEvents is not an array".into()),
        None => return Err("missing traceEvents".into()),
    };
    // (pid, tid) -> last instant/slice timestamp on the thread track.
    let mut track_ts: HashMap<(i64, i64), f64> = HashMap::new();
    // (pid, tid) -> open synchronous B/E nesting depth.
    let mut depth: HashMap<(i64, i64), i64> = HashMap::new();
    // (cat, id) -> open async begin timestamp.
    let mut open_async: HashMap<(String, String), f64> = HashMap::new();
    // (pid, counter name) -> last sample timestamp.
    let mut counter_ts: HashMap<(i64, String), f64> = HashMap::new();
    for (i, e) in events.iter().enumerate() {
        let ph = field(e, "ph")
            .and_then(as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        field(e, "name")
            .and_then(as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let ts = field(e, "ts")
            .and_then(as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        if !ts.is_finite() {
            return Err(format!("event {i}: non-finite ts"));
        }
        let pid = field(e, "pid")
            .and_then(as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))? as i64;
        match ph {
            "B" | "E" | "X" | "i" | "I" => {
                let tid = field(e, "tid")
                    .and_then(as_f64)
                    .ok_or_else(|| format!("event {i}: missing tid"))?
                    as i64;
                let track = (pid, tid);
                if let Some(&prev) = track_ts.get(&track) {
                    if ts < prev {
                        return Err(format!("event {i}: ts {ts} < {prev} on track {track:?}"));
                    }
                }
                track_ts.insert(track, ts);
                match ph {
                    "B" => *depth.entry(track).or_insert(0) += 1,
                    "E" => {
                        let d = depth.entry(track).or_insert(0);
                        if *d == 0 {
                            return Err(format!("event {i}: E without B on {track:?}"));
                        }
                        *d -= 1;
                    }
                    "X" => {
                        let dur = field(e, "dur")
                            .and_then(as_f64)
                            .ok_or_else(|| format!("event {i}: X without dur"))?;
                        if dur.is_nan() || dur < 0.0 {
                            return Err(format!("event {i}: negative dur {dur}"));
                        }
                    }
                    _ => {}
                }
            }
            "b" | "e" => {
                let cat = field(e, "cat")
                    .and_then(as_str)
                    .ok_or_else(|| format!("event {i}: async event without cat"))?;
                let id = field(e, "id")
                    .map(|j| match j {
                        Json::Str(s) => s.clone(),
                        Json::Int(v) => v.to_string(),
                        Json::Num(v) => v.to_string(),
                        other => format!("{other:?}"),
                    })
                    .ok_or_else(|| format!("event {i}: async event without id"))?;
                let key = (cat.to_string(), id);
                if ph == "b" {
                    if open_async.insert(key.clone(), ts).is_some() {
                        return Err(format!("event {i}: duplicate async begin {key:?}"));
                    }
                } else {
                    let begin = open_async
                        .remove(&key)
                        .ok_or_else(|| format!("event {i}: async end without begin {key:?}"))?;
                    if ts < begin {
                        return Err(format!("event {i}: async end {ts} before begin {begin}"));
                    }
                }
            }
            "C" => {
                let name = field(e, "name").and_then(as_str).unwrap_or_default();
                let key = (pid, name.to_string());
                if let Some(&prev) = counter_ts.get(&key) {
                    if ts < prev {
                        return Err(format!("event {i}: counter `{name}` ts {ts} < {prev}"));
                    }
                }
                counter_ts.insert(key, ts);
            }
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    for (track, d) in &depth {
        if *d != 0 {
            return Err(format!("unbalanced B/E on track {track:?}: depth {d}"));
        }
    }
    if let Some(key) = open_async.keys().next() {
        return Err(format!("async begin never ended: {key:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant_at(tid: usize, ts: f64) -> Json {
        instant("x", tid, ts, Json::obj())
    }

    #[test]
    fn validator_accepts_instants_async_pairs_and_counters() {
        let events = vec![
            Json::obj()
                .set("name", "thread_name")
                .set("ph", "M")
                .set("pid", 0u64)
                .set("tid", 0u64)
                .set("args", Json::obj().set("name", "lane0")),
            instant_at(0, 1.0),
            Json::obj()
                .set("name", "task0")
                .set("cat", "request")
                .set("ph", "b")
                .set("id", 7u64)
                .set("pid", 0u64)
                .set("tid", 0u64)
                .set("ts", 0.5),
            instant_at(0, 2.0),
            Json::obj()
                .set("name", "task0")
                .set("cat", "request")
                .set("ph", "e")
                .set("id", 7u64)
                .set("pid", 0u64)
                .set("tid", 0u64)
                .set("ts", 2.0),
            Json::obj()
                .set("name", "backlog[lane0]")
                .set("ph", "C")
                .set("pid", 0u64)
                .set("ts", 1.0)
                .set("args", Json::obj().set("value", 3.0)),
        ];
        let doc = Json::obj().set("traceEvents", Json::Arr(events));
        validate_trace(&doc).expect("valid trace");
    }

    #[test]
    fn validator_rejects_time_regressions_and_unbalanced_slices() {
        let regress = Json::obj().set(
            "traceEvents",
            Json::Arr(vec![instant_at(0, 5.0), instant_at(0, 4.0)]),
        );
        assert!(validate_trace(&regress).is_err());
        // Same regression on different tracks is fine.
        let two_tracks = Json::obj().set(
            "traceEvents",
            Json::Arr(vec![instant_at(0, 5.0), instant_at(1, 4.0)]),
        );
        validate_trace(&two_tracks).expect("independent tracks");
        let dangling = Json::obj().set(
            "traceEvents",
            Json::Arr(vec![Json::obj()
                .set("name", "t")
                .set("cat", "request")
                .set("ph", "b")
                .set("id", 1u64)
                .set("pid", 0u64)
                .set("tid", 0u64)
                .set("ts", 1.0)]),
        );
        assert!(validate_trace(&dangling).is_err());
    }
}
