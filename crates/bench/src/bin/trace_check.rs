//! Validates a JSON-lines trace produced by `--trace-json`.
//!
//! ```sh
//! cargo run --release -p accpar-bench --bin perf_baseline -- \
//!     --quick --trace-json trace.jsonl
//! cargo run --release -p accpar-bench --bin trace_check -- trace.jsonl
//! ```
//!
//! Checks, line by line, that:
//!
//! * every line parses as a JSON object with a known `kind`
//!   (`span_start`, `span_end`, `event`, `metric`);
//! * every `span_end` closes a started span, and every span `parent` /
//!   event `span` reference points to a started span;
//! * the trace contains the records the observability layer promises
//!   for a planner run: a `plan` span, nested `plan.level` spans, one
//!   `plan.decision` event per (plan-tree node, layer), a
//!   `plan.cache_stats` event, a `sim.report` event, and metric records
//!   for the memo (`cost.cache.hits` / `cost.cache.misses`) and the
//!   simulator (`sim.steps`);
//! * every `plan.decision` payload is well-formed: `ptype` is one of the
//!   paper's three partition types, `layer` / `node` are integers, and
//!   `name` is a non-empty string (this covers the lowered attention
//!   projections and embedding layers too — new layer kinds must still
//!   speak the same decision vocabulary);
//! * every `plan.partial` / `plan.cancelled` payload is well-formed:
//!   `completeness` in `[0, 1]`, `reason` one of `deadline` /
//!   `node-budget` / `cancelled` (and `cancelled` for a
//!   `plan.cancelled` event), integer `solved_levels` /
//!   `fallback_levels`, boolean `baseline_adopted`.
//!
//! With `--expect-partial`, additionally fails unless the trace holds at
//! least one `plan.partial` event and a `plan.level_fallback` event —
//! the shape a budget-stopped anytime run must leave behind.
//!
//! The plan-cache vocabulary is schema-checked wherever it appears:
//! every `cache.validate` span carries a 32-hex-digit `key`, a
//! `strategy` string and an integer `levels`; every
//! `cache.validate.outcome` event carries a `result` in `hit` / `miss` /
//! `invalid` / `poisoned` / `disabled` (and, for a hit, a numeric `cost`
//! plus a boolean `fresh_sim`); `cache.quarantine` / `cache.compact` /
//! `cache.degraded` / `cache.demote` payloads are shape-checked; every `serve.shed` event
//! carries a `shed_reason` of `queue-full` or `budget-expiry`. With
//! `--expect-cache-hit`, additionally fails unless the trace holds a
//! `cache.validate` span, a `cache.validate.outcome` event with
//! `result: "hit"`, and a `cache.hit` metric — the shape a served cache
//! hit must leave behind.
//!
//! The DES vocabulary is schema-checked wherever it appears: every
//! `des.*` metric must use a known name — the counters `des.sims`,
//! `des.tasks` and `des.dep_edges` (non-negative integer `value`) and
//! the build/schedule phase timers `des.build_us` / `des.schedule_us`
//! (histograms with integer `count >= 1` and numeric `sum >= 0`). With
//! `--expect-des`, additionally fails unless the trace holds all five —
//! the shape a traced discrete-event simulation must leave behind.
//!
//! The isomorphism-collapse vocabulary is schema-checked wherever it
//! appears: every `plan.iso` span carries integer `classes >= 1` and
//! `layers >= 1` fields and a `collapse_ratio` in `(0, 1]`; every
//! `iso.*` metric must use a known name — the counters `iso.classes`
//! and `iso.stamped_rows` (non-negative integer `value`) and the gauge
//! `iso.collapse_ratio` (numeric `value` in `(0, 1]`). With
//! `--expect-iso`, additionally fails unless the trace holds a
//! `plan.iso` span and all three metrics — the shape a traced collapsed
//! planner run must leave behind.
//!
//! The live-replanning vocabulary is schema-checked wherever it
//! appears: every `supervise.decide` span carries an integer `events`
//! and a boolean `reconcile`; every `health.event` payload carries a
//! `kind` in `degrade` / `fail` / `recover` / `bandwidth-jitter`, an
//! integer `target` and a numeric `at >= 0`; every `supervise.decision`
//! payload carries an `action` in `hold` / `adopt` / `keep` /
//! `promote` / `fallback` / `shed`, integer `events`, numeric
//! `at >= 0`, a boolean `replanned` and a positive `degradation`
//! (`null` for a shed decision — non-finite values serialize as null);
//! every `supervise.*` metric must use a known name — the counters
//! `supervise.events` / `.debounced` / `.decisions` / `.replans` /
//! `.retries` / `.held` / `.adopted` / `.kept` / `.promotions` /
//! `.fallbacks` / `.sheds`, the `supervise.degradation` gauge and the
//! `supervise.reaction_ns` histogram. With `--expect-health`,
//! additionally fails unless the trace holds a `supervise.decide` span,
//! a `health.event` and a `supervise.decision` event, and the
//! `supervise.events` / `supervise.decisions` / `supervise.replans`
//! metrics — the shape a traced supervised run must leave behind.
//!
//! Exits non-zero with one message per violation.

use accpar_obs::json::Json;
use std::collections::{HashMap, HashSet};
use std::process::ExitCode;

/// Integer span id out of a `Json` number, if present and integral.
fn id_of(record: &Json, key: &str) -> Option<u64> {
    let v = record.get(key)?.as_f64()?;
    if v.fract() == 0.0 && v >= 0.0 {
        Some(v as u64)
    } else {
        None
    }
}

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut expect_partial = false;
    let mut expect_cache_hit = false;
    let mut expect_des = false;
    let mut expect_iso = false;
    let mut expect_health = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--expect-partial" => expect_partial = true,
            "--expect-cache-hit" => expect_cache_hit = true,
            "--expect-des" => expect_des = true,
            "--expect-iso" => expect_iso = true,
            "--expect-health" => expect_health = true,
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: trace_check TRACE.jsonl [--expect-partial] [--expect-cache-hit] [--expect-des] [--expect-iso] [--expect-health]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!(
            "usage: trace_check TRACE.jsonl [--expect-partial] [--expect-cache-hit] [--expect-des] [--expect-iso] [--expect-health]"
        );
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut errors: Vec<String> = Vec::new();
    let mut started: HashSet<u64> = HashSet::new();
    let mut ended: HashSet<u64> = HashSet::new();
    let mut span_names: HashMap<u64, String> = HashMap::new();
    let mut event_counts: HashMap<String, usize> = HashMap::new();
    let mut metric_names: HashSet<String> = HashSet::new();
    let mut cache_hit_outcomes = 0usize;
    let mut lines = 0usize;

    for (no, line) in text.lines().enumerate() {
        let no = no + 1;
        if line.trim().is_empty() {
            continue;
        }
        lines += 1;
        let record = match Json::parse(line) {
            Ok(r) => r,
            Err(e) => {
                errors.push(format!("line {no}: not valid JSON: {e}"));
                continue;
            }
        };
        let kind = match record.get("kind").and_then(Json::as_str) {
            Some(k) => k.to_string(),
            None => {
                errors.push(format!("line {no}: record has no `kind`"));
                continue;
            }
        };
        match kind.as_str() {
            "span_start" => {
                let Some(id) = id_of(&record, "id") else {
                    errors.push(format!("line {no}: span_start has no integer `id`"));
                    continue;
                };
                if !started.insert(id) {
                    errors.push(format!("line {no}: span id {id} started twice"));
                }
                if let Some(name) = record.get("name").and_then(Json::as_str) {
                    span_names.insert(id, name.to_string());
                    if name == "cache.validate" {
                        let fields =
                            record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                        match fields.get("key").and_then(Json::as_str) {
                            Some(key)
                                if key.len() == 32
                                    && key.chars().all(|c| c.is_ascii_hexdigit()) => {}
                            _ => errors.push(format!(
                                "line {no}: cache.validate `key` is not 32 hex digits"
                            )),
                        }
                        match fields.get("strategy").and_then(Json::as_str) {
                            Some(s) if !s.is_empty() => {}
                            _ => errors.push(format!(
                                "line {no}: cache.validate has no non-empty `strategy`"
                            )),
                        }
                        if id_of(&fields, "levels").is_none() {
                            errors.push(format!(
                                "line {no}: cache.validate has no integer `levels`"
                            ));
                        }
                    }
                    if name == "plan.iso" {
                        let fields =
                            record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                        for field in ["classes", "layers"] {
                            match id_of(&fields, field) {
                                Some(v) if v >= 1 => {}
                                _ => errors.push(format!(
                                    "line {no}: plan.iso has no integer `{field}` >= 1"
                                )),
                            }
                        }
                        match fields.get("collapse_ratio").and_then(Json::as_f64) {
                            Some(r) if r > 0.0 && r <= 1.0 => {}
                            _ => errors.push(format!(
                                "line {no}: plan.iso `collapse_ratio` is not in (0, 1]"
                            )),
                        }
                    }
                    if name == "supervise.decide" {
                        let fields =
                            record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                        if id_of(&fields, "events").is_none() {
                            errors.push(format!(
                                "line {no}: supervise.decide has no integer `events`"
                            ));
                        }
                        if fields.get("reconcile").and_then(Json::as_bool).is_none() {
                            errors.push(format!(
                                "line {no}: supervise.decide has no boolean `reconcile`"
                            ));
                        }
                    }
                } else {
                    errors.push(format!("line {no}: span_start has no `name`"));
                }
                if let Some(parent) = id_of(&record, "parent") {
                    if !started.contains(&parent) {
                        errors.push(format!(
                            "line {no}: span {id} references unstarted parent {parent}"
                        ));
                    }
                }
            }
            "span_end" => {
                let Some(id) = id_of(&record, "id") else {
                    errors.push(format!("line {no}: span_end has no integer `id`"));
                    continue;
                };
                if !started.contains(&id) {
                    errors.push(format!("line {no}: span_end for unstarted span {id}"));
                }
                if !ended.insert(id) {
                    errors.push(format!("line {no}: span id {id} ended twice"));
                }
                if id_of(&record, "dur_ns").is_none() {
                    errors.push(format!("line {no}: span_end has no integer `dur_ns`"));
                }
            }
            "event" => {
                let Some(name) = record.get("name").and_then(Json::as_str) else {
                    errors.push(format!("line {no}: event has no `name`"));
                    continue;
                };
                *event_counts.entry(name.to_string()).or_insert(0) += 1;
                if let Some(span) = id_of(&record, "span") {
                    if !started.contains(&span) {
                        errors.push(format!(
                            "line {no}: event `{name}` references unstarted span {span}"
                        ));
                    }
                }
                if name == "plan.decision" {
                    let fields = record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                    match fields.get("ptype").and_then(Json::as_str) {
                        Some("Type-I" | "Type-II" | "Type-III") => {}
                        Some(other) => errors.push(format!(
                            "line {no}: plan.decision has unknown ptype `{other}`"
                        )),
                        None => errors
                            .push(format!("line {no}: plan.decision has no string `ptype`")),
                    }
                    for field in ["layer", "node"] {
                        if id_of(&fields, field).is_none() {
                            errors.push(format!(
                                "line {no}: plan.decision has no integer `{field}`"
                            ));
                        }
                    }
                    match fields.get("name").and_then(Json::as_str) {
                        Some(n) if !n.is_empty() => {}
                        _ => errors.push(format!(
                            "line {no}: plan.decision has no non-empty `name`"
                        )),
                    }
                    match fields.get("ratio").and_then(Json::as_f64) {
                        Some(r) if (0.0..=1.0).contains(&r) => {}
                        _ => errors.push(format!(
                            "line {no}: plan.decision `ratio` is not in [0, 1]"
                        )),
                    }
                }
                if name == "cache.validate.outcome" {
                    let fields = record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                    match fields.get("result").and_then(Json::as_str) {
                        Some("hit") => {
                            cache_hit_outcomes += 1;
                            match fields.get("cost").and_then(Json::as_f64) {
                                Some(c) if c >= 0.0 => {}
                                _ => errors.push(format!(
                                    "line {no}: a hit outcome has no non-negative `cost`"
                                )),
                            }
                            if fields.get("fresh_sim").and_then(Json::as_bool).is_none() {
                                errors.push(format!(
                                    "line {no}: a hit outcome has no boolean `fresh_sim`"
                                ));
                            }
                        }
                        Some("miss" | "invalid" | "poisoned" | "disabled") => {}
                        Some(other) => errors.push(format!(
                            "line {no}: cache.validate.outcome has unknown result `{other}`"
                        )),
                        None => errors.push(format!(
                            "line {no}: cache.validate.outcome has no string `result`"
                        )),
                    }
                }
                if name == "serve.shed" {
                    let fields = record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                    match fields.get("shed_reason").and_then(Json::as_str) {
                        Some("queue-full" | "budget-expiry") => {}
                        Some(other) => errors.push(format!(
                            "line {no}: serve.shed has unknown shed_reason `{other}`"
                        )),
                        None => errors.push(format!(
                            "line {no}: serve.shed has no string `shed_reason`"
                        )),
                    }
                }
                if name == "cache.quarantine" {
                    let fields = record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                    match fields.get("reason").and_then(Json::as_str) {
                        Some(r) if !r.is_empty() => {}
                        _ => errors.push(format!(
                            "line {no}: cache.quarantine has no non-empty `reason`"
                        )),
                    }
                    if id_of(&fields, "bytes").is_none() {
                        errors.push(format!(
                            "line {no}: cache.quarantine has no integer `bytes`"
                        ));
                    }
                }
                if name == "cache.compact" {
                    let fields = record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                    for field in ["records", "bytes"] {
                        if id_of(&fields, field).is_none() {
                            errors.push(format!(
                                "line {no}: cache.compact has no integer `{field}`"
                            ));
                        }
                    }
                }
                if name == "cache.degraded" {
                    let fields = record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                    for field in ["op", "error"] {
                        match fields.get(field).and_then(Json::as_str) {
                            Some(v) if !v.is_empty() => {}
                            _ => errors.push(format!(
                                "line {no}: cache.degraded has no non-empty `{field}`"
                            )),
                        }
                    }
                }
                if name == "cache.demote" {
                    let fields = record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                    match fields.get("strategy").and_then(Json::as_str) {
                        Some(s) if !s.is_empty() => {}
                        _ => errors.push(format!(
                            "line {no}: cache.demote has no non-empty `strategy`"
                        )),
                    }
                    if id_of(&fields, "faults").is_none() {
                        errors.push(format!(
                            "line {no}: cache.demote has no integer `faults`"
                        ));
                    }
                }
                if name == "health.event" {
                    let fields = record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                    match fields.get("kind").and_then(Json::as_str) {
                        Some("degrade" | "fail" | "recover" | "bandwidth-jitter") => {}
                        Some(other) => errors.push(format!(
                            "line {no}: health.event has unknown kind `{other}`"
                        )),
                        None => errors
                            .push(format!("line {no}: health.event has no string `kind`")),
                    }
                    if id_of(&fields, "target").is_none() {
                        errors.push(format!(
                            "line {no}: health.event has no integer `target`"
                        ));
                    }
                    match fields.get("at").and_then(Json::as_f64) {
                        Some(at) if at >= 0.0 => {}
                        _ => errors.push(format!(
                            "line {no}: health.event has no numeric `at` >= 0"
                        )),
                    }
                }
                if name == "supervise.decision" {
                    let fields = record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                    match fields.get("action").and_then(Json::as_str) {
                        Some("hold" | "adopt" | "keep" | "promote" | "fallback" | "shed") => {}
                        Some(other) => errors.push(format!(
                            "line {no}: supervise.decision has unknown action `{other}`"
                        )),
                        None => errors.push(format!(
                            "line {no}: supervise.decision has no string `action`"
                        )),
                    }
                    if id_of(&fields, "events").is_none() {
                        errors.push(format!(
                            "line {no}: supervise.decision has no integer `events`"
                        ));
                    }
                    match fields.get("at").and_then(Json::as_f64) {
                        Some(at) if at >= 0.0 => {}
                        _ => errors.push(format!(
                            "line {no}: supervise.decision has no numeric `at` >= 0"
                        )),
                    }
                    if fields.get("replanned").and_then(Json::as_bool).is_none() {
                        errors.push(format!(
                            "line {no}: supervise.decision has no boolean `replanned`"
                        ));
                    }
                    // A shed decision's infinite degradation serializes
                    // as null; anything servable must be positive.
                    match fields.get("degradation") {
                        Some(Json::Null) => {}
                        Some(d) if d.as_f64().is_some_and(|d| d > 0.0) => {}
                        _ => errors.push(format!(
                            "line {no}: supervise.decision `degradation` is neither positive nor null"
                        )),
                    }
                }
                if name == "plan.partial" || name == "plan.cancelled" {
                    let fields = record.get("fields").cloned().unwrap_or(Json::obj(vec![]));
                    match fields.get("completeness").and_then(Json::as_f64) {
                        Some(c) if (0.0..=1.0).contains(&c) => {}
                        _ => errors.push(format!(
                            "line {no}: {name} `completeness` is not in [0, 1]"
                        )),
                    }
                    match fields.get("reason").and_then(Json::as_str) {
                        Some("cancelled") => {}
                        Some("deadline" | "node-budget") if name == "plan.partial" => {}
                        Some(other) => errors.push(format!(
                            "line {no}: {name} has invalid reason `{other}`"
                        )),
                        None => {
                            errors.push(format!("line {no}: {name} has no string `reason`"));
                        }
                    }
                    for field in ["solved_levels", "fallback_levels"] {
                        if id_of(&fields, field).is_none() {
                            errors.push(format!("line {no}: {name} has no integer `{field}`"));
                        }
                    }
                    if fields.get("baseline_adopted").and_then(Json::as_bool).is_none() {
                        errors.push(format!(
                            "line {no}: {name} has no boolean `baseline_adopted`"
                        ));
                    }
                }
            }
            "metric" => {
                let name = match record.get("name").and_then(Json::as_str) {
                    Some(name) => {
                        metric_names.insert(name.to_string());
                        name.to_string()
                    }
                    None => {
                        errors.push(format!("line {no}: metric has no `name`"));
                        String::new()
                    }
                };
                let mtype = record.get("type").and_then(Json::as_str).map(str::to_string);
                if mtype.is_none() {
                    errors.push(format!("line {no}: metric has no `type`"));
                }
                // The des.* vocabulary is closed: three counters and two
                // phase timers, each with a fixed payload shape.
                if name.starts_with("des.") {
                    match name.as_str() {
                        "des.sims" | "des.tasks" | "des.dep_edges" => {
                            if mtype.as_deref() != Some("counter") {
                                errors.push(format!("line {no}: `{name}` is not a counter"));
                            }
                            if id_of(&record, "value").is_none() {
                                errors.push(format!(
                                    "line {no}: `{name}` has no non-negative integer `value`"
                                ));
                            }
                        }
                        "des.build_us" | "des.schedule_us" => {
                            if mtype.as_deref() != Some("histogram") {
                                errors.push(format!("line {no}: `{name}` is not a histogram"));
                            }
                            match id_of(&record, "count") {
                                Some(c) if c >= 1 => {}
                                _ => errors.push(format!(
                                    "line {no}: `{name}` has no integer `count` >= 1"
                                )),
                            }
                            match record.get("sum").and_then(Json::as_f64) {
                                Some(s) if s >= 0.0 => {}
                                _ => errors.push(format!(
                                    "line {no}: `{name}` has no numeric `sum` >= 0"
                                )),
                            }
                        }
                        other => errors.push(format!(
                            "line {no}: unknown des.* metric `{other}`"
                        )),
                    }
                }
                // The iso.* vocabulary is closed: two counters and the
                // collapse-ratio gauge, each with a fixed payload shape.
                if name.starts_with("iso.") {
                    match name.as_str() {
                        "iso.classes" | "iso.stamped_rows" => {
                            if mtype.as_deref() != Some("counter") {
                                errors.push(format!("line {no}: `{name}` is not a counter"));
                            }
                            if id_of(&record, "value").is_none() {
                                errors.push(format!(
                                    "line {no}: `{name}` has no non-negative integer `value`"
                                ));
                            }
                        }
                        "iso.collapse_ratio" => {
                            if mtype.as_deref() != Some("gauge") {
                                errors.push(format!("line {no}: `{name}` is not a gauge"));
                            }
                            match record.get("value").and_then(Json::as_f64) {
                                Some(r) if r > 0.0 && r <= 1.0 => {}
                                _ => errors.push(format!(
                                    "line {no}: `{name}` has no numeric `value` in (0, 1]"
                                )),
                            }
                        }
                        other => errors.push(format!(
                            "line {no}: unknown iso.* metric `{other}`"
                        )),
                    }
                }
                // The supervise.* vocabulary is closed: eleven
                // counters, the degradation gauge and the reaction
                // histogram, each with a fixed payload shape.
                if name.starts_with("supervise.") {
                    match name.as_str() {
                        "supervise.events" | "supervise.debounced" | "supervise.decisions"
                        | "supervise.replans" | "supervise.retries" | "supervise.held"
                        | "supervise.adopted" | "supervise.kept" | "supervise.promotions"
                        | "supervise.fallbacks" | "supervise.sheds" => {
                            if mtype.as_deref() != Some("counter") {
                                errors.push(format!("line {no}: `{name}` is not a counter"));
                            }
                            if id_of(&record, "value").is_none() {
                                errors.push(format!(
                                    "line {no}: `{name}` has no non-negative integer `value`"
                                ));
                            }
                        }
                        "supervise.degradation" => {
                            if mtype.as_deref() != Some("gauge") {
                                errors.push(format!("line {no}: `{name}` is not a gauge"));
                            }
                            // Shedding sets the gauge to infinity,
                            // which serializes as null.
                            match record.get("value") {
                                Some(Json::Null) => {}
                                Some(v) if v.as_f64().is_some_and(|v| v > 0.0) => {}
                                _ => errors.push(format!(
                                    "line {no}: `{name}` has no positive-or-null `value`"
                                )),
                            }
                        }
                        "supervise.reaction_ns" => {
                            if mtype.as_deref() != Some("histogram") {
                                errors.push(format!("line {no}: `{name}` is not a histogram"));
                            }
                            match id_of(&record, "count") {
                                Some(c) if c >= 1 => {}
                                _ => errors.push(format!(
                                    "line {no}: `{name}` has no integer `count` >= 1"
                                )),
                            }
                            match record.get("sum").and_then(Json::as_f64) {
                                Some(s) if s >= 0.0 => {}
                                _ => errors.push(format!(
                                    "line {no}: `{name}` has no numeric `sum` >= 0"
                                )),
                            }
                        }
                        other => errors.push(format!(
                            "line {no}: unknown supervise.* metric `{other}`"
                        )),
                    }
                }
            }
            other => errors.push(format!("line {no}: unknown record kind `{other}`")),
        }
    }

    for id in &started {
        if !ended.contains(id) {
            let name = span_names.get(id).map(String::as_str).unwrap_or("?");
            errors.push(format!("span {id} (`{name}`) started but never ended"));
        }
    }

    let spans_named =
        |name: &str| span_names.values().filter(|n| n.as_str() == name).count();
    for required in ["plan", "plan.level"] {
        if spans_named(required) == 0 {
            errors.push(format!("no `{required}` span in trace"));
        }
    }
    for required in ["plan.decision", "plan.cache_stats", "sim.report"] {
        if event_counts.get(required).copied().unwrap_or(0) == 0 {
            errors.push(format!("no `{required}` event in trace"));
        }
    }
    for required in ["cost.cache.hits", "cost.cache.misses", "sim.steps"] {
        if !metric_names.contains(required) {
            errors.push(format!("no `{required}` metric in trace"));
        }
    }
    if expect_partial {
        for required in ["plan.partial", "plan.level_fallback"] {
            if event_counts.get(required).copied().unwrap_or(0) == 0 {
                errors.push(format!(
                    "no `{required}` event in trace (required by --expect-partial)"
                ));
            }
        }
    }
    if expect_cache_hit {
        if spans_named("cache.validate") == 0 {
            errors.push("no `cache.validate` span in trace (required by --expect-cache-hit)".into());
        }
        if cache_hit_outcomes == 0 {
            errors.push(
                "no `cache.validate.outcome` event with result `hit` in trace (required by --expect-cache-hit)"
                    .into(),
            );
        }
        if !metric_names.contains("cache.hit") {
            errors.push("no `cache.hit` metric in trace (required by --expect-cache-hit)".into());
        }
    }
    if expect_des {
        for required in [
            "des.sims",
            "des.tasks",
            "des.dep_edges",
            "des.build_us",
            "des.schedule_us",
        ] {
            if !metric_names.contains(required) {
                errors.push(format!(
                    "no `{required}` metric in trace (required by --expect-des)"
                ));
            }
        }
    }
    if expect_iso {
        if spans_named("plan.iso") == 0 {
            errors.push("no `plan.iso` span in trace (required by --expect-iso)".into());
        }
        for required in ["iso.classes", "iso.stamped_rows", "iso.collapse_ratio"] {
            if !metric_names.contains(required) {
                errors.push(format!(
                    "no `{required}` metric in trace (required by --expect-iso)"
                ));
            }
        }
    }
    if expect_health {
        if spans_named("supervise.decide") == 0 {
            errors.push("no `supervise.decide` span in trace (required by --expect-health)".into());
        }
        for required in ["health.event", "supervise.decision"] {
            if event_counts.get(required).copied().unwrap_or(0) == 0 {
                errors.push(format!(
                    "no `{required}` event in trace (required by --expect-health)"
                ));
            }
        }
        for required in ["supervise.events", "supervise.decisions", "supervise.replans"] {
            if !metric_names.contains(required) {
                errors.push(format!(
                    "no `{required}` metric in trace (required by --expect-health)"
                ));
            }
        }
    }

    if errors.is_empty() {
        println!(
            "trace OK: {lines} records, {} spans, {} decision events, {} metrics",
            started.len(),
            event_counts.get("plan.decision").copied().unwrap_or(0),
            metric_names.len()
        );
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("FAIL: {e}");
        }
        eprintln!("{} violation(s) in {path}", errors.len());
        ExitCode::FAILURE
    }
}
