//! In-memory spans for the traced pass, and the benchmark-owned probe
//! that cuts the engine call into one child span per round or slice.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use gossip_telemetry::{Probe, TraceEvent, TraceWriter};

/// One timed interval: a layer call, or a round/slice inside the engine
/// call. Spans of one scenario share its id.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index into [`Spans::ids`].
    pub scenario: usize,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Per-name totals derived from the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_ms: f64,
    /// Duration minus the time its child spans cover.
    pub self_ms: f64,
}

pub struct Spans {
    epoch: Instant,
    pub ids: Vec<String>,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            ids: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Register a scenario id; spans refer to it by the returned index.
    pub fn scenario(&mut self, id: String) -> usize {
        self.ids.push(id);
        self.ids.len() - 1
    }

    pub fn push(
        &mut self,
        name: &'static str,
        scenario: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            scenario,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Open a span ending now-ish; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &'static str, scenario: usize, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.push(name, scenario, parent, now, now)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = Instant::now();
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ms[p] += span.ms();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(&child_ms) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ms += span.ms();
            t.self_ms += span.ms() - child;
        }
        out
    }

    /// Write every span as one JSON line (times in microseconds from the
    /// first span's epoch).
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"scenario_id\":\"{}\",\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name,
                self.ids[s.scenario],
                us(s.start),
                us(s.end)
            )?;
        }
        Ok(())
    }
}

/// The traced pass's probe: serializes every event through a
/// [`TraceWriter`] into `io::sink()` (the cost `--trace` pays, minus the
/// disk), and cuts a child span of the engine call at each `Boundary`.
pub struct SpanProbe<'a> {
    writer: TraceWriter<io::Sink>,
    spans: &'a mut Spans,
    scenario: usize,
    parent: usize,
    last: Instant,
    seen_boundary: bool,
    /// Host milliseconds between consecutive `Boundary` events.
    pub round_ms: Vec<f64>,
    /// Highest round stamp of an applied mutation (0 when none).
    pub last_mutate_round: u64,
}

impl<'a> SpanProbe<'a> {
    /// A probe whose round spans are children of the span `parent`,
    /// which has just opened.
    pub fn new(spans: &'a mut Spans, scenario: usize, parent: usize) -> Self {
        let last = spans.spans[parent].start;
        SpanProbe {
            writer: TraceWriter::new(io::sink()),
            spans,
            scenario,
            parent,
            last,
            seen_boundary: false,
            round_ms: Vec::new(),
            last_mutate_round: 0,
        }
    }

    pub fn events(&self) -> u64 {
        self.writer.events()
    }
}

impl Probe for SpanProbe<'_> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &TraceEvent) {
        self.writer.record(event);
        match *event {
            TraceEvent::Boundary { scope, .. } => {
                let now = Instant::now();
                self.spans.push(
                    scope.tag(),
                    self.scenario,
                    Some(self.parent),
                    self.last,
                    now,
                );
                if self.seen_boundary {
                    self.round_ms.push((now - self.last).as_secs_f64() * 1e3);
                }
                self.seen_boundary = true;
                self.last = now;
            }
            TraceEvent::Mutate { round, .. } => {
                self.last_mutate_round = self.last_mutate_round.max(round);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_telemetry::BoundaryScope;

    #[test]
    fn boundaries_cut_child_spans_and_self_time_excludes_them() {
        let mut spans = Spans::new();
        let sc = spans.scenario("s".to_string());
        let engine = spans.open("engine", sc, None);
        let mut probe = SpanProbe::new(&mut spans, sc, engine);
        for round in 1..=3 {
            probe.record(&TraceEvent::Boundary {
                t: round,
                round,
                scope: BoundaryScope::Round,
            });
        }
        assert_eq!(probe.round_ms.len(), 2, "only consecutive boundaries");
        assert_eq!(probe.events(), 3);
        spans.close(engine);
        let times = spans.layer_times();
        let engine_t = times["engine"];
        let rounds = times[BoundaryScope::Round.tag()];
        assert_eq!(rounds.count, 3);
        assert!((engine_t.self_ms - (engine_t.total_ms - rounds.total_ms)).abs() < 1e-9);
        let mut out = Vec::new();
        spans.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }
}
