//! Per-epoch phase timing and the traced run's spans.
//!
//! Every call the benchmark makes into the program is wrapped in
//! [`EpochClock::time`], which charges its wall time to one [`Layer`].
//! With tracing on, the same boundaries are also recorded as spans (name,
//! start, end, parent) that share the epoch as their request id; they are
//! kept in memory and written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// The layer a timed call belongs to, named after the module it enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Input generation in the benchmark (churn, detector draws, decoys).
    Gen,
    /// `complete` / `forget` calls into the engine.
    Lifecycle,
    /// `IngestPublisher::publish_batch` calls.
    Publish,
    /// `FleetEngine::tick`.
    FleetTick,
    /// `ShardedEngine::drain_tick`.
    DrainTick,
    /// Crediting responses back onto the simulated processes, and checks.
    Credit,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Gen,
        Layer::Lifecycle,
        Layer::Publish,
        Layer::FleetTick,
        Layer::DrainTick,
        Layer::Credit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "workloads.gen",
            Layer::Lifecycle => "engine.lifecycle",
            Layer::Publish => "ingest.publish",
            Layer::FleetTick => "fleet.tick",
            Layer::DrainTick => "sharded.drain_tick",
            Layer::Credit => "driver.credit",
        }
    }

    /// Whether the layer's time counts towards `tick_ms`: the program's own
    /// calls, not the benchmark's generation or crediting.
    pub fn in_tick(self) -> bool {
        matches!(
            self,
            Layer::Lifecycle | Layer::Publish | Layer::FleetTick | Layer::DrainTick
        )
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One recorded span. The root span of an epoch has no parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Request id: the pass and the epoch within it.
    pub pass: u32,
    pub epoch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Wall time per layer for one epoch, plus its spans when traced.
pub struct EpochClock {
    ns: [u64; 6],
    /// `Some` while tracing this epoch: (span start, span end, layer).
    spans: Option<Vec<(Instant, Instant, Layer)>>,
}

impl EpochClock {
    pub fn new(traced: bool) -> Self {
        Self {
            ns: [0; 6],
            spans: traced.then(Vec::new),
        }
    }

    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.ns[layer.index()] += (t1 - t0).as_nanos() as u64;
        if let Some(spans) = &mut self.spans {
            spans.push((t0, t1, layer));
        }
        out
    }

    /// Nanoseconds charged to `layer` this epoch.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer.index()]
    }

    /// Nanoseconds spent inside the program's calls this epoch.
    pub fn tick_ns(&self) -> u64 {
        Layer::ALL
            .iter()
            .filter(|l| l.in_tick())
            .map(|&l| self.ns(l))
            .sum()
    }
}

/// The traced run's span store: one root span per traced epoch with the
/// layer spans as its children.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Files the spans of one traced epoch under a root span covering
    /// `[start, end]`.
    pub fn record_epoch(
        &mut self,
        pass: u32,
        epoch: u64,
        start: Instant,
        end: Instant,
        clock: &EpochClock,
    ) {
        let Some(children) = &clock.spans else {
            return;
        };
        let ns = |t: Instant| (t - self.origin).as_nanos() as u64;
        let root = self.spans.len() as u32;
        self.spans.push(Span {
            id: root,
            parent: None,
            name: "epoch",
            pass,
            epoch,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        for &(t0, t1, layer) in children {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent: Some(root),
                name: layer.name(),
                pass,
                epoch,
                start_ns: ns(t0),
                end_ns: ns(t1),
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover (children of one parent never overlap here).
    pub fn self_times(&self) -> Vec<(Span, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .map(|s| {
                (
                    *s,
                    (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]),
                )
            })
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":\"{}:{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.pass, s.epoch, s.start_ns, s.end_ns
            );
        }
        out
    }
}
