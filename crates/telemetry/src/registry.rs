//! The fleetd metrics registry: named counters, gauges, and log2
//! latency histograms, sharded per worker.
//!
//! The usage pattern is register-then-share. Registration
//! ([`Registry::counter`] / [`Registry::gauge`] /
//! [`Registry::histogram`]) takes `&mut self` and returns a typed id;
//! it happens once, before workers spawn. After that every hot-path
//! update goes through `&self` — a relaxed atomic add into the caller's
//! shard — so the registry can sit behind an `Arc` with no locking and
//! no contended cache line (each shard's counter cell is padded to 64
//! bytes). [`Registry::snapshot`] sums the shards into plain numbers.
//!
//! Histograms use 64 log2 buckets over nanoseconds: an observation of
//! `ns` lands in bucket `floor(log2 ns)`, so the whole latency range
//! from 1 ns to ~584 years fits in a fixed 512-byte array per shard and
//! recording is a `leading_zeros` plus one atomic add. Percentiles are
//! reconstructed from the buckets by linear interpolation within the
//! matched bucket — at most a factor-of-two bound on any single
//! quantile, which is plenty for stage-cost breakdowns — and exported
//! as [`SampleStats`] so every consumer (the `{"event":"metrics"}`
//! line, `BENCH_telemetry.json`) shares one schema.

use crate::trace::{SessionTrace, Stage};
use criterion::SampleStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Log2 buckets per histogram: bucket `i` holds observations in
/// `[2^i, 2^(i+1))` ns (bucket 0 also takes 0 ns).
pub const BUCKETS: usize = 64;

/// One shard cell, padded to a cache line so workers on different
/// shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PadCell(AtomicU64);

struct CounterSlot {
    name: String,
    shards: Vec<PadCell>,
}

struct GaugeSlot {
    name: String,
    cell: AtomicU64,
}

struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for HistShard {
    fn default() -> Self {
        HistShard {
            buckets: [(); BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

struct HistSlot {
    name: String,
    shards: Vec<HistShard>,
}

/// A counter family keyed by a label value (e.g. per-tenant session
/// counts keyed by `client`). Labels arrive at runtime, so the cells
/// live behind a mutex instead of the pre-registered atomic lanes —
/// per-tenant folds happen once per completion, not on the hot path.
struct LabeledSlot {
    name: String,
    label_key: String,
    cells: Mutex<BTreeMap<String, u64>>,
}

/// Handle to a registered monotonic counter.
#[derive(Debug, Clone, Copy)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy)]
pub struct HistId(usize);

/// Handle to a registered labeled counter family.
#[derive(Debug, Clone, Copy)]
pub struct LabeledId(usize);

fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        63 - ns.leading_zeros() as usize
    }
}

/// The registry. See the module docs for the register-then-share
/// protocol and memory layout.
pub struct Registry {
    shards: usize,
    counters: Vec<CounterSlot>,
    gauges: Vec<GaugeSlot>,
    hists: Vec<HistSlot>,
    labeled: Vec<LabeledSlot>,
}

impl Registry {
    /// A registry with `shards` independent update lanes (one per
    /// worker; clamped to at least 1). Shard indices passed to update
    /// methods are taken modulo this count, so callers can pass a
    /// worker id directly.
    pub fn new(shards: usize) -> Self {
        Registry {
            shards: shards.max(1),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            labeled: Vec::new(),
        }
    }

    /// Registers a monotonic counter. Call before sharing the registry.
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.counters.push(CounterSlot {
            name: name.to_string(),
            shards: (0..self.shards).map(|_| PadCell::default()).collect(),
        });
        CounterId(self.counters.len() - 1)
    }

    /// Registers a gauge (a single settable value; `gauge_max` turns it
    /// into a high-water mark).
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        self.gauges.push(GaugeSlot {
            name: name.to_string(),
            cell: AtomicU64::new(0),
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a latency histogram (nanosecond observations, log2
    /// buckets).
    pub fn histogram(&mut self, name: &str) -> HistId {
        self.hists.push(HistSlot {
            name: name.to_string(),
            shards: (0..self.shards).map(|_| HistShard::default()).collect(),
        });
        HistId(self.hists.len() - 1)
    }

    /// Registers a labeled counter family: one logical counter fanned
    /// out by the runtime value of `label_key` (e.g. per-tenant session
    /// counts keyed by `client`). Call before sharing the registry.
    pub fn labeled_counter(&mut self, name: &str, label_key: &str) -> LabeledId {
        self.labeled.push(LabeledSlot {
            name: name.to_string(),
            label_key: label_key.to_string(),
            cells: Mutex::new(BTreeMap::new()),
        });
        LabeledId(self.labeled.len() - 1)
    }

    /// Adds `n` to a labeled counter's cell for `label`, creating the
    /// cell on first sight.
    pub fn add_labeled(&self, id: LabeledId, label: &str, n: u64) {
        let mut cells = self.labeled[id.0]
            .cells
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *cells.entry(label.to_string()).or_insert(0) += n;
    }

    /// Adds `n` to a counter on the caller's shard.
    pub fn add(&self, shard: usize, id: CounterId, n: u64) {
        self.counters[id.0].shards[shard % self.shards]
            .0
            .fetch_add(n, Relaxed);
    }

    /// Adds 1 to a counter on the caller's shard.
    pub fn inc(&self, shard: usize, id: CounterId) {
        self.add(shard, id, 1);
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, id: GaugeId, v: u64) {
        self.gauges[id.0].cell.store(v, Relaxed);
    }

    /// Raises a gauge to `v` if `v` is higher (high-water mark).
    pub fn gauge_max(&self, id: GaugeId, v: u64) {
        self.gauges[id.0].cell.fetch_max(v, Relaxed);
    }

    /// Adds `n` to a gauge (e.g. a connection opened).
    pub fn gauge_add(&self, id: GaugeId, n: u64) {
        self.gauges[id.0].cell.fetch_add(n, Relaxed);
    }

    /// Subtracts `n` from a gauge, saturating at zero.
    pub fn gauge_sub(&self, id: GaugeId, n: u64) {
        let _ = self.gauges[id.0]
            .cell
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// A gauge's current value.
    pub fn gauge_value(&self, id: GaugeId) -> u64 {
        self.gauges[id.0].cell.load(Relaxed)
    }

    /// Records one observation of `ns` nanoseconds on the caller's
    /// shard.
    pub fn observe_ns(&self, shard: usize, id: HistId, ns: u64) {
        let h = &self.hists[id.0].shards[shard % self.shards];
        h.buckets[bucket_of(ns)].fetch_add(1, Relaxed);
        h.count.fetch_add(1, Relaxed);
        h.sum_ns.fetch_add(ns, Relaxed);
        h.min_ns.fetch_min(ns, Relaxed);
        h.max_ns.fetch_max(ns, Relaxed);
    }

    /// Merges every shard into a plain-number snapshot.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|c| {
                    let total = c.shards.iter().map(|s| s.0.load(Relaxed)).sum();
                    (c.name.clone(), total)
                })
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|g| (g.name.clone(), g.cell.load(Relaxed)))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|h| {
                    let mut snap = HistSnapshot::default();
                    for s in &h.shards {
                        for (i, b) in s.buckets.iter().enumerate() {
                            snap.buckets[i] += b.load(Relaxed);
                        }
                        snap.count += s.count.load(Relaxed);
                        snap.sum_ns += s.sum_ns.load(Relaxed);
                        snap.min_ns = snap.min_ns.min(s.min_ns.load(Relaxed));
                        snap.max_ns = snap.max_ns.max(s.max_ns.load(Relaxed));
                    }
                    (h.name.clone(), snap)
                })
                .collect(),
            labeled: self
                .labeled
                .iter()
                .map(|l| LabeledSnapshot {
                    name: l.name.clone(),
                    label_key: l.label_key.clone(),
                    cells: l
                        .cells
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .iter()
                        .map(|(k, v)| (k.clone(), *v))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// One histogram per [`Stage`], registered as `"<prefix><stage>"`. The
/// fleetd service and the `--profile` aggregator both fold completed
/// sessions' [`SessionTrace`]s through this: each session contributes
/// its per-stage *total* as one observation, so the histogram answers
/// "how much does a session spend in this stage" (stages a session
/// never entered contribute nothing).
pub struct StageHists {
    ids: [HistId; Stage::COUNT],
}

impl StageHists {
    /// Registers one histogram per stage under
    /// `"<prefix><stage-name>"` (e.g. prefix `"stage_"` yields
    /// `stage_backend`).
    pub fn register(reg: &mut Registry, prefix: &str) -> Self {
        StageHists {
            ids: Stage::ALL.map(|s| reg.histogram(&format!("{prefix}{}", s.name()))),
        }
    }

    /// Folds one session's trace in: per non-empty stage, one
    /// observation of that stage's total ns.
    pub fn observe(&self, reg: &Registry, shard: usize, trace: &SessionTrace) {
        for (stage, cell) in trace.stages() {
            reg.observe_ns(shard, self.ids[stage.index()], cell.total_ns);
        }
    }
}

/// A merged histogram: shard-summed buckets plus exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq)]
pub struct HistSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, ns.
    pub sum_ns: u64,
    /// Smallest observation, ns (`u64::MAX` when empty).
    pub min_ns: u64,
    /// Largest observation, ns.
    pub max_ns: u64,
    /// Log2 bucket counts (see [`BUCKETS`]).
    pub buckets: [u64; BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Mean observation in ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile in ns, reconstructed from the buckets:
    /// walk the cumulative counts to the matching bucket, then
    /// interpolate linearly inside it, clamped to the exact observed
    /// min/max.
    pub fn percentile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let lo_rank = seen as f64;
            seen += n;
            if rank < seen as f64 {
                let lo = (1u64 << i) as f64;
                let hi = if i + 1 < BUCKETS {
                    (1u64 << (i + 1)) as f64
                } else {
                    self.max_ns as f64
                };
                let frac = if n > 1 {
                    ((rank - lo_rank) / (n - 1) as f64).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let v = lo + (hi - lo) * frac;
                return v.clamp(self.min_ns as f64, self.max_ns as f64);
            }
        }
        self.max_ns as f64
    }

    /// The snapshot as [`SampleStats`] in **milliseconds** (the unit
    /// every `BENCH_*.json` latency block uses). `None` when empty.
    /// Min/max/count/mean are exact; the inner percentiles carry the
    /// bucket-interpolation error.
    pub fn stats_ms(&self) -> Option<SampleStats> {
        if self.count == 0 {
            return None;
        }
        const MS: f64 = 1_000_000.0;
        Some(SampleStats {
            count: self.count,
            mean: self.mean_ns() / MS,
            min: self.min_ns as f64 / MS,
            p10: self.percentile_ns(0.10) / MS,
            median: self.percentile_ns(0.50) / MS,
            p90: self.percentile_ns(0.90) / MS,
            p99: self.percentile_ns(0.99) / MS,
            max: self.max_ns as f64 / MS,
        })
    }
}

/// One labeled counter family at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledSnapshot {
    /// Family name.
    pub name: String,
    /// The label key every cell is keyed by (e.g. `client`).
    pub label_key: String,
    /// `(label value, total)` per cell, in label order.
    pub cells: Vec<(String, u64)>,
}

/// A point-in-time merge of the whole registry, in registration order.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, shard-summed total)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, merged histogram)` per histogram.
    pub hists: Vec<(String, HistSnapshot)>,
    /// Labeled counter families.
    pub labeled: Vec<LabeledSnapshot>,
}

impl Snapshot {
    /// A counter's total by name (0 when absent — absent and
    /// never-incremented are indistinguishable by design).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// A gauge's value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// A histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// A labeled counter family by name.
    pub fn labeled(&self, name: &str) -> Option<&LabeledSnapshot> {
        self.labeled.iter().find(|l| l.name == name)
    }

    /// One cell of a labeled family (0 when the family or label is
    /// absent, matching [`Snapshot::counter`]'s convention).
    pub fn labeled_value(&self, name: &str, label: &str) -> u64 {
        self.labeled(name)
            .and_then(|l| l.cells.iter().find(|(k, _)| k == label))
            .map_or(0, |(_, v)| *v)
    }

    /// Renders the snapshot as the payload fields of a
    /// `{"event":"metrics"}` line: counters and gauges flat, non-empty
    /// histograms as `SampleStats` blocks in ms under `"latency_ms"`.
    /// The result is a JSON object fragment (no enclosing braces) so
    /// callers can splice event metadata around it.
    pub fn to_json_fields(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters.iter().chain(self.gauges.iter()) {
            out.push_str(&format!("\"{name}\":{v},"));
        }
        for fam in &self.labeled {
            out.push_str(&format!("\"{}\":{{", fam.name));
            for (i, (label, v)) in fam.cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{v}", json_quote(label)));
            }
            out.push_str("},");
        }
        out.push_str("\"latency_ms\":{");
        let mut first = true;
        for (name, h) in &self.hists {
            if let Some(stats) = h.stats_ms() {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{name}\":{}", stats.to_json()));
            }
        }
        out.push('}');
        out
    }
}

/// Quotes a string as a JSON string literal (the telemetry crate can't
/// use `topo_model::json::quote` — dependency direction — so the tiny
/// escaper lives here too).
pub(crate) fn json_quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_shards() {
        let mut reg = Registry::new(4);
        let c = reg.counter("submitted");
        for shard in 0..8 {
            reg.inc(shard, c);
        }
        reg.add(2, c, 10);
        assert_eq!(reg.snapshot().counter("submitted"), 18);
        assert_eq!(reg.snapshot().counter("missing"), 0);
    }

    #[test]
    fn gauge_max_is_a_high_water_mark() {
        let mut reg = Registry::new(1);
        let g = reg.gauge("queue_depth_hwm");
        reg.gauge_max(g, 3);
        reg.gauge_max(g, 9);
        reg.gauge_max(g, 5);
        assert_eq!(reg.snapshot().gauge("queue_depth_hwm"), 9);
        assert_eq!(reg.gauge_value(g), 9);
        reg.gauge_set(g, 1);
        assert_eq!(reg.snapshot().gauge("queue_depth_hwm"), 1);
        assert_eq!(reg.gauge_value(g), 1);
    }

    #[test]
    fn histogram_buckets_and_exact_extremes() {
        let mut reg = Registry::new(2);
        let h = reg.histogram("stage_sim");
        for (shard, ns) in [(0, 100u64), (1, 1_000), (0, 1_000_000), (1, 3)] {
            reg.observe_ns(shard, h, ns);
        }
        let snap = reg.snapshot();
        let hist = snap.hist("stage_sim").unwrap();
        assert_eq!(hist.count, 4);
        assert_eq!(hist.min_ns, 3);
        assert_eq!(hist.max_ns, 1_000_000);
        assert_eq!(hist.sum_ns, 1_001_103);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut reg = Registry::new(1);
        let h = reg.histogram("h");
        for ns in [10u64, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120] {
            reg.observe_ns(0, h, ns);
        }
        let snap = reg.snapshot();
        let hist = snap.hist("h").unwrap();
        let qs: Vec<f64> = [0.0, 0.1, 0.5, 0.9, 1.0]
            .iter()
            .map(|&q| hist.percentile_ns(q))
            .collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {qs:?}");
        }
        assert!(qs[0] >= 10.0 && qs[4] <= 5120.0);
        let stats = hist.stats_ms().unwrap();
        assert_eq!(stats.count, 10);
        assert!((stats.min - 10e-6).abs() < 1e-12);
        assert!((stats.max - 5120e-6).abs() < 1e-12);
        assert!(stats.p10 <= stats.median && stats.median <= stats.p90);
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let mut reg = Registry::new(1);
        reg.histogram("empty");
        let snap = reg.snapshot();
        assert_eq!(snap.hist("empty").unwrap().stats_ms(), None);
        assert_eq!(snap.hist("empty").unwrap().percentile_ns(0.5), 0.0);
    }

    #[test]
    fn stage_hists_fold_traces_per_stage() {
        use crate::trace::{SessionTrace, Stage};
        let mut reg = Registry::new(2);
        let stages = StageHists::register(&mut reg, "stage_");
        let mut t = SessionTrace::new();
        t.record_ns(Stage::Backend, 5_000);
        t.record_ns(Stage::Backend, 5_000);
        t.record_ns(Stage::Sim, 1_000);
        stages.observe(&reg, 0, &t);
        stages.observe(&reg, 1, &t);
        let snap = reg.snapshot();
        let backend = snap.hist("stage_backend").unwrap();
        // Two sessions, each contributing its 10µs backend *total*.
        assert_eq!(backend.count, 2);
        assert_eq!(backend.sum_ns, 20_000);
        assert_eq!(snap.hist("stage_sim").unwrap().count, 2);
        assert_eq!(snap.hist("stage_parse").unwrap().count, 0);
    }

    #[test]
    fn snapshot_json_fields_parse_when_wrapped() {
        let mut reg = Registry::new(1);
        let c = reg.counter("submitted");
        let g = reg.gauge("queue_depth_hwm");
        let h = reg.histogram("session");
        reg.add(0, c, 7);
        reg.gauge_max(g, 4);
        reg.observe_ns(0, h, 2_000_000);
        let fields = reg.snapshot().to_json_fields();
        let doc = format!("{{{fields}}}");
        let parsed = topo_parse(&doc);
        assert!(parsed.contains("\"submitted\":7"));
        assert!(parsed.contains("queue_depth_hwm"));
        assert!(parsed.contains("latency_ms"));
    }

    /// The telemetry crate can't depend on topo-model (dependency
    /// direction), so this stands in for "a strict parser accepts it":
    /// brace/quote balance plus a round-trip of the interesting
    /// substrings. The fleet integration tests parse the real lines
    /// with `topo_model::json::parse`.
    fn topo_parse(doc: &str) -> String {
        let mut depth = 0i32;
        let mut in_str = false;
        let mut prev = '\0';
        for c in doc.chars() {
            match c {
                '"' if prev != '\\' => in_str = !in_str,
                '{' if !in_str => depth += 1,
                '}' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "unbalanced braces in {doc}");
            prev = c;
        }
        assert_eq!(depth, 0, "unbalanced braces in {doc}");
        assert!(!in_str, "unterminated string in {doc}");
        doc.to_string()
    }
}
