//! A registry of named counters, gauges, and log-bucketed histograms.
//!
//! Producers register instruments once (getting back a cheap index
//! handle) and update them on hot paths with plain array stores — no
//! hashing, no locking, no allocation. [`MetricsRegistry::snapshot`]
//! freezes everything into a [`MetricsSnapshot`]: a deterministic,
//! comparable value that lands in simulation reports and renders as an
//! aligned text table or JSON.

use std::fmt;

use crate::json::{Json, JsonError};

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// Monotonic event counts, instantaneous values, and latency/size
/// distributions, addressed by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

/// Power-of-two bucketed histogram: bucket `i` counts samples in
/// `(2^(i-1+OFFSET), 2^(i+OFFSET)]`, with an underflow bucket at the
/// front. Covers ~1 ms to ~36 h with 28 buckets when samples are
/// seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    // Default is implemented manually below (min/max need non-zero
    // sentinels).
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Non-finite samples rejected by [`observe`](Self::observe) — kept
    /// out of every aggregate so one NaN cannot poison `sum`/`mean`.
    dropped: u64,
}

/// Smallest bucket upper bound, as a power of two (2^-10 ≈ 0.001).
const BUCKET_MIN_EXP: i32 = -10;
/// Number of finite buckets; the last one is an overflow catch-all.
const BUCKET_COUNT: usize = 28;

impl Histogram {
    /// An empty histogram. Public so deterministic components (e.g. the
    /// manager's per-round action sizes) can own one directly instead of
    /// going through a [`MetricsRegistry`].
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKET_COUNT],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            dropped: 0,
        }
    }

    /// Records one sample (non-finite samples are counted and dropped).
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            // A single NaN would make sum/mean NaN forever (and the
            // bucketing would shunt it to underflow, masking the
            // corruption); infinities would pin min/max. Count and drop.
            self.dropped += 1;
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.counts[bucket_index(value)] += 1;
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            0.0
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// An upper bound on the `q`-quantile (`q` in `[0, 1]`) from bucket
    /// boundaries: the true quantile is at most the returned value.
    pub fn quantile_upper(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// The standard p50/p95/p99 summary block (`None` when the
    /// histogram holds no samples). Each value is the conservative
    /// bucket-boundary upper bound from
    /// [`quantile_upper`](Self::quantile_upper).
    pub fn quantiles(&self) -> Option<Quantiles> {
        Some(Quantiles {
            p50: self.quantile_upper(0.50)?,
            p95: self.quantile_upper(0.95)?,
            p99: self.quantile_upper(0.99)?,
        })
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A percentile summary block: conservative upper bounds on the p50,
/// p95, and p99 of a [`Histogram`]'s samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantiles {
    /// Upper bound on the median.
    pub p50: f64,
    /// Upper bound on the 95th percentile.
    pub p95: f64,
    /// Upper bound on the 99th percentile.
    pub p99: f64,
}

/// Bucket index of a sample.
fn bucket_index(value: f64) -> usize {
    if value <= 0.0 || value.is_nan() {
        return 0; // underflow: zero, negative, NaN
    }
    let exp = value.log2().ceil() as i64 - BUCKET_MIN_EXP as i64;
    exp.clamp(0, BUCKET_COUNT as i64 - 1) as usize
}

/// Upper bound of bucket `i`.
fn bucket_upper(i: usize) -> f64 {
    if i + 1 == BUCKET_COUNT {
        f64::INFINITY
    } else {
        (2.0f64).powi(i as i32 + BUCKET_MIN_EXP)
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or re-finds) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or re-finds) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or re-finds) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms.push((name.to_string(), Histogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1 += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// A counter's current value.
    pub fn count(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Records a histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, value: f64) {
        self.histograms[id.0].1.observe(value);
    }

    /// Freezes the registry into a deterministic snapshot (entries
    /// sorted by name).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut entries: Vec<MetricEntry> = self
            .counters
            .iter()
            .map(|(n, v)| MetricEntry {
                name: n.clone(),
                value: MetricValue::Counter(*v),
            })
            .chain(self.gauges.iter().map(|(n, v)| MetricEntry {
                name: n.clone(),
                value: MetricValue::Gauge(*v),
            }))
            .chain(self.histograms.iter().map(|(n, h)| MetricEntry {
                name: n.clone(),
                value: MetricValue::Histogram(h.clone()),
            }))
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { entries }
    }
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Dotted metric name, e.g. `sim.migrations.duration_secs`.
    pub name: String,
    /// The frozen value.
    pub value: MetricValue,
}

/// A frozen metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Instantaneous value.
    Gauge(f64),
    /// Distribution.
    Histogram(Histogram),
}

/// A frozen, ordered view of a [`MetricsRegistry`] — comparable across
/// runs (its `PartialEq` backs the telemetry-determinism tests).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Name-sorted entries.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// Counter value by name (0 if absent — counters that never fired
    /// may be omitted from serialized snapshots).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// JSON rendering (stable: entries are name-sorted).
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.entries
                .iter()
                .map(|e| {
                    let mut pairs = vec![("name".to_string(), Json::Str(e.name.clone()))];
                    match &e.value {
                        MetricValue::Counter(v) => {
                            pairs.push(("type".to_string(), Json::Str("counter".into())));
                            pairs.push(("value".to_string(), Json::Int(*v as i64)));
                        }
                        MetricValue::Gauge(v) => {
                            pairs.push(("type".to_string(), Json::Str("gauge".into())));
                            pairs.push(("value".to_string(), Json::Num(*v)));
                        }
                        MetricValue::Histogram(h) => {
                            pairs.push(("type".to_string(), Json::Str("histogram".into())));
                            pairs.push(("count".to_string(), Json::Int(h.count as i64)));
                            pairs.push(("dropped".to_string(), Json::Int(h.dropped as i64)));
                            pairs.push(("sum".to_string(), Json::Num(h.sum)));
                            pairs.push(("min".to_string(), Json::Num(h.min().unwrap_or(0.0))));
                            pairs.push(("max".to_string(), Json::Num(h.max().unwrap_or(0.0))));
                            pairs.push((
                                "buckets".to_string(),
                                Json::Array(
                                    h.counts.iter().map(|&c| Json::Int(c as i64)).collect(),
                                ),
                            ));
                        }
                    }
                    Json::Object(pairs)
                })
                .collect(),
        )
    }

    /// Rebuilds a snapshot from [`MetricsSnapshot::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] if the document does not match the schema.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let bad = |m: &str| JsonError {
            message: m.to_string(),
            offset: 0,
        };
        let items = json
            .as_array()
            .ok_or_else(|| bad("snapshot: not an array"))?;
        let mut entries = Vec::with_capacity(items.len());
        for item in items {
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("snapshot entry: missing name"))?
                .to_string();
            let kind = item
                .get("type")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("snapshot entry: missing type"))?;
            let value = match kind {
                "counter" => MetricValue::Counter(
                    item.get("value")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("counter: bad value"))?,
                ),
                "gauge" => MetricValue::Gauge(
                    item.get("value")
                        .and_then(Json::as_f64)
                        .ok_or_else(|| bad("gauge: bad value"))?,
                ),
                "histogram" => {
                    let counts: Vec<u64> = item
                        .get("buckets")
                        .and_then(Json::as_array)
                        .ok_or_else(|| bad("histogram: missing buckets"))?
                        .iter()
                        .map(|v| v.as_u64().ok_or_else(|| bad("histogram: bad bucket")))
                        .collect::<Result<_, _>>()?;
                    if counts.len() != BUCKET_COUNT {
                        return Err(bad("histogram: bucket count mismatch"));
                    }
                    let count = item
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| bad("histogram: bad count"))?;
                    Histogram {
                        counts,
                        count,
                        // Absent in snapshots serialized before the
                        // non-finite guard existed.
                        dropped: item.get("dropped").and_then(Json::as_u64).unwrap_or(0),
                        sum: item.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
                        min: if count > 0 {
                            item.get("min").and_then(Json::as_f64).unwrap_or(0.0)
                        } else {
                            f64::INFINITY
                        },
                        max: if count > 0 {
                            item.get("max").and_then(Json::as_f64).unwrap_or(0.0)
                        } else {
                            f64::NEG_INFINITY
                        },
                    }
                    .into()
                }
                other => return Err(bad(&format!("snapshot entry: unknown type `{other}`"))),
            };
            entries.push(MetricEntry { name, value });
        }
        Ok(MetricsSnapshot { entries })
    }
}

impl From<Histogram> for MetricValue {
    fn from(h: Histogram) -> Self {
        MetricValue::Histogram(h)
    }
}

impl fmt::Display for MetricsSnapshot {
    /// Aligned plain-text table, one metric per line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.entries.iter().map(|e| e.name.len()).max().unwrap_or(0);
        for e in &self.entries {
            match &e.value {
                MetricValue::Counter(v) => writeln!(f, "{:<width$}  {v}", e.name)?,
                MetricValue::Gauge(v) => writeln!(f, "{:<width$}  {v:.3}", e.name)?,
                MetricValue::Histogram(h) => {
                    if h.count() == 0 {
                        writeln!(f, "{:<width$}  (no samples)", e.name)?;
                    } else {
                        let q = h.quantiles().unwrap_or(Quantiles {
                            p50: 0.0,
                            p95: 0.0,
                            p99: 0.0,
                        });
                        writeln!(
                            f,
                            "{:<width$}  n={} mean={:.3} min={:.3} max={:.3} \
                             p50<={:.3} p95<={:.3} p99<={:.3}",
                            e.name,
                            h.count(),
                            h.mean(),
                            h.min().unwrap_or(0.0),
                            h.max().unwrap_or(0.0),
                            q.p50,
                            q.p95,
                            q.p99,
                        )?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("events.total");
        let g = reg.gauge("queue.peak");
        reg.inc(c);
        reg.add(c, 4);
        reg.set(g, 10.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("events.total"), 5);
        assert_eq!(snap.get("queue.peak"), Some(&MetricValue::Gauge(10.0)));
    }

    #[test]
    fn registering_same_name_reuses_slot() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        assert_eq!(a, b);
        reg.inc(a);
        reg.inc(b);
        assert_eq!(reg.snapshot().counter("x"), 2);
    }

    #[test]
    fn histogram_buckets_are_logarithmic() {
        let mut h = Histogram::new();
        for v in [0.5, 0.6, 10.0, 10.0, 100_000.0, 0.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.max(), Some(100_000.0));
        // 0.5 and 0.6: 0.5 lands in the (0.25, 0.5] bucket, 0.6 in (0.5, 1].
        let filled = h.counts.iter().filter(|&&c| c > 0).count();
        assert!(filled >= 4, "{:?}", h.counts);
        // Quantile upper bounds are conservative and ordered.
        let p50 = h.quantile_upper(0.5).unwrap();
        let p99 = h.quantile_upper(0.99).unwrap();
        assert!(p50 <= p99);
        assert!(p99 <= 100_000.0 + 1e-9);
    }

    #[test]
    fn non_finite_samples_are_dropped_and_counted() {
        // Regression: a single NaN used to make sum/mean NaN forever
        // because observe() added the sample before bucketing.
        let mut h = Histogram::new();
        h.observe(2.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        h.observe(4.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.dropped, 3);
        assert_eq!(h.sum(), 6.0);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.min(), Some(2.0));
        assert_eq!(h.max(), Some(4.0));
        // No bucket absorbed the rejects.
        assert_eq!(h.counts.iter().sum::<u64>(), 2);
        // The dropped count survives the JSON round trip.
        let mut reg = MetricsRegistry::new();
        let id = reg.histogram("with.nans");
        reg.observe(id, f64::NAN);
        reg.observe(id, 1.0);
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        match back.get("with.nans") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.dropped, 1);
                assert_eq!(h.count(), 1);
            }
            other => panic!("unexpected entry {other:?}"),
        }
    }

    #[test]
    fn snapshot_is_sorted_and_comparable() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            let z = reg.counter("z.last");
            let a = reg.counter("a.first");
            reg.inc(z);
            reg.inc(a);
            reg.snapshot()
        };
        let s1 = build();
        let s2 = build();
        assert_eq!(s1, s2);
        assert_eq!(s1.entries[0].name, "a.first");
        assert_eq!(s1.entries[1].name, "z.last");
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("migrations.completed");
        let g = reg.gauge("queue.peak");
        let h = reg.histogram("transition.latency_secs");
        reg.add(c, 42);
        reg.set(g, 17.5);
        reg.observe(h, 12.0);
        reg.observe(h, 300.0);
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn display_renders_every_kind() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("count");
        reg.inc(c);
        reg.gauge("gauge");
        reg.histogram("empty_histo");
        let h = reg.histogram("histo");
        reg.observe(h, 2.0);
        let text = reg.snapshot().to_string();
        assert!(text.contains("count"));
        assert!(text.contains("(no samples)"));
        assert!(text.contains("n=1"));
    }
}
