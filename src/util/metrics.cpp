#include "util/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <ostream>
#include <vector>

#include "util/json.hpp"

namespace dn::obs {

void set_metrics_enabled(bool on) noexcept {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

#if defined(__x86_64__)
double detail::stage_seconds_per_tick() noexcept {
  // One calibration per process: pin the TSC rate against steady_clock
  // over a ~2 ms spin. The spin only runs on the first conversion (i.e.
  // the first ScopedLatency destructor with metrics enabled), after both
  // endpoint reads of that sample were already taken, so no recorded
  // value includes the calibration time.
  static const double k = [] {
    const auto c0 = std::chrono::steady_clock::now();
    const std::uint64_t t0 = stage_now();
    for (;;) {
      const auto c1 = std::chrono::steady_clock::now();
      const std::uint64_t t1 = stage_now();
      const double dt = std::chrono::duration<double>(c1 - c0).count();
      if (dt >= 2e-3 && t1 > t0) return dt / static_cast<double>(t1 - t0);
      if (dt >= 0.1) return 1e-9;  // TSC not advancing: nominal 1 GHz.
    }
  }();
  return k;
}
#endif

// ---------------------------------------------------------------------------
// Counter

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram

namespace {

/// Bucket lower bounds, computed once. lut[i] == bucket_floor(i) for
/// i >= 1; lut[0] holds -inf so underflow maps below the first bound.
/// `start` maps a double's biased binary exponent to the bucket of the
/// smallest positive value in that binade: a lookup plus at most three
/// bound comparisons replaces the log2(146)-step binary search (a
/// binade spans log10(2)*8 ~ 2.4 geometric buckets), which matters at
/// ~10M record() calls per batch run.
struct BucketBounds {
  std::array<double, static_cast<std::size_t>(Histogram::kBuckets)> lo{};
  std::array<std::uint8_t, 2048> start{};
  BucketBounds() noexcept {
    lo[0] = -std::numeric_limits<double>::infinity();
    for (int i = 1; i < Histogram::kBuckets; ++i)
      lo[static_cast<std::size_t>(i)] = Histogram::bucket_floor(i);
    for (int e = 0; e < 2048; ++e) {
      const double binade_min = std::ldexp(1.0, e - 1023);
      const auto it = std::upper_bound(lo.begin() + 1, lo.end(), binade_min);
      start[static_cast<std::size_t>(e)] =
          static_cast<std::uint8_t>(it - lo.begin() - 1);
    }
  }
};

/// Bucket index for a value; 0 is underflow, kBuckets-1 overflow. The
/// bounds are the same pow()-derived values bucket_floor() reports, so
/// bucket placement agrees with the documented [floor(i), floor(i+1))
/// ranges (the exponent-table fast path lands in the identical bucket a
/// search over the bounds would).
int bucket_of(double v) noexcept {
  static const BucketBounds bb;
  if (!(v >= Histogram::kMin)) return 0;  // Also catches NaN / negatives.
  // v >= kMin > 0 here, so the sign bit is clear and bits >> 52 is the
  // biased exponent (2047 for +inf, which start[] maps to overflow).
  const auto e = static_cast<std::size_t>(std::bit_cast<std::uint64_t>(v) >> 52);
  int i = bb.start[e];
  while (i + 1 < Histogram::kBuckets && v >= bb.lo[static_cast<std::size_t>(i) + 1])
    ++i;
  return i;
}

/// CAS-min/max on an atomic double (relaxed; validity gated by nonempty_).
void atomic_min(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
void atomic_max(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

double Histogram::bucket_floor(int i) noexcept {
  if (i <= 0) return 0.0;
  return kMin * std::pow(10.0, static_cast<double>(i - 1) / kBucketsPerDecade);
}

void Histogram::record(double v) noexcept {
  if (!metrics_enabled()) return;
  Shard& s = shards_[detail::shard_index()];
  s.buckets[static_cast<std::size_t>(bucket_of(v))].fetch_add(
      1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

void Histogram::record_n(double v, std::uint64_t n) noexcept {
  if (n == 0 || !metrics_enabled()) return;
  Shard& s = shards_[detail::shard_index()];
  s.buckets[static_cast<std::size_t>(bucket_of(v))].fetch_add(
      n, std::memory_order_relaxed);
  s.sum.fetch_add(v * static_cast<double>(n), std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot out;
  for (const auto& s : shards_) {
    for (int b = 0; b < kBuckets; ++b)
      out.buckets[static_cast<std::size_t>(b)] +=
          s.buckets[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
    out.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (const auto b : out.buckets) out.count += b;
  if (out.count > 0) {
    out.min = min_.load(std::memory_order_relaxed);
    out.max = max_.load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (auto& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
  }
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

double Histogram::Snapshot::percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    const std::uint64_t n = buckets[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (static_cast<double>(seen + n) >= target) {
      // Interpolate within the bucket, clamped to the observed range.
      const double lo = std::max(Histogram::bucket_floor(b), min);
      const double hi = std::min(
          b + 1 < Histogram::kBuckets ? Histogram::bucket_floor(b + 1) : max,
          max);
      const double frac =
          n ? (target - static_cast<double>(seen)) / static_cast<double>(n)
            : 0.0;
      return std::clamp(lo + frac * (hi - lo), min, max);
    }
    seen += n;
  }
  return max;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::instance() {
  // Heap singleton: never destroyed, so metric references cached by
  // static locals in hot functions outlive every other static.
  static MetricsRegistry* reg = new MetricsRegistry();
  return *reg;
}

MetricsRegistry& metrics() { return MetricsRegistry::instance(); }

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

json::Value MetricsRegistry::to_json_value() const {
  std::lock_guard<std::mutex> lk(mu_);
  json::Object counters;
  for (const auto& [name, c] : counters_) counters[name] = c->value();
  json::Object gauges;
  for (const auto& [name, g] : gauges_) gauges[name] = g->value();
  json::Object histograms;
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    json::Object stats;
    stats["count"] = s.count;
    stats["sum"] = s.sum;
    stats["min"] = s.min;
    stats["max"] = s.max;
    stats["mean"] = s.mean();
    stats["p50"] = s.percentile(50);
    stats["p90"] = s.percentile(90);
    stats["p99"] = s.percentile(99);
    histograms[name] = json::Value(std::move(stats));
  }
  json::Object o;
  o["counters"] = json::Value(std::move(counters));
  o["gauges"] = json::Value(std::move(gauges));
  o["histograms"] = json::Value(std::move(histograms));
  return json::Value(std::move(o));
}

void MetricsRegistry::write_json(std::ostream& os) const {
  to_json_value().dump(os);
}

std::string MetricsRegistry::to_json() const { return to_json_value().dump(); }

void MetricsRegistry::write_summary(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  os << "== dnoise profile ==\n";
  if (!counters_.empty()) {
    os << "counters:\n";
    for (const auto& [name, c] : counters_) {
      const std::uint64_t v = c->value();
      if (v) os << "  " << name << " = " << v << "\n";
    }
  }
  if (!gauges_.empty()) {
    os << "gauges:\n";
    for (const auto& [name, g] : gauges_)
      os << "  " << name << " = " << g->value() << "\n";
  }
  if (!histograms_.empty()) {
    os << "latency/distributions (count, total, mean, p50/p90/p99):\n";
    const auto saved = os.precision(4);
    for (const auto& [name, h] : histograms_) {
      const Histogram::Snapshot s = h->snapshot();
      if (!s.count) continue;
      os << "  " << name << ": n=" << s.count << " sum=" << s.sum
         << " mean=" << s.mean() << " p50=" << s.percentile(50)
         << " p90=" << s.percentile(90) << " p99=" << s.percentile(99)
         << "\n";
    }
    os.precision(saved);
  }
}

void MetricsRegistry::reset_all() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace dn::obs
