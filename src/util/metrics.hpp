// dn::obs metrics: process-wide counters, gauges and latency histograms
// for the analysis pipeline.
//
// Design constraints (ISSUE 2):
//   - Compiled in but OFF by default. Every hot-path entry point first
//     reads one relaxed atomic bool; when metrics are disabled that load
//     is the entire cost, so instrumented code stays indistinguishable
//     from uninstrumented code and batch output is byte-identical.
//   - Lock-free hot path when enabled. Counters and histograms are
//     striped across per-thread shards (threads hash to a shard by a
//     thread-local index, one cache line per shard) and only aggregated
//     when somebody reads them; worker threads never contend on a lock or
//     a shared cache line to record a sample.
//   - Stable references. The registry hands out Counter&/Gauge&/Histogram&
//     that live for the process lifetime, so call sites can cache them in
//     function-local statics and skip the name lookup on every call.
//
// Naming taxonomy (see DESIGN.md §8): "<subsystem>.<what>" for counters
// and gauges ("cache.hits", "batch.queue_depth"), "stage.<stage>.seconds"
// for per-stage latency histograms, "<subsystem>.<what>" for other
// distributions ("batch.net.seconds", "rtr.iterations_per_net").
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace dn::json {
class Value;
}

namespace dn::obs {

namespace detail {

inline std::atomic<bool> g_metrics_enabled{false};
inline std::atomic<std::size_t> g_next_thread_slot{0};

inline constexpr std::size_t kShards = 16;

/// This thread's shard index in [0, kShards). Threads are assigned
/// round-robin on first use, so up to kShards concurrent threads write
/// disjoint cache lines.
inline std::size_t shard_index() noexcept {
  thread_local const std::size_t idx =
      g_next_thread_slot.fetch_add(1, std::memory_order_relaxed) % kShards;
  return idx;
}

struct alignas(64) PaddedCount {
  std::atomic<std::uint64_t> v{0};
};

// Stage-latency clock. steady_clock (clock_gettime) costs 30-150 ns per
// read depending on whether the host's vDSO path is available — at ~10M
// instrumented solves per batch run that is a measurable slice of the
// runtime AND it inflates every recorded sample by up to a clock read.
// On x86-64 the TSC is invariant/constant-rate on every micro-arch this
// project targets, reads in a few cycles, and is converted to seconds
// with a once-per-process calibration against steady_clock. The samples
// are observability data only (never byte-compared), so the unserialized
// rdtsc and the ~0.1% calibration error are acceptable.
#if defined(__x86_64__)
using StageTick = std::uint64_t;
inline StageTick stage_now() noexcept {
  return static_cast<StageTick>(__builtin_ia32_rdtsc());
}
/// Seconds per TSC tick, calibrated once on first use (metrics.cpp).
double stage_seconds_per_tick() noexcept;
inline double stage_elapsed_seconds(StageTick t0, StageTick t1) noexcept {
  return static_cast<double>(t1 - t0) * stage_seconds_per_tick();
}
#else
using StageTick = std::chrono::steady_clock::time_point;
inline StageTick stage_now() noexcept {
  return std::chrono::steady_clock::now();
}
inline double stage_elapsed_seconds(StageTick t0, StageTick t1) noexcept {
  return std::chrono::duration<double>(t1 - t0).count();
}
#endif

}  // namespace detail

/// Global metrics switch. Off by default; the CLI turns it on for
/// --profile / --metrics-json runs, benches and tests for themselves.
inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool on) noexcept;

/// Monotonic event counter (sharded; aggregate on read).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    shards_[detail::shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  std::array<detail::PaddedCount, detail::kShards> shards_{};
};

/// Last-writer-wins instantaneous value (queue depth, convergence delta).
class Gauge {
 public:
  void set(double v) noexcept {
    if (!metrics_enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-boundary geometric histogram: 8 buckets per decade spanning
/// [1e-12, 1e6) plus under/overflow, which covers picosecond stage
/// latencies through whole-run wall clocks AND small integer counts
/// (iterations per net) with <= ~15% relative bucket width. Each shard
/// owns a full bucket array; snapshots sum the shards.
class Histogram {
 public:
  static constexpr int kBucketsPerDecade = 8;
  static constexpr double kMin = 1e-12;
  static constexpr int kDecades = 18;  // [1e-12, 1e6)
  static constexpr int kBuckets = kBucketsPerDecade * kDecades + 2;

  void record(double v) noexcept;

  /// Records `n` identical samples in one shot: one bucket add, one sum
  /// add, one min/max update. Used by hot loops that batch repeated
  /// values (e.g. accepted step sizes) into local (value, count) bins and
  /// flush once per run. The sum accumulates v*n, which can round
  /// differently from n sequential adds — histogram stats are
  /// observability data, never part of byte-compared reports.
  void record_n(double v, std::uint64_t n) noexcept;

  /// Aggregated view; percentiles interpolate within bucket bounds.
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // 0 when empty.
    double max = 0.0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
    /// p in [0, 100]. Estimated from bucket bounds; exact min/max at the ends.
    double percentile(double p) const;
  };
  Snapshot snapshot() const noexcept;
  void reset() noexcept;

  /// Lower bound of bucket i (exposed for tests).
  static double bucket_floor(int i) noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<double> sum{0.0};
  };
  std::array<Shard, detail::kShards> shards_{};
  // +/-inf sentinels make concurrent CAS-min/max race-free from the first
  // sample; snapshot() reports 0 instead while the histogram is empty.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Records elapsed seconds into a histogram on scope exit. When metrics
/// are disabled at construction the destructor does nothing.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h) noexcept
      : h_(metrics_enabled() ? &h : nullptr) {
    if (h_) t0_ = detail::stage_now();
  }
  ~ScopedLatency() {
    if (h_) h_->record(detail::stage_elapsed_seconds(t0_, detail::stage_now()));
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_;
  detail::StageTick t0_{};
};

/// Name -> metric registry. instance() never dies (heap singleton), so
/// references cached in static locals stay valid through exit.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Deterministically ordered (name-sorted) JSON:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"x":{"count":..,"sum":..,"min":..,"max":..,
  ///                       "mean":..,"p50":..,"p90":..,"p99":..}}}
  /// write_json/to_json render to_json_value().
  json::Value to_json_value() const;
  void write_json(std::ostream& os) const;
  std::string to_json() const;

  /// Human-readable --profile summary (stderr-friendly).
  void write_summary(std::ostream& os) const;

  /// Zeroes every registered metric (names stay registered).
  void reset_all();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  MetricsRegistry() = default;

  // The maps own the metrics and never erase: handed-out references are
  // stable for the process lifetime. The mutex only guards registration
  // and enumeration, never the recording hot path.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::instance().
MetricsRegistry& metrics();

}  // namespace dn::obs
