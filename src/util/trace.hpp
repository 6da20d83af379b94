// dn::obs tracing: lightweight scoped spans that export Chrome/Perfetto
// "trace_event" JSON (ph:"X" complete events with microsecond ts/dur).
//
// Open the output of --trace-out in https://ui.perfetto.dev (or
// chrome://tracing): one row per worker thread, one slice per span, so a
// slow batch net or a contended characterization is visible at a glance.
//
// Like metrics, tracing is compiled in but off by default: a disabled
// span costs one relaxed atomic load in the constructor and nothing else.
// When enabled, each thread appends to its own buffer (registered once
// under a mutex, then touched only by that thread plus the serializer),
// so recording never contends across workers.
//
// Span taxonomy (cat.name, see DESIGN.md §8):
//   parse.spef.parse          one SPEF deck parse
//   reduce.mor.prima          one PRIMA reduction
//   screen.screen.moments     one net's moment pass (both cheap ladder
//                             tiers and the --screen ranking read it)
//   characterize.cache.table  one 8-point alignment-table characterization
//   characterize.thevenin.characterize  one driver-table fill
//   analyze.ceff.driver       one driver's C-effective iteration
//   analyze.superposition.linear  one linear superposition sim of the net
//   analyze.receiver.eval     one receiver gate sim (probe or table point)
//   analyze.rtr.solve         one Rtr step (paired driver sim)
//   analyze.net.analyze       one full per-net delay-noise analysis
//   batch.batch.run           one BatchAnalyzer::analyze call
//   batch.batch.net           one net inside a batch (args: net name)
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/metrics.hpp"

namespace dn::obs {

namespace detail {
inline std::atomic<bool> g_tracing_enabled{false};
}

inline bool tracing_enabled() noexcept {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}
void set_tracing_enabled(bool on) noexcept;

/// One completed span ("ph":"X").
struct TraceEvent {
  const char* name = "";  // Must be a string literal (not copied).
  const char* cat = "";   // Ditto.
  double ts_us = 0.0;     // Start, microseconds since recorder epoch.
  double dur_us = 0.0;
  int tid = 0;
  const char* arg_key = nullptr;  // Optional string argument; a literal.
  std::string arg_value;          // Raw; escaped when the trace is written.
};

/// Process-wide trace sink. instance() never dies.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  void append(TraceEvent e);

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} — the Chrome/Perfetto
  /// trace_event schema. Safe to call while idle threads still hold
  /// registered buffers.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

  /// Drops all recorded events (buffers stay registered). Only call when
  /// no spans are in flight.
  void clear();

  std::size_t event_count() const;

  /// Microseconds since the recorder's epoch.
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  struct ThreadBuf {
    mutable std::mutex mu;  // Owner thread vs serializer/clear.
    std::vector<TraceEvent> events;
    int tid = 0;
  };
  ThreadBuf& buf_for_this_thread();

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // Guards bufs_ registration/enumeration.
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// RAII span: captures start on construction, records on destruction.
/// Inactive (zero work) when tracing was disabled at construction.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat) noexcept
      : name_(name), cat_(cat), active_(tracing_enabled()) {
    if (active_) t0_us_ = TraceRecorder::instance().now_us();
  }
  /// Attaches one string argument (e.g. the net name), copied only when
  /// the span is active.
  TraceSpan(const char* name, const char* cat, const char* key,
            const std::string& value);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  bool active_;
  double t0_us_ = 0.0;
  const char* arg_key_ = nullptr;
  std::string arg_value_;
};

/// Span + stage-latency histogram in one declaration — the common shape
/// of pipeline instrumentation ("time this stage AND show it on the
/// timeline").
class StageScope {
 public:
  StageScope(const char* name, const char* cat, Histogram& h) noexcept
      : span_(name, cat), lat_(h) {}

 private:
  TraceSpan span_;
  ScopedLatency lat_;
};

}  // namespace dn::obs
