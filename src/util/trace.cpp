#include "util/trace.hpp"

#include <ostream>
#include <sstream>

#include "util/json.hpp"

namespace dn::obs {

void set_tracing_enabled(bool on) noexcept {
  detail::g_tracing_enabled.store(on, std::memory_order_relaxed);
}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder* rec = new TraceRecorder();  // Never destroyed.
  return *rec;
}

TraceRecorder::ThreadBuf& TraceRecorder::buf_for_this_thread() {
  // One registration per thread per process; afterwards the thread_local
  // pointer short-circuits straight to its buffer.
  thread_local ThreadBuf* cached = nullptr;
  if (cached) return *cached;
  std::lock_guard<std::mutex> lk(mu_);
  bufs_.push_back(std::make_unique<ThreadBuf>());
  bufs_.back()->tid = static_cast<int>(bufs_.size());
  cached = bufs_.back().get();
  return *cached;
}

void TraceRecorder::append(TraceEvent e) {
  ThreadBuf& buf = buf_for_this_thread();
  std::lock_guard<std::mutex> lk(buf.mu);  // Uncontended in steady state.
  e.tid = buf.tid;
  buf.events.push_back(std::move(e));
}

void TraceRecorder::write_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& buf : bufs_) {
    std::lock_guard<std::mutex> blk(buf->mu);
    for (const TraceEvent& e : buf->events) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":";
      {
        std::ostringstream num;
        num.precision(3);
        num << std::fixed << e.ts_us << ",\"dur\":" << e.dur_us;
        os << num.str();
      }
      if (e.arg_key) {
        os << ",\"args\":{";
        json::write_string(os, e.arg_key);
        os << ':';
        json::write_string(os, e.arg_value);
        os << '}';
      }
      os << "}";
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
}

std::string TraceRecorder::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& buf : bufs_) {
    std::lock_guard<std::mutex> blk(buf->mu);
    buf->events.clear();
  }
}

std::size_t TraceRecorder::event_count() const {
  std::size_t n = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& buf : bufs_) {
    std::lock_guard<std::mutex> blk(buf->mu);
    n += buf->events.size();
  }
  return n;
}

TraceSpan::TraceSpan(const char* name, const char* cat, const char* key,
                     const std::string& value)
    : name_(name), cat_(cat), active_(tracing_enabled()) {
  if (!active_) return;
  t0_us_ = TraceRecorder::instance().now_us();
  arg_key_ = key;
  arg_value_ = value;
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  TraceRecorder& rec = TraceRecorder::instance();
  TraceEvent e;
  e.name = name_;
  e.cat = cat_;
  e.ts_us = t0_us_;
  e.dur_us = rec.now_us() - t0_us_;
  e.arg_key = arg_key_;
  e.arg_value = std::move(arg_value_);
  rec.append(e);
}

}  // namespace dn::obs
