#include "util/fault_injection.hpp"

#include <cctype>
#include <cstdlib>

#include "util/metrics.hpp"

namespace dn::fault {

namespace {

struct Config {
  std::array<double, kNumSites> rate{};
  std::uint64_t seed = 0;
};
Config g_config;  // Written by install()/clear() before workers start.

std::array<std::atomic<std::uint64_t>, kNumSites> g_injected{};

thread_local std::uint64_t t_context = 0;
thread_local std::array<std::uint64_t, kNumSites> t_probe_count{};

// SplitMix64 output mapped to [0, 1); uniform enough for rate thresholds.
double to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* site_name(Site s) {
  switch (s) {
    case Site::kSpefParse: return "parse";
    case Site::kCacheFill: return "cache";
    case Site::kFactor: return "factor";
    case Site::kNewton: return "newton";
    case Site::kCount: break;
  }
  return "?";
}

StatusOr<FaultSpec> parse_fault_spec(const std::string& spec) {
  if (spec.empty())
    return Status::InvalidArgument(
        "fault spec: empty (want \"site[:p],...\" with sites parse, cache, "
        "factor, newton, or all)");
  FaultSpec out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;

    double rate = 1.0;
    std::string name = item;
    if (const std::size_t colon = item.find(':'); colon != std::string::npos) {
      name = item.substr(0, colon);
      const std::string rate_str = item.substr(colon + 1);
      char* parse_end = nullptr;
      rate = std::strtod(rate_str.c_str(), &parse_end);
      if (rate_str.empty() || parse_end != rate_str.c_str() + rate_str.size() ||
          !(rate >= 0.0 && rate <= 1.0)) {
        return Status::InvalidArgument("fault spec: bad probability '" +
                                       rate_str + "' in '" + item +
                                       "' (want a number in [0,1])");
      }
    }

    bool matched = false;
    for (int i = 0; i < kNumSites; ++i) {
      const Site s = static_cast<Site>(i);
      if (name == "all" || name == site_name(s)) {
        out.rate[i] = rate;
        matched = true;
      }
    }
    if (!matched) {
      return Status::InvalidArgument(
          "fault spec: unknown site '" + name +
          "' (want parse, cache, factor, newton, or all)");
    }
  }
  return out;
}

void install(const FaultSpec& spec, std::uint64_t seed) {
  g_config.rate = spec.rate;
  g_config.seed = seed;
  for (auto& c : g_injected) c.store(0, std::memory_order_relaxed);
  detail::g_enabled.store(spec.any(), std::memory_order_relaxed);
}

void clear() { install(FaultSpec{}, 0); }

std::uint64_t injected(Site s) noexcept {
  return g_injected[static_cast<int>(s)].load(std::memory_order_relaxed);
}

std::uint64_t injected_total() noexcept {
  std::uint64_t total = 0;
  for (const auto& c : g_injected) total += c.load(std::memory_order_relaxed);
  return total;
}

namespace detail {

bool decide(Site s, std::uint64_t key) noexcept {
  const int i = static_cast<int>(s);
  const double rate = g_config.rate[i];
  if (rate <= 0.0) return false;
  const std::uint64_t h =
      mix64(g_config.seed ^ mix64(static_cast<std::uint64_t>(i) + 1) ^
            mix64(key));
  if (rate < 1.0 && to_unit(h) >= rate) return false;
  g_injected[i].fetch_add(1, std::memory_order_relaxed);
  if (obs::metrics_enabled())
    obs::metrics()
        .counter(std::string("fault.injected.") + site_name(s))
        .add();
  return true;
}

std::uint64_t next_probe_key(Site s) noexcept {
  const int i = static_cast<int>(s);
  return mix64(t_context) ^ mix64(t_probe_count[i]++);
}

}  // namespace detail

ScopedContext::ScopedContext(std::uint64_t context_id)
    : prev_context_(t_context), prev_counters_(t_probe_count) {
  t_context = context_id;
  t_probe_count.fill(0);
}

ScopedContext::~ScopedContext() {
  t_context = prev_context_;
  t_probe_count = prev_counters_;
}

}  // namespace dn::fault
