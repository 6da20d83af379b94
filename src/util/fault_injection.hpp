// Deterministic fault-injection framework (chaos testing for the
// analysis pipeline).
//
// The degradation ladder and the batch engine's failure isolation are
// only trustworthy if they can be exercised on demand, reproducibly.
// This module plants four injection sites across the pipeline:
//
//   parse    SPEF tokenize/parse            -> kInvalidArgument
//   cache    alignment-table lookup         -> kInternal (that lookup only)
//   factor   sparse factor/refactor, MOR    -> pivot failure / breakdown
//   newton   NonlinearSim transient solve   -> ConvergenceError
//
// Compiled in always; when disabled every probe is a single relaxed
// atomic load. When enabled, each probe decides "fail here?" by hashing
// (seed, site, key) through SplitMix64 against the site's configured
// probability — no global ordering, no RNG state. Keys are derived from
// deterministic identities (net index, cache key, a per-scope
// probe counter), so a chaos run is bit-for-bit reproducible at any
// --jobs count: the same probes fail no matter which thread runs them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.hpp"

namespace dn::fault {

enum class Site : int {
  kSpefParse = 0,
  kCacheFill,
  kFactor,
  kNewton,
  kCount,
};

inline constexpr int kNumSites = static_cast<int>(Site::kCount);

const char* site_name(Site s);

/// Per-site failure probabilities in [0, 1]; 0 disables a site.
struct FaultSpec {
  std::array<double, kNumSites> rate{};  // All zero: nothing injected.
  bool any() const {
    for (const double r : rate)
      if (r > 0.0) return true;
    return false;
  }
};

/// Parses "site[:p][,site[:p]]..." where site is parse|cache|factor|
/// newton|all and p defaults to 1. Example: "newton:0.3,cache:0.5".
StatusOr<FaultSpec> parse_fault_spec(const std::string& spec);

/// Arms injection with `spec` under `seed`. A spec with no active site
/// disarms. Not thread-safe against concurrent probes — configure before
/// spawning workers (the CLI does this at startup).
void install(const FaultSpec& spec, std::uint64_t seed);

/// Disarms all sites.
void clear();

namespace detail {
inline std::atomic<bool> g_enabled{false};
inline thread_local int t_suspended = 0;  // Open ScopedSuspend scopes.
bool decide(Site s, std::uint64_t key) noexcept;
std::uint64_t next_probe_key(Site s) noexcept;
}  // namespace detail

/// True when any site is armed (one relaxed atomic load).
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Probe with an explicit deterministic key (cache keys).
inline bool should_fail(Site s, std::uint64_t key) noexcept {
  if (!enabled() || detail::t_suspended > 0) return false;
  return detail::decide(s, key);
}

/// Probe keyed by the ambient scope: uses the current ScopedContext id
/// combined with a thread-local per-site probe counter, so the Nth
/// factor/newton probe of a given scope decides identically on any
/// thread. Outside any scope the context id is 0 (deterministic for
/// single-threaded tools).
inline bool should_fail(Site s) noexcept {
  if (!enabled() || detail::t_suspended > 0) return false;
  return detail::decide(s, detail::next_probe_key(s));
}

/// Count of faults injected at `s` since install() (always maintained —
/// the counters are only written when a fault actually fires).
std::uint64_t injected(Site s) noexcept;
std::uint64_t injected_total() noexcept;

/// Establishes the deterministic identity of the work running on this
/// thread (a net's analysis) and resets the per-site probe
/// counters for the scope. Restores the outer scope's identity and
/// counters on destruction.
class ScopedContext {
 public:
  explicit ScopedContext(std::uint64_t context_id);
  ~ScopedContext();

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  std::uint64_t prev_context_;
  std::array<std::uint64_t, kNumSites> prev_counters_;
};

/// Suspends every probe on this thread for the scope: probes neither fire
/// nor advance the ambient scope's probe counters. For fills of shared
/// state that must not depend on the injection (util/table_store.hpp).
class ScopedSuspend {
 public:
  ScopedSuspend() noexcept { ++detail::t_suspended; }
  ~ScopedSuspend() { --detail::t_suspended; }

  ScopedSuspend(const ScopedSuspend&) = delete;
  ScopedSuspend& operator=(const ScopedSuspend&) = delete;
};

/// SplitMix64 — the hash behind the decisions, exposed for callers that
/// build composite keys (e.g. hash(net_index + 1) ^ hash(0)).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace dn::fault
