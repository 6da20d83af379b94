#include "util/degradation.hpp"

#include "util/metrics.hpp"

namespace dn {

const char* degrade_kind_name(DegradeKind k) {
  switch (k) {
    case DegradeKind::kRtrToRth: return "rtr_to_rth";
    case DegradeKind::kTableToVdd2: return "table_to_vdd2";
    case DegradeKind::kSparseToDense: return "sparse_to_dense";
    case DegradeKind::kCount: break;
  }
  return "?";
}

std::vector<Degradation> dedup_degradations(std::vector<Degradation> log) {
  std::vector<Degradation> out;
  for (auto& d : log) {
    bool merged = false;
    for (auto& o : out) {
      if (o.kind == d.kind) {
        o.count += d.count;
        merged = true;
        break;
      }
    }
    if (!merged) out.push_back(std::move(d));
  }
  return out;
}

namespace degrade {

namespace {
thread_local ScopedLog* t_log = nullptr;
}  // namespace

ScopedLog::ScopedLog() : previous_(t_log) { t_log = this; }

ScopedLog::~ScopedLog() { t_log = previous_; }

bool active() noexcept { return t_log != nullptr; }

void record(DegradeKind kind, std::string detail) {
  if (obs::metrics_enabled())
    obs::metrics()
        .counter(std::string("degrade.") + degrade_kind_name(kind))
        .add();
  if (t_log) t_log->entries_.push_back({kind, std::move(detail)});
}

}  // namespace degrade
}  // namespace dn
