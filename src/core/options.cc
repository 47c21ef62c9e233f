#include "core/options.h"

#include <cstdio>
#include <sstream>

#include "common/json.h"

namespace hyrise_nv::core {

const char* DurabilityModeName(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kNone:
      return "none";
    case DurabilityMode::kWalValue:
      return "wal-value";
    case DurabilityMode::kWalDict:
      return "wal-dict";
    case DurabilityMode::kNvm:
      return "nvm";
  }
  return "unknown";
}

const char* LogRecoveryPolicyName(LogRecoveryPolicy policy) {
  switch (policy) {
    case LogRecoveryPolicy::kEagerReplay:
      return "eager";
    case LogRecoveryPolicy::kServeOnDemand:
      return "on-demand";
  }
  return "unknown";
}

std::string RecoveryReport::RenderText() const {
  std::ostringstream out;
  out << "recovery: mode=" << DurabilityModeName(mode)
      << " recovered=" << (recovered ? "yes" : "no (fresh)");
  if (fell_back_to_log) out << " fell_back_to_log";
  if (read_only) out << " read_only";
  if (log.checkpoint_fallback) out << " checkpoint_fallback";
  if (log.on_demand) out << " on_demand";
  char total[64];
  std::snprintf(total, sizeof(total), " total=%.3f ms",
                total_seconds * 1e3);
  out << total << "\n";
  for (const auto& table : quarantined_tables) {
    out << "  quarantined: " << table << "\n";
  }
  if (!trace.empty()) out << trace.Render();
  return out.str();
}

std::string RecoveryReport::ToJson() const {
  std::ostringstream out;
  out << "{\"mode\":" << common::JsonQuote(DurabilityModeName(mode))
      << ",\"recovered\":" << (recovered ? "true" : "false")
      << ",\"fell_back_to_log\":" << (fell_back_to_log ? "true" : "false")
      << ",\"read_only\":" << (read_only ? "true" : "false")
      << ",\"total_seconds\":" << total_seconds;
  out << ",\"quarantined_tables\":[";
  for (size_t i = 0; i < quarantined_tables.size(); ++i) {
    if (i > 0) out << ',';
    out << common::JsonQuote(quarantined_tables[i]);
  }
  out << ']';
  if (mode == DurabilityMode::kNvm && !fell_back_to_log) {
    out << ",\"phases\":{\"map_seconds\":" << nvm.map_seconds
        << ",\"verify_seconds\":" << nvm.verify_seconds
        << ",\"fixup_seconds\":" << nvm.fixup_seconds
        << ",\"attach_seconds\":" << nvm.attach_seconds << '}';
  } else if (recovered || fell_back_to_log) {
    out << ",\"phases\":{\"checkpoint_load_seconds\":"
        << log.checkpoint_load_seconds;
    if (log.on_demand) {
      out << ",\"analysis_seconds\":" << log.analysis_seconds;
    } else {
      out << ",\"replay_seconds\":" << log.replay_seconds
          << ",\"index_rebuild_seconds\":" << log.index_rebuild_seconds;
    }
    out << ",\"replayed_records\":" << log.replayed_records
        << ",\"replayed_rows\":" << log.replayed_rows
        << ",\"committed_txns\":" << log.committed_txns
        << ",\"checkpoint_fallback\":"
        << (log.checkpoint_fallback ? "true" : "false")
        << ",\"on_demand\":" << (log.on_demand ? "true" : "false") << '}';
  }
  if (!trace.empty()) out << ",\"trace\":" << trace.ToJson();
  out << '}';
  return out.str();
}

}  // namespace hyrise_nv::core
