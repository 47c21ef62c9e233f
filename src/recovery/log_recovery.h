#ifndef HYRISE_NV_RECOVERY_LOG_RECOVERY_H_
#define HYRISE_NV_RECOVERY_LOG_RECOVERY_H_

#include <cstdint>
#include <vector>

#include "storage/types.h"

namespace hyrise_nv::recovery {

/// Phase timings + volumes of a log-based recovery. The three eager
/// phases are exactly the costs instant restart avoids (experiment E5).
/// Each phase equals the span of the same name in the open's trace
/// (RecoveryReport::trace).
struct LogRecoveryReport {
  double checkpoint_load_seconds = 0;
  double replay_seconds = 0;
  double index_rebuild_seconds = 0;
  uint64_t checkpoint_bytes = 0;
  uint64_t replayed_records = 0;
  uint64_t log_bytes_scanned = 0;
  uint64_t committed_txns = 0;
  /// True when the checkpoint file was corrupt and recovery fell back to
  /// replaying the full log from offset 0. Only taken when replay really
  /// covers everything (an empty catalog before replay); a corrupt
  /// checkpoint whose data the log cannot reproduce stays an error.
  bool checkpoint_fallback = false;
  /// Rows the log pass appended (both policies).
  uint64_t replayed_rows = 0;
  /// Serve-during-recovery opens fill `analysis_seconds` instead of
  /// replay and index_rebuild: the engine opens after the same log pass
  /// and builds the indexes in the background.
  bool on_demand = false;
  double analysis_seconds = 0;
  /// Prepared-but-undecided 2PC transactions found in the log (a kPrepare
  /// record with no following kCommit/kAbort for the same tid). The
  /// analysis pass leaves their effects invisible but claimed; the engine
  /// adopts them as in-doubt transactions awaiting a coordinator decision.
  struct InDoubtWrite {
    uint64_t table_id;
    storage::RowLocation loc;
    bool invalidate;
  };
  struct InDoubtTxn {
    storage::Tid tid;
    uint64_t gtid;
    std::vector<InDoubtWrite> writes;
  };
  std::vector<InDoubtTxn> in_doubt;
};

}  // namespace hyrise_nv::recovery

#endif  // HYRISE_NV_RECOVERY_LOG_RECOVERY_H_
