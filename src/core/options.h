#ifndef HYRISE_NV_CORE_OPTIONS_H_
#define HYRISE_NV_CORE_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nvm/latency_model.h"
#include "nvm/pmem_region.h"
#include "obs/trace.h"
#include "recovery/log_recovery.h"
#include "recovery/nvm_recovery.h"
#include "wal/log_manager.h"

namespace hyrise_nv::core {

/// How the engine makes data durable.
enum class DurabilityMode {
  /// No durability (pure in-memory baseline; crashes lose everything).
  kNone,
  /// WAL with full-value insert records + checkpoints (classic baseline).
  kWalValue,
  /// WAL with dictionary-encoded insert records + checkpoints (Hyrise's
  /// optimised logging; smaller log, dictionary replay at recovery).
  kWalDict,
  /// Hyrise-NV: all table/index/MVCC state on NVM; instant restart.
  kNvm,
};

const char* DurabilityModeName(DurabilityMode mode);

/// How thoroughly Open() vets an existing database before serving it.
enum class OpenMode {
  /// Fast path: header-only validation (the paper's instant restart).
  kNormal,
  /// Deep verification of every persistent structure before going live;
  /// any finding fails the open with Status::Corruption.
  kVerifyDeep,
  /// Deep verification, but table-scoped corruption quarantines the
  /// affected tables instead of failing: the rest is served read-only
  /// off the untouched image. Fatal (image-wide) findings still fail.
  kSalvageReadOnly,
};

/// When Open() serves after the log pass (WAL modes only). Both policies
/// run the same log pass, which appends every logged row with its values
/// and final MVCC state; they differ only in where the index builds run.
enum class LogRecoveryPolicy {
  /// Build the indexes before serving (the paper's baseline: recovery is
  /// linear in data size and the engine is down for the whole replay).
  kEagerReplay,
  /// Serve-during-recovery: the engine opens right after the pass,
  /// degraded while one background thread builds the indexes (scans run
  /// index-free), then flips to fully recovered. With no index to build
  /// it opens ready.
  kServeOnDemand,
};

const char* LogRecoveryPolicyName(LogRecoveryPolicy policy);

/// Engine configuration.
struct DatabaseOptions {
  DurabilityMode mode = DurabilityMode::kNvm;

  /// Verification level for Open() (kNvm mode; ignored elsewhere).
  OpenMode open_mode = OpenMode::kNormal;

  /// Size of the persistent heap (all table data must fit).
  size_t region_size = size_t{256} << 20;

  /// Directory for the NVM image / WAL / checkpoint files. Empty means a
  /// purely in-process setup: the NVM engine uses an anonymous region
  /// with shadow tracking (crash simulation works, process restart does
  /// not), and the WAL engines place their files in a temp directory.
  std::string data_dir;

  /// Injected NVM persist latency (kNvm mode only).
  nvm::NvmLatencyModel nvm_latency;

  /// Crash-fidelity tracking for the NVM region. kShadow enables
  /// SimulateCrash at 2x memory; kNone is cheapest (benchmarks).
  nvm::TrackingMode tracking = nvm::TrackingMode::kShadow;

  /// Simulated SSD performance for WAL + checkpoints.
  wal::BlockDeviceOptions device;

  /// WAL recovery policy (ignored by kNvm/kNone).
  LogRecoveryPolicy log_recovery = LogRecoveryPolicy::kEagerReplay;

  /// Serve-on-demand: one delay before the background index build
  /// starts (0 = build at once). Tests use it to hold the degraded window
  /// open deterministically.
  uint64_t drain_pause_us = 0;

  // --- Observability -------------------------------------------------------

  /// Trace-sample one in every N committed transactions (0 disables).
  /// Sampled commits record per-phase latencies (write-set / persist /
  /// publish) to the txn.trace.* histograms, emit a kTxnTrace flight-
  /// recorder event, and publish a span tree via
  /// Database::LastSampledTxnTrace().
  uint64_t txn_sample_every = 0;

  /// Run the timeline recorder (DESIGN.md §15): every
  /// timeline_interval_ms it captures the standard temporal metric set
  /// (commit/fsync/request rates, per-interval latency percentiles,
  /// heap/RSS/NVM-region gauges, degraded serving) into a ring of
  /// timeline_capacity samples, annotated with maintenance phases
  /// spliced from the flight recorder; each tick also flushes the flight
  /// recorder. Exported via Database::TimelineJson() and the server stats
  /// opcode.
  bool enable_timeline = false;
  uint64_t timeline_interval_ms = 1000;
  size_t timeline_capacity = 600;

  /// Install process-wide fatal-signal handlers (SIGSEGV/SIGBUS/SIGABRT/
  /// SIGILL/SIGFPE) that stamp a kCrashSignal event, flush the flight
  /// recorder with an async-signal-safe msync, and re-raise. Process-wide
  /// and sticky: once installed it stays for the process lifetime.
  bool install_crash_handler = false;

  bool uses_wal() const {
    return mode == DurabilityMode::kWalValue ||
           mode == DurabilityMode::kWalDict;
  }

  std::string NvmImagePath() const { return data_dir + "/nvm.img"; }
  std::string LogPath() const { return data_dir + "/wal.log"; }
  std::string CheckpointPath() const { return data_dir + "/checkpoint.bin"; }

  wal::LogManagerOptions MakeLogOptions() const {
    wal::LogManagerOptions opts;
    opts.format = mode == DurabilityMode::kWalDict
                      ? wal::LogFormat::kDictEncoded
                      : wal::LogFormat::kValue;
    opts.device = device;
    opts.log_path = LogPath();
    opts.checkpoint_path = CheckpointPath();
    return opts;
  }
};

/// What recovery did when the database was opened (one branch is filled,
/// by mode).
struct RecoveryReport {
  DurabilityMode mode = DurabilityMode::kNone;
  bool recovered = false;  // false = fresh database
  double total_seconds = 0;
  recovery::LogRecoveryReport log;
  recovery::NvmRecoveryReport nvm;
  /// kNvm only: the NVM image failed verification but a WAL existed, so
  /// the state was rebuilt from checkpoint + log instead.
  bool fell_back_to_log = false;
  /// The database opened read-only (salvage mode). Writes fail.
  bool read_only = false;
  /// Tables quarantined by a salvage open; GetTable on them fails.
  std::vector<std::string> quarantined_tables;
  /// Full span tree of the open ("open" root; the instant_restart
  /// subtree plus attach_index_sets, or the log_recovery subtree). Empty
  /// for a fresh Create. `total_seconds` equals `trace.seconds` when set.
  obs::SpanNode trace;

  /// Human-readable summary: mode/flags header + indented span tree.
  std::string RenderText() const;
  /// JSON object with mode, flags, phase seconds, and the span tree.
  std::string ToJson() const;
};

}  // namespace hyrise_nv::core

#endif  // HYRISE_NV_CORE_OPTIONS_H_
