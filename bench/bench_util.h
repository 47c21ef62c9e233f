#ifndef HYRISE_NV_BENCH_BENCH_UTIL_H_
#define HYRISE_NV_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/database.h"
#include "nvm/nvm_env.h"

namespace hyrise_nv::bench {

/// Row-count multiplier for all experiment binaries. The defaults finish
/// in seconds; set HYRISE_NV_SCALE=10 (or more) for a full-size sweep.
inline double Scale() {
  static const double scale = nvm::EnvScale("HYRISE_NV_SCALE", 1.0);
  return scale;
}

inline uint64_t Scaled(uint64_t base) {
  return static_cast<uint64_t>(static_cast<double>(base) * Scale());
}

/// Creates a unique scratch directory for a benchmark run.
inline std::string MakeBenchDir(const std::string& prefix) {
  const std::string dir = nvm::TempPath(prefix);
  std::filesystem::create_directories(dir);
  return dir;
}

inline void RemoveBenchDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// A plausible SATA-SSD-class device model for the log-based baselines.
inline wal::BlockDeviceOptions SsdDevice() {
  wal::BlockDeviceOptions device;
  device.write_mbps = 500;
  device.read_mbps = 500;
  device.sync_latency_us = 20;
  return device;
}

/// Standard engine configuration per durability mode.
inline core::DatabaseOptions EngineOptions(core::DurabilityMode mode,
                                           const std::string& dir,
                                           size_t region_size) {
  core::DatabaseOptions options;
  options.mode = mode;
  options.region_size = region_size;
  options.data_dir = dir;
  // The shadow (kShadow) is the default here, so kNvm benchmarks can
  // CrashAndRecover in process (WAL modes crash by device truncation).
  // The throughput and latency benches set kNone themselves: the shadow
  // copies every persisted line.
  options.tracking = nvm::TrackingMode::kShadow;
  options.nvm_latency = mode == core::DurabilityMode::kNvm
                            ? nvm::NvmLatencyModel::DefaultNvm()
                            : nvm::NvmLatencyModel::DramSpeed();
  options.device = SsdDevice();
  return options;
}

inline void Die(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).ValueUnsafe();
}

}  // namespace hyrise_nv::bench

#endif  // HYRISE_NV_BENCH_BENCH_UTIL_H_
