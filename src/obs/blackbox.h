#ifndef HYRISE_NV_OBS_BLACKBOX_H_
#define HYRISE_NV_OBS_BLACKBOX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "nvm/pmem_region.h"
#include "obs/metrics.h"

namespace hyrise_nv::obs {

/// NVM-persisted flight recorder ("black box", DESIGN.md §9.4).
///
/// A carve-out at the *top* of every persistent region holds per-thread
/// rings of fixed-size binary events (txn begin/commit/abort, persist
/// barriers, WAL syncs, merges, fault-injection fires, open/close). The
/// same idea the paper applies to data — keep primary state on NVM so a
/// restart needs no replay — applied to diagnostics: the last seconds
/// before a crash are decodable from the image alone, with no log
/// shipping and no surviving process.
///
/// Durability/ordering rules (deliberately weaker than the data path):
///  - Events are written with plain stores; each 64-byte slot carries its
///    own masked CRC32C, written last, so a torn or half-evicted slot is
///    *detected* (dropped at decode), never silently accepted.
///  - A killed process loses nothing on a file-backed region: the stores
///    already sit in the kernel page cache (MAP_SHARED). This is the
///    SIGKILL/crash-forensics path.
///  - Under the strict shadow crash model (SimulateCrash), events persist
///    only up to the last flush. The writer amortises a flush+fence over
///    every `flush_every_` slots per ring, and flushes everything on
///    clean close, on each timeline tick, and from the fatal-signal
///    handler — real hardware would also write dirty lines back
///    opportunistically, so the shadow model under-approximates recorder
///    durability on purpose.
///  - The recorder is diagnostics, not data: a corrupt recorder header is
///    quarantined (reformatted) at attach and reported as an advisory
///    verify finding; it never fails an open.

/// Geometry of the recorder carve-out: a pure function of the region
/// size, so an offline decoder needs nothing but the file to find it —
/// even when the region header and roots are trash.
struct BlackboxGeometry {
  uint64_t ring_count = 0;
  uint64_t slots_per_ring = 0;  // power of two; 0 = recorder disabled
  uint64_t offset = 0;          // carve-out start; == region size if disabled
  uint64_t total_bytes = 0;     // header + ring slots
  bool enabled() const { return slots_per_ring != 0; }
};

constexpr uint64_t kBlackboxSlotSize = 64;  // one cache line per event
constexpr uint64_t kBlackboxHeaderBytes = 4096;
constexpr uint64_t kBlackboxRingCount = 8;
constexpr uint64_t kBlackboxMaxRings = 16;  // header reserves this many heads
constexpr uint64_t kBlackboxMaxSlotsPerRing = 2048;
constexpr uint64_t kBlackboxMinSlotsPerRing = 16;

/// Computes the recorder geometry for a region of `region_size` bytes.
/// The carve-out targets ~1/32 of the region (capped at ~1 MiB); regions
/// too small to host the minimum geometry get no recorder at all, so
/// tiny test heaps keep their full capacity.
BlackboxGeometry BlackboxGeometryFor(uint64_t region_size);

/// Bytes reserved at the top of the region (0 when disabled). The
/// persistent allocator's heap_end is region_size minus this.
uint64_t BlackboxBytesFor(uint64_t region_size);

/// Binary event types. Values are stable on-NVM format; append only.
enum class BlackboxEventType : uint16_t {
  kNone = 0,           // empty slot
  kOpen = 1,           // a=durability mode, b=recovered, c=prev clean
  kClose = 2,          // a=1 (clean close)
  kTxnBegin = 3,       // a=tid, b=snapshot cid
  kTxnCommit = 4,      // a=tid, b=cid, c=write count, d=latency ns
  kTxnAbort = 5,       // a=tid, b=write count
  kPersist = 6,        // a=offset, b=len, c=latency ns, d=sample period
  kWalSync = 7,        // a=synced commits, b=latency ns
  kWalDegraded = 8,    // a=1 (entered degraded/read-only mode)
  kMergeStart = 9,     // a=table id, b=delta rows
  kMergeEnd = 10,      // a=table id, b=rows after, c=dropped, d=duration ns
  kFaultFire = 11,     // a=FaultPoint, b=param
  kCheckpoint = 12,    // a=duration ns
  kTxnTrace = 13,      // a=tid, b=write-set ns, c=persist ns, d=publish ns,
                       // e=total ns (sampled span tree, compressed)
  kCrashSignal = 14,   // a=signal number
  kRecorderReset = 15, // a=1 corrupt header quarantined
  kConnOpen = 16,      // a=connection id, b=open connections after
  kConnClose = 17,     // a=connection id, b=1 if a txn was aborted
  kDrain = 18,         // a=open connections at drain start
  kTxnPublishBatch = 19,  // a=commits published, b=watermark cid, c=skips
  kCheckpointFallback = 20,  // a=1 (corrupt checkpoint; full replay from 0)
  kDegradedOpen = 21,     // a=indexes left to build, b=replayed rows
  kRecoveryDrainDone = 22,  // a=indexes built, b=ns since the open
  kWarmingShed = 23,      // a=requests in flight at the shed decision
  kSlowRequest = 24,   // a=opcode, b=dominant stage (RequestStage),
                       // c=total ns, d=dominant stage ns, e=connection id
  kCheckpointStart = 25,  // (no payload; kCheckpoint marks the end)
  kTxnPrepare = 26,   // a=tid, b=gtid, c=write count (2PC phase one)
  kTxnDecide = 27,    // a=gtid, b=1 commit / 0 abort, c=cid
};

const char* BlackboxEventName(uint16_t type);

/// One event slot: exactly one cache line, CRC-sealed. The CRC covers the
/// first 60 bytes and is written last; an all-zero slot is "never
/// written". Field order matters — it is the on-NVM format.
struct BlackboxEvent {
  uint64_t seqno;  // global order across rings; 0 = empty
  uint64_t ticks;  // FastClock::NowTicks() at record time
  uint64_t a, b, c, d, e;
  uint16_t type;  // BlackboxEventType
  uint16_t ring;
  uint32_t crc;  // masked CRC32C over the preceding 60 bytes
};
static_assert(sizeof(BlackboxEvent) == kBlackboxSlotSize,
              "event slot must be one cache line");

/// Recorder header at the carve-out start. Prologue (magic..slot_size) is
/// CRC-sealed at format time and immutable; session/clock fields are
/// refreshed on every attach; the seqno and per-ring heads are hot
/// atomics on their own cache lines, excluded from the CRC (same
/// discipline as the RegionHeader prologue).
struct BlackboxHeader {
  static constexpr uint64_t kMagic = 0x48594252424F5831ull;  // "HYBRBOX1"
  static constexpr uint32_t kVersion = 1;

  uint64_t magic;
  uint32_t version;
  uint32_t prologue_crc;
  uint64_t region_size;
  uint64_t ring_count;
  uint64_t slots_per_ring;
  uint64_t slot_size;

  uint64_t session_id;  // incremented on every writer attach
  uint64_t epoch_ns;    // wall clock (CLOCK_REALTIME) at last attach
  uint64_t base_ticks;  // FastClock ticks at last attach
  double ns_per_tick;   // FastClock tick length at last attach

  struct alignas(64) HotCounter {
    uint64_t value;
    uint64_t pad[7];
  };
  HotCounter next_seqno;
  HotCounter ring_heads[kBlackboxMaxRings];
};
static_assert(sizeof(BlackboxHeader) <= kBlackboxHeaderBytes,
              "recorder header must fit its reserved block");

/// Validates the recorder header of `base[0..region_size)`. OK when the
/// region hosts no recorder (nothing to validate).
Status ValidateBlackboxHeader(const uint8_t* base, uint64_t region_size);

/// The live writer: lock-free, multi-writer. Threads are spread across
/// rings round-robin; a slot claim is one relaxed fetch_add on the ring
/// head, the seqno another on the global counter.
class BlackboxWriter {
 public:
  /// Formats (zeroes + seals) the carve-out of a fresh region. No-op when
  /// the region is too small to host a recorder.
  static void Format(nvm::PmemRegion& region);

  /// Attaches to the recorder of an opened region: bumps the session id,
  /// refreshes the clock base, and resumes the seqno after the largest
  /// value visible in the rings (plain stores may have outrun the
  /// persisted header across a crash). A corrupt recorder header is
  /// reformatted — diagnostics must never block recovery. Returns nullptr
  /// when the region hosts no recorder.
  static std::unique_ptr<BlackboxWriter> Attach(nvm::PmemRegion& region);

  HYRISE_NV_DISALLOW_COPY_AND_MOVE(BlackboxWriter);

  void Record(BlackboxEventType type, uint64_t a = 0, uint64_t b = 0,
              uint64_t c = 0, uint64_t d = 0, uint64_t e = 0);

  /// Async-signal-safe variant: writes the slot (atomics + memcpy only)
  /// and skips the amortised flush, which may take locks. Pair with
  /// EmergencyFlush().
  void RecordFromSignal(BlackboxEventType type, uint64_t a = 0);

  /// Flush + fence over the whole carve-out: everything recorded so far
  /// becomes durable under the strict shadow model too.
  void Flush();

  /// Async-signal-safe best effort: msync(2) the carve-out pages of a
  /// file-backed region. No locks, no allocation, no latency model.
  void EmergencyFlush();

  bool attached_with_reset() const { return reset_; }
  uint64_t session_id() const;
  const BlackboxGeometry& geometry() const { return geom_; }
  nvm::PmemRegion& region() { return *region_; }

  /// Process-wide current recorder, for instrumentation sites without a
  /// heap in reach (PmemRegion persists, WAL writer, fault injector).
  /// Set by PHeap on attach, cleared on heap destruction.
  static BlackboxWriter* Current();
  static void SetCurrent(BlackboxWriter* writer);

 private:
  BlackboxWriter() = default;

  void RecordImpl(BlackboxEventType type, uint64_t a, uint64_t b,
                  uint64_t c, uint64_t d, uint64_t e, bool allow_flush);
  void FlushRingWindow(uint32_t ring, uint64_t head_count);

  nvm::PmemRegion* region_ = nullptr;
  BlackboxGeometry geom_;
  BlackboxHeader* header_ = nullptr;
  uint8_t* slots_ = nullptr;
  uint64_t flush_every_ = 0;  // power of two, <= slots_per_ring
  std::atomic<uint32_t> next_ring_{0};
  bool reset_ = false;
};

// --- Offline decode -------------------------------------------------------

struct BlackboxDecodedEvent {
  uint64_t seqno = 0;
  uint64_t ticks = 0;
  uint16_t type = 0;
  uint16_t ring = 0;
  uint64_t a = 0, b = 0, c = 0, d = 0, e = 0;
};

struct BlackboxDecodeResult {
  bool present = false;       // region hosts a recorder carve-out
  bool header_valid = false;  // header magic/version/CRC check passed
  std::string header_error;
  BlackboxGeometry geometry;
  uint64_t session_id = 0;
  uint64_t epoch_ns = 0;
  uint64_t base_ticks = 0;
  double ns_per_tick = 1.0;
  uint64_t torn_slots = 0;   // non-empty slots failing their CRC
  uint64_t empty_slots = 0;  // all-zero (never written)
  std::vector<BlackboxDecodedEvent> events;  // ascending seqno

  /// Milliseconds of `ev` relative to the last attach (negative for
  /// events recorded by earlier sessions).
  double RelativeMs(const BlackboxDecodedEvent& ev) const;
};

/// Decodes the recorder of a (possibly corrupt) image: geometry comes
/// from the file size alone, every slot is CRC-checked, survivors are
/// merge-sorted by seqno. Never trusts anything it cannot verify.
BlackboxDecodeResult DecodeBlackbox(const uint8_t* base,
                                    uint64_t region_size);

/// Human-readable, detail-decoded event line for one event.
std::string BlackboxEventDetail(const BlackboxDecodedEvent& ev);

/// Indented human timeline (newest `limit` events; 0 = all).
std::string RenderBlackboxTimeline(const BlackboxDecodeResult& result,
                                   size_t limit = 0);

/// JSON: {"present":...,"valid":...,"events":[...]} (newest `limit`
/// events; 0 = all).
std::string BlackboxTimelineJson(const BlackboxDecodeResult& result,
                                 size_t limit = 0);

}  // namespace hyrise_nv::obs

#endif  // HYRISE_NV_OBS_BLACKBOX_H_
