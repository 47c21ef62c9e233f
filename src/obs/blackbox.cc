#include "obs/blackbox.h"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "common/crc32.h"
#include "common/json.h"
#include "obs/request_stats.h"

namespace hyrise_nv::obs {

namespace {

constexpr size_t kPrologueBytes = offsetof(BlackboxHeader, session_id);
static_assert(kPrologueBytes <= 64, "prologue staging buffer too small");

uint64_t FloorPow2(uint64_t v) {
  if (v == 0) return 0;
  return uint64_t{1} << (63 - __builtin_clzll(v));
}

uint32_t ComputePrologueCrc(const BlackboxHeader* header) {
  uint8_t buf[64];
  std::memcpy(buf, header, kPrologueBytes);
  std::memset(buf + offsetof(BlackboxHeader, prologue_crc), 0,
              sizeof(uint32_t));
  return MaskCrc(Crc32c(buf, kPrologueBytes));
}

uint64_t WallClockNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint32_t EventCrc(const BlackboxEvent& ev) {
  return MaskCrc(
      Crc32c(&ev, kBlackboxSlotSize - sizeof(uint32_t)));
}

// Any thread records into the live rings while the timeline decodes
// them, so a slot is copied a word at a time with relaxed atomics: a
// slot read mid-write fails its CRC and is dropped, and is never a data
// race.
void StoreEvent(BlackboxEvent* slot, const BlackboxEvent& ev) {
  uint64_t words[kBlackboxSlotSize / sizeof(uint64_t)];
  std::memcpy(words, &ev, sizeof(ev));
  auto* dst = reinterpret_cast<uint64_t*>(slot);
  for (size_t i = 0; i < std::size(words); ++i) {
    __atomic_store_n(&dst[i], words[i], __ATOMIC_RELAXED);
  }
}

BlackboxEvent LoadEvent(const uint8_t* slot) {
  uint64_t words[kBlackboxSlotSize / sizeof(uint64_t)];
  const auto* src = reinterpret_cast<const uint64_t*>(slot);
  for (size_t i = 0; i < std::size(words); ++i) {
    words[i] = __atomic_load_n(&src[i], __ATOMIC_RELAXED);
  }
  BlackboxEvent ev;
  std::memcpy(&ev, words, sizeof(ev));
  return ev;
}

std::atomic<BlackboxWriter*> g_current{nullptr};

}  // namespace

BlackboxGeometry BlackboxGeometryFor(uint64_t region_size) {
  BlackboxGeometry geom;
  geom.offset = region_size;
  const uint64_t budget = region_size / 32;
  if (budget <= kBlackboxHeaderBytes) return geom;
  const uint64_t per_slot_budget =
      (budget - kBlackboxHeaderBytes) /
      (kBlackboxRingCount * kBlackboxSlotSize);
  uint64_t slots = FloorPow2(per_slot_budget);
  slots = std::min(slots, kBlackboxMaxSlotsPerRing);
  if (slots < kBlackboxMinSlotsPerRing) return geom;
  const uint64_t raw_bytes =
      kBlackboxHeaderBytes +
      kBlackboxRingCount * slots * kBlackboxSlotSize;
  // Page-align the carve-out start so fatal-signal msync covers exactly
  // the recorder pages; the tail padding belongs to the carve-out.
  const uint64_t offset = (region_size - raw_bytes) & ~uint64_t{4095};
  geom.ring_count = kBlackboxRingCount;
  geom.slots_per_ring = slots;
  geom.offset = offset;
  geom.total_bytes = region_size - offset;
  return geom;
}

uint64_t BlackboxBytesFor(uint64_t region_size) {
  return BlackboxGeometryFor(region_size).total_bytes;
}

const char* BlackboxEventName(uint16_t type) {
  switch (static_cast<BlackboxEventType>(type)) {
    case BlackboxEventType::kNone:
      return "none";
    case BlackboxEventType::kOpen:
      return "open";
    case BlackboxEventType::kClose:
      return "close";
    case BlackboxEventType::kTxnBegin:
      return "txn_begin";
    case BlackboxEventType::kTxnCommit:
      return "txn_commit";
    case BlackboxEventType::kTxnAbort:
      return "txn_abort";
    case BlackboxEventType::kPersist:
      return "persist";
    case BlackboxEventType::kWalSync:
      return "wal_sync";
    case BlackboxEventType::kWalDegraded:
      return "wal_degraded";
    case BlackboxEventType::kMergeStart:
      return "merge_start";
    case BlackboxEventType::kMergeEnd:
      return "merge_end";
    case BlackboxEventType::kFaultFire:
      return "fault_fire";
    case BlackboxEventType::kCheckpoint:
      return "checkpoint";
    case BlackboxEventType::kTxnTrace:
      return "txn_trace";
    case BlackboxEventType::kCrashSignal:
      return "crash_signal";
    case BlackboxEventType::kRecorderReset:
      return "recorder_reset";
    case BlackboxEventType::kConnOpen:
      return "conn_open";
    case BlackboxEventType::kConnClose:
      return "conn_close";
    case BlackboxEventType::kDrain:
      return "drain";
    case BlackboxEventType::kTxnPublishBatch:
      return "txn_publish_batch";
    case BlackboxEventType::kCheckpointFallback:
      return "checkpoint_fallback";
    case BlackboxEventType::kDegradedOpen:
      return "degraded_open";
    case BlackboxEventType::kRecoveryDrainDone:
      return "recovery_drain_done";
    case BlackboxEventType::kWarmingShed:
      return "warming_shed";
    case BlackboxEventType::kSlowRequest:
      return "slow_request";
    case BlackboxEventType::kCheckpointStart:
      return "checkpoint_start";
    case BlackboxEventType::kTxnPrepare:
      return "txn_prepare";
    case BlackboxEventType::kTxnDecide:
      return "txn_decide";
  }
  return "unknown";
}

Status ValidateBlackboxHeader(const uint8_t* base, uint64_t region_size) {
  const BlackboxGeometry geom = BlackboxGeometryFor(region_size);
  if (!geom.enabled()) return Status::OK();
  const auto* header =
      reinterpret_cast<const BlackboxHeader*>(base + geom.offset);
  if (header->magic != BlackboxHeader::kMagic) {
    return Status::Corruption("flight recorder magic mismatch");
  }
  if (header->version != BlackboxHeader::kVersion) {
    return Status::Corruption("flight recorder version " +
                              std::to_string(header->version) +
                              " unsupported");
  }
  if (header->prologue_crc != ComputePrologueCrc(header)) {
    return Status::Corruption("flight recorder header CRC mismatch");
  }
  if (header->region_size != region_size ||
      header->ring_count != geom.ring_count ||
      header->slots_per_ring != geom.slots_per_ring ||
      header->slot_size != kBlackboxSlotSize) {
    return Status::Corruption("flight recorder geometry mismatch");
  }
  return Status::OK();
}

// --- BlackboxWriter -------------------------------------------------------

void BlackboxWriter::Format(nvm::PmemRegion& region) {
  const BlackboxGeometry geom = BlackboxGeometryFor(region.size());
  if (!geom.enabled()) return;
  uint8_t* base = region.base() + geom.offset;
  std::memset(base, 0, geom.total_bytes);
  auto* header = reinterpret_cast<BlackboxHeader*>(base);
  header->magic = BlackboxHeader::kMagic;
  header->version = BlackboxHeader::kVersion;
  header->region_size = region.size();
  header->ring_count = geom.ring_count;
  header->slots_per_ring = geom.slots_per_ring;
  header->slot_size = kBlackboxSlotSize;
  header->prologue_crc = ComputePrologueCrc(header);
  region.Persist(base, geom.total_bytes);
}

std::unique_ptr<BlackboxWriter> BlackboxWriter::Attach(
    nvm::PmemRegion& region) {
  const BlackboxGeometry geom = BlackboxGeometryFor(region.size());
  if (!geom.enabled()) return nullptr;

  auto writer = std::unique_ptr<BlackboxWriter>(new BlackboxWriter());
  writer->region_ = &region;
  writer->geom_ = geom;
  writer->flush_every_ = std::min<uint64_t>(256, geom.slots_per_ring);

  Status valid = ValidateBlackboxHeader(region.base(), region.size());
  if (!valid.ok()) {
    // Quarantine: a trashed recorder must never block data recovery.
    Format(region);
    writer->reset_ = true;
#if HYRISE_NV_METRICS_ENABLED
    static Counter& resets =
        MetricsRegistry::Instance().GetCounter("blackbox.resets.count");
    resets.Inc();
#endif
  }

  auto* header =
      reinterpret_cast<BlackboxHeader*>(region.base() + geom.offset);
  writer->header_ = header;
  writer->slots_ = region.base() + geom.offset + kBlackboxHeaderBytes;

  // Seqno continuity: events are plain stores, so after a crash the rings
  // may hold seqnos newer than the (last-flushed) header counter. Resume
  // after the largest CRC-valid seqno anywhere, or decode order breaks.
  uint64_t max_seq = header->next_seqno.value;
  const uint64_t total_slots = geom.ring_count * geom.slots_per_ring;
  for (uint64_t i = 0; i < total_slots; ++i) {
    const auto* slot = reinterpret_cast<const BlackboxEvent*>(
        writer->slots_ + i * kBlackboxSlotSize);
    if (slot->seqno <= max_seq) continue;
    BlackboxEvent ev;
    std::memcpy(&ev, slot, sizeof(ev));
    if (ev.crc == EventCrc(ev)) max_seq = ev.seqno;
  }
  header->next_seqno.value = max_seq;

  header->session_id += 1;
  header->epoch_ns = WallClockNanos();
  header->base_ticks = FastClock::NowTicks();
  header->ns_per_tick = 1.0;  // FastClock ticks are nanoseconds
  region.Persist(header, sizeof(BlackboxHeader));

  if (writer->reset_) {
    writer->Record(BlackboxEventType::kRecorderReset, 1);
  }
  return writer;
}

void BlackboxWriter::Record(BlackboxEventType type, uint64_t a, uint64_t b,
                            uint64_t c, uint64_t d, uint64_t e) {
  RecordImpl(type, a, b, c, d, e, /*allow_flush=*/true);
}

void BlackboxWriter::RecordFromSignal(BlackboxEventType type, uint64_t a) {
  RecordImpl(type, a, 0, 0, 0, 0, /*allow_flush=*/false);
}

void BlackboxWriter::RecordImpl(BlackboxEventType type, uint64_t a,
                                uint64_t b, uint64_t c, uint64_t d,
                                uint64_t e, bool allow_flush) {
#if HYRISE_NV_METRICS_ENABLED
  // Ring assignment: round-robin per thread, cached until the thread
  // meets a different writer (multiple databases in one process).
  struct RingCache {
    const BlackboxWriter* writer;
    uint32_t ring;
  };
  static thread_local RingCache cache{nullptr, 0};
  if (cache.writer != this) {
    cache.writer = this;
    cache.ring = next_ring_.fetch_add(1, std::memory_order_relaxed) %
                 static_cast<uint32_t>(geom_.ring_count);
  }

  const uint64_t n = __atomic_fetch_add(
      &header_->ring_heads[cache.ring].value, 1, __ATOMIC_RELAXED);
  const uint64_t slot_idx = n & (geom_.slots_per_ring - 1);
  auto* slot = reinterpret_cast<BlackboxEvent*>(
      slots_ + (cache.ring * geom_.slots_per_ring + slot_idx) *
                   kBlackboxSlotSize);

  BlackboxEvent ev;
  ev.seqno =
      __atomic_add_fetch(&header_->next_seqno.value, 1, __ATOMIC_RELAXED);
  ev.ticks = FastClock::NowTicks();
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.d = d;
  ev.e = e;
  ev.type = static_cast<uint16_t>(type);
  ev.ring = static_cast<uint16_t>(cache.ring);
  ev.crc = EventCrc(ev);
  // One cache line, sealed by the CRC written with it. A torn overwrite
  // (crash mid-wrap, or a decode racing this store) fails the CRC and is
  // dropped at decode — never accepted.
  StoreEvent(slot, ev);

  // Amortised durability for the strict shadow crash model: every
  // flush_every_ claims per ring, flush+fence the window just filled.
  if (allow_flush && (n & (flush_every_ - 1)) == flush_every_ - 1) {
    FlushRingWindow(cache.ring, n);
  }
#else
  (void)type;
  (void)a;
  (void)b;
  (void)c;
  (void)d;
  (void)e;
  (void)allow_flush;
#endif
}

void BlackboxWriter::FlushRingWindow(uint32_t ring, uint64_t head_count) {
  const uint64_t slots = geom_.slots_per_ring;
  const uint64_t window = flush_every_;
  const uint64_t first = (head_count + 1 - window) & (slots - 1);
  uint8_t* ring_base = slots_ + ring * slots * kBlackboxSlotSize;
  if (first + window <= slots) {
    region_->Flush(ring_base + first * kBlackboxSlotSize,
                   window * kBlackboxSlotSize);
  } else {
    const uint64_t head_part = slots - first;
    region_->Flush(ring_base + first * kBlackboxSlotSize,
                   head_part * kBlackboxSlotSize);
    region_->Flush(ring_base, (window - head_part) * kBlackboxSlotSize);
  }
  region_->Fence();
}

void BlackboxWriter::Flush() {
  region_->Persist(region_->base() + geom_.offset, geom_.total_bytes);
}

void BlackboxWriter::EmergencyFlush() {
  if (region_->file_path().empty()) return;
  // Page-align down; the carve-out start is page-aligned by construction
  // but the region base only needs to be (mmap guarantees it).
  auto addr = reinterpret_cast<uintptr_t>(region_->base() + geom_.offset);
  const uintptr_t aligned = addr & ~uintptr_t{4095};
  ::msync(reinterpret_cast<void*>(aligned),
          geom_.total_bytes + (addr - aligned), MS_SYNC);
}

uint64_t BlackboxWriter::session_id() const { return header_->session_id; }

BlackboxWriter* BlackboxWriter::Current() {
  return g_current.load(std::memory_order_acquire);
}

void BlackboxWriter::SetCurrent(BlackboxWriter* writer) {
  g_current.store(writer, std::memory_order_release);
}

// --- Offline decode -------------------------------------------------------

BlackboxDecodeResult DecodeBlackbox(const uint8_t* base,
                                    uint64_t region_size) {
  BlackboxDecodeResult result;
  result.geometry = BlackboxGeometryFor(region_size);
  if (!result.geometry.enabled()) return result;
  result.present = true;

  Status valid = ValidateBlackboxHeader(base, region_size);
  const auto* header = reinterpret_cast<const BlackboxHeader*>(
      base + result.geometry.offset);
  if (valid.ok()) {
    result.header_valid = true;
    result.session_id = header->session_id;
    result.epoch_ns = header->epoch_ns;
    result.base_ticks = header->base_ticks;
    result.ns_per_tick =
        header->ns_per_tick > 0 ? header->ns_per_tick : 1.0;
  } else {
    result.header_error = valid.message();
  }

  // Slots are trusted one by one on their own CRC, independent of the
  // header: a corrupt header loses the clock base, not the events.
  const uint8_t* slots =
      base + result.geometry.offset + kBlackboxHeaderBytes;
  const uint64_t total_slots =
      result.geometry.ring_count * result.geometry.slots_per_ring;
  result.events.reserve(256);
  for (uint64_t i = 0; i < total_slots; ++i) {
    const BlackboxEvent ev = LoadEvent(slots + i * kBlackboxSlotSize);
    if (ev.seqno == 0 && ev.type == 0 && ev.crc == 0) {
      ++result.empty_slots;
      continue;
    }
    if (ev.crc != EventCrc(ev)) {
      ++result.torn_slots;
      continue;
    }
    BlackboxDecodedEvent out;
    out.seqno = ev.seqno;
    out.ticks = ev.ticks;
    out.type = ev.type;
    out.ring = ev.ring;
    out.a = ev.a;
    out.b = ev.b;
    out.c = ev.c;
    out.d = ev.d;
    out.e = ev.e;
    result.events.push_back(out);
  }
  std::sort(result.events.begin(), result.events.end(),
            [](const BlackboxDecodedEvent& x, const BlackboxDecodedEvent& y) {
              return x.seqno < y.seqno;
            });
  return result;
}

double BlackboxDecodeResult::RelativeMs(
    const BlackboxDecodedEvent& ev) const {
  const double per_tick = ns_per_tick > 0 ? ns_per_tick : 1.0;
  return static_cast<double>(static_cast<int64_t>(ev.ticks - base_ticks)) *
         per_tick / 1e6;
}

std::string BlackboxEventDetail(const BlackboxDecodedEvent& ev) {
  char buf[192];
  using ULL = unsigned long long;
  switch (static_cast<BlackboxEventType>(ev.type)) {
    case BlackboxEventType::kOpen:
      std::snprintf(buf, sizeof(buf),
                    "mode=%llu recovered=%llu prev_clean=%llu",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b),
                    static_cast<ULL>(ev.c));
      break;
    case BlackboxEventType::kClose:
      std::snprintf(buf, sizeof(buf), "clean=%llu",
                    static_cast<ULL>(ev.a));
      break;
    case BlackboxEventType::kTxnBegin:
      std::snprintf(buf, sizeof(buf), "tid=%llu snapshot=%llu",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b));
      break;
    case BlackboxEventType::kTxnCommit:
      std::snprintf(buf, sizeof(buf),
                    "tid=%llu cid=%llu writes=%llu latency=%.1fus",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b),
                    static_cast<ULL>(ev.c),
                    static_cast<double>(ev.d) / 1e3);
      break;
    case BlackboxEventType::kTxnAbort:
      std::snprintf(buf, sizeof(buf), "tid=%llu writes=%llu",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b));
      break;
    case BlackboxEventType::kPersist:
      std::snprintf(buf, sizeof(buf),
                    "offset=%llu len=%llu latency=%.1fus (1/%llu sample)",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b),
                    static_cast<double>(ev.c) / 1e3,
                    static_cast<ULL>(ev.d));
      break;
    case BlackboxEventType::kWalSync:
      std::snprintf(buf, sizeof(buf),
                    "synced_commits=%llu latency=%.1fus",
                    static_cast<ULL>(ev.a),
                    static_cast<double>(ev.b) / 1e3);
      break;
    case BlackboxEventType::kWalDegraded:
      std::snprintf(buf, sizeof(buf), "entered degraded (read-only) mode");
      break;
    case BlackboxEventType::kMergeStart:
      std::snprintf(buf, sizeof(buf), "table=%llu delta_rows=%llu",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b));
      break;
    case BlackboxEventType::kMergeEnd:
      std::snprintf(buf, sizeof(buf),
                    "table=%llu rows_after=%llu dropped=%llu took=%.1fms",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b),
                    static_cast<ULL>(ev.c),
                    static_cast<double>(ev.d) / 1e6);
      break;
    case BlackboxEventType::kFaultFire:
      std::snprintf(buf, sizeof(buf), "point=%llu param=%llu",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b));
      break;
    case BlackboxEventType::kCheckpoint:
      std::snprintf(buf, sizeof(buf), "took=%.1fms",
                    static_cast<double>(ev.a) / 1e6);
      break;
    case BlackboxEventType::kTxnTrace:
      std::snprintf(buf, sizeof(buf),
                    "tid=%llu write_set=%.1fus persist=%.1fus "
                    "publish=%.1fus total=%.1fus",
                    static_cast<ULL>(ev.a),
                    static_cast<double>(ev.b) / 1e3,
                    static_cast<double>(ev.c) / 1e3,
                    static_cast<double>(ev.d) / 1e3,
                    static_cast<double>(ev.e) / 1e3);
      break;
    case BlackboxEventType::kCrashSignal:
      std::snprintf(buf, sizeof(buf), "signal=%llu",
                    static_cast<ULL>(ev.a));
      break;
    case BlackboxEventType::kRecorderReset:
      std::snprintf(buf, sizeof(buf),
                    "corrupt recorder header quarantined");
      break;
    case BlackboxEventType::kConnOpen:
      std::snprintf(buf, sizeof(buf), "conn=%llu open_after=%llu",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b));
      break;
    case BlackboxEventType::kConnClose:
      std::snprintf(buf, sizeof(buf), "conn=%llu aborted_txn=%llu",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b));
      break;
    case BlackboxEventType::kDrain:
      std::snprintf(buf, sizeof(buf), "open_connections=%llu",
                    static_cast<ULL>(ev.a));
      break;
    case BlackboxEventType::kTxnPublishBatch:
      std::snprintf(buf, sizeof(buf),
                    "published=%llu watermark=%llu skipped=%llu",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b),
                    static_cast<ULL>(ev.c));
      break;
    case BlackboxEventType::kCheckpointFallback:
      std::snprintf(buf, sizeof(buf),
                    "corrupt checkpoint ignored; full replay from offset 0");
      break;
    case BlackboxEventType::kDegradedOpen:
      std::snprintf(buf, sizeof(buf), "indexes=%llu replayed_rows=%llu",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b));
      break;
    case BlackboxEventType::kRecoveryDrainDone:
      std::snprintf(buf, sizeof(buf), "built_indexes=%llu took=%.1fms",
                    static_cast<ULL>(ev.a),
                    static_cast<double>(ev.b) / 1e6);
      break;
    case BlackboxEventType::kWarmingShed:
      std::snprintf(buf, sizeof(buf), "inflight=%llu",
                    static_cast<ULL>(ev.a));
      break;
    case BlackboxEventType::kSlowRequest:
      std::snprintf(buf, sizeof(buf),
                    "opcode=%llu dominant=%s total=%.1fus dominant_us=%.1f "
                    "conn=%llu",
                    static_cast<ULL>(ev.a),
                    RequestStageName(static_cast<size_t>(ev.b)),
                    static_cast<double>(ev.c) / 1e3,
                    static_cast<double>(ev.d) / 1e3, static_cast<ULL>(ev.e));
      break;
    case BlackboxEventType::kCheckpointStart:
      std::snprintf(buf, sizeof(buf), "checkpoint started");
      break;
    case BlackboxEventType::kTxnPrepare:
      std::snprintf(buf, sizeof(buf), "tid=%llu gtid=%llu writes=%llu",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b),
                    static_cast<ULL>(ev.c));
      break;
    case BlackboxEventType::kTxnDecide:
      std::snprintf(buf, sizeof(buf), "gtid=%llu commit=%llu cid=%llu",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b),
                    static_cast<ULL>(ev.c));
      break;
    default:
      std::snprintf(buf, sizeof(buf),
                    "a=%llu b=%llu c=%llu d=%llu e=%llu",
                    static_cast<ULL>(ev.a), static_cast<ULL>(ev.b),
                    static_cast<ULL>(ev.c), static_cast<ULL>(ev.d),
                    static_cast<ULL>(ev.e));
  }
  return buf;
}

std::string RenderBlackboxTimeline(const BlackboxDecodeResult& result,
                                   size_t limit) {
  std::string out;
  char buf[320];
  if (!result.present) {
    return "flight recorder: region too small to host one\n";
  }
  if (result.header_valid) {
    std::snprintf(buf, sizeof(buf),
                  "flight recorder: session %llu, %llu rings x %llu "
                  "slots, attached at epoch %llu ns\n",
                  static_cast<unsigned long long>(result.session_id),
                  static_cast<unsigned long long>(
                      result.geometry.ring_count),
                  static_cast<unsigned long long>(
                      result.geometry.slots_per_ring),
                  static_cast<unsigned long long>(result.epoch_ns));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "flight recorder: header CORRUPT (%s) — timestamps "
                  "are raw ticks, events decoded per-slot\n",
                  result.header_error.c_str());
  }
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  %zu event(s) decoded, %llu torn slot(s) dropped, "
                "%llu empty\n",
                result.events.size(),
                static_cast<unsigned long long>(result.torn_slots),
                static_cast<unsigned long long>(result.empty_slots));
  out += buf;

  size_t first = 0;
  if (limit != 0 && result.events.size() > limit) {
    first = result.events.size() - limit;
    std::snprintf(buf, sizeof(buf), "  ... (%zu older events omitted)\n",
                  first);
    out += buf;
  }
  for (size_t i = first; i < result.events.size(); ++i) {
    const auto& ev = result.events[i];
    std::snprintf(buf, sizeof(buf),
                  "  [%8llu] %+12.3f ms  %-14s ring=%-2u %s\n",
                  static_cast<unsigned long long>(ev.seqno),
                  result.RelativeMs(ev), BlackboxEventName(ev.type),
                  ev.ring, BlackboxEventDetail(ev).c_str());
    out += buf;
  }
  return out;
}

std::string BlackboxTimelineJson(const BlackboxDecodeResult& result,
                                 size_t limit) {
  std::string out = "{";
  char buf[256];
  out += result.present ? "\"present\":true" : "\"present\":false";
  out += result.header_valid ? ",\"valid\":true" : ",\"valid\":false";
  if (!result.header_valid && !result.header_error.empty()) {
    out += ",\"error\":";
    out += common::JsonQuote(result.header_error);
  }
  std::snprintf(
      buf, sizeof(buf),
      ",\"session\":%llu,\"epoch_ns\":%llu,\"ring_count\":%llu,"
      "\"slots_per_ring\":%llu,\"torn_slots\":%llu,\"empty_slots\":%llu,"
      "\"decoded_events\":%zu,\"events\":[",
      static_cast<unsigned long long>(result.session_id),
      static_cast<unsigned long long>(result.epoch_ns),
      static_cast<unsigned long long>(result.geometry.ring_count),
      static_cast<unsigned long long>(result.geometry.slots_per_ring),
      static_cast<unsigned long long>(result.torn_slots),
      static_cast<unsigned long long>(result.empty_slots),
      result.events.size());
  out += buf;
  size_t first = 0;
  if (limit != 0 && result.events.size() > limit) {
    first = result.events.size() - limit;
  }
  for (size_t i = first; i < result.events.size(); ++i) {
    const auto& ev = result.events[i];
    if (i != first) out += ',';
    std::snprintf(
        buf, sizeof(buf),
        "{\"seq\":%llu,\"t_ms\":%.3f,\"type\":\"%s\",\"ring\":%u,"
        "\"args\":[%llu,%llu,%llu,%llu,%llu]}",
        static_cast<unsigned long long>(ev.seqno), result.RelativeMs(ev),
        BlackboxEventName(ev.type), ev.ring,
        static_cast<unsigned long long>(ev.a),
        static_cast<unsigned long long>(ev.b),
        static_cast<unsigned long long>(ev.c),
        static_cast<unsigned long long>(ev.d),
        static_cast<unsigned long long>(ev.e));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace hyrise_nv::obs
