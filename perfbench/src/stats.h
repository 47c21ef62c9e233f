#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Pure arithmetic the benchmark reports with: the percentile estimator,
// the offered-rate search behind max_rate_ops_s, span self time, and the
// stage-coverage check. No clocks, sockets or engine types, so the unit
// tests drive every function with hand-made inputs.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Value at percentile `p` (0..100) of `samples`, by linear interpolation
/// between the two closest ranks (rank = p/100 * (n-1)). Sorts in place.
/// Returns 0 for an empty set.
inline double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

/// Median over consecutive chunks of at least `chunk` samples (in the
/// order given) of each chunk's percentile `p`; a short remainder joins
/// the last chunk. With fewer than `chunk` samples it is the percentile of
/// all of them. A stall of the machine lands in one chunk and moves the
/// result by one rank instead of dragging the whole tail with it.
inline double ChunkMedianPercentile(const std::vector<double>& samples,
                                    size_t chunk, double p) {
  const size_t chunks = std::max<size_t>(1, samples.size() / std::max<size_t>(1, chunk));
  std::vector<double> per_chunk;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * chunk;
    const size_t end = c + 1 == chunks ? samples.size() : begin + chunk;
    std::vector<double> part(samples.begin() + static_cast<std::ptrdiff_t>(begin),
                             samples.begin() + static_cast<std::ptrdiff_t>(end));
    per_chunk.push_back(Percentile(part, p));
  }
  return Percentile(per_chunk, 50);
}

/// Percentile of a bucketed distribution given as (inclusive upper bound,
/// count) pairs in ascending bound order, e.g. the difference of two
/// cumulative histogram exports. The rank is interpolated linearly inside
/// its bucket, whose lower edge is the previous bucket's upper bound.
inline double BucketPercentile(
    const std::vector<std::pair<uint64_t, uint64_t>>& buckets, double p) {
  uint64_t total = 0;
  for (const auto& [upper, count] : buckets) total += count;
  if (total == 0) return 0;
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(total);
  double seen = 0;
  double lower = 0;
  for (const auto& [upper, count] : buckets) {
    if (count > 0 && seen + static_cast<double>(count) >= rank) {
      const double frac = (rank - seen) / static_cast<double>(count);
      return lower + (static_cast<double>(upper) - lower) * frac;
    }
    seen += static_cast<double>(count);
    lower = static_cast<double>(upper);
  }
  return static_cast<double>(buckets.back().first);
}

/// Search for the highest offered rate that passes a probe. Rates grow
/// geometrically from `start` until a probe fails (or `max_rate` passes),
/// or shrink until one passes; then the bracket is bisected geometrically
/// `bisect_steps` times. best() is the highest passing rate seen, 0 when
/// none passed down to `min_rate`.
class RateSearch {
 public:
  RateSearch(double start, double growth, double min_rate, double max_rate,
             int bisect_steps)
      : growth_(growth),
        min_rate_(min_rate),
        max_rate_(max_rate),
        steps_left_(bisect_steps),
        next_(std::clamp(start, min_rate, max_rate)) {}

  bool done() const { return done_; }
  /// The rate the next probe should offer.
  double next() const { return next_; }
  double best() const { return lo_; }
  int probes() const { return probes_; }

  void Record(bool pass) {
    ++probes_;
    const double rate = next_;
    if (pass) {
      lo_ = std::max(lo_, rate);
    } else {
      hi_ = hi_ == 0 ? rate : std::min(hi_, rate);
    }
    if (hi_ == 0) {  // still growing
      if (rate >= max_rate_) {
        done_ = true;
      } else {
        next_ = std::min(rate * growth_, max_rate_);
      }
      return;
    }
    if (lo_ == 0) {  // still shrinking
      if (rate <= min_rate_) {
        done_ = true;
      } else {
        next_ = std::max(rate / growth_, min_rate_);
      }
      return;
    }
    if (steps_left_ <= 0) {
      done_ = true;
      return;
    }
    --steps_left_;
    next_ = std::sqrt(lo_ * hi_);
  }

 private:
  double growth_;
  double min_rate_;
  double max_rate_;
  int steps_left_;
  double next_;
  double lo_ = 0;
  double hi_ = 0;
  int probes_ = 0;
  bool done_ = false;
};

/// One recorded span. `parent` is 0 for a root; ids start at 1.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

struct SelfTime {
  uint64_t spans = 0;
  double total_ns = 0;  // summed span durations
  double self_ns = 0;   // summed durations minus child coverage
};

/// Per-name total and self time. A span's self time is its duration
/// minus the part of its interval covered by the union of its children
/// (clipped to the span, overlaps between children counted once).
inline std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    const uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      uint64_t cursor = s.start_ns;
      for (const auto& [start, end] : kids) {
        const uint64_t lo = std::max(start, cursor);
        const uint64_t hi = std::min(end, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    SelfTime& st = out[s.name];
    ++st.spans;
    st.total_ns += static_cast<double>(dur);
    st.self_ns += static_cast<double>(dur - std::min(covered, dur));
  }
  return out;
}

/// Share of the mean client round trip that named parts explain: the
/// server's stage time plus the network (round trip minus server time).
/// 1.0 means the stages tile the server time exactly.
inline double StageCoverage(double rtt_mean, double server_mean,
                            double stage_sum_mean) {
  if (rtt_mean <= 0) return 0;
  const double network = std::max(0.0, rtt_mean - server_mean);
  return std::min(1.0, (stage_sum_mean + network) / rtt_mean);
}

constexpr double kMinStageCoverage = 0.9;

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
