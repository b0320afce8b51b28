// Exact-sample statistics for the benchmark's end-to-end latencies. Every op
// latency is kept as a sample and percentiles are read off the sorted
// samples by nearest rank; nothing here is bucketed.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// A percentile is only reported when at least this many samples lie beyond
// it; fewer and the tail is one or two unlucky ops, not a distribution.
inline constexpr size_t kMinBeyond = 10;

// 1-based nearest rank of the pct-th percentile of n samples:
// ceil(pct * n / 100), at least 1. Integer arithmetic, so p99 of 1000
// samples is exactly rank 990.
inline size_t NearestRank(size_t n, unsigned pct) {
  size_t r = (static_cast<size_t>(pct) * n + 99) / 100;
  return std::max<size_t>(r, 1);
}

struct Percentile {
  double value = 0;   // the sample at the nearest rank
  size_t beyond = 0;  // samples ranked after it
  bool ok() const { return beyond >= kMinBeyond; }
};

// `sorted` must be ascending and non-empty.
inline Percentile PercentileOf(const std::vector<float>& sorted, unsigned pct) {
  Percentile p;
  size_t rank = NearestRank(sorted.size(), pct);
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  return p;
}

// Median of a small set of repeated measurements (set-up times, reference
// kernel timings): the lower middle for an even count, so it is always one
// of the measured values.
inline double MedianOf(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

inline double Mean(double sum, double n) { return n > 0 ? sum / n : 0; }

// The end-to-end figures rest on units of identical work: a walkthrough
// replay, or a wire round (a fixed deck of requests, wire.cc). Every unit
// does the same work, so only the host makes one slower than another, and
// on a shared host it only ever slows them: its speed wanders by a third
// within seconds and the share of slow time moves from run to run. So the
// figures are those of the program when the host does not hold it back,
// taken over the run's kFastUnits fastest units: on the wire, the ops of
// those rounds; on the walkthrough, the rate of those replays. A slowdown of
// the program's own moves every unit and so these figures. One that hits
// only some units (a periodic stall) shows in the median and worst rounds,
// printed beside them.
inline constexpr size_t kFastUnits = 32;

struct OpStats {
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  size_t samples = 0;
  size_t beyond = 0;  // samples beyond p99
};

// `seconds` of ops, of which `ok` of those timed in `us` gave a right
// answer: the rate is right answers per second. Sorts `us` in place.
inline OpStats SummarizeOps(std::vector<float>& us, uint64_t ok, double seconds) {
  OpStats b;
  b.samples = us.size();
  b.ops_per_s = seconds > 0 ? static_cast<double>(ok) / seconds : 0;
  if (!us.empty()) {
    std::sort(us.begin(), us.end());
    b.p50_us = PercentileOf(us, 50).value;
    Percentile p99 = PercentileOf(us, 99);
    b.p99_us = p99.value;
    b.beyond = p99.beyond;
  }
  return b;
}

// Ops that each do the same work, run one after another (the walkthrough's
// replays): the rate is that of the kFastUnits fastest, the number of them
// over their summed time. The percentiles are those of every op. Sorts `us`
// in place.
inline OpStats SummarizeIdenticalOps(std::vector<float>& us) {
  OpStats b = SummarizeOps(us, 0, 0);
  const size_t n = std::min(kFastUnits, us.size());
  double sum_us = 0;
  for (size_t i = 0; i < n; i++) {
    sum_us += us[i];
  }
  b.ops_per_s = sum_us > 0 ? static_cast<double>(n) * 1e6 / sum_us : 0;
  return b;
}

// Diagnostics over every round of a run: the median round (the median of
// the round rates, of their p50s and of their p99s) and the worst p99.
struct Summary {
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double worst_p99_us = 0;
};

inline Summary SummarizeRun(const std::vector<OpStats>& rounds) {
  Summary s;
  std::vector<double> rate, p50, p99;
  for (const OpStats& b : rounds) {
    s.worst_p99_us = std::max(s.worst_p99_us, b.p99_us);
    rate.push_back(b.ops_per_s);
    p50.push_back(b.p50_us);
    p99.push_back(b.p99_us);
  }
  s.ops_per_s = MedianOf(rate);
  s.p50_us = MedianOf(p50);
  s.p99_us = MedianOf(p99);
  return s;
}

// Records a wire run round by round, from the one thread that sees its ops
// complete. It keeps a summary of every round and the samples of the
// kFastUnits fastest so far, so it holds at most kFastUnits + 1 rounds of
// samples whatever the op rate (peak_rss_mb must not grow when the program
// gets faster).
class RoundRecorder {
 public:
  void Add(float us, bool ok) {
    us_.push_back(us);
    ok_ += ok ? 1 : 0;
  }

  // Closes the round, which took `seconds` from its first send to its last
  // reply.
  void EndRound(double seconds) {
    rounds_.push_back(SummarizeOps(us_, ok_, seconds));
    Kept round{seconds, ok_, std::move(us_)};
    if (fast_.size() < kFastUnits) {
      fast_.push_back(std::move(round));
    } else {
      auto slowest = std::max_element(fast_.begin(), fast_.end(), [](auto& a, auto& b) {
        return a.seconds < b.seconds;
      });
      if (seconds < slowest->seconds) {
        std::swap(*slowest, round);
      }
    }
    us_ = std::move(round.us);  // reuses a dropped round's buffer
    us_.clear();
    ok_ = 0;
  }

  // The run's figures: the ops of the fastest rounds, their right answers
  // over their summed time and the exact percentiles of their samples.
  OpStats Fastest() const {
    std::vector<float> us;
    uint64_t ok = 0;
    double seconds = 0;
    for (const Kept& k : fast_) {
      us.insert(us.end(), k.us.begin(), k.us.end());
      ok += k.ok;
      seconds += k.seconds;
    }
    return SummarizeOps(us, ok, seconds);
  }

  const std::vector<OpStats>& rounds() const { return rounds_; }

 private:
  struct Kept {
    double seconds = 0;
    uint64_t ok = 0;
    std::vector<float> us;
  };
  std::vector<OpStats> rounds_;
  std::vector<Kept> fast_;
  std::vector<float> us_;
  uint64_t ok_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
