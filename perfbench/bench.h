// Shared shape of one benchmark run. main.cc parses the command line, calls
// one workload, and turns its Outcome into the printed metrics; each
// workload (walkthrough.cc, wire.cc) owns its set-up, its timed closed loop,
// its correctness checks and, in a traced run, its per-layer readouts.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/stats.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;  // ops started in the timed phase
  uint64_t failed = 0;     // ops that errored or returned a wrong result
  // False when a check that covers more than one op (a final window body,
  // the percentile sample rule) failed; failed counts those too.
  bool correct = true;
  std::vector<std::string> errors;  // the first few wrong results

  // End-to-end readouts of an untraced run: the figures (stats.h), every
  // wire round for the diagnostics, and one entry per repeated set-up.
  OpStats figures;
  std::vector<OpStats> rounds;
  std::vector<double> setup_s;

  // Per-layer readouts of a traced run, and diagnostics for either kind.
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;

  void Fail(std::string why);
  void Add(std::vector<Metric>* to, std::string name, double value,
           std::string unit) {
    to->push_back({std::move(name), value, std::move(unit)});
  }
};

// How many times an untraced run repeats its full set-up; setup_s is their
// median.
inline constexpr int kSetups = 15;

Outcome RunWalkthrough(const Args& args);
Outcome RunWireRead(const Args& args);
Outcome RunWireEdit(const Args& args);

// Times the fixed CPU reference kernel once. Workloads call it between
// phases; main reports the median as host.ref_us so that a host running
// slow shows as such. It never normalises a metric.
void HostMark();

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// The process's peak resident set (VmHWM) since the start or the last
// ResetPeakRss, in MiB.
double PeakRssMb();
// Hands the memory freed by earlier set-ups back to the kernel and restarts
// the peak at the current resident set, so that peak_rss_mb is the peak of
// the timed phase of a program that was set up once.
void ResetPeakRss();

// Page::Draw calls seen while counting is on (draw_count.cc).
void SetDrawCounting(bool on);
uint64_t DrawCount();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
