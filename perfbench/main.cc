// perfbench_e2e: one run of one workload.
//
//   perfbench_e2e --workload walkthrough|wire_read|wire_edit --seed N
//                 --seconds S --trace 0|1
//
// Prints a short human summary, then as its last line one JSON object with
// every metric it measured (end-to-end ones when --trace 0, per-layer ones
// when --trace 1), the correctness tally and the host diagnostics. run.py
// turns that line into the benchmark's result line.
#include <malloc.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/stats.h"

namespace perfbench {

void Outcome::Fail(std::string why) {
  correct = false;
  if (errors.size() < 8) {
    errors.push_back(std::move(why));
  }
}

namespace {

std::vector<double>& RefTimes() {
  static std::vector<double> t;
  return t;
}

// Aggregate CPU jiffies from /proc/stat: {steal, total}. {0, 0} when the
// file is unreadable (the share is then reported as 0).
std::pair<uint64_t, uint64_t> CpuJiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  uint64_t total = 0, steal = 0, v = 0;
  if (!(f >> cpu) || cpu != "cpu") {
    return {0, 0};
  }
  for (int i = 0; i < 8 && f >> v; i++) {
    total += v;
    if (i == 7) {
      steal = v;
    }
  }
  return {steal, total};
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void AppendMetrics(std::string* json, const std::vector<Metric>& ms) {
  *json += "{";
  for (size_t i = 0; i < ms.size(); i++) {
    *json += (i ? ", " : "") + Quote(ms[i].name) + ": {\"value\": " + Num(ms[i].value) +
             ", \"unit\": " + Quote(ms[i].unit) + "}";
  }
  *json += "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload walkthrough|wire_read|wire_edit "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

// A fixed integer kernel (an LCG feeding a small table walk): CPU-bound,
// cache-resident, independent of the program under test.
void HostMark() {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; i++) {
    table[i] = i * 2654435761u;
  }
  std::vector<double> runs;
  for (int r = 0; r < 5; r++) {
    Clock::time_point t0 = Clock::now();
    uint32_t x = 12345;
    for (int i = 0; i < 200000; i++) {
      x = x * 1664525u + 1013904223u;
      x ^= table[x >> 24];
      table[x & 255] += x;
    }
    runs.push_back(MicrosBetween(t0, Clock::now()));
    if (x == 42) {
      std::fprintf(stderr, "\n");  // keeps the loop's result live
    }
  }
  RefTimes().push_back(MedianOf(runs));
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) {
    return Usage();
  }
  Outcome (*run)(const Args&) = nullptr;
  if (args.workload == "walkthrough") {
    run = RunWalkthrough;
  } else if (args.workload == "wire_read") {
    run = RunWireRead;
  } else if (args.workload == "wire_edit") {
    run = RunWireEdit;
  } else {
    return Usage();
  }

  const auto jiffies0 = CpuJiffies();
  HostMark();
  Outcome out = run(args);
  const auto jiffies1 = CpuJiffies();

  std::vector<Metric> metrics;
  std::vector<Metric> detail = out.detail;
  auto D = [&](std::string name, double v, std::string unit) {
    out.Add(&detail, std::move(name), v, std::move(unit));
  };
  if (!args.trace) {
    const OpStats& fig = out.figures;
    if (fig.samples == 0) {
      out.Fail("no op completed");
    } else if (fig.beyond < kMinBeyond) {
      out.Fail("op_us_p99 rests on " + std::to_string(fig.beyond) + " samples beyond it");
    }
    out.Add(&metrics, "ops_per_s", fig.ops_per_s, "1/s");
    out.Add(&metrics, "op_us_p99", fig.p99_us, "us");
    out.Add(&metrics, "setup_s", MedianOf(out.setup_s), "s");
    out.Add(&metrics, "peak_rss_mb", PeakRssMb(), "MB");
    // Printed, not an end-to-end metric: the walkthrough's flips between the
    // host's two speeds when half the replays are slow (NOTES.md).
    D("op_us_p50", fig.p50_us, "us");
    D("samples", static_cast<double>(fig.samples), "count");
    D("samples_beyond_p99", static_cast<double>(fig.beyond), "count");
    if (!out.rounds.empty()) {
      // Every round, not only the fastest: a stall of the program's own that
      // hits only some rounds shows here. The first and last round differ
      // when an op costs more at the end of a run than at its start (or when
      // the host's speed moved).
      const Summary all = SummarizeRun(out.rounds);
      D("rounds", static_cast<double>(out.rounds.size()), "count");
      D("ops_per_s_median_round", all.ops_per_s, "1/s");
      D("op_us_p50_median_round", all.p50_us, "us");
      D("op_us_p99_median_round", all.p99_us, "us");
      D("op_us_p99_worst_round", all.worst_p99_us, "us");
      D("ops_per_s_first_round", out.rounds.front().ops_per_s, "1/s");
      D("ops_per_s_last_round", out.rounds.back().ops_per_s, "1/s");
    }
  } else {
    metrics = out.per_layer;
  }
  D("setups", static_cast<double>(out.setup_s.size()), "count");
  D("host.ref_us", MedianOf(RefTimes()), "us");
  const uint64_t dj = jiffies1.second - jiffies0.second;
  D("host.steal_share",
    dj == 0 ? 0 : static_cast<double>(jiffies1.first - jiffies0.first) / static_cast<double>(dj),
    "ratio");
  D("host.nproc", static_cast<double>(std::thread::hardware_concurrency()), "count");

  for (const Metric& m : metrics) {
    std::printf("%-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : out.errors) {
    std::printf("error: %s\n", e.c_str());
  }
  std::string json = "{\"workload\": " + Quote(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
                     ", \"correct\": " + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"errors\": [";
  for (size_t i = 0; i < out.errors.size(); i++) {
    json += (i ? ", " : "") + Quote(out.errors[i]);
  }
  json += "], \"metrics\": ";
  AppendMetrics(&json, metrics);
  json += ", \"detail\": ";
  AppendMetrics(&json, detail);
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
