// Self-test of the benchmark's own arithmetic: nearest-rank percentiles, the
// ten-samples-beyond rule, medians, span self times and request phase chains
// read from trace events. Exits 0 when every check passes.
//
//   .bench_build/perfbench/perfbench_selftest
#include <cstdio>
#include <vector>

#include "perfbench/stats.h"
#include "perfbench/trace_reader.h"

namespace perfbench {
namespace {

using help::obs::EventKind;
using help::obs::TraceEvent;

int failures = 0;

#define CHECK_EQ(a, b)                                                       \
  do {                                                                       \
    auto va = (a);                                                           \
    auto vb = (b);                                                           \
    if (!(va == vb)) {                                                       \
      std::printf("%s:%d: %s == %s failed (%g vs %g)\n", __FILE__, __LINE__, \
                  #a, #b, static_cast<double>(va), static_cast<double>(vb)); \
      failures++;                                                            \
    }                                                                        \
  } while (0)

std::vector<float> OneTo(int n) {
  std::vector<float> v;
  for (int i = 1; i <= n; i++) {
    v.push_back(static_cast<float>(i));
  }
  return v;
}

void Percentiles() {
  CHECK_EQ(NearestRank(1000, 99), 990u);
  CHECK_EQ(NearestRank(1000, 50), 500u);
  CHECK_EQ(NearestRank(999, 99), 990u);  // ceil(989.01)
  CHECK_EQ(NearestRank(3, 50), 2u);
  CHECK_EQ(NearestRank(1, 99), 1u);
  CHECK_EQ(NearestRank(0, 50), 1u);

  // 1..1000: p99 is the 990th sample and exactly ten lie beyond it.
  Percentile p99 = PercentileOf(OneTo(1000), 99);
  CHECK_EQ(p99.value, 990.0);
  CHECK_EQ(p99.beyond, 10u);
  CHECK_EQ(p99.ok(), true);
  CHECK_EQ(PercentileOf(OneTo(1000), 50).value, 500.0);
  // One sample fewer and only nine are beyond: p99 is not reportable.
  Percentile short99 = PercentileOf(OneTo(999), 99);
  CHECK_EQ(short99.beyond, 9u);
  CHECK_EQ(short99.ok(), false);
  // A single sample is every percentile, with nothing beyond.
  CHECK_EQ(PercentileOf(OneTo(1), 99).value, 1.0);
  CHECK_EQ(PercentileOf(OneTo(1), 99).ok(), false);
  // Ties: the value is a sample, never an interpolation.
  std::vector<float> ties = {1, 2, 2, 2, 7};
  CHECK_EQ(PercentileOf(ties, 50).value, 2.0);
  CHECK_EQ(PercentileOf(ties, 99).value, 7.0);
}

void Medians() {
  CHECK_EQ(MedianOf({3, 1, 2}), 2.0);
  CHECK_EQ(MedianOf({4, 1, 3, 2}), 2.0);  // the lower middle
  CHECK_EQ(MedianOf({}), 0.0);
  CHECK_EQ(Mean(10, 4), 2.5);
  CHECK_EQ(Mean(10, 0), 0.0);
}

void RoundsOfAPhase() {
  RoundRecorder rec;
  rec.Add(40, false);  // a wrong result: a sample, but not a right op
  rec.Add(10, true);
  rec.Add(20, true);
  rec.EndRound(2.0);
  rec.Add(30, true);
  rec.Add(50, true);
  rec.EndRound(0.5);
  rec.EndRound(1.0);  // a round no op completed in is summarised empty
  const std::vector<OpStats>& st = rec.rounds();
  CHECK_EQ(st.size(), 3u);
  CHECK_EQ(st[0].samples, 3u);
  CHECK_EQ(st[0].ops_per_s, 1.0);  // two right ops in two seconds
  CHECK_EQ(st[0].p50_us, 20.0);
  CHECK_EQ(st[0].p99_us, 40.0);
  CHECK_EQ(st[1].samples, 2u);
  CHECK_EQ(st[1].ops_per_s, 4.0);
  CHECK_EQ(st[1].p50_us, 30.0);
  CHECK_EQ(st[1].p99_us, 50.0);
  CHECK_EQ(st[2].samples, 0u);
  // Fewer rounds than kFastUnits: the figures pool all of them.
  OpStats all = rec.Fastest();
  CHECK_EQ(all.samples, 5u);
  CHECK_EQ(all.ops_per_s, 4 / 3.5);
  CHECK_EQ(all.p50_us, 30.0);
}

void FastestRounds() {
  // Rounds of ten ops: kFastUnits + 1 run at full speed (1 s; ops of
  // 100 us and one of 200 us), the last of them at 1.5 s, interleaved with
  // twice as many under a slow host (4 s, 400 us ops), one of which hit a
  // stall (one 5000 us op). The figures are those of the kFastUnits
  // fastest, whatever order they came in.
  RoundRecorder rec;
  const size_t n = 3 * (kFastUnits + 1);
  for (size_t r = 0; r < n; r++) {
    const bool fast = r % 3 == 1;
    for (int i = 0; i < 10; i++) {
      float us = fast ? (i == 9 ? 200 : 100) : (r == 5 && i == 9 ? 5000 : 400);
      rec.Add(us, true);
    }
    rec.EndRound(fast ? (r == n - 2 ? 1.5 : 1.0) : 4.0);
  }
  OpStats fig = rec.Fastest();
  CHECK_EQ(fig.samples, 10 * kFastUnits);
  CHECK_EQ(fig.ops_per_s, 10.0);
  CHECK_EQ(fig.p50_us, 100.0);
  CHECK_EQ(fig.p99_us, 200.0);
  CHECK_EQ(rec.rounds().size(), n);
  // The diagnostics over every round see the slow host and the stall.
  Summary every = SummarizeRun(rec.rounds());
  CHECK_EQ(every.ops_per_s, 2.5);
  CHECK_EQ(every.p99_us, 400.0);
  CHECK_EQ(every.worst_p99_us, 5000.0);

  // Identical ops: the rate is that of the kFastUnits fastest, so host
  // slowdowns of most of the ops leave it alone; the percentiles are those
  // of every op. 1..1000 us: the fastest are 1..kFastUnits us.
  std::vector<float> ops = OneTo(1000);
  for (float& us : ops) {
    us = us < 500 ? us : us * 2;  // half the ops slowed down
  }
  OpStats same = SummarizeIdenticalOps(ops);
  const double fast_sum_us = kFastUnits * (kFastUnits + 1) / 2.0;
  CHECK_EQ(same.ops_per_s, static_cast<double>(kFastUnits) * 1e6 / fast_sum_us);
  CHECK_EQ(same.samples, 1000u);
  CHECK_EQ(same.p99_us, 1980.0);
  CHECK_EQ(same.beyond, 10u);
}

void MedianRound() {
  // The median round: the median of rates, of p50s and of p99s; the worst
  // p99 beside it.
  std::vector<OpStats> rounds(5);
  const double rates[] = {100, 40, 120, 110, 90};
  const double p99s[] = {50, 400, 45, 55, 60};
  for (size_t i = 0; i < 5; i++) {
    rounds[i].ops_per_s = rates[i];
    rounds[i].p50_us = p99s[i] / 5;
    rounds[i].p99_us = p99s[i];
  }
  Summary s = SummarizeRun(rounds);
  CHECK_EQ(s.ops_per_s, 100.0);
  CHECK_EQ(s.p99_us, 55.0);
  CHECK_EQ(s.p50_us, 11.0);
  CHECK_EQ(s.worst_p99_us, 400.0);
  CHECK_EQ(SummarizeRun({}).ops_per_s, 0.0);
}

TraceEvent Ev(uint64_t seq, EventKind kind, const char* name, uint64_t ns, uint64_t arg,
              uint64_t rid = 0, uint32_t tid = 1) {
  TraceEvent e{};
  e.seq = seq;
  e.ns = ns;
  e.arg = arg;
  e.rid = rid;
  e.tid = tid;
  e.kind = kind;
  e.name = name;
  return e;
}

void SpanSelfTimes() {
  TraceReader r;
  // help.exec (100 ns) encloses help.open (30 ns) on thread 1; thread 2
  // runs its own help.open (5 ns) interleaved.
  r.Consume({Ev(0, EventKind::kBegin, "help.exec", 0, 0),
             Ev(1, EventKind::kBegin, "help.open", 10, 0),
             Ev(2, EventKind::kBegin, "help.open", 12, 0, 0, 2),
             Ev(3, EventKind::kEnd, "help.open", 17, 5, 0, 2),
             Ev(4, EventKind::kEnd, "help.open", 40, 30),
             Ev(5, EventKind::kEnd, "help.exec", 100, 100)});
  CHECK_EQ(r.Span("help.exec").calls, 1u);
  CHECK_EQ(r.Span("help.exec").self_ns, 70u);
  CHECK_EQ(r.Span("help.open").calls, 2u);
  CHECK_EQ(r.Span("help.open").self_ns, 35u);
  CHECK_EQ(r.Span("wm.place").calls, 0u);
  CHECK_EQ(r.seen(), 6u);
  CHECK_EQ(r.lost(), 0u);
}

void RequestChains() {
  TraceReader r;
  const uint64_t rid = 0x10000000005ull;
  r.Consume({Ev(0, EventKind::kInstant, "req.frame", 1000, 64, rid),
             Ev(1, EventKind::kComplete, "req.queue", 1000, 10, rid),
             Ev(2, EventKind::kComplete, "req.lock", 1010, 2, rid),
             Ev(3, EventKind::kComplete, "req.handler", 1012, 20, rid),
             Ev(4, EventKind::kComplete, "req.encode", 1032, 3, rid),
             Ev(5, EventKind::kComplete, "req.outbox", 1100, 50, rid),
             // A chain whose frame event was lost never counts.
             Ev(6, EventKind::kComplete, "req.queue", 2000, 10, rid + 1),
             Ev(7, EventKind::kComplete, "req.outbox", 2100, 50, rid + 1)});
  const TraceReader::Phases& p = r.phases();
  CHECK_EQ(p.requests, 1u);
  CHECK_EQ(p.total_ns, 150u);  // frame at 1000 → last byte out at 1150
  CHECK_EQ(p.queue_ns, 10u);
  CHECK_EQ(p.lock_ns, 2u);
  CHECK_EQ(p.handler_ns, 20u);
  CHECK_EQ(p.encode_ns, 3u);
  CHECK_EQ(p.outbox_ns, 50u);
  CHECK_EQ(r.broken_chains(), 1u);
}

void Holes() {
  TraceReader r;
  r.Consume({Ev(0, EventKind::kBegin, "a", 0, 0)});
  // seq 1 is missing while newer events are readable: maybe mid-write, so
  // the reader waits one round before giving it up.
  r.Consume({Ev(0, EventKind::kBegin, "a", 0, 0), Ev(2, EventKind::kEnd, "a", 9, 9)});
  CHECK_EQ(r.seen(), 1u);
  CHECK_EQ(r.lost(), 0u);
  r.Consume({Ev(0, EventKind::kBegin, "a", 0, 0), Ev(2, EventKind::kEnd, "a", 9, 9)});
  CHECK_EQ(r.seen(), 2u);
  CHECK_EQ(r.lost(), 1u);
  // The lost event broke the pairing, so no span is credited.
  CHECK_EQ(r.Span("a").calls, 0u);
  // Events older than the ring's oldest were overwritten: lost at once.
  r.Consume({Ev(10, EventKind::kBegin, "b", 0, 0), Ev(11, EventKind::kEnd, "b", 4, 4)});
  CHECK_EQ(r.lost(), 8u);
  CHECK_EQ(r.Span("b").self_ns, 4u);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::Percentiles();
  perfbench::Medians();
  perfbench::RoundsOfAPhase();
  perfbench::FastestRounds();
  perfbench::MedianRound();
  perfbench::SpanSelfTimes();
  perfbench::RequestChains();
  perfbench::Holes();
  if (perfbench::failures != 0) {
    std::printf("perfbench_selftest: %d check(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_selftest: ok\n");
  return 0;
}
