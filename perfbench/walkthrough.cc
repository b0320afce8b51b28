// walkthrough: the paper's Figure 4→12 debugging session, replayed through
// PaperDemo on a fresh world each time. One op is one replay: its eight
// figure steps (Fig05 … Fig12), each timed around the step call (the
// presses, the work they set off, and the redraw the user sees), summed.
// Building the world and checking each step's screen are not timed. The
// session is the paper's fixed script, so the seed changes nothing here.
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "perfbench/bench.h"
#include "perfbench/stats.h"
#include "perfbench/trace_reader.h"
#include "src/obs/trace.h"
#include "src/shell/shell.h"
#include "src/tools/demo.h"

namespace perfbench {
namespace {

using help::PaperDemo;

struct Step {
  const char* id;  // metric suffix
  std::string (PaperDemo::*fn)();
  // Text the step's screen must show (and, for Fig12, must not).
  std::vector<const char*> shows;
  const char* hides = nullptr;
};

const std::vector<Step>& Steps() {
  static const std::vector<Step> steps = {
      {"fig05", &PaperDemo::Fig05_Headers,
       {"/mail/box/rob/mbox", "2 sean Tue Apr 16 19:26:14 EDT 1991"}},
      {"fig06", &PaperDemo::Fig06_Messages, {"From sean", "176153"}},
      {"fig07", &PaperDemo::Fig07_Stack, {"176153 stack", "strchr.s:34"}},
      {"fig08", &PaperDemo::Fig08_OpenTextC, {"n = strlen((char*)s);"}},
      {"fig09", &PaperDemo::Fig09_CloseAndOpenExecC, {"errs((uchar*)n);"}},
      {"fig10", &PaperDemo::Fig10_Uses, {"./dat.h:136", "exec.c:213", "exec.c:252"}},
      {"fig11", &PaperDemo::Fig11_OpenHelpCAndExec213, {"help.c"}},
      {"fig12", &PaperDemo::Fig12_CutPutMk, {"vc -w exec.c", "vl -o help"}, "vc -w errs.c"},
  };
  return steps;
}

constexpr int kPressesPerReplay = 23;
constexpr const char* kExecC = "/usr/rob/src/help/exec.c";
// Figure 12 cuts the only statement of Xdie1 and writes the file back.
constexpr const char* kFixedXdie1 =
    "Xdie1(int argc, char *argv[], Page *page, Text *curt)\n{\n}";
constexpr const char* kUsesOfN = "./dat.h:136\nexec.c:213\nexec.c:252\nhelp.c:35\n";

// The checks for step `i` of a replay; empty when the result is right.
std::string CheckStep(size_t i, const std::string& screen, PaperDemo& demo) {
  const Step& s = Steps()[i];
  for (const char* want : s.shows) {
    if (screen.find(want) == std::string::npos) {
      return std::string(s.id) + ": screen lacks '" + want + "'";
    }
  }
  if (s.hides != nullptr && screen.find(s.hides) != std::string::npos) {
    return std::string(s.id) + ": screen shows '" + s.hides + "'";
  }
  if (std::strcmp(s.id, "fig09") == 0 &&
      demo.help().WindowForFile("/usr/rob/src/help/text.c") != nullptr) {
    return "fig09: text.c is still open";
  }
  if (std::strcmp(s.id, "fig12") == 0) {
    auto disk = demo.help().vfs().ReadFile(kExecC);
    if (!disk.ok() || disk.value().find(kFixedXdie1) == std::string::npos) {
      return "fig12: exec.c on disk still has the cut line";
    }
    const auto& c = demo.help().counters();
    if (c.button_presses != kPressesPerReplay || c.keystrokes != 0) {
      return "fig12: replay cost " + std::to_string(c.button_presses) + " presses, " +
             std::to_string(c.keystrokes) + " keystrokes";
    }
  }
  return {};
}

// One set-up: builds a world and runs one full replay on it, the warm-up
// pass; its time goes to out->setup_s.
bool SetUp(Outcome* out) {
  const Clock::time_point t0 = Clock::now();
  PaperDemo demo;
  for (size_t i = 0; i < Steps().size(); i++) {
    std::string screen = (demo.*(Steps()[i].fn))();
    std::string err = CheckStep(i, screen, demo);
    if (!err.empty()) {
      out->Fail("warm-up " + err);
      return false;
    }
  }
  out->setup_s.push_back(SecondsSince(t0));
  return true;
}

uint64_t CounterValue(const char* name) {
  return help::obs::Registry::Global().GetCounter(name)->value();
}

// Registry counters the per-layer readouts are deltas of.
const char* const kCounters[] = {
    "shell.vm_ops",          "shell.compile_cache_hit",   "shell.compile_cache_miss",
    "shell.mk_recipe",       "proc.images",               "wm.windows_created",
    "text.lineindex.rebuilds", "text.lineindex.splits",   "search.regexp_cache_hit",
    "search.regexp_cache_miss", "search.bytes_scanned",
};

struct Counts {
  std::map<std::string, uint64_t> v;
  static Counts Now() {
    Counts c;
    for (const char* n : kCounters) {
      c.v[n] = CounterValue(n);
    }
    return c;
  }
  double Since(const Counts& before, const char* name) const {
    return static_cast<double>(v.at(name) - before.v.at(name));
  }
};

// The closed loop shared by every phase: replay after replay until the
// deadline. `on_step` runs after each step, outside its timing.
struct Loop {
  // Keep build and step times for the per-layer readouts. The timed phase
  // of an untraced run keeps only replay times, so that peak_rss_mb hardly
  // grows with the number of replays a faster program fits in.
  bool keep_layer_times = true;
  // Set-ups to time between replays, spread evenly through the phase.
  int setups = 0;
  uint64_t replays = 0;
  uint64_t steps = 0;
  double busy_s = 0;                            // time inside step calls
  std::vector<double> build_us;                 // PaperDemo construction
  std::vector<std::vector<double>> per_step_us;  // by step index

  // Appends each replay's time to `replay_us` unless it is null.
  template <typename OnStep>
  void Run(double seconds, Outcome* out, std::vector<float>* replay_us, OnStep on_step) {
    per_step_us.assign(Steps().size(), {});
    const Clock::time_point t0 = Clock::now();
    int setups_done = 0;
    while (SecondsSince(t0) < seconds) {
      if (setups_done < setups &&
          SecondsSince(t0) >= seconds * (setups_done + 1) / (setups + 1)) {
        setups_done++;
        if (!SetUp(out)) {
          return;
        }
      }
      Clock::time_point b0 = Clock::now();
      auto demo = std::make_unique<PaperDemo>();
      if (keep_layer_times) {
        build_us.push_back(MicrosBetween(b0, Clock::now()));
      }
      double us_sum = 0;
      bool ok = true;
      for (size_t i = 0; i < Steps().size(); i++) {
        Clock::time_point s0 = Clock::now();
        std::string screen = (demo.get()->*(Steps()[i].fn))();
        const double us = MicrosBetween(s0, Clock::now());
        std::string err = CheckStep(i, screen, *demo);
        if (!err.empty()) {
          ok = false;
          out->Fail(err);
        }
        us_sum += us;
        steps++;
        if (keep_layer_times) {
          per_step_us[i].push_back(us);
        }
        on_step(i, *demo);
      }
      out->attempted++;
      out->failed += ok ? 0 : 1;
      busy_s += us_sum / 1e6;
      replays++;
      if (replay_us != nullptr) {
        replay_us->push_back(static_cast<float>(us_sum));
      }
    }
  }
};

// cc's public entry point, the help/rcc command, with Figure 10's query:
// every use of the n declared at exec.c:252, across *.c of the help source.
double TimeCcUses(Outcome* out) {
  PaperDemo demo;
  help::Help& h = demo.help();
  const help::NativeCommand* rcc = h.registry().Find("/bin/help/rcc");
  if (rcc == nullptr) {
    out->Fail("cc: /bin/help/rcc is not registered");
    return 0;
  }
  const std::string dir = "/usr/rob/src/help";
  std::vector<std::string> argv = {"/bin/help/rcc", "-u", "-in", "-n252", "-fexec.c"};
  for (const std::string& f : help::GlobExpand(h.vfs(), dir, "*.c")) {
    argv.push_back(f);
  }
  std::vector<double> us;
  for (int i = 0; i < 15; i++) {
    help::ExecContext ctx;
    ctx.vfs = &h.vfs();
    ctx.registry = &h.registry();
    ctx.procs = &h.procs();
    ctx.env = &h.env();
    ctx.cwd = dir;
    std::string sout, serr;
    help::Io io;
    io.out = &sout;
    io.err = &serr;
    Clock::time_point t0 = Clock::now();
    int status = (*rcc)(ctx, argv, io);
    us.push_back(MicrosBetween(t0, Clock::now()));
    if (status != 0 || sout != kUsesOfN) {
      out->Fail("cc: uses n printed '" + sout + serr + "'");
      return 0;
    }
  }
  return MedianOf(us);
}

}  // namespace

Outcome RunWalkthrough(const Args& args) {
  Outcome out;
  // One set-up before the timed phase; an untimed run does the other
  // kSetups - 1 spread through it. Done back to back, all fifteen fell in
  // one state of the host's speed, and a run's median was that state's.
  if (!SetUp(&out)) {
    return out;
  }
  out.Add(&out.detail, "setup_peak_rss_mb", PeakRssMb(), "MB");
  ResetPeakRss();
  HostMark();

  if (!args.trace) {
    Loop loop{.keep_layer_times = false, .setups = kSetups - 1};
    std::vector<float> replay_us;
    loop.Run(args.seconds, &out, &replay_us, [](size_t, PaperDemo&) {});
    out.figures = SummarizeIdenticalOps(replay_us);
    HostMark();
    return out;
  }

  // Traced run. First half untraced: clean per-step times, world builds and
  // the per-replay counts. Second half traced: span self times, redraws.
  Loop plain;
  const Counts c0 = Counts::Now();
  plain.Run(args.seconds / 2, &out, nullptr, [](size_t, PaperDemo&) {});
  const Counts c1 = Counts::Now();
  const double plain_ops_per_s = static_cast<double>(plain.replays) / plain.busy_s;
  HostMark();

  help::obs::Tracer& tracer = help::obs::Tracer::Global();
  const uint64_t emitted0 = tracer.emitted();
  const uint64_t dropped0 = tracer.dropped();
  TraceReader reader;
  std::vector<double> render_us;
  tracer.Enable();
  SetDrawCounting(true);
  Loop traced;
  traced.Run(args.seconds / 2, &out, nullptr, [&](size_t, PaperDemo& demo) {
    SetDrawCounting(false);
    reader.Poll();
    tracer.Disable();
    Clock::time_point t0 = Clock::now();
    demo.help().Render(/*annotated=*/true);
    render_us.push_back(MicrosBetween(t0, Clock::now()));
    tracer.Enable();
    SetDrawCounting(true);
  });
  SetDrawCounting(false);
  tracer.Disable();
  reader.Poll();
  reader.Poll();
  const double traced_ops_per_s = static_cast<double>(traced.replays) / traced.busy_s;
  const double cc_us = TimeCcUses(&out);
  HostMark();

  auto L = [&](std::string name, double v, std::string unit) {
    out.Add(&out.per_layer, std::move(name), v, std::move(unit));
  };
  const double replays = static_cast<double>(plain.replays);
  auto span_us = [&](const char* name) {
    TraceReader::SpanStat s = reader.Span(name);
    return Mean(static_cast<double>(s.self_ns) / 1e3, static_cast<double>(s.calls));
  };
  auto per_replay = [&](const char* counter) { return c1.Since(c0, counter) / replays; };

  L("tools.world_build_us", MedianOf(plain.build_us), "us");
  for (size_t i = 0; i < Steps().size(); i++) {
    L(std::string("core.step_us.") + Steps()[i].id, MedianOf(plain.per_step_us[i]), "us");
  }
  L("core.exec_us", span_us("help.exec"), "us");
  L("core.exec_external_us", span_us("help.exec.external"), "us");
  L("core.open_us", span_us("help.open"), "us");
  L("core.address_us", span_us("help.address"), "us");
  L("cc.uses_us", cc_us, "us");
  L("draw.render_us", MedianOf(render_us), "us");
  L("draw.renders_per_step",
    static_cast<double>(DrawCount()) / static_cast<double>(traced.steps), "count/op");
  L("shell.vm_ops_per_replay", per_replay("shell.vm_ops"), "count");
  const double hits = c1.Since(c0, "shell.compile_cache_hit");
  const double misses = c1.Since(c0, "shell.compile_cache_miss");
  L("shell.compile_cache_hit_ratio", Mean(hits, hits + misses), "ratio");
  L("shell.mk_recipes_per_replay", per_replay("shell.mk_recipe"), "count");
  L("proc.images_per_replay", per_replay("proc.images"), "count");
  L("proc.add_us", span_us("proc.add"), "us");
  L("wm.place_us", span_us("wm.place"), "us");
  L("wm.windows_created_per_replay", per_replay("wm.windows_created"), "count");
  L("text.setall_us", span_us("text.setall"), "us");
  L("text.lineindex.rebuilds_per_replay", per_replay("text.lineindex.rebuilds"), "count");
  L("text.lineindex.splits_per_op", per_replay("text.lineindex.splits"), "count/op");
  const double rhits = c1.Since(c0, "search.regexp_cache_hit");
  const double rmiss = c1.Since(c0, "search.regexp_cache_miss");
  L("regexp.cache_hit_ratio", Mean(rhits, rhits + rmiss), "ratio");
  L("regexp.bytes_scanned_per_replay", per_replay("search.bytes_scanned"), "bytes");
  L("regexp.stream_us", span_us("search.stream"), "us");
  L("obs.trace_overhead", plain_ops_per_s / traced_ops_per_s, "ratio");
  const uint64_t emitted = tracer.emitted() - emitted0;
  L("obs.trace_coverage",
    emitted == 0 ? 0 : static_cast<double>(reader.seen()) / static_cast<double>(emitted),
    "ratio");
  L("obs.trace_dropped", static_cast<double>(tracer.dropped() - dropped0), "count");
  out.Add(&out.detail, "trace.events_read", static_cast<double>(reader.seen()), "count");
  out.Add(&out.detail, "trace.replays", static_cast<double>(traced.replays), "count");
  return out;
}

}  // namespace perfbench
