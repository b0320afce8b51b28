// Counts screen redraws without instrumenting src/: the benchmark links with
// -Wl,--wrap=<mangled help::Page::Draw>, so every call into Page::Draw from
// another object file (Help::Render, Help::FindInWindow, ...) lands here
// first. The original stays reachable as __real_<symbol>, declared weak so
// that a renamed or re-signed Page::Draw leaves the wrapper unused (the
// count then reads 0) instead of breaking the link.
#include <cstdint>

#include "perfbench/bench.h"

namespace {
bool counting = false;
uint64_t draws = 0;
}  // namespace

extern "C" {
void __real__ZN4help4Page4DrawEPKNS_9SubwindowEPKNS_9SelectionES3_(
    void* page, const void* current, const void* exec_sel, const void* exec_sub)
    __attribute__((weak));

void __wrap__ZN4help4Page4DrawEPKNS_9SubwindowEPKNS_9SelectionES3_(
    void* page, const void* current, const void* exec_sel, const void* exec_sub) {
  if (counting) {
    draws++;
  }
  __real__ZN4help4Page4DrawEPKNS_9SubwindowEPKNS_9SelectionES3_(page, current, exec_sel,
                                                               exec_sub);
}
}

namespace perfbench {

void SetDrawCounting(bool on) { counting = on; }
uint64_t DrawCount() { return draws; }

}  // namespace perfbench
