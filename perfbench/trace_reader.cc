#include "perfbench/trace_reader.h"

#include <cstring>

namespace perfbench {

using help::obs::EventKind;
using help::obs::TraceEvent;
using help::obs::Tracer;

namespace {

// Request phase bits. The lock phase is optional: requests served without
// the dispatch lock (lock-free /mnt/help files) have none.
constexpr unsigned kFrame = 1, kQueue = 2, kLock = 4, kHandler = 8, kEncode = 16;
constexpr unsigned kRequired = kFrame | kQueue | kHandler | kEncode;

bool Is(const char* a, const char* b) { return std::strcmp(a, b) == 0; }

}  // namespace

TraceReader::TraceReader() : next_seq_(Tracer::Global().emitted()) {}

void TraceReader::Poll() { Consume(Tracer::Global().Snapshot()); }

void TraceReader::Consume(const std::vector<TraceEvent>& events) {
  if (events.empty()) {
    return;
  }
  const uint64_t oldest = events.front().seq;
  for (const TraceEvent& e : events) {
    if (e.seq < next_seq_) {
      continue;
    }
    if (e.seq > next_seq_) {
      // A hole. Older than the ring's oldest event: overwritten, gone for
      // good. Otherwise it may be a slot still being written — wait one
      // Poll for it, and give up on it if it is still missing then (a
      // lapped writer drops its own event).
      if (next_seq_ >= oldest && stalled_at_ != next_seq_) {
        stalled_at_ = next_seq_;
        return;
      }
      lost_ += e.seq - next_seq_;
      Gap();
    }
    OnEvent(e);
    seen_++;
    next_seq_ = e.seq + 1;
  }
}

void TraceReader::Gap() {
  // Lost begin/end events make the remaining stacks unpairable.
  stacks_.clear();
}

void TraceReader::OnEvent(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::kBegin:
      stacks_[e.tid].push_back({e.name, 0});
      return;
    case EventKind::kEnd: {
      std::vector<Frame>& st = stacks_[e.tid];
      if (st.empty() || !Is(st.back().name, e.name)) {
        st.clear();
        return;
      }
      const uint64_t dur = e.arg;
      SpanStat& s = spans_[st.back().name];
      s.calls++;
      s.self_ns += dur > st.back().child_ns ? dur - st.back().child_ns : 0;
      st.pop_back();
      if (!st.empty()) {
        st.back().child_ns += dur;
      }
      return;
    }
    case EventKind::kInstant:
    case EventKind::kComplete:
      if (e.rid != 0 && std::strncmp(e.name, "req.", 4) == 0) {
        OnPhase(e);
      }
      return;
    case EventKind::kCounter:
      return;
  }
}

void TraceReader::OnPhase(const TraceEvent& e) {
  const char* phase = e.name + 4;
  if (Is(phase, "outbox")) {
    auto it = chains_.find(e.rid);
    if (it == chains_.end() || (it->second.mask & kRequired) != kRequired) {
      broken_chains_++;
    } else {
      const Chain& c = it->second;
      const uint64_t end = e.ns + e.arg;
      phases_.requests++;
      phases_.total_ns += end > c.frame_ns ? end - c.frame_ns : 0;
      phases_.queue_ns += c.queue_ns;
      phases_.lock_ns += c.lock_ns;
      phases_.handler_ns += c.handler_ns;
      phases_.encode_ns += c.encode_ns;
      phases_.outbox_ns += e.arg;
    }
    if (it != chains_.end()) {
      chains_.erase(it);
    }
    return;
  }
  Chain& c = chains_[e.rid];
  if (Is(phase, "frame")) {
    c.mask |= kFrame;
    c.frame_ns = e.ns;
  } else if (Is(phase, "queue")) {
    c.mask |= kQueue;
    c.queue_ns += e.arg;
  } else if (Is(phase, "lock")) {
    c.mask |= kLock;
    c.lock_ns += e.arg;
  } else if (Is(phase, "handler")) {
    c.mask |= kHandler;
    c.handler_ns += e.arg;
  } else if (Is(phase, "encode")) {
    c.mask |= kEncode;
    c.encode_ns += e.arg;
  }
}

TraceReader::SpanStat TraceReader::Span(std::string_view name) const {
  SpanStat sum;
  for (const auto& [site, s] : spans_) {
    if (name == site) {
      sum.calls += s.calls;
      sum.self_ns += s.self_ns;
    }
  }
  return sum;
}

}  // namespace perfbench
