// Reads the program's own trace ring (src/obs/trace.h) from outside while a
// traced run is going, and folds what it sees into the per-layer numbers:
//
//   * span self times — a span's duration minus the spans nested inside it
//     on the same thread, summed per span name;
//   * request phase chains — the six req.* events the listener and server
//     stamp with one request id (frame → queue → lock → handler → encode →
//     outbox), summed over every request whose chain arrived whole.
//
// The ring holds the newest 8192 events, so Poll() must run often enough to
// keep up; events it could not read are counted in lost().
#ifndef PERFBENCH_TRACE_READER_H_
#define PERFBENCH_TRACE_READER_H_

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

class TraceReader {
 public:
  struct SpanStat {
    uint64_t calls = 0;
    uint64_t self_ns = 0;
  };
  // Sums over complete request chains, in nanoseconds. total runs from the
  // frame leaving the deframer to the last reply byte entering the socket.
  struct Phases {
    uint64_t requests = 0;
    uint64_t total_ns = 0;
    uint64_t queue_ns = 0;
    uint64_t lock_ns = 0;
    uint64_t handler_ns = 0;
    uint64_t encode_ns = 0;
    uint64_t outbox_ns = 0;
  };

  // Starts after everything already in the ring.
  TraceReader();

  // Reads whatever the global ring gained since the last call.
  void Poll();
  // Folds events (ascending seq, as Tracer::Snapshot returns them) in.
  // Exposed for the self-test; Poll() feeds it.
  void Consume(const std::vector<help::obs::TraceEvent>& events);

  // Self time of every span called `name` (all sites with that name).
  SpanStat Span(std::string_view name) const;
  const Phases& phases() const { return phases_; }
  // Chains that reached req.outbox with a phase missing (an event lost).
  uint64_t broken_chains() const { return broken_chains_; }
  // Events the reader never saw (overwritten before a Poll reached them).
  uint64_t lost() const { return lost_; }
  uint64_t seen() const { return seen_; }

 private:
  struct Frame {
    const char* name;
    uint64_t child_ns;
  };
  struct Chain {
    unsigned mask = 0;
    uint64_t frame_ns = 0;
    uint64_t queue_ns = 0;
    uint64_t lock_ns = 0;
    uint64_t handler_ns = 0;
    uint64_t encode_ns = 0;
  };
  void Gap();
  void OnEvent(const help::obs::TraceEvent& e);
  void OnPhase(const help::obs::TraceEvent& e);

  uint64_t next_seq_ = 0;       // the next sequence number expected
  uint64_t stalled_at_ = ~0ull;  // a hole seen by the previous Poll
  uint64_t lost_ = 0;
  uint64_t seen_ = 0;
  uint64_t broken_chains_ = 0;
  std::unordered_map<uint32_t, std::vector<Frame>> stacks_;
  std::unordered_map<const char*, SpanStat> spans_;
  std::unordered_map<uint64_t, Chain> chains_;
  Phases phases_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_READER_H_
