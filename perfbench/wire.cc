// wire_read and wire_edit: external 9P clients over a Unix socket, against
// one Help served by a NinepListener at its default ListenerOptions.
//
// Every connection keeps kInFlight requests outstanding: each of its slots
// runs one op after another, and an op is a short chain of requests sent one
// at a time (most ops are a single request). One measured op is one request
// answered, timed from just before its send to the decoded reply.
// At most nproc connections, all driven by one client thread.
//
// The timed phase is a series of rounds. A round deals a fixed deck of ops,
// shuffled anew from the seed, to whichever slot is free, and ends when its
// last op is answered; the next round then starts. Every round is the same
// work, so the run's figures can be those of its fastest rounds (stats.h).
//
//   wire_read  pipelined body reads, equally often at each size from 512 B
//              up to the largest read msize allows, plus a small share of
//              index reads (walk, open, read, clunk of /mnt/help/index).
//              No mutation.
//   wire_edit  equally often: a bodyapp append, a ctl insert, a ctl delete
//              and a tag write on the connection's own window, and an
//              append to one window every connection shares followed by a
//              ctl delete of that window's oldest line. A small share each
//              of reads of the own window and of structural chains on a
//              scratch window made at set-up: walk to its ctl, ctl edits, a
//              fid clone and clunk, a re-walk to the body and a read of it.
//
// No recorded traffic exists to weigh these by, hence the equal shares.
// Every window's size stays level (deletes match inserts and appends) and
// no window is made in the timed phase: help has no wire request that
// closes a window, and every window-file request scans the whole window
// list, so a run that made windows would slow down as it went.
//
// Correctness: each reply is checked against what the clients know —
// wire_read's seeded bytes, wire_edit's model of every window — and a wrong
// reply is a failed op. At the end wire_edit compares each window's final
// body with its model.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/stats.h"
#include "perfbench/trace_reader.h"
#include "src/base/strings.h"
#include "src/core/help.h"
#include "src/fs/listener.h"
#include "src/fs/server.h"
#include "src/fs/transport.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

using help::Fcall;
using help::MsgType;

constexpr int kInFlight = 2;  // requests outstanding per connection
constexpr size_t kReadBodyBytes = 256 << 10;  // wire_read: each window's body
constexpr size_t kEditBodyBytes = 12 << 10;   // wire_edit: own-body size it hovers at
constexpr uint32_t kMaxRead = help::kDefaultMsize - help::kIoHeader;
constexpr uint32_t kChainFid0 = 1000;  // fids the chains mint; setup's are below
constexpr size_t kSharedLine = 32;     // wire_edit: every shared-window line
constexpr size_t kSharedLines = 256;   // the shared window's level line count
constexpr int kScratchWindows = 2;     // wire_edit: made per connection at set-up
constexpr std::string_view kScratch = "scratch";
constexpr uint32_t kReadSizes[] = {512, 2048, 8192, 32768, kMaxRead};
// A round deals a fixed deck of ops: so many of each major kind and, of
// each minor kind (wire_read's index chains, wire_edit's own-window reads
// and its structural chains), 1% as many as all the major ones. On a 4-vCPU host a wire_read
// round takes about 40 ms and a wire_edit round about 35 ms, so a 40-second
// run has some 1000 or 1100 rounds, of which the figures take the
// kFastUnits fastest. The warm-up deals one round of a deck with
// kWarmPerKind of each.
constexpr size_t kReadPerKind = 100;  // 520 requests
constexpr size_t kEditPerKind = 400;  // 2640 requests
constexpr size_t kWarmPerKind = 16;

// splitmix64: small, seedable, identical everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  std::string Word(size_t min, size_t max) {
    std::string w;
    size_t n = min + Below(max - min + 1);
    for (size_t i = 0; i < n; i++) {
      w += "abcdefghijklmnopqrstuvwxyz0123456789"[Below(36)];
    }
    return w;
  }

 private:
  uint64_t s_;
};

// Seeded ASCII text of one shape for every seed: 64-byte lines of nine
// 6-letter words; only the letters come from the seed. With lines of seeded
// length the peak resident set of a wire_read run moved from 11.4 to
// 16.4 MB with the seed alone, so the seed would have moved peak_rss_mb.
// Byte offsets are rune offsets.
std::string SeededText(Rng& rng, size_t bytes) {
  std::string s;
  while (s.size() < bytes) {
    for (int w = 0; w < 9; w++) {
      s += rng.Word(6, 6);
      s += w < 8 ? ' ' : '\n';
    }
  }
  return s;
}

enum class Op {
  kNone,
  kBodyRead,      // wire_read
  kIndexChain,    // wire_read: walk, open, read, clunk /mnt/help/index
  kAppendOwn,     // wire_edit, the rest
  kInsertOwn,
  kDeleteOwn,
  kTagOwn,
  kReadOwn,
  kAppendShared,   // append, then delete the shared window's oldest line
  kStructural,
};

// One request and what a correct reply to it looks like.
struct Req {
  Fcall t;
  MsgType want = MsgType::kRerror;
  bool check_data = false;  // Rread payload must equal `data`
  // Rread payload must equal the connection's text at the request's offset
  // and count (wire_read, whose text never changes, so no copy is kept).
  bool check_text = false;
  std::string data;
  bool scratch = false;     // Rread must be "scratch" repeated, maybe 0 times
};

// One card of a round's deck: an op and, for a body read, its size.
struct Card {
  Op op = Op::kNone;
  uint32_t count = 0;
};

struct Slot {
  Op op = Op::kNone;
  int step = 0;
  uint64_t offset = 0;
  uint32_t count = 0;
  uint32_t fid1 = help::kNoFid, fid2 = help::kNoFid, fid3 = help::kNoFid;
  int win = -1;  // kStructural: the scratch window worked on
  Req req;  // the request in flight
  Clock::time_point sent;
};

struct Conn {
  int index = 0;
  std::unique_ptr<help::SocketTransport> tr;
  std::unique_ptr<help::NinepClient> client;  // lockstep: set-up and checks
  std::unique_ptr<Rng> rng;
  int win = -1;
  uint32_t body_fid = help::kNoFid, app_fid = help::kNoFid, ctl_fid = help::kNoFid;
  uint32_t tag_fid = help::kNoFid, shared_fid = help::kNoFid, shared_ctl_fid = help::kNoFid;
  // wire_read: the window's seeded body. wire_edit: the model of it.
  std::string text;
  uint64_t shared_sent = 0;      // lines appended to the shared window
  std::vector<int> scratch_wins;  // windows this connection made at set-up
  uint32_t next_fid = kChainFid0;
  uint64_t next_n = 0;
  int inflight = 0;
  Slot slots[kInFlight];
};

struct Tally {
  explicit Tally(RoundRecorder* recorder = nullptr) : rounds(recorder) {}
  RoundRecorder* rounds;  // null: no end-to-end samples are kept
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double rtt_us_sum = 0;
  std::vector<std::string> errors;
};

// Line `k` appended to the shared window by connection `conn` (conn -1:
// the seeded lines). Every line is exactly kSharedLine bytes, so "delete
// the first kSharedLine runes" removes one whole line, whichever it is.
std::string SharedLine(int conn, uint64_t k) {
  std::string line = conn < 0 ? help::StrFormat("z %010llu ", static_cast<unsigned long long>(k))
                              : help::StrFormat("s%d %010llu ", conn,
                                                static_cast<unsigned long long>(k));
  uint64_t x = k * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(conn + 2);
  while (line.size() < kSharedLine - 1) {
    x ^= x >> 29;
    x *= 0xBF58476D1CE4E5B9ull;
    line += static_cast<char>('a' + (x >> 59) % 26);
  }
  return line + '\n';
}

Fcall Walk(uint32_t fid, uint32_t newfid, std::vector<std::string> names) {
  Fcall t;
  t.type = MsgType::kTwalk;
  t.fid = fid;
  t.newfid = newfid;
  t.wname = std::move(names);
  return t;
}
Fcall Open(uint32_t fid, uint8_t mode) {
  Fcall t;
  t.type = MsgType::kTopen;
  t.fid = fid;
  t.mode = mode;
  return t;
}
Fcall Read(uint32_t fid, uint64_t off, uint32_t count) {
  Fcall t;
  t.type = MsgType::kTread;
  t.fid = fid;
  t.offset = off;
  t.count = count;
  return t;
}
Fcall Write(uint32_t fid, std::string data) {
  Fcall t;
  t.type = MsgType::kTwrite;
  t.fid = fid;
  t.data = std::move(data);
  return t;
}
Fcall Clunk(uint32_t fid) {
  Fcall t;
  t.type = MsgType::kTclunk;
  t.fid = fid;
  return t;
}

Req Expect(Fcall t, MsgType want) {
  Req r;
  r.t = std::move(t);
  r.want = want;
  return r;
}
Req ExpectData(Fcall t, std::string data) {
  Req r = Expect(std::move(t), MsgType::kRread);
  r.check_data = true;
  r.data = std::move(data);
  return r;
}

constexpr Op kEdits[] = {Op::kAppendOwn, Op::kInsertOwn, Op::kDeleteOwn, Op::kTagOwn,
                         Op::kAppendShared};

class Workload {
 public:
  Workload(bool edit, uint64_t seed) : edit_(edit), deck_rng_(seed) {}

  // Makes the deck every later round deals: per_kind cards of each major
  // kind and, of each minor kind, 1% as many as all the major ones (at
  // least one).
  void SetDeck(size_t per_kind) {
    const size_t majors = edit_ ? std::size(kEdits) : std::size(kReadSizes);
    const size_t minor = std::max<size_t>(1, per_kind * majors / 100);
    singles_.clear();
    chains_.clear();
    if (!edit_) {
      for (uint32_t n : kReadSizes) {
        singles_.insert(singles_.end(), per_kind, Card{Op::kBodyRead, n});
      }
      chains_.assign(minor, Card{Op::kIndexChain, 0});
      return;
    }
    for (Op op : kEdits) {
      singles_.insert(singles_.end(), per_kind, Card{op, 0});
    }
    singles_.insert(singles_.end(), minor, Card{Op::kReadOwn, 0});
    chains_.assign(minor, Card{Op::kStructural, 0});
  }

  // Orders the deck for the next round: the short ops shuffled, the long
  // chains spread evenly through its first half, so that no chain is left
  // running alone once the rest of the round is answered.
  void Shuffle() {
    for (size_t i = singles_.size(); i > 1; i--) {
      std::swap(singles_[i - 1], singles_[deck_rng_.Below(i)]);
    }
    deck_.clear();
    const size_t every = std::max<size_t>(1, singles_.size() / 2 / chains_.size());
    size_t chain = 0;
    for (size_t i = 0; i < singles_.size(); i++) {
      if (chain < chains_.size() && i == chain * every) {
        deck_.push_back(chains_[chain++]);
      }
      deck_.push_back(singles_[i]);
    }
    deck_.insert(deck_.end(), chains_.begin() + static_cast<ptrdiff_t>(chain), chains_.end());
    dealt_ = 0;
  }

  // The round's next card, or false when the whole deck is dealt.
  bool Deal(Card* card) {
    if (dealt_ == deck_.size()) {
      return false;
    }
    *card = deck_[dealt_++];
    return true;
  }

  // Starts the card's op on the slot; the op's random choices (offsets,
  // words, windows) come from the connection's seeded stream.
  void StartOp(Conn& c, Slot& s, const Card& card) {
    s.step = 0;
    s.op = card.op;
    Rng& r = *c.rng;
    switch (card.op) {
      case Op::kBodyRead:
        s.count = card.count;
        s.offset = r.Below(c.text.size() - s.count + 1);
        break;
      case Op::kIndexChain:
        s.fid1 = c.next_fid++;
        break;
      case Op::kStructural:
        s.fid1 = c.next_fid++;
        s.fid2 = c.next_fid++;
        s.fid3 = c.next_fid++;
        s.win = c.scratch_wins[r.Below(c.scratch_wins.size())];
        break;
      default:
        break;
    }
  }

  // The slot's next request, or false when its op is complete. Edits update
  // the model here, at send time: one connection's requests on one window
  // take effect in the order they were sent.
  bool Next(Conn& c, Slot& s, Req* out) {
    Rng& r = *c.rng;
    const int step = s.step++;
    switch (s.op) {
      case Op::kNone:
        return false;
      case Op::kBodyRead:
        if (step > 0) {
          return false;
        }
        *out = Expect(Read(c.body_fid, s.offset, s.count), MsgType::kRread);
        out->check_text = true;
        return true;
      case Op::kIndexChain:
        switch (step) {
          case 0:
            *out = Expect(Walk(0, s.fid1, {"mnt", "help", "index"}), MsgType::kRwalk);
            return true;
          case 1:
            *out = Expect(Open(s.fid1, help::kOread), MsgType::kRopen);
            return true;
          case 2:
            *out = ExpectData(Read(s.fid1, 0, 8192), index_);
            return true;
          case 3:
            *out = Expect(Clunk(s.fid1), MsgType::kRclunk);
            return true;
        }
        return false;
      case Op::kAppendOwn: {
        if (step > 0) {
          return false;
        }
        std::string line = help::StrFormat("c%d n%llu %s\n", c.index,
                                           static_cast<unsigned long long>(c.next_n++),
                                           r.Word(4, 24).c_str());
        c.text += line;
        *out = Expect(Write(c.app_fid, line), MsgType::kRwrite);
        return true;
      }
      case Op::kInsertOwn: {
        if (step > 0) {
          return false;
        }
        const size_t q = r.Below(c.text.size() + 1);
        std::string word = r.Word(4, 12);
        c.text.insert(q, word);
        *out = Expect(Write(c.ctl_fid, help::StrFormat("insert %zu %s", q, word.c_str())),
                      MsgType::kRwrite);
        return true;
      }
      case Op::kDeleteOwn: {
        if (step > 0) {
          return false;
        }
        // Short deletes while the body is below its target size, long ones
        // above it, so the body hovers around kEditBodyBytes.
        const size_t n =
            c.text.size() > kEditBodyBytes ? 64 + r.Below(129) : 1 + r.Below(16);
        const size_t q0 = r.Below(c.text.size() - n + 1);
        c.text.erase(q0, n);
        *out = Expect(Write(c.ctl_fid, help::StrFormat("delete %zu %zu", q0, q0 + n)),
                      MsgType::kRwrite);
        return true;
      }
      case Op::kTagOwn:
        if (step > 0) {
          return false;
        }
        *out = Expect(Write(c.tag_fid, help::StrFormat("w%d.%s ", c.index, r.Word(3, 8).c_str())),
                      MsgType::kRwrite);
        return true;
      case Op::kReadOwn: {
        if (step > 0) {
          return false;
        }
        const uint32_t n = 256;
        const uint64_t off = r.Below(c.text.size() > n ? c.text.size() - n + 1 : 1);
        *out = ExpectData(Read(c.body_fid, off, n), c.text.substr(off, n));
        return true;
      }
      case Op::kAppendShared:
        if (step == 0) {
          *out = Expect(Write(c.shared_fid, SharedLine(c.index, c.shared_sent++)),
                        MsgType::kRwrite);
          return true;
        }
        if (step == 1) {
          *out = Expect(Write(c.shared_ctl_fid, help::StrFormat("delete 0 %zu", kSharedLine)),
                        MsgType::kRwrite);
          return true;
        }
        return false;
      case Op::kStructural:
        return StructuralStep(s, step, out);
    }
    return false;
  }

  // A structural chain on a scratch window: walk to its ctl and open it;
  // insert and delete by ctl, leaving the body as it was; clone the ctl fid
  // and clunk the clone; re-walk to the body and read it; clunk both.
  bool StructuralStep(Slot& s, int step, Req* out) {
    switch (step) {
      case 0:
        *out = Expect(Walk(0, s.fid1, {"mnt", "help", std::to_string(s.win), "ctl"}),
                      MsgType::kRwalk);
        return true;
      case 1:
        *out = Expect(Open(s.fid1, help::kOwrite), MsgType::kRopen);
        return true;
      case 2:
        *out = Expect(Write(s.fid1, "insert 0 " + std::string(kScratch)), MsgType::kRwrite);
        return true;
      case 3:
        *out = Expect(Write(s.fid1, help::StrFormat("delete 0 %zu", kScratch.size())),
                      MsgType::kRwrite);
        return true;
      case 4:
        *out = Expect(Walk(s.fid1, s.fid2, {}), MsgType::kRwalk);
        return true;
      case 5:
        *out = Expect(Clunk(s.fid2), MsgType::kRclunk);
        return true;
      case 6:
        *out = Expect(Walk(0, s.fid3, {"mnt", "help", std::to_string(s.win), "body"}),
                      MsgType::kRwalk);
        return true;
      case 7:
        *out = Expect(Open(s.fid3, help::kOread), MsgType::kRopen);
        return true;
      case 8:
        // Other chains may have the same window between their insert and
        // delete: the body is "scratch" some number of times.
        *out = Expect(Read(s.fid3, 0, 1024), MsgType::kRread);
        out->scratch = true;
        return true;
      case 9:
        *out = Expect(Clunk(s.fid3), MsgType::kRclunk);
        return true;
      case 10:
        *out = Expect(Clunk(s.fid1), MsgType::kRclunk);
        return true;
    }
    return false;
  }

  void set_index(std::string index) { index_ = std::move(index); }

 private:
  bool edit_;
  std::string index_;  // wire_read: /mnt/help/index, which nothing changes
  Rng deck_rng_;
  std::vector<Card> singles_, chains_;  // the deck's cards, by kind
  std::vector<Card> deck_;              // this round's order
  size_t dealt_ = 0;
};

// Checks one reply against its request; empty when it is right.
std::string Verify(const Req& q, const Fcall& r, const Conn& c, const Slot& s) {
  if (r.type != q.want) {
    return help::StrFormat("T%d fid %u: got R%d %s", static_cast<int>(q.t.type), q.t.fid,
                           static_cast<int>(r.type), r.ename.c_str());
  }
  if ((q.check_data && r.data != q.data) ||
      (q.check_text && (r.data.size() != q.t.count ||
                        c.text.compare(q.t.offset, q.t.count, r.data) != 0))) {
    return help::StrFormat("Tread fid %u off %llu: %zu bytes are not the ones expected",
                           q.t.fid, static_cast<unsigned long long>(q.t.offset), r.data.size());
  }
  if (q.want == MsgType::kRwrite && r.count != q.t.data.size()) {
    return help::StrFormat("Twrite fid %u: wrote %u of %zu", q.t.fid, r.count,
                           q.t.data.size());
  }
  if (q.scratch) {
    for (size_t at = 0; at < r.data.size(); at += kScratch.size()) {
      if (r.data.compare(at, kScratch.size(), kScratch) != 0) {
        return "scratch window " + std::to_string(s.win) + " holds '" + r.data + "'";
      }
    }
  }
  return {};
}

// Drives a set of connections from one thread: fills every idle slot, polls
// the sockets, answers replies. Runs until the stop condition holds and the
// last chain has finished.
class ClientLoop {
 public:
  ClientLoop(Workload* w, std::vector<Conn*> conns) : w_(w), conns_(std::move(conns)) {}

  // Runs whole rounds until one ends after `deadline` (or, when `rounds`
  // > 0, that many rounds), each from its first send to its last reply.
  void Run(Clock::time_point deadline, int rounds, Tally* tally) {
    tally_ = tally;
    for (int i = 0; rounds > 0 ? i < rounds : Clock::now() < deadline; i++) {
      w_->Shuffle();
      const Clock::time_point start = Clock::now();
      const bool open = RunRound();
      if (tally->rounds != nullptr) {
        tally->rounds->EndRound(SecondsSince(start));
      }
      if (!open) {
        return;
      }
    }
  }

 private:
  // Deals the deck to idle slots until it is all dealt and every op has
  // finished. False when no connection is left open.
  bool RunRound() {
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
      int live = 0;
      bool open = false;
      bool dead_inflight = false;  // a closed transport still owes replies
      for (size_t i = 0; i < conns_.size(); i++) {
        Conn& c = *conns_[i];
        for (Slot& s : c.slots) {
          Card card;
          if (s.op == Op::kNone && !c.tr->closed() && w_->Deal(&card)) {
            w_->StartOp(c, s, card);
            Advance(c, s);
          }
        }
        live += c.inflight;
        open = open || !c.tr->closed();
        dead_inflight = dead_inflight || (c.tr->closed() && c.inflight > 0);
        fds[i] = {c.tr->fd(), POLLIN, 0};
      }
      if (live == 0) {
        return open;
      }
      if (poll(fds.data(), fds.size(), dead_inflight ? 0 : 1000) < 0) {
        continue;
      }
      for (size_t i = 0; i < conns_.size(); i++) {
        // A closed transport answers each request still in flight with a
        // synthesized Rerror, which fails its op.
        const bool ready = (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0 ||
                           conns_[i]->tr->closed();
        if (ready && conns_[i]->inflight > 0) {
          OnReadable(*conns_[i]);
        }
      }
    }
  }

  // Sends the slot's next request, or frees the slot when its op is done.
  void Advance(Conn& c, Slot& s) {
    if (!w_->Next(c, s, &s.req)) {
      s.op = Op::kNone;
      return;
    }
    s.req.t.tag = static_cast<uint16_t>(&s - c.slots + 1);
    const std::string packet = help::EncodeFcall(s.req.t);
    s.sent = Clock::now();
    c.inflight++;
    // A failed send closes the transport; Run then collects the synthesized
    // Rerror, which fails the op.
    c.tr->Send(packet);
  }

  void OnReadable(Conn& c) {
    const std::string bytes = c.tr->RecvReply();
    const Clock::time_point now = Clock::now();
    auto r = help::DecodeFcall(bytes);
    Slot* s = nullptr;
    if (r.ok() && r.value().tag >= 1 && r.value().tag <= kInFlight) {
      s = &c.slots[r.value().tag - 1];
    }
    if (s == nullptr || s->op == Op::kNone) {
      // Unparseable, or a tag nothing waits on: the connection is unusable.
      tally_->failed += static_cast<uint64_t>(c.inflight);
      tally_->attempted += static_cast<uint64_t>(c.inflight);
      Note(help::StrFormat("conn %d: unmatched reply (%zu bytes)", c.index, bytes.size()));
      c.inflight = 0;
      for (Slot& each : c.slots) {
        each.op = Op::kNone;
      }
      c.tr->Close();
      return;
    }
    c.inflight--;
    const double us = MicrosBetween(s->sent, now);
    std::string err = Verify(s->req, r.value(), c, *s);
    tally_->attempted++;
    tally_->rtt_us_sum += us;
    if (tally_->rounds != nullptr) {
      tally_->rounds->Add(static_cast<float>(us), err.empty());
    }
    if (!err.empty()) {
      tally_->failed++;
      Note(help::StrFormat("conn %d: %s", c.index, err.c_str()));
      s->op = Op::kNone;  // abandon the rest of the chain
      return;
    }
    Advance(c, *s);
  }

  void Note(std::string e) {
    if (tally_->errors.size() < 8) {
      tally_->errors.push_back(std::move(e));
    }
  }

  Workload* w_;
  std::vector<Conn*> conns_;
  Tally* tally_ = nullptr;
};

int Nproc() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// The server, its listener and the client connections of one set-up.
// Members are destroyed in reverse: connections close before the listener
// stops, and the listener stops before Help goes.
struct World {
  std::unique_ptr<help::Help> help;
  std::unique_ptr<help::NinepListener> listener;
  std::string sock;
  std::vector<std::unique_ptr<Conn>> conns;
  std::string shared_base;  // wire_edit: /mnt/help/<id> of the shared window
  std::unique_ptr<Workload> work;

  ~World() {
    conns.clear();
    if (listener != nullptr) {
      listener->Stop();
    }
    listener.reset();
    help.reset();
    if (!sock.empty()) {
      unlink(sock.c_str());
    }
  }
};

std::string WinBase(int id) { return help::StrFormat("/mnt/help/%d", id); }

// Makes a window through new/ctl; its id, or 0 (and `out` failed).
int NewWindow(help::NinepClient& cl, Outcome* out) {
  auto ctl = cl.ReadFile("/mnt/help/new/ctl");
  const int id = ctl.ok() ? static_cast<int>(help::ParseInt(help::TrimSpace(ctl.value()))) : 0;
  if (id <= 0) {
    out->Fail("new/ctl: " + (ctl.ok() ? "no window id in '" + ctl.value() + "'" : ctl.message()));
  }
  return id;
}

// Builds a World: server, listener, windows, seeded bodies, connections with
// pre-opened fids, then one untimed warm-up pass. Null (and `out` failed)
// when any step errs.
std::unique_ptr<World> SetUp(const Args& args, bool edit, int attempt, Outcome* out) {
  auto w = std::make_unique<World>();
  help::Help::Options opt;
  opt.install_userland = false;  // the file service is all the wire needs
  w->help = std::make_unique<help::Help>(opt);
  w->listener = std::make_unique<help::NinepListener>(&w->help->ninep());
  w->sock = help::StrFormat("wire.%d.%d.sock", static_cast<int>(getpid()), attempt);
  if (!w->listener->ListenUnix(w->sock).ok() || !w->listener->Start().ok()) {
    out->Fail("listener did not start on " + w->sock);
    return nullptr;
  }
  w->work = std::make_unique<Workload>(edit, args.seed * 6364136223846793005ull + 1);
  const int nconns = std::min(4, Nproc());
  Rng seeder(args.seed * 1000003u + (edit ? 7 : 3));

  for (int i = 0; i < nconns; i++) {
    auto c = std::make_unique<Conn>();
    c->index = i;
    c->rng = std::make_unique<Rng>(args.seed * 7919u + static_cast<uint64_t>(i) * 104729u + 1);
    auto tr = help::SocketTransport::ConnectUnix(w->sock);
    if (!tr.ok()) {
      out->Fail("connect: " + tr.message());
      return nullptr;
    }
    c->tr = tr.take();
    c->client = std::make_unique<help::NinepClient>(c->tr->AsTransport());
    help::NinepClient& cl = *c->client;
    if (!cl.Connect(help::StrFormat("bench%d", i)).ok()) {
      out->Fail("attach failed");
      return nullptr;
    }
    c->win = NewWindow(cl, out);
    for (int k = 0; edit && k < kScratchWindows; k++) {
      c->scratch_wins.push_back(NewWindow(cl, out));
    }
    if (c->win <= 0 || (edit && c->scratch_wins.back() <= 0)) {
      return nullptr;
    }
    c->text = SeededText(seeder, edit ? kEditBodyBytes : kReadBodyBytes);
    const std::string base = WinBase(c->win);
    if (!cl.WriteFile(base + "/bodyapp", c->text).ok()) {
      out->Fail("seeding " + base);
      return nullptr;
    }
    auto open = [&](const char* file, uint8_t mode, uint32_t* fid) {
      auto f = cl.WalkFid(base + "/" + file);
      if (!f.ok() || !cl.OpenFid(f.value(), mode).ok()) {
        out->Fail(base + "/" + file + " would not open");
        return false;
      }
      *fid = f.value();
      return true;
    };
    if (!open("body", help::kOread, &c->body_fid) ||
        (edit && (!open("bodyapp", help::kOwrite, &c->app_fid) ||
                  !open("ctl", help::kOwrite, &c->ctl_fid) ||
                  !open("tag", help::kOwrite, &c->tag_fid)))) {
      return nullptr;
    }
    w->conns.push_back(std::move(c));
  }

  if (edit) {
    help::NinepClient& cl = *w->conns[0]->client;
    const int shared = NewWindow(cl, out);
    if (shared <= 0) {
      return nullptr;
    }
    w->shared_base = WinBase(shared);
    std::string seed;
    for (size_t k = 0; k < kSharedLines; k++) {
      seed += SharedLine(-1, k);
    }
    if (!cl.WriteFile(w->shared_base + "/bodyapp", seed).ok()) {
      out->Fail("seeding the shared window");
      return nullptr;
    }
    for (auto& c : w->conns) {
      for (auto [file, fid] : {std::pair{"/bodyapp", &c->shared_fid},
                               std::pair{"/ctl", &c->shared_ctl_fid}}) {
        auto f = c->client->WalkFid(w->shared_base + file);
        if (!f.ok() || !c->client->OpenFid(f.value(), help::kOwrite).ok()) {
          out->Fail(w->shared_base + file + " would not open");
          return nullptr;
        }
        *fid = f.value();
      }
    }
  } else {
    auto index = w->conns[0]->client->ReadFile("/mnt/help/index");
    if (!index.ok()) {
      out->Fail("index: " + index.message());
      return nullptr;
    }
    w->work->set_index(index.take());
  }

  // Warm-up: one round of a small deck through the timed path, untimed.
  std::vector<Conn*> all;
  for (auto& c : w->conns) {
    all.push_back(c.get());
  }
  Tally warm;
  w->work->SetDeck(kWarmPerKind);
  ClientLoop(w->work.get(), all).Run(Clock::now(), 1, &warm);
  w->work->SetDeck(edit ? kEditPerKind : kReadPerKind);
  if (warm.failed > 0) {
    for (std::string& e : warm.errors) {
      out->Fail("warm-up " + e);
    }
    return nullptr;
  }
  return w;
}

// Runs rounds of the closed loop on every connection for `seconds` from the
// calling thread (one client thread is enough: it is never the busiest
// thread) into `tally`; the round under way at the deadline is finished.
// Returns the wall time of the phase.
double RunPhase(World& w, double seconds, Tally* tally) {
  std::vector<Conn*> all;
  for (auto& c : w.conns) {
    all.push_back(c.get());
  }
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  ClientLoop(w.work.get(), all).Run(deadline, 0, tally);
  return SecondsSince(t0);
}

// wire_edit's end check. Each connection's own window equals its model and
// every scratch window is empty again. The shared window is back at its
// level line count, and since each append was paired with a delete of the
// oldest line, what is left is the newest lines: of the seed, a suffix; of
// each connection's appends, the last ones it sent, in the order sent.
void CheckFinalBodies(World& w, Outcome* out) {
  auto fail = [&](std::string why) {
    out->failed++;
    out->Fail(std::move(why));
  };
  for (auto& c : w.conns) {
    auto body = c->client->ReadFile(WinBase(c->win) + "/body");
    if (!body.ok() || body.value() != c->text) {
      fail(help::StrFormat("window %d: final body (%zu bytes) differs from the model (%zu bytes)",
                           c->win, body.ok() ? body.value().size() : 0, c->text.size()));
    }
    for (int id : c->scratch_wins) {
      auto scratch = c->client->ReadFile(WinBase(id) + "/body");
      if (!scratch.ok() || !scratch.value().empty()) {
        fail(help::StrFormat("scratch window %d is not empty", id));
      }
    }
  }
  auto shared = w.conns[0]->client->ReadFile(w.shared_base + "/body");
  const std::string body = shared.ok() ? shared.value() : "";
  if (body.size() != kSharedLines * kSharedLine) {
    fail(help::StrFormat("shared window: %zu bytes, not %zu lines", body.size(), kSharedLines));
    return;
  }
  // Next line expected from the seed (conn -1) and from each connection.
  std::vector<uint64_t> next(w.conns.size() + 1, 0);
  std::vector<bool> started(w.conns.size() + 1, false);
  for (size_t at = 0; at < body.size(); at += kSharedLine) {
    const std::string line = body.substr(at, kSharedLine);
    const int conn = line[0] == 'z' ? -1 : line[1] - '0';
    const uint64_t k = std::strtoull(line.c_str() + line.find(' ') + 1, nullptr, 10);
    const size_t i = static_cast<size_t>(conn + 1);
    const uint64_t sent = conn < 0 ? kSharedLines : w.conns[i - 1]->shared_sent;
    const bool in_order = !started[i] || k == next[i];
    if (conn >= static_cast<int>(w.conns.size()) || line != SharedLine(conn, k) || !in_order ||
        k >= sent) {
      fail("shared window: line " + std::to_string(at / kSharedLine) + " is '" + line + "'");
      return;
    }
    started[i] = true;
    next[i] = k + 1;
  }
  for (size_t i = 0; i < next.size(); i++) {
    const uint64_t sent = i == 0 ? kSharedLines : w.conns[i - 1]->shared_sent;
    if (started[i] && next[i] != sent) {
      fail(help::StrFormat("shared window: lines of writer %zu end at %llu of %llu", i,
                           static_cast<unsigned long long>(next[i]),
                           static_cast<unsigned long long>(sent)));
    }
  }
}

// Registry readouts the fs per-layer metrics are deltas of.
struct ServerCounts {
  uint64_t msgs, writes, writev, zero_copy, staged, ooo, shared_reads, retries, coalesced,
      window_acquires, epoch_exclusive, stalls, splits;
  std::array<uint64_t, help::obs::Histogram::kBuckets> shard_wait;

  static ServerCounts Now(help::Help& h) {
    const help::NinepMetrics& m = h.ninep().metrics();
    help::obs::Registry& reg = help::obs::Registry::Global();
    return {m.total_ops(),         m.count(help::NinepOp::kWrite),
            m.net_writev_calls(),  m.bytes_zero_copy(),
            m.bytes_staged(),      m.ooo_completions(),
            m.shared_reads(),      m.read_retries(),
            m.bodyapp_coalesced(), m.lock_window_acquires(),
            m.lock_epoch_exclusive(), m.net_backpressure_stalls(),
            reg.GetCounter("text.lineindex.splits")->value(),
            reg.GetHistogram("ninep.lock.shard_wait_us")->Snapshot()};
  }
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0 : static_cast<double>(num) / static_cast<double>(den);
}

Outcome RunWire(const Args& args, bool edit) {
  Outcome out;
  std::unique_ptr<World> w;
  for (int i = 0; i < kSetups; i++) {
    w.reset();  // tear the previous set-up down before timing the next
    Clock::time_point t0 = Clock::now();
    w = SetUp(args, edit, i, &out);
    if (w == nullptr) {
      out.failed++;
      return out;
    }
    out.setup_s.push_back(SecondsSince(t0));
  }
  out.Add(&out.detail, "setup_peak_rss_mb", PeakRssMb(), "MB");
  ResetPeakRss();
  HostMark();

  if (!args.trace) {
    RoundRecorder rounds;
    Tally t(&rounds);
    RunPhase(*w, args.seconds, &t);
    out.attempted = t.attempted;
    out.failed = t.failed;
    out.figures = rounds.Fastest();
    out.rounds = rounds.rounds();
    for (std::string& e : t.errors) {
      out.Fail(std::move(e));
    }
    HostMark();
    if (edit) {
      CheckFinalBodies(*w, &out);
    }
    return out;
  }

  // Traced run: an untraced half for the overhead baseline, then a traced
  // half whose ring a collector thread drains as it fills.
  const ServerCounts c0 = ServerCounts::Now(*w->help);
  Tally plain;
  const double plain_wall = RunPhase(*w, args.seconds / 2, &plain);
  HostMark();

  help::obs::Tracer& tracer = help::obs::Tracer::Global();
  const uint64_t dropped0 = tracer.dropped();
  TraceReader reader;
  std::atomic<bool> collecting{true};
  tracer.Enable();
  std::thread collector([&] {
    uint64_t polled_at = tracer.emitted();
    while (collecting.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      const uint64_t now = tracer.emitted();
      if (now - polled_at >= help::obs::Tracer::kCapacity / 4) {
        reader.Poll();
        polled_at = now;
      }
    }
  });
  Tally traced;
  const double traced_wall = RunPhase(*w, args.seconds / 2, &traced);
  tracer.Disable();
  collecting = false;
  collector.join();
  reader.Poll();
  reader.Poll();
  const ServerCounts c1 = ServerCounts::Now(*w->help);
  HostMark();
  if (edit) {
    CheckFinalBodies(*w, &out);
  }

  out.attempted = plain.attempted + traced.attempted;
  out.failed += plain.failed + traced.failed;
  for (Tally* t : {&plain, &traced}) {
    for (std::string& e : t->errors) {
      out.Fail(std::move(e));
    }
  }
  auto L = [&](std::string name, double v, std::string unit) {
    out.Add(&out.per_layer, std::move(name), v, std::move(unit));
  };
  const TraceReader::Phases& p = reader.phases();
  const double n = static_cast<double>(p.requests);
  auto mean_us = [&](uint64_t ns) { return Mean(static_cast<double>(ns) / 1e3, n); };
  const double total_us = mean_us(p.total_ns);
  const double phases_us = mean_us(p.queue_ns + p.lock_ns + p.handler_ns + p.encode_ns +
                                   p.outbox_ns);
  L("fs.req.count", n, "count");
  L("fs.req.total_us", total_us, "us");
  L("fs.req.queue_us", mean_us(p.queue_ns), "us");
  L("fs.req.lock_us", mean_us(p.lock_ns), "us");
  L("fs.req.handler_us", mean_us(p.handler_ns), "us");
  L("fs.req.encode_us", mean_us(p.encode_ns), "us");
  L("fs.req.outbox_us", mean_us(p.outbox_ns), "us");
  L("fs.req.gap_us", total_us - phases_us, "us");
  L("fs.outside_us",
    Mean(traced.rtt_us_sum, static_cast<double>(traced.attempted)) - total_us, "us");

  const uint64_t ops = plain.attempted + traced.attempted;
  const uint64_t msgs = c1.msgs - c0.msgs;
  L("fs.msgs_per_op", Ratio(msgs, ops), "count/op");
  L("fs.writev_per_msg", Ratio(c1.writev - c0.writev, msgs), "count/op");
  L("fs.zero_copy_share",
    Ratio(c1.zero_copy - c0.zero_copy, c1.zero_copy - c0.zero_copy + c1.staged - c0.staged),
    "ratio");
  L("fs.ooo_share", Ratio(c1.ooo - c0.ooo, msgs), "ratio");
  L("fs.read_retry_share", Ratio(c1.retries - c0.retries, c1.shared_reads - c0.shared_reads),
    "ratio");
  L("fs.coalesced_share", Ratio(c1.coalesced - c0.coalesced, c1.writes - c0.writes), "ratio");
  L("fs.lock.window_acquires_per_op", Ratio(c1.window_acquires - c0.window_acquires, ops),
    "count/op");
  L("fs.lock.epoch_exclusive_per_op", Ratio(c1.epoch_exclusive - c0.epoch_exclusive, ops),
    "count/op");
  std::array<uint64_t, help::obs::Histogram::kBuckets> wait{};
  for (size_t b = 0; b < wait.size(); b++) {
    wait[b] = c1.shard_wait[b] - c0.shard_wait[b];
  }
  L("fs.lock.shard_wait_us", static_cast<double>(help::obs::Histogram::PercentileOf(wait, 99)),
    "us");
  L("fs.backpressure_stalls", Ratio(c1.stalls - c0.stalls, ops), "count/op");
  if (edit) {
    L("text.lineindex.splits_per_op", Ratio(c1.splits - c0.splits, ops), "count/op");
  }
  const double plain_rate = static_cast<double>(plain.attempted) / plain_wall;
  const double traced_rate = static_cast<double>(traced.attempted) / traced_wall;
  L("obs.trace_overhead", plain_rate / traced_rate, "ratio");
  L("obs.trace_coverage", Ratio(p.requests, traced.attempted), "ratio");
  L("obs.trace_dropped", static_cast<double>(tracer.dropped() - dropped0), "count");
  out.Add(&out.detail, "trace.events_read", static_cast<double>(reader.seen()), "count");
  out.Add(&out.detail, "trace.events_lost", static_cast<double>(reader.lost()), "count");
  out.Add(&out.detail, "trace.broken_chains", static_cast<double>(reader.broken_chains()),
          "count");
  return out;
}

}  // namespace

Outcome RunWireRead(const Args& args) { return RunWire(args, /*edit=*/false); }
Outcome RunWireEdit(const Args& args) { return RunWire(args, /*edit=*/true); }

}  // namespace perfbench
