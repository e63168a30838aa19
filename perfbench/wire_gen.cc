#include "wire_gen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

namespace perfbench {

using varstream::DecodeStatus;
using varstream::FrameType;
using varstream::FrameView;

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

namespace {

// Reads one whole frame from a blocking socket into *buf; the view
// aliases *buf.
bool BlockingReadFrame(int fd, std::vector<uint8_t>* buf, FrameView* view,
                       std::string* error) {
  buf->clear();
  for (;;) {
    size_t consumed = 0;
    DecodeStatus st = varstream::DecodeFrameView(*buf, view, &consumed, error);
    if (st == DecodeStatus::kOk) return true;
    if (st == DecodeStatus::kMalformed) return false;
    uint8_t chunk[4096];
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      *error = "connection closed while waiting for a reply";
      return false;
    }
    buf->insert(buf->end(), chunk, chunk + n);
  }
}

}  // namespace

bool BlockingHello(int fd, const varstream::HelloFrame& hello,
                   std::string* error) {
  std::vector<uint8_t> out;
  varstream::AppendFrame(&out, FrameType::kHello,
                         varstream::EncodeHello(hello));
  if (!varstream::SendAllBytes(fd, out.data(), out.size())) {
    *error = "hello send failed: " + std::string(std::strerror(errno));
    return false;
  }
  std::vector<uint8_t> buf;
  FrameView view;
  if (!BlockingReadFrame(fd, &buf, &view, error)) return false;
  if (view.type == FrameType::kError) {
    varstream::ErrorFrame err;
    varstream::DecodeError(view.payload, &err);
    *error = "hello refused: " + err.message;
    return false;
  }
  varstream::HelloAckFrame ack;
  if (view.type != FrameType::kHelloAck ||
      !varstream::DecodeHelloAck(view.payload, &ack)) {
    *error = "hello: unexpected reply";
    return false;
  }
  return true;
}

bool BlockingPush(int fd, uint64_t seq, std::span<const CountUpdate> batch,
                  std::string* error) {
  std::vector<uint8_t> out;
  varstream::AppendPushBatchFrame(&out, seq, batch);
  if (!varstream::SendAllBytes(fd, out.data(), out.size())) {
    *error = "push send failed: " + std::string(std::strerror(errno));
    return false;
  }
  std::vector<uint8_t> buf;
  FrameView view;
  if (!BlockingReadFrame(fd, &buf, &view, error)) return false;
  varstream::PushAckFrame ack;
  if (view.type != FrameType::kPushAck ||
      !varstream::DecodePushAck(view.payload, &ack) || ack.seq != seq) {
    *error = "push: expected the batch's ack";
    return false;
  }
  return true;
}

namespace {

constexpr uint64_t kReaderTag = 100;
constexpr uint64_t kTimerTag = 200;

struct Conn {
  int fd = -1;
  uint64_t tag = 0;  // epoll data: writer index or kReaderTag
  std::vector<uint8_t> rbuf;  // bytes [rpos, rlen) are undecoded
  size_t rpos = 0;
  size_t rlen = 0;
  std::vector<uint8_t> wbuf;
  size_t wpos = 0;
  uint64_t queued_total = 0;   // bytes appended to wbuf since connect
  uint64_t written_total = 0;  // bytes accepted by the kernel
  bool want_out = false;
};

enum class WriterState { kPushing, kFinal, kWaitReader, kDone };

struct Writer {
  uint32_t index = 0;
  const WriterPlan* plan = nullptr;
  Conn conn;
  uint32_t session = 0;  // index of the current session
  std::string name;      // its name
  bool session_done = false;
  WriterState state = WriterState::kPushing;
  uint64_t total = 0;  // batches per session; seq = pass * batches + b
  uint64_t next = 0;   // next seq to send
  uint64_t acked = 0;  // seqs [0, acked) are acked
  // Go-back-N bookkeeping: Overloaded replies for seqs in [stale_lo,
  // stale_hi) are collateral of an earlier bounce and need no rewind.
  uint64_t stale_lo = 0;
  uint64_t stale_hi = 0;
  // Per in-flight slot (seq % window) timestamps.
  std::vector<BatchStamp> slot;
  std::vector<uint64_t> frame_end;
};

struct Reader {
  Conn conn;
  uint64_t k = 0;  // index of the next read
  bool outstanding = false;
  ReadKind kind = ReadKind::kQuery;
  int64_t due = 0;
  int64_t sent = 0;
  int64_t t0 = 0;
  std::vector<int64_t> dues;  // batch-driven schedule
  bool timer_armed = false;
};

class Generator {
 public:
  Generator(const WorkloadSpec& spec, uint16_t port,
            const std::vector<WriterPlan>& plans, const ReaderPlan& reader,
            bool keep_stamps, Tracer* tracer, GenStats* stats,
            RunResult* result)
      : spec_(spec),
        port_(port),
        reader_plan_(reader),
        keep_stamps_(keep_stamps),
        tracer_(tracer),
        stats_(stats),
        result_(result) {
    writers_.resize(plans.size());
    uint64_t total_batches = 0;
    for (size_t i = 0; i < plans.size(); ++i) {
      writers_[i].index = static_cast<uint32_t>(i);
      writers_[i].plan = &plans[i];
      writers_[i].slot.resize(spec.window);
      writers_[i].frame_end.resize(spec.window);
      writers_[i].total = static_cast<uint64_t>(plans[i].passes) *
                          plans[i].block->num_batches();
      total_batches += writers_[i].total * plans[i].sessions;
    }
    stats_->ack_us.Reserve(total_batches);
    if (keep_stamps_) stats_->stamps.reserve(total_batches);
    if (reader_plan_.enabled) {
      size_t expect = 1 << 16;
      if (reader_plan_.every_batches > 0) {
        expect = total_batches / reader_plan_.every_batches + 16;
        reader_.dues.reserve(expect);
      }
      stats_->query_us.Reserve(expect);
      stats_->range_us.Reserve(expect);
      stats_->dump_us.Reserve(expect);
      stats_->late_us.Reserve(expect);
    }
  }

  ~Generator() {
    for (Writer& w : writers_) CloseConn(&w.conn);
    CloseConn(&reader_.conn);
    if (timer_fd_ >= 0) ::close(timer_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
  }

  bool Run() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Fatal("epoll_create1 failed");
    if (reader_plan_.enabled && reader_plan_.period_ns > 0) {
      timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
      if (timer_fd_ < 0) return Fatal("timerfd_create failed");
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kTimerTag;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
    }
    stats_->start_ns = NowNs();
    for (Writer& w : writers_) {
      if (!OpenSession(&w)) return false;
    }
    reader_.t0 = NowNs();
    if (!PumpReader()) return false;

    epoll_event events[16];
    int idle_waits = 0;
    while (!AllDone() || reader_.outstanding) {
      int n = ::epoll_wait(epoll_fd_, events, 16, 1000);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Fatal("epoll_wait failed");
      }
      // A closed loop that sees nothing for 30 s is wedged, not slow.
      idle_waits = n == 0 ? idle_waits + 1 : 0;
      if (idle_waits >= 30) return Fatal("no reply for 30 s");
      for (int i = 0; i < n; ++i) {
        uint64_t tag = events[i].data.u64;
        uint32_t mask = events[i].events;
        if (tag == kTimerTag) {
          uint64_t expirations = 0;
          ssize_t got = ::read(timer_fd_, &expirations, sizeof(expirations));
          (void)got;
          reader_.timer_armed = false;
        } else if (tag == kReaderTag) {
          if (reader_.conn.fd < 0) continue;
          if ((mask & EPOLLOUT) && !Flush(&reader_.conn)) return false;
          if ((mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) && !ReadReader()) {
            return false;
          }
        } else {
          Writer& w = writers_[tag];
          if (w.conn.fd < 0) continue;
          if ((mask & EPOLLOUT) && !FlushWriter(&w)) return false;
          if ((mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) && !ReadWriter(&w)) {
            return false;
          }
        }
      }
      if (AllDone() && stats_->end_ns == 0) stats_->end_ns = NowNs();
      if (!PumpReader()) return false;
    }
    if (stats_->end_ns == 0) stats_->end_ns = NowNs();
    return true;
  }

 private:
  bool AllDone() const {
    for (const Writer& w : writers_) {
      if (w.state != WriterState::kDone) return false;
    }
    return true;
  }

  bool Fatal(const std::string& why) {
    result_->Fail(why);
    fatal_ = true;
    return false;
  }

  void CloseConn(Conn* c) {
    if (c->fd >= 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
      ::close(c->fd);
    }
    c->fd = -1;
    c->rpos = 0;
    c->rlen = 0;
    c->wbuf.clear();
    c->wpos = 0;
    c->queued_total = 0;
    c->written_total = 0;
    c->want_out = false;
  }

  bool Attach(Conn* c, uint64_t tag, const varstream::HelloFrame& hello) {
    c->fd = ConnectLoopback(port_);
    c->tag = tag;
    if (c->fd < 0) return Fatal("connect failed: " + std::string(strerror(errno)));
    std::string error;
    if (!BlockingHello(c->fd, hello, &error)) return Fatal(error);
    int flags = ::fcntl(c->fd, F_GETFL, 0);
    ::fcntl(c->fd, F_SETFL, flags | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c->fd, &ev) != 0) {
      return Fatal("epoll_ctl add failed");
    }
    return true;
  }

  void SetOut(Conn* c, bool want) {
    if (c->want_out == want) return;
    c->want_out = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? uint32_t{EPOLLOUT} : 0u);
    ev.data.u64 = c->tag;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
  }

  bool Flush(Conn* c) {
    while (c->wpos < c->wbuf.size()) {
      ssize_t n = ::send(c->fd, c->wbuf.data() + c->wpos,
                         c->wbuf.size() - c->wpos, MSG_NOSIGNAL);
      if (n > 0) {
        c->wpos += static_cast<size_t>(n);
        c->written_total += static_cast<uint64_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return Fatal("send failed: " + std::string(strerror(errno)));
    }
    if (c->wpos == c->wbuf.size()) {
      c->wbuf.clear();
      c->wpos = 0;
    }
    SetOut(c, c->wpos < c->wbuf.size());
    return true;
  }

  bool FlushWriter(Writer* w) {
    if (!Flush(&w->conn)) return false;
    int64_t now = 0;
    for (uint64_t seq = w->acked; seq < w->next; ++seq) {
      BatchStamp& s = w->slot[seq % spec_.window];
      if (s.sent == 0 && w->frame_end[seq % spec_.window] <=
                             w->conn.written_total) {
        if (now == 0) now = NowNs();
        s.sent = now;
      }
    }
    return true;
  }

  bool OpenSession(Writer* w) {
    w->name = w->plan->hello.session + "-s" + std::to_string(w->session);
    varstream::HelloFrame hello = w->plan->hello;
    hello.session = w->name;
    if (!Attach(&w->conn, w->index, hello)) return false;
    w->state = WriterState::kPushing;
    w->session_done = false;
    w->next = 0;
    w->acked = 0;
    w->stale_lo = w->stale_hi = 0;
    if (w->index == 0 && reader_plan_.enabled) {
      CloseConn(&reader_.conn);
      if (!Attach(&reader_.conn, kReaderTag, hello)) return false;
    }
    return Fill(w);
  }

  bool EndSession(Writer* w) {
    CloseConn(&w->conn);
    if (++w->session == w->plan->sessions) {
      w->state = WriterState::kDone;
      if (stats_->first_done_ns == 0) stats_->first_done_ns = NowNs();
      return true;
    }
    if (w->index == 0 && reader_plan_.enabled && reader_.outstanding) {
      w->state = WriterState::kWaitReader;  // PumpReader reopens it
      return true;
    }
    return OpenSession(w);
  }

  bool Fill(Writer* w) {
    if (w->state != WriterState::kPushing) return true;
    const uint64_t batches = w->plan->block->num_batches();
    while (w->next < w->total && w->next - w->acked < spec_.window) {
      uint64_t seq = w->next++;
      BatchStamp& s = w->slot[seq % spec_.window];
      s = BatchStamp{};
      s.writer = w->index;
      s.seq = static_cast<uint32_t>(seq);
      s.enc0 = NowNs();
      size_t before = w->conn.wbuf.size();
      varstream::AppendPushBatchFrame(
          &w->conn.wbuf, seq,
          w->plan->block->Batch(seq / batches, seq % batches));
      s.enc1 = NowNs();
      w->conn.queued_total += w->conn.wbuf.size() - before;
      w->frame_end[seq % spec_.window] = w->conn.queued_total;
      ++result_->attempted;
      if (!FlushWriter(w)) return false;
    }
    if (w->acked == w->total && w->next == w->total) {
      varstream::AppendFrame(&w->conn.wbuf, FrameType::kQuery, {});
      ++result_->attempted;
      w->state = WriterState::kFinal;
      if (!Flush(&w->conn)) return false;
    }
    return true;
  }

  // Reads what the socket holds into c->rbuf; a short read means it is
  // drained (epoll is level-triggered, so leftovers re-arm it anyway).
  // False on a dead peer.
  bool Receive(Conn* c) {
    for (;;) {
      if (c->rbuf.size() - c->rlen < 65536) {
        c->rbuf.resize(std::max(2 * c->rbuf.size(), c->rlen + 65536));
      }
      const size_t space = c->rbuf.size() - c->rlen;
      ssize_t n = ::recv(c->fd, c->rbuf.data() + c->rlen, space, 0);
      if (n > 0) {
        c->rlen += static_cast<size_t>(n);
        if (static_cast<size_t>(n) < space) return true;
        continue;
      }
      if (n == 0) return Fatal("server closed the connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return Fatal("recv failed: " + std::string(strerror(errno)));
    }
  }

  // Decodes the next complete frame of c->rbuf; kNeedMore when none.
  DecodeStatus NextFrame(Conn* c, FrameView* view) {
    size_t consumed = 0;
    std::string error;
    DecodeStatus st = varstream::DecodeFrameView(
        std::span<const uint8_t>(c->rbuf.data() + c->rpos,
                                 c->rlen - c->rpos),
        view, &consumed, &error);
    if (st == DecodeStatus::kOk) c->rpos += consumed;
    if (st == DecodeStatus::kMalformed) Fatal("malformed reply: " + error);
    return st;
  }

  // Moves the undecoded tail (at most one partial reply) to the front.
  void Compact(Conn* c) {
    if (c->rpos == 0) return;
    std::memmove(c->rbuf.data(), c->rbuf.data() + c->rpos, c->rlen - c->rpos);
    c->rlen -= c->rpos;
    c->rpos = 0;
  }

  bool ServerError(const FrameView& view) {
    varstream::ErrorFrame err;
    varstream::DecodeError(view.payload, &err);
    return Fatal("server error frame: " + err.message);
  }

  bool ReadWriter(Writer* w) {
    if (!Receive(&w->conn)) return false;
    FrameView view;
    while (!w->session_done &&
           NextFrame(&w->conn, &view) == DecodeStatus::kOk) {
      if (!HandleWriterFrame(w, view)) return false;
    }
    if (fatal_) return false;
    if (w->session_done) return EndSession(w);
    Compact(&w->conn);
    return Fill(w);
  }

  bool HandleWriterFrame(Writer* w, const FrameView& view) {
    const int64_t now = NowNs();
    switch (view.type) {
      case FrameType::kPushAck: {
        varstream::PushAckFrame ack;
        if (!varstream::DecodePushAck(view.payload, &ack) ||
            ack.seq != w->acked || ack.seq >= w->next) {
          return Fatal("push ack out of order");
        }
        BatchStamp& s = w->slot[ack.seq % spec_.window];
        if (s.sent == 0) s.sent = now;
        s.acked = now;
        stats_->ack_us.Add(static_cast<double>(now - s.enc0) / 1e3, now);
        if (keep_stamps_) stats_->stamps.push_back(s);
        if (tracer_->enabled()) {
          int64_t root = tracer_->Add("batch", s.enc0, now, -1, ack.seq);
          tracer_->Add("protocol.encode", s.enc0, s.enc1, root, ack.seq);
          tracer_->Add("client.send", s.enc1, s.sent, root, ack.seq);
        }
        const uint64_t batches = w->plan->block->num_batches();
        if (ack.session_time != w->plan->block->ClockAt(ack.seq / batches,
                                                        ack.seq % batches)) {
          result_->Fail("push ack clock differs from the input's clock");
        }
        ++w->acked;
        ++stats_->batches_acked;
        stats_->updates_acked += spec_.batch;
        if (w->index == 0 && reader_plan_.every_batches > 0 &&
            w->acked % reader_plan_.every_batches == 0) {
          reader_.dues.push_back(now);
        }
        return true;
      }
      case FrameType::kOverloaded: {
        varstream::OverloadedFrame ov;
        if (!varstream::DecodeOverloaded(view.payload, &ov)) {
          return Fatal("malformed overloaded frame");
        }
        ++stats_->overloaded;
        ++result_->failed;  // refused: counts against the run
        if (ov.seq >= w->stale_lo && ov.seq < w->stale_hi) return true;
        w->stale_lo = ov.seq + 1;
        w->stale_hi = w->next;
        w->next = ov.seq;
        return true;
      }
      case FrameType::kSnapshot: {
        varstream::SnapshotFrame snap;
        if (w->state != WriterState::kFinal ||
            !varstream::DecodeSnapshot(view.payload, &snap)) {
          return Fatal("unexpected snapshot on a writer");
        }
        varstream::TrackerSnapshot got{snap.estimate, snap.time,
                                       snap.messages, snap.bits};
        const Block& block = *w->plan->block;
        const size_t last = w->plan->passes - 1;
        if (SameSnapshot(got, block.reference[last])) {
          stats_->messages += snap.messages;
          stats_->variability += block.variability[last];
        } else {
          result_->Fail("session " + w->name +
                        ": final snapshot differs from the reference");
        }
        w->session_done = true;
        return true;
      }
      case FrameType::kError:
        return ServerError(view);
      default:
        return Fatal("unexpected frame on a writer");
    }
  }

  // When read k falls due.
  int64_t DueAt(uint64_t k) const {
    if (reader_plan_.period_ns > 0) {
      return reader_.t0 + static_cast<int64_t>(k + 1) * reader_plan_.period_ns;
    }
    return k < reader_.dues.size() ? reader_.dues[k] : INT64_MAX;
  }

  bool PumpReader() {
    if (!reader_plan_.enabled || reader_.outstanding) return true;
    if (writers_[0].state == WriterState::kWaitReader &&
        !OpenSession(&writers_[0])) {
      return false;
    }
    if (AllDone()) return true;
    int64_t due = DueAt(reader_.k);
    if (due == INT64_MAX) return true;
    int64_t now = NowNs();
    // One read per due time: dues that passed while a read was still out
    // are skipped (and counted), not queued, so a stall delays the one
    // read it caught instead of every read after it.
    while (due <= now && DueAt(reader_.k + 1) <= now) {
      ++reader_.k;
      ++stats_->reads_skipped;
      due = DueAt(reader_.k);
    }
    if (due > now) {
      if (timer_fd_ >= 0 && !reader_.timer_armed) {
        itimerspec spec{};
        spec.it_value.tv_sec = due / 1000000000;
        spec.it_value.tv_nsec = due % 1000000000;
        ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
        reader_.timer_armed = true;
      }
      return true;
    }
    const auto& rotation = reader_plan_.rotation;
    reader_.kind = rotation[reader_.k % rotation.size()];
    reader_.due = due;
    ++reader_.k;
    Conn* c = &reader_.conn;
    switch (reader_.kind) {
      case ReadKind::kQuery:
        varstream::AppendFrame(&c->wbuf, FrameType::kQuery, {});
        break;
      case ReadKind::kQueryRange: {
        varstream::QueryRangeFrame q;
        q.session = writers_[0].name;
        q.spec = reader_plan_.range_spec;
        varstream::AppendFrame(&c->wbuf, FrameType::kQueryRange,
                               varstream::EncodeQueryRange(q));
        break;
      }
      case ReadKind::kMetricsDump:
        varstream::AppendFrame(&c->wbuf, FrameType::kMetricsDump,
                               varstream::EncodeMetricsDump({}));
        break;
    }
    reader_.sent = NowNs();
    reader_.outstanding = true;
    ++result_->attempted;
    return Flush(c);
  }

  bool ReadReader() {
    if (!Receive(&reader_.conn)) return false;
    FrameView view;
    while (reader_.outstanding &&
           NextFrame(&reader_.conn, &view) == DecodeStatus::kOk) {
      if (!HandleReaderFrame(view)) return false;
    }
    if (fatal_) return false;
    Compact(&reader_.conn);
    return true;
  }

  bool HandleReaderFrame(const FrameView& view) {
    const int64_t now = NowNs();
    const double latency_us = static_cast<double>(now - reader_.due) / 1e3;
    stats_->late_us.Add(static_cast<double>(reader_.sent - reader_.due) /
                            1e3,
                        now);
    reader_.outstanding = false;
    if (tracer_->enabled()) {
      tracer_->Add("read", reader_.due, now, -1, reader_.k - 1);
    }
    if (view.type == FrameType::kError) return ServerError(view);
    switch (reader_.kind) {
      case ReadKind::kQuery: {
        varstream::SnapshotFrame snap;
        if (view.type != FrameType::kSnapshot ||
            !varstream::DecodeSnapshot(view.payload, &snap)) {
          return Fatal("reader: expected a snapshot");
        }
        stats_->query_us.Add(latency_us, now);
        if (!WithinGuarantee(spec_, *writers_[0].plan->block, snap.time,
                             snap.estimate)) {
          result_->Fail("sampled estimate outside the engine's guarantee");
        }
        return true;
      }
      case ReadKind::kQueryRange: {
        varstream::QueryRangeResultFrame r;
        if (view.type != FrameType::kQueryRangeResult ||
            !varstream::DecodeQueryRangeResult(view.payload, &r) ||
            r.sessions.size() != 1) {
          result_->Fail("reader: query-range answer malformed");
          return true;
        }
        stats_->range_us.Add(latency_us, now);
        return true;
      }
      case ReadKind::kMetricsDump: {
        varstream::MetricsDumpResultFrame r;
        if (view.type != FrameType::kMetricsDumpResult ||
            !varstream::DecodeMetricsDumpResult(view.payload, &r) ||
            r.json.empty()) {
          result_->Fail("reader: metrics dump malformed");
          return true;
        }
        stats_->dump_us.Add(latency_us, now);
        return true;
      }
    }
    return true;
  }

  const WorkloadSpec& spec_;
  uint16_t port_;
  const ReaderPlan& reader_plan_;
  bool keep_stamps_;
  Tracer* tracer_;
  GenStats* stats_;
  RunResult* result_;
  std::vector<Writer> writers_;
  Reader reader_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  bool fatal_ = false;
};

}  // namespace

bool RunWireGenerator(const WorkloadSpec& spec, uint16_t port,
                      const std::vector<WriterPlan>& writers,
                      const ReaderPlan& reader, bool keep_stamps,
                      Tracer* tracer, GenStats* stats, RunResult* result) {
  Generator gen(spec, port, writers, reader, keep_stamps, tracer, stats,
                result);
  return gen.Run();
}

}  // namespace perfbench
