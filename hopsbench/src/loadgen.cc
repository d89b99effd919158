#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>

namespace hopsbench {

using hops::Result;
using hops::Status;

int64_t NowNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string RenderRequest(std::string_view target, std::string_view content_type,
                          uint64_t rid, std::string_view body) {
  std::string out;
  out.reserve(body.size() + 160);
  out += "POST ";
  out += target;
  out += " HTTP/1.1\r\nHost: bench\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\n";
  out += kRequestIdHeader;
  out += ": ";
  out += std::to_string(rid);
  out += "\r\n\r\n";
  out += body;
  return out;
}

struct LoadGenerator::InFlight {
  uint64_t rid;
  uint32_t stream;
  int64_t due_ns;
  int64_t sent_ns;
};

struct LoadGenerator::Connection {
  int fd = -1;
  std::string out;  // bytes not yet written, from out_offset on
  size_t out_offset = 0;
  std::string in;  // bytes read and not yet consumed
  std::deque<InFlight> pending;  // answered in order (HTTP/1.1 pipelining)
  bool want_write = false;
};

namespace {

constexpr uint64_t kTimerToken = std::numeric_limits<uint64_t>::max();
constexpr int64_t kSpinNanos = 50'000;

int OpenSocket(uint16_t port, bool nonblocking) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking) fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

bool IEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

// Parses one complete response at the front of `in`: returns its total
// length (0 = incomplete, SIZE_MAX = malformed) and fills status and body.
size_t ParseResponse(std::string_view in, int* status, std::string_view* body) {
  const size_t header_end = in.find("\r\n\r\n");
  if (header_end == std::string_view::npos) return 0;
  const std::string_view head = in.substr(0, header_end);
  if (head.size() < 12 || head.substr(0, 5) != "HTTP/") return SIZE_MAX;
  *status = std::atoi(std::string(head.substr(9, 3)).c_str());
  size_t content_length = 0;
  size_t line_start = head.find("\r\n");
  while (line_start != std::string_view::npos) {
    line_start += 2;
    const size_t line_end = head.find("\r\n", line_start);
    const std::string_view line =
        line_end == std::string_view::npos
            ? head.substr(line_start)
            : head.substr(line_start, line_end - line_start);
    const size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        IEquals(line.substr(0, colon), "content-length")) {
      content_length = std::strtoull(
          std::string(line.substr(colon + 1)).c_str(), nullptr, 10);
    }
    line_start = line_end;
  }
  const size_t total = header_end + 4 + content_length;
  if (in.size() < total) return 0;
  *body = in.substr(header_end + 4, content_length);
  return total;
}

void ArmTimer(int timer_fd, int64_t at_ns) {
  itimerspec spec{};
  spec.it_value.tv_sec = at_ns / 1'000'000'000;
  spec.it_value.tv_nsec = at_ns % 1'000'000'000;
  timerfd_settime(timer_fd, TFD_TIMER_ABSTIME, &spec, nullptr);
}

}  // namespace

LoadGenerator::LoadGenerator(uint16_t port, size_t connections) : port_(port) {
  for (size_t i = 0; i < connections; ++i) {
    connections_.push_back(new Connection());
  }
}

LoadGenerator::~LoadGenerator() {
  for (Connection* conn : connections_) {
    if (conn->fd >= 0) close(conn->fd);
    delete conn;
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (timer_fd_ >= 0) close(timer_fd_);
}

Status LoadGenerator::Connect() {
  // Wake-ups come from an absolute timerfd; a 1 ns slack keeps the kernel
  // from batching them by the default 50 us, which would show up as lag.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0) {
    return Status::Internal("epoll/timerfd setup failed");
  }
  epoll_event timer_event{};
  timer_event.events = EPOLLIN;
  timer_event.data.u64 = kTimerToken;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &timer_event);
  for (size_t i = 0; i < connections_.size(); ++i) {
    Connection& conn = *connections_[i];
    conn.fd = OpenSocket(port_, /*nonblocking=*/true);
    if (conn.fd < 0) {
      return Status::Internal(std::string("connect failed: ") +
                             std::strerror(errno));
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = i;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &event);
  }
  return Status::OK();
}

size_t LoadGenerator::AddStream(OpStream stream) {
  streams_.push_back(std::move(stream));
  next_connection_.push_back(0);
  return streams_.size() - 1;
}

void LoadGenerator::Issue(size_t stream, size_t connection, int64_t due_ns,
                          PhaseResult* result) {
  OpStream& op = streams_[stream];
  Connection& conn = *connections_[connection];
  const uint64_t rid = next_rid_++;
  const std::string_view body = op.next_body(rid);
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
  conn.out += RenderRequest(op.target, op.content_type, rid, body);
  const int64_t sent_ns = NowNanos();
  conn.pending.push_back(
      InFlight{rid, static_cast<uint32_t>(stream), due_ns, sent_ns});
  result->counts[stream].sent += 1;
}

Status LoadGenerator::Flush(Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n = send(conn.fd, conn.out.data() + conn.out_offset,
                           conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return Status::Internal(std::string("send failed: ") + std::strerror(errno));
  }
  const bool want_write = conn.out_offset < conn.out.size();
  if (want_write != conn.want_write) {
    conn.want_write = want_write;
    epoll_event event{};
    event.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    for (size_t i = 0; i < connections_.size(); ++i) {
      if (connections_[i] == &conn) event.data.u64 = i;
    }
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
  }
  return Status::OK();
}

Status LoadGenerator::Read(Connection& conn, bool record, PhaseResult* result) {
  char buffer[64 * 1024];
  while (true) {
    const ssize_t n = recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.in.append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return Status::Internal(n == 0 ? "server closed the connection"
                                  : std::string("recv failed: ") +
                                        std::strerror(errno));
  }
  size_t consumed = 0;
  while (true) {
    int status = 0;
    std::string_view body;
    const size_t length = ParseResponse(
        std::string_view(conn.in).substr(consumed), &status, &body);
    if (length == 0) break;
    if (length == SIZE_MAX || conn.pending.empty()) {
      return Status::Internal("malformed or unexpected response");
    }
    const int64_t done_ns = NowNanos();
    const InFlight request = conn.pending.front();
    conn.pending.pop_front();
    const bool ok =
        status == 200 && streams_[request.stream].check(request.rid, status, body);
    OpCounts& counts = result->counts[request.stream];
    (ok ? counts.succeeded : counts.failed) += 1;
    if (record) {
      result->completions.push_back(Completion{request.rid, request.stream,
                                               status, ok, request.due_ns,
                                               request.sent_ns, done_ns});
    }
    consumed += length;
  }
  conn.in.erase(0, consumed);
  return Status::OK();
}

namespace {

int g_generator_cpu = -1;  // set by ReserveGeneratorCpu

cpu_set_t CpusExcept(int excluded) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = 0; cpu < excluded; ++cpu) CPU_SET(cpu, &set);
  return set;
}

// Moves the calling thread onto the generator's CPU for its lifetime and
// back onto the server's CPUs afterwards (so threads it starts later are
// placed with the server, not on the generator's CPU).
class GeneratorCpu {
 public:
  GeneratorCpu() {
    if (g_generator_cpu < 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(g_generator_cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
  }
  ~GeneratorCpu() {
    if (g_generator_cpu < 0) return;
    const cpu_set_t set = CpusExcept(g_generator_cpu);
    sched_setaffinity(0, sizeof(set), &set);
  }
  GeneratorCpu(const GeneratorCpu&) = delete;
  GeneratorCpu& operator=(const GeneratorCpu&) = delete;
};

}  // namespace

void ReserveGeneratorCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int cpus = CPU_COUNT(&allowed);
  if (cpus < 2) return;
  // Only the simple case of CPUs 0..n-1 all allowed is split.
  for (int cpu = 0; cpu < cpus; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) return;
  }
  g_generator_cpu = cpus - 1;
  const cpu_set_t server = CpusExcept(g_generator_cpu);
  sched_setaffinity(0, sizeof(server), &server);
}

IdleSpinners::IdleSpinners() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned cpu = 0; cpu < cpus; ++cpu) {
    threads_.emplace_back([this, cpu] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof(set), &set);
      const sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      // A plain load loop: no pause instruction, which a hypervisor may
      // take as a spinning lock and answer by descheduling the vCPU.
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads_) thread.join();
}

Result<PhaseResult> LoadGenerator::Run(const PhaseSpec& phase,
                                       double drain_seconds) {
  const GeneratorCpu pinned;
  PhaseResult result;
  result.name = phase.name;
  result.counts.assign(streams_.size(), OpCounts{});
  const int64_t start_ns = NowNanos();
  const int64_t end_ns =
      start_ns + static_cast<int64_t>(phase.seconds * 1e9);
  std::vector<int64_t> next_due(phase.ops.size(), start_ns);
  std::vector<int64_t> interval(phase.ops.size(), 0);
  for (size_t i = 0; i < phase.ops.size(); ++i) {
    if (!phase.ops[i].closed_loop) {
      interval[i] = static_cast<int64_t>(1e9 / phase.ops[i].rate);
    }
  }
  epoll_event events[16];
  bool issuing = true;
  const int64_t drain_deadline_ns =
      end_ns + static_cast<int64_t>(drain_seconds * 1e9);
  while (true) {
    const int64_t now = NowNanos();
    if (issuing && now >= end_ns) {
      issuing = false;
      result.seconds = static_cast<double>(now - start_ns) * 1e-9;
    }
    if (issuing) {
      uint64_t backlog = 0;
      for (size_t i = 0; i < phase.ops.size(); ++i) {
        const PhaseOp& op = phase.ops[i];
        const std::vector<size_t>& conns = streams_[op.stream].connections;
        if (op.closed_loop) {
          for (size_t c : conns) {
            if (connections_[c]->pending.empty()) {
              Issue(op.stream, c, now, &result);
            }
          }
          continue;
        }
        if (next_due[i] <= now) {
          backlog += static_cast<uint64_t>((now - next_due[i]) / interval[i]) + 1;
        }
        while (next_due[i] <= now && next_due[i] < end_ns) {
          size_t& cursor = next_connection_[op.stream];
          const size_t c = conns[cursor++ % conns.size()];
          Issue(op.stream, c, next_due[i], &result);
          result.lag_us.push_back(
              static_cast<double>(connections_[c]->pending.back().sent_ns -
                                  next_due[i]) *
              1e-3);
          next_due[i] += interval[i];
        }
      }
      result.max_backlog = std::max(result.max_backlog, backlog);
    }
    for (Connection* conn : connections_) {
      if (conn->out_offset < conn->out.size()) HOPS_RETURN_NOT_OK(Flush(*conn));
    }
    bool outstanding = false;
    for (Connection* conn : connections_) {
      outstanding = outstanding || !conn->pending.empty();
    }
    if (!issuing && !outstanding) break;
    if (!issuing && now >= drain_deadline_ns) {
      return Status::Internal("responses still outstanding after the drain");
    }
    int64_t wake_ns = issuing ? end_ns : drain_deadline_ns;
    for (size_t i = 0; issuing && i < phase.ops.size(); ++i) {
      if (!phase.ops[i].closed_loop) wake_ns = std::min(wake_ns, next_due[i]);
    }
    // Sleep until shortly before the next send is due, then poll without
    // blocking: a timer wake-up alone arrives tens of microseconds late,
    // which would be charged to every request as latency.
    const bool spin = issuing && wake_ns - now <= kSpinNanos;
    if (!spin) ArmTimer(timer_fd_, std::max(wake_ns - kSpinNanos, now + 1));
    const int n = epoll_wait(epoll_fd_, events, 16, spin ? 0 : -1);
    if (n < 0 && errno != EINTR) {
      return Status::Internal(std::string("epoll_wait: ") + std::strerror(errno));
    }
    for (int e = 0; e < n; ++e) {
      if (events[e].data.u64 == kTimerToken) {
        uint64_t expirations = 0;
        (void)!read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      Connection& conn = *connections_[events[e].data.u64];
      if (events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        HOPS_RETURN_NOT_OK(Read(conn, phase.record_completions, &result));
      }
      if (events[e].events & EPOLLOUT) HOPS_RETURN_NOT_OK(Flush(conn));
    }
  }
  return result;
}

namespace {

int BlockingExchange(uint16_t port, const std::string& request,
                     std::string* body) {
  const int fd = OpenSocket(port, /*nonblocking=*/false);
  if (fd < 0) return -1;
  size_t written = 0;
  while (written < request.size()) {
    const ssize_t n = send(fd, request.data() + written,
                           request.size() - written, MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return -1;
    }
    written += static_cast<size_t>(n);
  }
  std::string in;
  char buffer[16384];
  int status = -1;
  while (true) {
    const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    in.append(buffer, static_cast<size_t>(n));
    std::string_view parsed;
    int parsed_status = -1;
    const size_t length = ParseResponse(in, &parsed_status, &parsed);
    if (length == SIZE_MAX) break;
    if (length != 0) {
      status = parsed_status;
      if (body != nullptr) body->assign(parsed);
      break;
    }
  }
  close(fd);
  return status;
}

}  // namespace

int HttpGetStatus(uint16_t port, const std::string& target) {
  return BlockingExchange(
      port,
      "GET " + target + " HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n",
      nullptr);
}

int HttpPost(uint16_t port, const std::string& target,
             std::string_view content_type, const std::string& body,
             std::string* response_body) {
  std::string request = "POST " + target + " HTTP/1.1\r\nHost: bench\r\n";
  request += "Content-Type: ";
  request += content_type;
  request += "\r\nContent-Length: " + std::to_string(body.size()) +
             "\r\nConnection: close\r\n\r\n";
  request += body;
  return BlockingExchange(port, request, response_body);
}

}  // namespace hopsbench
