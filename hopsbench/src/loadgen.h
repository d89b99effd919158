// Single-threaded HTTP/1.1 load generator.
//
// One thread drives at most four keep-alive connections through epoll with
// non-blocking sockets. Each operation stream is either open-loop, sending
// at a fixed rate whatever the server does (requests are pipelined on the
// stream's connections, so a slow server makes its queue grow instead of
// slowing the sender), or closed-loop, keeping exactly one request in flight
// per connection. A request is timed from the moment it was due, so a stall
// also charges the requests that queued behind it; how late the generator
// itself sent each open-loop request is recorded as its lag.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/status.h"

namespace hopsbench {

int64_t NowNanos();  // CLOCK_MONOTONIC, the clock std::steady_clock reads

/// Request header carrying the generator's request id, so a server-side
/// wrapper can join its timing to the client's. Sent in every mode, so the
/// traced and the untraced run put the same bytes on the wire.
inline constexpr std::string_view kRequestIdHeader = "x-bench-rid";

/// The exact bytes the generator sends for one request.
std::string RenderRequest(std::string_view target, std::string_view content_type,
                          uint64_t rid, std::string_view body);

struct OpStream {
  std::string name;          ///< "estimate", "update", "feedback"
  std::string target;        ///< "/estimate"
  std::string content_type;  ///< "application/json"
  std::vector<size_t> connections;  ///< indices into the generator's sockets
  /// Body of the next request; the view must stay valid until the call
  /// returns to the generator (it is copied into the socket buffer).
  std::function<std::string_view(uint64_t rid)> next_body;
  /// Verdict on a response: true when the answer is correct.
  std::function<bool(uint64_t rid, int status, std::string_view body)> check;
};

struct PhaseOp {
  size_t stream = 0;       ///< index into the generator's streams
  double rate = 0;         ///< open loop: requests per second
  bool closed_loop = false;
};

struct PhaseSpec {
  std::string name;
  double seconds = 1;
  std::vector<PhaseOp> ops;
  /// Keep a Completion per request; otherwise only counts are kept, so the
  /// generator's memory does not grow with closed-loop throughput.
  bool record_completions = true;
};

struct Completion {
  uint64_t rid = 0;
  uint32_t stream = 0;
  int status = 0;
  bool ok = false;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
};

struct OpCounts {
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
};

struct PhaseResult {
  std::string name;
  double seconds = 0;                  ///< wall time the phase issued for
  std::vector<Completion> completions;  ///< in completion order
  std::vector<OpCounts> counts;         ///< per stream
  std::deque<double> lag_us;            ///< open-loop send lateness
  uint64_t max_backlog = 0;  ///< most due-but-unsent requests at once
};

class LoadGenerator {
 public:
  LoadGenerator(uint16_t port, size_t connections);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  hops::Status Connect();
  size_t AddStream(OpStream stream);
  size_t num_streams() const { return streams_.size(); }
  const std::string& stream_name(size_t stream) const {
    return streams_[stream].name;
  }

  /// Runs one phase, then waits (up to drain_seconds) for every request it
  /// sent to be answered. A broken connection is an error.
  hops::Result<PhaseResult> Run(const PhaseSpec& phase,
                                double drain_seconds = 10);

 private:
  struct Connection;
  struct InFlight;

  void Issue(size_t stream, size_t connection, int64_t due_ns,
             PhaseResult* result);
  hops::Status Flush(Connection& conn);
  hops::Status Read(Connection& conn, bool record, PhaseResult* result);

  const uint16_t port_;
  std::vector<Connection*> connections_;
  std::vector<OpStream> streams_;
  std::vector<size_t> next_connection_;  // per stream, round-robin cursor
  uint64_t next_rid_ = 1;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
};

/// Splits the machine's CPUs: the calling thread, and every thread it
/// starts afterwards, run on all CPUs but the last, which LoadGenerator::Run
/// takes for itself while it runs. The generator then never shares a CPU
/// with the server's threads, whose placement next to it otherwise varied
/// from run to run. No-op on a single CPU.
void ReserveGeneratorCpu();

/// Keeps every CPU busy at the lowest scheduling priority while it lives:
/// one SCHED_IDLE thread per CPU spins until destruction. Any runnable
/// thread preempts them at once, so they take no time from the stack or
/// the generator; what they remove is the CPU idling between requests. On
/// a virtual machine an idle vCPU halts, and waking a halted vCPU costs a
/// trip through the hypervisor whose length depends on the host's load:
/// without them that wake-up was most of the open-loop latency of a small
/// request and moved from run to run (README). Meant for phases with idle
/// time between requests: a CPU that never idles is also never the one
/// the kernel pulls queued threads onto, which costs throughput under
/// saturation.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();

  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// One blocking GET on a fresh connection; returns the status (or -1).
int HttpGetStatus(uint16_t port, const std::string& target);

/// One blocking POST on a fresh connection; returns the status (or -1).
int HttpPost(uint16_t port, const std::string& target,
             std::string_view content_type, const std::string& body,
             std::string* response_body);

}  // namespace hopsbench
