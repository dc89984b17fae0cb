// Open-loop UDWIRE load generator: one sender thread and a small set of
// pipelined AsyncUdwireClient connections, all placed on the generator's
// CPUs. Arrival times are fixed before the run starts, and every request
// is timed from the moment it was due, so a late sender or a stalled
// server shows up as latency instead of as a lower offered rate.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common.h"
#include "server/client.h"
#include "table/table.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {

struct Arrival {
  double due_s = 0;    ///< offset from the start of the run
  uint32_t table = 0;  ///< index into the request pool
};

/// Poisson arrivals at `rate_qps` over [0, seconds); `pick` draws each
/// request's table.
std::vector<Arrival> PoissonSchedule(
    uint64_t seed, double rate_qps, double seconds,
    const std::function<uint32_t(unidetect::Rng&)>& pick);

struct Outcome {
  uint32_t table = 0;  ///< index into the request pool
  double due_s = 0;
  double sent_s = 0;
  double done_s = 0;
  unidetect::wire::WireCode code = unidetect::wire::WireCode::kUnavailable;
  uint64_t generation = 0;
  std::vector<unidetect::Finding> findings;  ///< the table's, when kOk

  double latency_ms() const { return (done_s - due_s) * 1e3; }
  double lag_ms() const { return (sent_s - due_s) * 1e3; }
};

class LoadGenerator {
 public:
  /// Connects `connections` clients to 127.0.0.1:`port`; their receiver
  /// threads start on `cpus`. Throws std::runtime_error on failure.
  LoadGenerator(uint16_t port, size_t connections, std::vector<int> cpus);

  /// Sends `schedule` open loop over `pool`, round robin over the
  /// connections, and returns once every request has completed. With a
  /// tracer, each request records bench.request (due -> done) with
  /// children bench.send_lag (due -> sent) and server.roundtrip
  /// (sent -> done), under request ids first_request_id + i.
  std::vector<Outcome> Run(const std::vector<Arrival>& schedule,
                           const std::vector<unidetect::Table>& pool,
                           Tracer* tracer, uint64_t first_request_id);

  /// Sends closed loop for `seconds`: keeps `in_flight` requests
  /// outstanding, round robin over the connections, each for the pool
  /// table `next_table()` names; then waits for the last completion.
  /// Returns every request sent, in send order, its due time being its
  /// send time.
  std::vector<Outcome> RunClosed(size_t in_flight, double seconds,
                                 const std::function<uint32_t()>& next_table,
                                 const std::vector<unidetect::Table>& pool);

 private:
  std::vector<int> cpus_;
  std::vector<std::unique_ptr<unidetect::AsyncUdwireClient>> clients_;
};

}  // namespace perfbench
