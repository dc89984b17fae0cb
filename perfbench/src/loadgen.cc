#include "loadgen.h"

#include <cmath>
#include <deque>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "util/mutex.h"

namespace perfbench {

namespace {
// Client-side bound on one request; far above any latency limit, so it
// only ends requests a broken server would otherwise leave hanging.
constexpr int64_t kClientTimeoutMs = 10000;
}  // namespace

std::vector<Arrival> PoissonSchedule(
    uint64_t seed, double rate_qps, double seconds,
    const std::function<uint32_t(unidetect::Rng&)>& pick) {
  unidetect::Rng rng(seed);
  std::vector<Arrival> schedule;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate_qps;
    if (t >= seconds) break;
    schedule.push_back({t, pick(rng)});
  }
  return schedule;
}

LoadGenerator::LoadGenerator(uint16_t port, size_t connections,
                             std::vector<int> cpus)
    : cpus_(std::move(cpus)) {
  // Connect from a thread on the generator's CPUs: each client's
  // receiver thread inherits that placement.
  std::string error;
  std::thread connector([&] {
    PinCurrentThread(cpus_);
    for (size_t i = 0; i < connections; ++i) {
      auto client = unidetect::AsyncUdwireClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        error = client.status().ToString();
        return;
      }
      clients_.push_back(std::move(client).ValueOrDie());
    }
  });
  connector.join();
  if (!error.empty()) throw std::runtime_error("connect: " + error);
}

std::vector<Outcome> LoadGenerator::Run(
    const std::vector<Arrival>& schedule,
    const std::vector<unidetect::Table>& pool, Tracer* tracer,
    uint64_t first_request_id) {
  std::vector<Outcome> outcomes(schedule.size());
  unidetect::Mutex mu;
  unidetect::CondVar all_done;
  size_t remaining = schedule.size();
  Clock::time_point start;

  std::thread sender([&] {
    PinCurrentThread(cpus_);
    start = Clock::now() + std::chrono::milliseconds(2);
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule[i].due_s));
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      Outcome& outcome = outcomes[i];
      outcome.table = schedule[i].table;
      outcome.due_s = schedule[i].due_s;
      outcome.sent_s = SecondsBetween(start, sent);
      unidetect::wire::DetectRequest request;
      request.tables.push_back(pool[schedule[i].table]);
      const uint64_t request_id = first_request_id + i;
      clients_[i % clients_.size()]->Detect(
          std::move(request),
          [&, due, sent, request_id, i](unidetect::wire::DetectResponse r) {
            const Clock::time_point done = Clock::now();
            Outcome& out = outcomes[i];
            out.done_s = SecondsBetween(start, done);
            out.code = r.code;
            out.generation = r.generation;
            if (r.code == unidetect::wire::WireCode::kOk &&
                r.per_table.size() == 1) {
              out.findings = std::move(r.per_table[0]);
            }
            if (tracer != nullptr) {
              const uint64_t root = tracer->NewId();
              tracer->Add("bench.send_lag", root, request_id, due, sent);
              tracer->Add("server.roundtrip", root, request_id, sent, done);
              tracer->Add(root, "bench.request", 0, request_id, due, done);
            }
            unidetect::MutexLock lock(&mu);
            if (--remaining == 0) all_done.NotifyAll();
          },
          kClientTimeoutMs);
    }
  });
  sender.join();
  {
    unidetect::MutexLock lock(&mu);
    while (remaining != 0) all_done.Wait(mu);
  }
  return outcomes;
}

std::vector<Outcome> LoadGenerator::RunClosed(
    size_t in_flight, double seconds,
    const std::function<uint32_t()>& next_table,
    const std::vector<unidetect::Table>& pool) {
  // A deque: the callbacks fill their outcomes in place while the sender
  // appends new ones.
  std::deque<Outcome> outcomes;
  unidetect::Mutex mu;
  unidetect::CondVar slot_free;
  size_t outstanding = 0;
  Clock::time_point start;

  std::thread sender([&] {
    PinCurrentThread(cpus_);
    start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (uint64_t i = 0;; ++i) {
      {
        unidetect::MutexLock lock(&mu);
        while (outstanding >= in_flight) slot_free.Wait(mu);
        if (Clock::now() >= end) break;
        ++outstanding;
      }
      Outcome* outcome = &outcomes.emplace_back();
      outcome->table = next_table();
      outcome->due_s = outcome->sent_s = SecondsBetween(start, Clock::now());
      unidetect::wire::DetectRequest request;
      request.tables.push_back(pool[outcome->table]);
      clients_[i % clients_.size()]->Detect(
          std::move(request),
          [&, outcome](unidetect::wire::DetectResponse r) {
            outcome->done_s = SecondsBetween(start, Clock::now());
            outcome->code = r.code;
            outcome->generation = r.generation;
            if (r.code == unidetect::wire::WireCode::kOk &&
                r.per_table.size() == 1) {
              outcome->findings = std::move(r.per_table[0]);
            }
            unidetect::MutexLock lock(&mu);
            --outstanding;
            slot_free.NotifyAll();
          },
          kClientTimeoutMs);
    }
  });
  sender.join();
  {
    unidetect::MutexLock lock(&mu);
    while (outstanding != 0) slot_free.Wait(mu);
  }
  return {std::make_move_iterator(outcomes.begin()),
          std::make_move_iterator(outcomes.end())};
}

}  // namespace perfbench
