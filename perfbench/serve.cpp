// The live-service workloads: an in-process service::Server with default
// options (n=7, t=1, pipeline 4, default reactor), driven over loopback TCP
// by service::Client.
//
//   serve_closed  2 proposer connections on their own threads, each keeping
//                 a window of 128 proposals in flight (refilled and corked
//                 after every ack, as lft_bench_client does). Saturation:
//                 retire, flush and the reactor dominate the server.
//   serve_open    1 connection; independent users arrive on a seeded
//                 Poisson schedule at 50k req/s. A generator thread corks
//                 every due request per tick, a receiver thread reads acks,
//                 and latency is timed from each request's due time, so a
//                 stall is charged to every request queued behind it.
//
// A run is a sequence of epochs, each on a fresh server with a fixed request
// count; end-to-end figures are medians over epochs (latency percentiles are
// taken per epoch, then the median over epochs). After every epoch a
// subscriber replays the whole log and checks it: contiguous, each command
// exactly once, payload intact.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/obs.hpp"
#include "service/client.hpp"
#include "service/replica.hpp"
#include "service/server.hpp"
#include "service/state_machine.hpp"

namespace perfbench {
namespace {

using lft::service::Client;
using lft::service::Server;

struct Shape {
  int clients = 1;             ///< proposer connections
  std::uint64_t window = 0;    ///< closed loop: proposals in flight per connection
  double rate = 0.0;           ///< open loop: offered requests per second
  std::uint64_t requests = 0;  ///< per connection per epoch
};

Shape shape_of(bool open, bool tiny) {
  Shape s;
  if (open) {
    s.clients = 1;
    s.rate = tiny ? 20000.0 : 50000.0;
    s.requests = tiny ? 2000 : 300000;
  } else {
    s.clients = 2;
    s.window = 128;
    s.requests = tiny ? 2000 : 250000;
  }
  return s;
}

/// A request counts against the limit when it is acked more than this long
/// after it was due (open loop) or sent (closed loop), or not at all: the
/// p99 <= 1 ms target.
constexpr double kLatencyLimitMs = 1.0;

/// Seeded payload of 8..32 bytes; the audit regenerates it to compare.
void fill_payload(std::uint64_t seed, std::uint64_t client, std::uint64_t request,
                  std::vector<std::byte>& out) {
  std::uint64_t h = mix64(mix64(seed, client), request);
  out.resize(8 + h % 25);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i % 8 == 0) h = mix64(h);
    out[i] = static_cast<std::byte>(h >> (8 * (i % 8)));
  }
}

/// Pins an epoch's thread to the `slot`-th CPU this process may use, so the
/// server (slot 0), the proposer or generator (1) and the second proposer
/// or the receiver (2) never share a CPU, and the scheduler cannot stack a
/// woken client onto the busy-polling server. With fewer than 4 usable CPUs
/// threads stay unpinned. Set-up runs unpinned: pinning a thread that was
/// just created migrates it, which made set-up times bimodal.
void pin(pthread_t thread, int slot) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 4) return;
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (seen++ == slot) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)pthread_setaffinity_np(thread, sizeof(one), &one);
      return;
    }
  }
}

/// A Server running on its own thread. stop() shuts it down over the wire
/// and joins; a server that cannot be stopped ends the process rather than
/// hanging the benchmark.
class LiveServer {
 public:
  LiveServer() : server_(std::make_unique<Server>()) {
    thread_ = std::thread([this] {
      run_start_ns_.store(now_ns());
      server_->run();
    });
  }
  ~LiveServer() { stop(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  void pin_server() { pin(thread_.native_handle(), 0); }
  /// When the server thread entered Server::run().
  [[nodiscard]] std::uint64_t run_start_ns() const { return run_start_ns_.load(); }
  /// Valid after stop().
  [[nodiscard]] const Server& server() const { return *server_; }

  void stop() {
    if (!thread_.joinable()) return;
    Client stopper(port(), /*client_id=*/0x57c9);
    if (!stopper.connected() || !stopper.shutdown_server()) {
      std::fprintf(stderr, "perfbench: server did not shut down\n");
      std::_Exit(3);
    }
    thread_.join();
  }

 private:
  std::unique_ptr<Server> server_;
  std::atomic<std::uint64_t> run_start_ns_{0};
  std::thread thread_;  // declared last: it uses the members above
};

/// What one proposer connection (or the open loop's generator/receiver
/// pair) measured in one epoch.
struct LoopOut {
  std::vector<double> latency_ms;  ///< per acked request
  std::vector<double> lag_ms;      ///< open loop: flush time minus due time
  std::uint64_t acked = 0;
  std::uint64_t over_limit = 0;
  std::string error;
  // Traced mode: per-call spans of the hot client calls, as sums + counts.
  std::uint64_t flush_calls = 0;
  std::uint64_t flush_ns = 0;
  std::uint64_t recv_calls = 0;
  std::uint64_t recv_ns = 0;
};

/// Checks one ack against the connection's guarantees: acks in request
/// order, fresh requests never duplicates, log indices increasing.
struct AckOrder {
  std::uint64_t expect = 1;
  std::uint64_t last_index = 0;
  bool any = false;

  [[nodiscard]] const char* check(const Client::Ack& ack) {
    if (ack.request_id != expect) return "ack out of request order";
    ++expect;
    if (ack.applied.duplicate) return "fresh request acked as duplicate";
    if (any && ack.applied.index <= last_index) return "log index not increasing";
    last_index = ack.applied.index;
    any = true;
    return nullptr;
  }
};

void closed_loop(Client& client, std::uint64_t seed, const Shape& shape, bool traced,
                 LoopOut& out) {
  const std::uint64_t window = shape.window;
  std::vector<std::uint64_t> sent_at(window, 0);
  std::vector<std::byte> payload;
  out.latency_ms.reserve(shape.requests);
  AckOrder order;
  std::uint64_t next = 1;
  while (out.acked < shape.requests) {
    bool queued = false;
    while (next - order.expect < window && next <= shape.requests) {
      fill_payload(seed, client.client_id(), next, payload);
      client.queue_propose(next, payload);
      sent_at[next % window] = now_ns();
      ++next;
      queued = true;
    }
    if (queued) {
      const std::uint64_t t0 = traced ? now_ns() : 0;
      if (!client.flush()) {
        out.error = "flush failed";
        return;
      }
      if (traced) {
        out.flush_ns += now_ns() - t0;
        ++out.flush_calls;
      }
    }
    const std::uint64_t t0 = now_ns();
    const auto ack = client.recv_ack();
    const std::uint64_t t1 = now_ns();
    if (traced) {
      out.recv_ns += t1 - t0;
      ++out.recv_calls;
    }
    if (!ack) {
      out.error = "recv_ack failed";
      return;
    }
    if (const char* why = order.check(*ack)) {
      out.error = why;
      return;
    }
    const double ms = static_cast<double>(t1 - sent_at[ack->request_id % window]) / 1e6;
    out.latency_ms.push_back(ms);
    if (ms > kLatencyLimitMs) ++out.over_limit;
    ++out.acked;
  }
}

/// Seeded Poisson arrivals: due offsets (ns from the epoch start) of
/// `count` requests at `rate` per second.
std::vector<std::uint64_t> poisson_schedule(std::uint64_t seed, std::uint64_t count,
                                            double rate) {
  std::vector<std::uint64_t> due(count);
  double t = 0.0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const double u = static_cast<double>(mix64(seed ^ 0x0fe7100bULL, i) >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate;
    due[i] = static_cast<std::uint64_t>(t * 1e9);
  }
  return due;
}

void open_loop(Client& client, std::uint64_t seed, const std::vector<std::uint64_t>& due,
               bool traced, LoopOut& out) {
  const std::uint64_t n = due.size();
  out.latency_ms.reserve(n);
  out.lag_ms.reserve(n);
  const std::uint64_t start = now_ns();
  std::atomic<bool> send_failed{false};

  // Receiver. Acks come back on the connection that proposed, so the
  // generator and the receiver share one Client. Client makes no
  // thread-safety promise; this relies on src/service/client.cpp as it is:
  // queue_propose/flush touch only out_ and scratch_, recv_ack only parser_,
  // and both merely read fd_. A library change that breaks this split (say,
  // flush() resetting fd_ on error) makes this a data race; the TSan build
  // in README.md is the check.
  std::thread receiver([&] {
    AckOrder order;
    while (out.acked < n) {
      const std::uint64_t t0 = traced ? now_ns() : 0;
      const auto ack = client.recv_ack();
      const std::uint64_t t1 = now_ns();
      if (traced) {
        out.recv_ns += t1 - t0;
        ++out.recv_calls;
      }
      if (!ack) {
        if (out.error.empty()) out.error = "recv_ack failed";
        return;
      }
      if (ack->request_id == 0 || ack->request_id > n) {
        out.error = "ack for an unknown request";
        return;
      }
      if (const char* why = order.check(*ack)) {
        out.error = why;
        return;
      }
      const double ms =
          static_cast<double>(t1 - (start + due[ack->request_id - 1])) / 1e6;
      out.latency_ms.push_back(ms);
      if (ms > kLatencyLimitMs) ++out.over_limit;
      ++out.acked;
    }
  });

  // Generator: every request due by now is corked into one flush, then it
  // sleeps until the next one is due.
  std::thread generator([&] {
    std::vector<std::byte> payload;
    std::uint64_t i = 0;
    while (i < n) {
      const std::uint64_t now = now_ns();
      const std::uint64_t first = i;
      while (i < n && start + due[i] <= now) {
        fill_payload(seed, client.client_id(), i + 1, payload);
        client.queue_propose(i + 1, payload);
        ++i;
      }
      if (i > first) {
        const std::uint64_t t0 = now_ns();
        if (!client.flush()) {
          send_failed.store(true);  // the broken socket unblocks the receiver
          break;
        }
        const std::uint64_t t1 = now_ns();
        if (traced) {
          out.flush_ns += t1 - t0;
          ++out.flush_calls;
        }
        for (std::uint64_t j = first; j < i; ++j) {
          out.lag_ms.push_back(static_cast<double>(t1 - (start + due[j])) / 1e6);
        }
      }
      if (i < n) {
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(start + due[i])));
      }
    }
  });
  pin(receiver.native_handle(), 2);
  pin(generator.native_handle(), 1);
  generator.join();
  receiver.join();
  if (send_failed.load() && out.error.empty()) out.error = "flush failed";
}

/// Replays the whole log through a subscriber: exactly `total` contiguous
/// entries, each (client, request) exactly once in request order, payload
/// as proposed. Returns how many entries could not be verified.
std::uint64_t audit_log(std::uint16_t port, std::uint64_t seed, int clients,
                        std::uint64_t total, std::string& why) {
  Client auditor(port, /*client_id=*/0xa0d17);
  if (!auditor.connected()) {
    why = "auditor could not connect";
    return total;
  }
  const auto state = auditor.read_state();
  if (!state || state->size != total) {
    why = "log size " + std::to_string(state ? state->size : 0) + " != proposed " +
          std::to_string(total);
    return total;
  }
  if (!auditor.subscribe(0)) {
    why = "subscribe failed";
    return total;
  }
  std::vector<std::uint64_t> last(static_cast<std::size_t>(clients) + 1, 0);
  std::vector<std::byte> expected;
  for (std::uint64_t i = 0; i < total; ++i) {
    const auto e = auditor.next_commit();
    if (!e || e->index != i) {
      why = "commit " + std::to_string(i) + " missing or out of order";
      return total - i;
    }
    const bool known = e->client_id >= 1 && e->client_id <= static_cast<std::uint64_t>(clients);
    if (known) fill_payload(seed, e->client_id, e->request_id, expected);
    if (!known || e->request_id != last[e->client_id] + 1 || e->payload != expected) {
      why = "log entry " + std::to_string(i) + " duplicated, skipped or corrupt";
      return total - i;
    }
    last[e->client_id] = e->request_id;
  }
  return 0;
}

/// Server-side per-layer sums of one or more traced epochs, from the
/// server's telemetry snapshot (histogram sums and counts, which are exact).
struct ServerLedger {
  double enqueue_s = 0, step_s = 0, retire_s = 0, flush_s = 0, wait_s = 0;
  double wall_s = 0;  ///< server thread wall from run() entry to the stats fetch
  double batch_sum = 0, batch_count = 0;
  double depth_sum = 0, depth_count = 0;
  double entries = 0, slots = 0, pauses = 0;
  double ring_high_water = 0;

  void add(const lft::obs::Snapshot& s, double wall) {
    const auto hist_sum_s = [&s](const char* name) {
      const auto* row = s.find_histogram(name);
      return row == nullptr ? 0.0 : static_cast<double>(row->data.sum()) / 1e9;
    };
    const auto counter = [&s](const char* name) {
      const auto* row = s.find_counter(name);
      return row == nullptr ? 0.0 : static_cast<double>(row->value);
    };
    enqueue_s += hist_sum_s("lft_service_pump_enqueue_ns");
    step_s += hist_sum_s("lft_service_pump_step_ns");
    retire_s += hist_sum_s("lft_service_pump_retire_ns");
    flush_s += hist_sum_s("lft_service_pump_flush_ns");
    wait_s += hist_sum_s("lft_service_reactor_wait_ns");
    wall_s += wall;
    if (const auto* b = s.find_histogram("lft_service_reactor_batch")) {
      batch_sum += static_cast<double>(b->data.sum());
      batch_count += static_cast<double>(b->data.count());
    }
    if (const auto* d = s.find_histogram("lft_service_pipeline_depth")) {
      depth_sum += static_cast<double>(d->data.sum());
      depth_count += static_cast<double>(d->data.count());
    }
    entries += counter("lft_service_commit_entries_total");
    slots += counter("lft_service_commit_batches_total");
    pauses += counter("lft_service_session_pauses_total");
    if (const auto* g = s.find_gauge("lft_service_ring_high_water")) {
      ring_high_water = std::max(ring_high_water, static_cast<double>(g->value));
    }
  }
};

/// The replica layer measured alone: the run's batch shape (entries per
/// slot) replayed through a fresh ReplicaGroup at the server's pipeline
/// depth, and the same commands applied to a standalone StateMachine.
void replica_replay(std::uint64_t seed, double entries_per_slot, bool tiny, Result& r) {
  const std::uint64_t commands = tiny ? 2000 : 200000;
  const auto batch = static_cast<std::uint64_t>(std::max(1.0, std::round(entries_per_slot)));
  std::vector<lft::service::Command> all(commands);
  for (std::uint64_t i = 0; i < commands; ++i) {
    all[i].client_id = 1 + i % 8;
    all[i].request_id = 1 + i / 8;
    fill_payload(seed, all[i].client_id, all[i].request_id, all[i].payload);
  }

  lft::service::ReplicaGroupOptions options;
  options.pipeline = 4;  // the server's default depth
  lft::service::ReplicaGroup group(options);
  std::uint64_t next = 0;
  const std::uint64_t t0 = now_ns();
  while (next < commands || group.in_flight() > 0) {
    while (next < commands && group.can_enqueue()) {
      const std::uint64_t end = std::min(commands, next + batch);
      group.enqueue(std::vector<lft::service::Command>(
          all.begin() + static_cast<std::ptrdiff_t>(next),
          all.begin() + static_cast<std::ptrdiff_t>(end)));
      next = end;
    }
    group.step();
    while (group.head_ready()) (void)group.take_head();
  }
  const double group_ns = static_cast<double>(now_ns() - t0);

  lft::service::StateMachine machine;
  const std::uint64_t t1 = now_ns();
  for (const auto& cmd : all) (void)machine.apply(cmd);
  const double apply_ns = static_cast<double>(now_ns() - t1);

  if (group.machine().size() != commands || machine.size() != commands ||
      group.machine().digest() != machine.digest()) {
    r.fail(1, "replica replay: group and standalone state machine disagree");
  }
  const auto n = static_cast<double>(commands);
  r.layers["replica.commit_ns_per_cmd"] = {group_ns / n, commands};
  r.layers["replica.apply_ns_per_cmd"] = {apply_ns / n, commands};
  r.layers["replica.slot_us"] = {group_ns / 1e3 / static_cast<double>(group.slots()),
                                 group.slots()};
}

Result run_serve(const Args& args, Tracer* tracer, bool open) {
  const Shape shape = shape_of(open, args.tiny);
  const std::uint64_t total = shape.requests * static_cast<std::uint64_t>(shape.clients);
  const std::vector<std::uint64_t> due =
      open ? poisson_schedule(args.seed, shape.requests, shape.rate)
           : std::vector<std::uint64_t>{};
  Result r;

  // Setup: server constructed and listening, every proposer connected and
  // handshaken. setup_s is the fastest of the set-ups timed before any
  // epoch. A set-up is ~0.1 ms of thread start, socket calls and wake-ups,
  // so its noise is one-sided and a median moved by 0.3-0.4 from run to run;
  // the first few set-ups of a process are also slower. Set-ups that follow
  // an epoch are not timed: they also pay for the kernel reclaiming the last
  // epoch's memory (up to ~200 ms), a cost of the benchmark, not of setup.
  std::vector<double> setup_s;
  auto set_up = [&](std::unique_ptr<LiveServer>& server,
                    std::vector<std::unique_ptr<Client>>& clients) {
    const std::uint64_t t0 = now_ns();
    server = std::make_unique<LiveServer>();
    clients.clear();
    for (int c = 0; c < shape.clients; ++c) {
      clients.push_back(
          std::make_unique<Client>(server->port(), static_cast<std::uint64_t>(c + 1)));
      if (!clients.back()->connected()) r.fail(1, "proposer could not connect");
    }
    if (tracer != nullptr) tracer->span("setup.server", t0, now_ns());
    return seconds_since(t0);
  };
  const int set_ups = args.tiny ? 2 : 100;
  for (int i = 0; i < set_ups; ++i) {
    std::unique_ptr<LiveServer> server;
    std::vector<std::unique_ptr<Client>> clients;
    setup_s.push_back(set_up(server, clients));
  }

  struct Epochs {
    std::vector<double> req_per_s, inst_per_s, run_s, over_limit, p50_ms, p99_ms;
    std::uint64_t acked = 0;     ///< latency samples behind the percentiles
    std::vector<double> lag_ms;  ///< open loop, pooled
  } plain, traced_epochs;
  ServerLedger ledger;
  std::uint64_t flush_calls = 0, flush_ns = 0, recv_calls = 0, recv_ns = 0;
  double measured = 0.0;
  for (int epoch = 0;; ++epoch) {
    const bool traced = tracer != nullptr && epoch % 2 == 1;
    const bool enough = measured >= args.seconds && !plain.run_s.empty() &&
                        (tracer == nullptr || !traced_epochs.run_s.empty());
    if (enough || r.failed > 0) break;
    Epochs& into = traced ? traced_epochs : plain;

    std::unique_ptr<LiveServer> server;
    std::vector<std::unique_ptr<Client>> clients;
    (void)set_up(server, clients);
    if (r.failed > 0) break;
    server->pin_server();
    const std::int64_t span = traced ? tracer->open("serve.epoch") : -1;
    std::vector<LoopOut> outs(static_cast<std::size_t>(shape.clients));
    const std::uint64_t t0 = now_ns();
    if (open) {
      open_loop(*clients[0], args.seed, due, traced, outs[0]);
    } else {
      std::vector<std::thread> threads;
      for (int c = 0; c < shape.clients; ++c) {
        threads.emplace_back(closed_loop, std::ref(*clients[static_cast<std::size_t>(c)]),
                             args.seed, std::cref(shape), traced,
                             std::ref(outs[static_cast<std::size_t>(c)]));
        pin(threads.back().native_handle(), c + 1);
      }
      for (auto& t : threads) t.join();
    }
    const double wall = seconds_since(t0);
    if (traced) tracer->close(span);
    measured += wall;

    if (traced) {
      Client stats(server->port(), /*client_id=*/0x0b5);
      const auto snapshot = stats.connected() ? stats.server_stats() : std::nullopt;
      const double server_wall = static_cast<double>(now_ns() - server->run_start_ns()) / 1e9;
      if (!snapshot) {
        r.fail(1, "server stats fetch failed");
      } else {
        ledger.add(*snapshot, server_wall);
      }
    }

    std::uint64_t acked = 0, over_limit = 0;
    std::vector<double> latency_ms;
    for (auto& out : outs) {
      acked += out.acked;
      over_limit += out.over_limit;
      if (!out.error.empty()) r.fail(0, out.error);
      latency_ms.insert(latency_ms.end(), out.latency_ms.begin(), out.latency_ms.end());
      into.lag_ms.insert(into.lag_ms.end(), out.lag_ms.begin(), out.lag_ms.end());
      flush_calls += out.flush_calls;
      flush_ns += out.flush_ns;
      recv_calls += out.recv_calls;
      recv_ns += out.recv_ns;
    }
    r.attempted += total;
    if (acked < total) r.fail(total - acked, "requests not acked");
    if (acked == total) {
      std::string why;
      const std::uint64_t bad = audit_log(server->port(), args.seed, shape.clients, total, why);
      if (bad > 0) r.fail(bad, "log audit: " + why);
    }
    server->stop();
    const double slots = static_cast<double>(server->server().stats().commit_batches);
    into.req_per_s.push_back(static_cast<double>(acked) / wall);
    into.inst_per_s.push_back(slots / wall);
    into.run_s.push_back(wall);
    into.over_limit.push_back(static_cast<double>(over_limit + (total - acked)) /
                              static_cast<double>(total));
    into.acked += acked;
    into.p50_ms.push_back(percentile(latency_ms, 50.0));
    into.p99_ms.push_back(percentile(latency_ms, 99.0));
    std::printf("  epoch %d%s: %.3f s, %.0f req/s, %.0f slots/s, p50 %.4f ms, p99 %.4f ms\n",
                epoch, traced ? " (traced)" : "", wall, into.req_per_s.back(),
                into.inst_per_s.back(), into.p50_ms.back(), into.p99_ms.back());
  }

  const auto samples = [](const std::vector<double>& v) {
    return static_cast<std::uint64_t>(v.size());
  };
  const double fastest_setup_s = *std::min_element(setup_s.begin(), setup_s.end());
  r.e2e["setup_s"] = {fastest_setup_s, samples(setup_s)};
  r.e2e["req_per_s"] = {median(plain.req_per_s), samples(plain.req_per_s)};
  r.e2e["inst_per_s"] = {median(plain.inst_per_s), samples(plain.inst_per_s)};
  r.e2e["run_s"] = {median(plain.run_s), samples(plain.run_s)};
  r.e2e["over_limit_share"] = {median(plain.over_limit), samples(plain.over_limit)};
  const double p50 = median(plain.p50_ms);
  r.e2e["ack_p50_ms"] = {p50, plain.acked};
  r.e2e["ack_p99_ms"] = {median(plain.p99_ms), plain.acked};

  if (tracer == nullptr) return r;
  const double epochs = static_cast<double>(traced_epochs.run_s.size());
  tracer->add_total("client.flush", flush_calls, flush_ns);
  tracer->add_total("client.recv_ack", recv_calls, recv_ns);
  const auto per_epoch = [epochs](double total_value) { return total_value / epochs; };
  const auto n_ep = static_cast<std::uint64_t>(epochs);
  r.layers["server.enqueue_s"] = {per_epoch(ledger.enqueue_s), n_ep};
  r.layers["server.step_s"] = {per_epoch(ledger.step_s), n_ep};
  r.layers["server.retire_s"] = {per_epoch(ledger.retire_s), n_ep};
  r.layers["server.flush_s"] = {per_epoch(ledger.flush_s), n_ep};
  r.layers["server.wait_s"] = {per_epoch(ledger.wait_s), n_ep};
  const double phases =
      ledger.enqueue_s + ledger.step_s + ledger.retire_s + ledger.flush_s + ledger.wait_s;
  r.layers["server.residual_share"] = {1.0 - phases / ledger.wall_s, n_ep};
  const double entries_per_slot = ledger.slots > 0 ? ledger.entries / ledger.slots : 0.0;
  r.layers["server.entries_per_slot"] = {entries_per_slot,
                                         static_cast<std::uint64_t>(ledger.slots)};
  r.layers["server.wake_batch_mean"] = {
      ledger.batch_count > 0 ? ledger.batch_sum / ledger.batch_count : 0.0,
      static_cast<std::uint64_t>(ledger.batch_count)};
  r.layers["server.pipeline_depth_mean"] = {
      ledger.depth_count > 0 ? ledger.depth_sum / ledger.depth_count : 0.0,
      static_cast<std::uint64_t>(ledger.depth_count)};
  r.layers["server.pauses"] = {per_epoch(ledger.pauses), n_ep};
  r.layers["server.ring_high_water_kb"] = {ledger.ring_high_water / 1024.0, n_ep};
  r.layers["client.flush_s"] = {per_epoch(static_cast<double>(flush_ns) / 1e9), flush_calls};
  r.layers["client.flush_calls"] = {per_epoch(static_cast<double>(flush_calls)), n_ep};
  r.layers["client.recv_wait_s"] = {per_epoch(static_cast<double>(recv_ns) / 1e9), recv_calls};
  const double traced_p50 = median(traced_epochs.p50_ms);
  r.layers["client.ack_p99_ms"] = {median(traced_epochs.p99_ms), traced_epochs.acked};
  if (open) {
    const std::uint64_t lag_n = traced_epochs.lag_ms.size();
    r.layers["gen.lag_p99_ms"] = {percentile(traced_epochs.lag_ms, 99.0), lag_n};
    r.layers["gen.lag_max_ms"] = {percentile(traced_epochs.lag_ms, 100.0), lag_n};
  }
  r.layers["setup.server_s"] = {fastest_setup_s, samples(setup_s)};
  // Tracing overhead on the workload's headline figure: closed-loop epoch
  // time, open-loop median latency (the open loop's epoch time is fixed by
  // its schedule).
  r.layers["trace.overhead_share"] = {
      open ? traced_p50 / p50 - 1.0 : median(traced_epochs.run_s) / median(plain.run_s) - 1.0,
      n_ep};
  replica_replay(args.seed, entries_per_slot, args.tiny, r);
  return r;
}

}  // namespace

Result run_serve_closed(const Args& args, Tracer* tracer) { return run_serve(args, tracer, false); }
Result run_serve_open(const Args& args, Tracer* tracer) { return run_serve(args, tracer, true); }

}  // namespace perfbench
