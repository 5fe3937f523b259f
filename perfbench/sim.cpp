// The simulator workloads.
//
//   sim_fleet  A pinned list of registered scenarios at their registered
//              sizes x 8 seeds, swept with scenarios::run_sweep over a
//              4-worker sim::FleetRunner: many small serial executions, so
//              the fleet scheduler, per-instance setup and the fault plane
//              do the work and the parallel stepper does none.
//   sim_scale  The paper's protocols in their optimal regimes at large n
//              with RunOptions::threads = 4: few-crashes consensus at n=1e5,
//              t=n/(5 lg n); gossip and checkpointing at n=2048,
//              t=n/(5 lg^2 n); AB-consensus at n=4096, t=sqrt(n)/2. Few
//              large executions: the engine message plane and the parallel
//              stepper do the work, the fleet none.
//
// Both check every execution's invariant, check that repeated epochs give
// bit-identical Reports, and fold the scenarios::fingerprint of every Report
// into one digest. For the default seed the digest must equal the recorded
// value; other seeds print it.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "byzantine/ab_consensus.hpp"
#include "common/math.hpp"
#include "core/checkpointing.hpp"
#include "core/consensus.hpp"
#include "core/gossip.hpp"
#include "core/vector_consensus.hpp"
#include "graph/overlay.hpp"
#include "obs/obs.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/faults.hpp"
#include "sim/fleet.hpp"

namespace perfbench {
namespace {

using lft::NodeId;

// Recorded combined digests for kDefaultSeed (full and self-check sizes).
constexpr std::uint64_t kFleetDigest = 0x9824834ddba956a5ULL;
constexpr std::uint64_t kFleetDigestTiny = 0x53ca8b98e2872d60ULL;
constexpr std::uint64_t kScaleDigest = 0x523b0a7aec1997c9ULL;
constexpr std::uint64_t kScaleDigestTiny = 0x229db88e65ef7cc7ULL;

/// sim_fleet's scenarios, pinned by name so catalogue growth does not change
/// the workload. Every registered scenario except delay_parallel_flood: one
/// 4.3M-message execution that is ~45% of the catalogue's serial time would
/// turn this many-small-executions workload into a test of where 8 copies of
/// one large instance land; large message planes are sim_scale's job.
constexpr std::array<const char*, 49> kFleetScenarios = {
    "crash_burst_flood",        "crash_staggered_drip",     "crash_partial_sends",
    "crash_isolate_little",     "crash_probe_hubs",         "crash_gossip_window",
    "omission_send_quorum",     "omission_recv_blackout",   "omission_flood_window",
    "omission_gossip_mixed",    "partition_split_heal",     "partition_little_halves",
    "link_flaky_mesh",          "byz_silent_little",        "byz_equivocators",
    "byz_flooders",             "byz_midrun_takeover",      "mixed_crash_omission_split",
    "mixed_byz_crash_ab",       "checkpoint_crash_boundary", "checkpoint_omission_gossip",
    "delay_fixed_pipe",         "delay_uniform_jitter",     "delay_burst_window",
    "delay_per_link_mesh",      "delay_asym_halves",        "delay_horizon_edge",
    "delay_zero_noop",          "gst_early_stabilize",      "gst_late_stabilize",
    "gst_tight_delta",          "gst_wide_delta",           "gst_beyond_horizon",
    "gst_decide_boundary",      "early_decide_fastpath",    "early_decide_staggered",
    "early_decide_gst",         "delay_crash_burst",        "delay_crash_staggered",
    "delay_partition_overlap",  "delay_link_storm",         "delay_omission_mix",
    "gst_crash_compose",        "gst_partition_compose",    "gst_omission_compose",
    "delay_takeover_silence",   "gst_churn_everything",     "delay_gossip_window",
    "service_slot_commit",
};
constexpr int kFleetWorkers = 4;
constexpr int kScaleThreads = 4;

/// Checks a digest against the recorded one (default seed only).
void check_digest(const char* workload, std::uint64_t digest, std::uint64_t recorded,
                  const Args& args, Result& r) {
  std::printf("%s digest %016llx (seed %llu)\n", workload,
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(args.seed));
  if (args.seed == kDefaultSeed && digest != recorded) {
    r.fail(1, std::string(workload) + ": digest differs from the recorded value");
  }
}

/// Engine telemetry of the traced epochs, from the registries the runners
/// filled (RunOptions::telemetry / FleetConfig::telemetry).
void engine_layers(const lft::obs::Snapshot& s, double exec_s, double epochs, Result& r) {
  const auto counter = [&s](const char* name) {
    const auto* row = s.find_counter(name);
    return row == nullptr ? 0.0 : static_cast<double>(row->value);
  };
  const auto n_ep = static_cast<std::uint64_t>(epochs);
  const double delivered = counter("lft_engine_delivered_total");
  r.layers["engine.rounds"] = {counter("lft_engine_rounds_total") / epochs, n_ep};
  r.layers["engine.sent"] = {counter("lft_engine_sent_total") / epochs, n_ep};
  r.layers["engine.delivered"] = {delivered / epochs, n_ep};
  r.layers["engine.delayed"] = {counter("lft_engine_delayed_total") / epochs, n_ep};
  r.layers["engine.lost"] = {counter("lft_engine_lost_total") / epochs, n_ep};
  double step_s = 0.0;
  if (const auto* h = s.find_histogram("lft_engine_step_ns")) {
    step_s = static_cast<double>(h->data.sum()) / 1e9;
  }
  r.layers["engine.step_s"] = {step_s / epochs, n_ep};
  // Everything in an execution that is not stepping nodes: process and
  // engine construction, the fault plane, the delivery sweep, the verdict.
  r.layers["engine.other_s"] = {(exec_s - step_s) / epochs, n_ep};
  r.layers["engine.ns_per_delivered"] = {delivered > 0 ? exec_s * 1e9 / delivered : 0.0,
                                         static_cast<std::uint64_t>(delivered)};
  if (const auto* g = s.find_gauge("lft_engine_arena_bytes")) {
    r.layers["engine.arena_mb"] = {static_cast<double>(g->value) / 1e6, n_ep};
  }
  if (const auto* h = s.find_histogram("lft_engine_round_active")) {
    r.layers["engine.active_mean"] = {h->data.mean(), h->data.count()};
  }
}

// ---- sim_fleet ---------------------------------------------------------------

std::uint64_t fold_digest(const std::vector<std::uint64_t>& fingerprints) {
  std::uint64_t h = 0x6c66742d666c6565ULL;
  for (const std::uint64_t f : fingerprints) h = mix64(h, f);
  return h;
}

}  // namespace

Result run_sim_fleet(const Args& args, Tracer* tracer) {
  Result r;
  const int seed_count = args.tiny ? 1 : 8;
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < seed_count; ++i) {
    seeds.push_back(args.seed * static_cast<std::uint64_t>(seed_count) + 1 +
                    static_cast<std::uint64_t>(i));
  }
  std::vector<lft::scenarios::SweepItem> items;
  std::vector<const lft::scenarios::Scenario*> pinned;
  for (const char* name : kFleetScenarios) {
    const auto* sc = lft::scenarios::find_scenario(name);
    if (sc == nullptr) {
      r.fail(1, std::string("pinned scenario missing: ") + name);
      return r;
    }
    pinned.push_back(sc);
    const auto expanded = lft::scenarios::sweep(name, seeds);
    items.insert(items.end(), expanded.begin(), expanded.end());
  }

  // Setup: a cold overlay cache, the worker pool, and one serial warm-up
  // instance per pinned scenario. Repeated; the last pool is kept.
  std::vector<double> setup_s;
  std::unique_ptr<lft::sim::FleetRunner> fleet;
  for (int rep = 0; rep < (args.tiny ? 1 : 5); ++rep) {
    fleet.reset();
    lft::graph::clear_overlay_cache();
    const std::uint64_t t0 = now_ns();
    fleet = std::make_unique<lft::sim::FleetRunner>(
        lft::sim::FleetConfig{kFleetWorkers, /*reuse_scratch=*/true, /*telemetry=*/false});
    for (const auto* sc : pinned) {
      if (!sc->run_at(seeds[0], sc->n, sc->t, {}).ok) r.fail(1, sc->name + ": warm-up failed");
    }
    setup_s.push_back(seconds_since(t0));
    if (tracer != nullptr) tracer->span("setup.fleet", t0, now_ns());
  }
  std::unique_ptr<lft::sim::FleetRunner> traced_fleet;
  if (tracer != nullptr) {
    traced_fleet = std::make_unique<lft::sim::FleetRunner>(
        lft::sim::FleetConfig{kFleetWorkers, /*reuse_scratch=*/true, /*telemetry=*/true});
  }

  std::vector<std::uint64_t> reference;  // per-item fingerprints of the first epoch
  std::vector<double> run_s, inst_per_s, p50_ms, p99_ms;
  std::vector<double> traced_run_s, traced_latency_ms;
  double busy_s = 0, idle_s = 0, sched_s = 0, tail_s = 0, capacity_s = 0;
  double measured = 0.0;
  for (int epoch = 0;; ++epoch) {
    const bool traced = tracer != nullptr && epoch % 2 == 1;
    const bool enough = measured >= args.seconds && !run_s.empty() &&
                        (tracer == nullptr || !traced_run_s.empty());
    if (enough || r.failed > 0) break;

    std::vector<std::uint64_t> fingerprints(items.size(), 0);
    std::vector<char> ok(items.size(), 0);
    std::vector<double> inst_ms(items.size(), 0.0);
    const std::uint64_t t0 = now_ns();
    if (!traced) {
      const auto outcomes = lft::scenarios::run_sweep(*fleet, items);
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        fingerprints[i] = outcomes[i].fingerprint;
        ok[i] = outcomes[i].ok ? 1 : 0;
        inst_ms[i] = outcomes[i].wall_ms;
      }
    } else {
      // A copy of run_sweep's job body (scenarios.cpp) with a span added:
      // run_sweep reports neither which worker ran a job nor when it started,
      // and the fleet.* books need both. Untraced epochs call run_sweep
      // itself, so trace.overhead_share here also holds the difference
      // between the copy and run_sweep (the copy skips the detail string and
      // the handle take()). Keep the two bodies in step.
      const std::int64_t parent = tracer->open("fleet.epoch");
      std::vector<lft::sim::FleetRunner::Handle> handles;
      handles.reserve(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        handles.push_back(traced_fleet->submit(lft::sim::FleetJobObs(
            [&, i](lft::sim::EngineScratch* scratch, lft::obs::Registry* telemetry) {
              const std::uint64_t s0 = now_ns();
              lft::core::RunOptions options;
              options.scratch = scratch;
              options.telemetry = telemetry;
              const auto& item = items[i];
              auto result = item.scenario->run_at(item.seed, item.n, item.t, options);
              fingerprints[i] = lft::scenarios::fingerprint(result.report);
              ok[i] = result.ok ? 1 : 0;
              const std::uint64_t s1 = now_ns();
              inst_ms[i] = static_cast<double>(s1 - s0) / 1e6;
              tracer->span("fleet.job", s0, s1, parent);
              return std::move(result.report);
            })));
      }
      for (auto& h : handles) (void)h.wait();
      traced_fleet->wait_all();
      tracer->close(parent);

      // Per-worker books: busy inside jobs, idle before the first and after
      // the last job (no work left for it), the rest between jobs is the
      // scheduler's (queue, steal, completion).
      const std::uint64_t t1 = now_ns();
      struct Worker {
        double busy = 0;
        std::uint64_t first = 0, last = 0;
        bool any = false;
      };
      std::map<std::uint32_t, Worker> workers;
      for (const auto& span : tracer->spans()) {
        if (span.parent != parent) continue;
        Worker& w = workers[span.thread];
        w.busy += static_cast<double>(span.end_ns - span.start_ns) / 1e9;
        w.first = w.any ? std::min(w.first, span.start_ns) : span.start_ns;
        w.last = w.any ? std::max(w.last, span.end_ns) : span.end_ns;
        w.any = true;
      }
      const double wall = static_cast<double>(t1 - t0) / 1e9;
      const int pool = traced_fleet->threads();
      double first_idle = wall;
      for (const auto& [thread, w] : workers) {
        busy_s += w.busy;
        const double idle = static_cast<double>(w.first - t0) / 1e9 +
                            static_cast<double>(t1 - w.last) / 1e9;
        idle_s += idle;
        sched_s += static_cast<double>(w.last - w.first) / 1e9 - w.busy;
        first_idle = std::min(first_idle, static_cast<double>(t1 - w.last) / 1e9);
      }
      idle_s += wall * static_cast<double>(pool - static_cast<int>(workers.size()));
      if (static_cast<int>(workers.size()) < pool) first_idle = wall;
      tail_s += first_idle;
      capacity_s += wall * static_cast<double>(pool);
    }
    const double wall = seconds_since(t0);
    measured += wall;

    r.attempted += items.size();
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (ok[i] == 0) {
        r.fail(1, items[i].scenario->name + " seed " + std::to_string(items[i].seed) +
                      ": invariant failed");
      }
    }
    if (reference.empty()) {
      reference = fingerprints;
      check_digest("sim_fleet", fold_digest(fingerprints),
                   args.tiny ? kFleetDigestTiny : kFleetDigest, args, r);
    } else {
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (fingerprints[i] != reference[i]) {
          r.fail(1, items[i].scenario->name + ": Report differs between epochs");
        }
      }
    }
    if (traced) {
      traced_run_s.push_back(wall);
      traced_latency_ms.insert(traced_latency_ms.end(), inst_ms.begin(), inst_ms.end());
    } else {
      run_s.push_back(wall);
      inst_per_s.push_back(static_cast<double>(items.size()) / wall);
      p50_ms.push_back(percentile(inst_ms, 50.0));
      p99_ms.push_back(percentile(inst_ms, 99.0));
    }
    std::printf("  epoch %d%s: %.3f s, %.1f inst/s, p50 %.4f ms, p99 %.4f ms\n", epoch,
                traced ? " (traced)" : "", wall, static_cast<double>(items.size()) / wall,
                percentile(inst_ms, 50.0), percentile(inst_ms, 99.0));
  }

  const auto count = [](const std::vector<double>& v) {
    return static_cast<std::uint64_t>(v.size());
  };
  r.e2e["setup_s"] = {median(setup_s), count(setup_s)};
  r.e2e["req_per_s"] = {median(inst_per_s), count(inst_per_s)};
  r.e2e["inst_per_s"] = {median(inst_per_s), count(inst_per_s)};
  r.e2e["run_s"] = {median(run_s), count(run_s)};
  const std::uint64_t lat_n = run_s.size() * items.size();
  r.e2e["ack_p50_ms"] = {median(p50_ms), lat_n};
  r.e2e["ack_p99_ms"] = {median(p99_ms), lat_n};
  if (tracer == nullptr) return r;

  const double epochs = static_cast<double>(traced_run_s.size());
  const auto n_ep = static_cast<std::uint64_t>(epochs);
  engine_layers(traced_fleet->telemetry(), busy_s, epochs, r);
  r.layers["ledger.engine_residual_share"] = {1.0 - busy_s / capacity_s, n_ep};
  r.layers["fleet.busy_s"] = {busy_s / epochs, n_ep};
  r.layers["fleet.idle_share"] = {idle_s / capacity_s, n_ep};
  r.layers["ledger.fleet_residual_share"] = {sched_s / capacity_s, n_ep};
  r.layers["fleet.steals"] = {static_cast<double>(traced_fleet->stolen()) / epochs, n_ep};
  const auto adoptions = static_cast<double>(traced_fleet->scratch_adoptions());
  r.layers["fleet.scratch_recycle_share"] = {
      adoptions > 0 ? static_cast<double>(traced_fleet->scratch_recycles()) / adoptions : 0.0,
      static_cast<std::uint64_t>(adoptions)};
  const std::uint64_t traced_n = traced_latency_ms.size();
  r.layers["fleet.inst_p50_ms"] = {percentile(traced_latency_ms, 50.0), traced_n};
  r.layers["fleet.inst_max_ms"] = {percentile(traced_latency_ms, 100.0), traced_n};
  r.layers["fleet.tail_s"] = {tail_s / epochs, n_ep};
  r.layers["trace.overhead_share"] = {median(traced_run_s) / median(run_s) - 1.0, n_ep};
  return r;
}

// ---- sim_scale ---------------------------------------------------------------

namespace {

struct ScaleShape {
  NodeId consensus_n, gossip_n, ab_n;
};

/// One protocol execution of the set: its name, the invariant verdict and
/// the Report.
struct Execution {
  const char* protocol;
  NodeId n;
  bool ok;
  lft::sim::Report report;
};

}  // namespace

Result run_sim_scale(const Args& args, Tracer* tracer) {
  Result r;
  const ScaleShape shape = args.tiny ? ScaleShape{2000, 256, 256} : ScaleShape{100000, 2048, 4096};
  const auto lg = [](NodeId n) {
    return static_cast<std::int64_t>(lft::ceil_log2(static_cast<std::uint64_t>(n)));
  };
  const auto consensus =
      lft::core::ConsensusParams::practical(shape.consensus_n, shape.consensus_n /
                                                                   (5 * lg(shape.consensus_n)));
  const std::int64_t lg_g = lg(shape.gossip_n);
  const std::int64_t gossip_t = std::max<std::int64_t>(1, shape.gossip_n / (5 * lg_g * lg_g));
  const auto gossip = lft::core::GossipParams::practical(shape.gossip_n, gossip_t);
  const auto checkpoint = lft::core::CheckpointParams::practical(shape.gossip_n, gossip_t);
  const auto ab_t = static_cast<std::int64_t>(std::sqrt(static_cast<double>(shape.ab_n)) / 2);
  const auto ab = lft::byzantine::AbParams::practical(shape.ab_n, ab_t);

  // Seeded inputs, built once: the same execution set runs every epoch.
  std::vector<int> consensus_inputs(static_cast<std::size_t>(consensus.n));
  for (std::size_t v = 0; v < consensus_inputs.size(); ++v) {
    consensus_inputs[v] = static_cast<int>(mix64(args.seed ^ 0xc0, v) & 1);
  }
  std::vector<std::uint64_t> rumors(static_cast<std::size_t>(gossip.n));
  for (std::size_t v = 0; v < rumors.size(); ++v) rumors[v] = mix64(args.seed ^ 0x90, v);
  std::vector<std::uint64_t> ab_inputs(static_cast<std::size_t>(ab.n));
  for (std::size_t v = 0; v < ab_inputs.size(); ++v) ab_inputs[v] = mix64(args.seed ^ 0xab, v) & 1;
  lft::sim::FaultPlan ab_plan;
  ab_plan.with_seed(args.seed);
  {
    std::vector<NodeId> nodes(static_cast<std::size_t>(ab.n));
    for (NodeId v = 0; v < ab.n; ++v) nodes[static_cast<std::size_t>(v)] = v;
    for (std::int64_t i = 0; i < ab.t; ++i) {  // seeded partial Fisher-Yates
      const auto j = static_cast<std::size_t>(
          i + static_cast<std::int64_t>(mix64(args.seed ^ 0xb2, static_cast<std::uint64_t>(i)) %
                                        static_cast<std::uint64_t>(ab.n - i)));
      std::swap(nodes[static_cast<std::size_t>(i)], nodes[j]);
      ab_plan.takeover(nodes[static_cast<std::size_t>(i)], 0, i % 2 == 0 ? "silent" : "equivocate");
    }
  }

  // Setup: every protocol's shared overlays built cold through its public
  // builder. Repeated; the median rep is reported.
  std::vector<double> setup_s;
  std::array<std::vector<double>, 4> builder_s;
  for (int rep = 0; rep < (args.tiny ? 1 : 3); ++rep) {
    lft::graph::clear_overlay_cache();
    std::array<std::uint64_t, 5> t{};
    t[0] = now_ns();
    (void)lft::core::make_few_crashes_process(consensus, 0, consensus_inputs[0]);
    t[1] = now_ns();
    (void)lft::core::GossipConfig::build(gossip);
    t[2] = now_ns();
    (void)lft::core::GossipConfig::build(checkpoint.gossip);
    (void)lft::core::VectorConsensusConfig::build(checkpoint.consensus);
    t[3] = now_ns();
    (void)lft::byzantine::AbConfig::build(ab);
    t[4] = now_ns();
    static const char* kBuilders[] = {"setup.consensus", "setup.gossip", "setup.checkpoint",
                                      "setup.ab"};
    for (std::size_t b = 0; b < 4; ++b) {
      builder_s[b].push_back(static_cast<double>(t[b + 1] - t[b]) / 1e9);
      if (tracer != nullptr) tracer->span(kBuilders[b], t[b], t[b + 1]);
    }
    setup_s.push_back(static_cast<double>(t[4] - t[0]) / 1e9);
  }

  lft::obs::Registry registry;  // engine telemetry of the traced epochs
  std::vector<std::uint64_t> reference;
  std::vector<Execution> first_set;
  std::vector<double> run_s, traced_run_s;
  double traced_exec_s = 0.0;
  double measured = 0.0;
  // Epoch -1 warms up and is checked but not timed: the first passes after
  // the set-up's cold overlay builds ran up to 1.8x slower than the rest.
  for (int epoch = -1;; ++epoch) {
    const bool warm_up = epoch < 0;
    const bool traced = tracer != nullptr && epoch % 2 == 1;
    const bool enough = measured >= args.seconds && !run_s.empty() &&
                        (tracer == nullptr || !traced_run_s.empty());
    if (enough || r.failed > 0) break;

    lft::core::RunOptions options;
    options.threads = kScaleThreads;
    options.telemetry = traced ? &registry : nullptr;
    const std::int64_t parent = traced ? tracer->open("scale.epoch") : -1;
    std::vector<Execution> set;
    std::vector<double> walls;
    const std::uint64_t t0 = now_ns();
    // `run` returns the invariant verdict and the Report.
    const auto timed = [&](const char* protocol, NodeId n, auto&& run) {
      const std::uint64_t s0 = now_ns();
      auto [ok, report] = run();
      const std::uint64_t s1 = now_ns();
      walls.push_back(static_cast<double>(s1 - s0) / 1e6);
      if (traced) tracer->span(std::string("scale.") + protocol, s0, s1, parent);
      set.push_back(Execution{protocol, n, ok, std::move(report)});
    };
    timed("consensus", consensus.n, [&] {
      auto report = lft::core::run_system(
          consensus.n, consensus.t,
          [&](NodeId v) {
            return lft::core::make_few_crashes_process(
                consensus, v, consensus_inputs[static_cast<std::size_t>(v)]);
          },
          lft::sim::make_scheduled(lft::sim::random_crash_schedule(
              consensus.n, consensus.t, 0, 5 * consensus.t + 10, 0.0, args.seed)),
          options);
      auto outcome = lft::core::evaluate_consensus(std::move(report), consensus_inputs);
      return std::pair{outcome.all_good(), std::move(outcome.report)};
    });
    timed("gossip", gossip.n, [&] {
      auto outcome = lft::core::run_gossip(
          gossip, rumors,
          lft::sim::make_scheduled(lft::sim::random_crash_schedule(
              gossip.n, gossip.t, 0, 4 * gossip.t + 20, 0.0, args.seed ^ 0x90)),
          options);
      return std::pair{outcome.all_good(), std::move(outcome.report)};
    });
    timed("checkpoint", checkpoint.consensus.n, [&] {
      auto outcome = lft::core::run_checkpointing(
          checkpoint,
          lft::sim::make_scheduled(lft::sim::random_crash_schedule(
              checkpoint.consensus.n, checkpoint.consensus.t, 0,
              4 * checkpoint.consensus.t + 20, 0.0, args.seed ^ 0xc4)),
          options);
      return std::pair{outcome.all_good(), std::move(outcome.report)};
    });
    timed("ab", ab.n, [&] {
      auto outcome = lft::byzantine::run_ab_consensus_plan(ab, ab_inputs, ab_plan, options);
      return std::pair{outcome.termination && outcome.agreement, std::move(outcome.report)};
    });
    const double wall = seconds_since(t0);
    if (traced) tracer->close(parent);
    if (!warm_up) measured += wall;

    std::vector<std::uint64_t> fingerprints;
    r.attempted += set.size();
    for (const auto& e : set) {
      fingerprints.push_back(lft::scenarios::fingerprint(e.report));
      if (!e.ok) r.fail(1, std::string(e.protocol) + ": invariant failed");
    }
    if (reference.empty()) {
      reference = fingerprints;
      check_digest("sim_scale", fold_digest(fingerprints),
                   args.tiny ? kScaleDigestTiny : kScaleDigest, args, r);
      first_set = std::move(set);
    } else if (fingerprints != reference) {
      r.fail(1, "sim_scale: Reports differ between epochs");
    }
    if (traced) {
      traced_run_s.push_back(wall);
      for (const double w : walls) traced_exec_s += w / 1e3;
    } else if (!warm_up) {
      run_s.push_back(wall);
    }
    std::printf("  epoch %d%s: %.3f s (consensus %.1f, gossip %.1f, checkpoint %.1f, ab %.1f ms)\n",
                epoch, traced ? " (traced)" : warm_up ? " (warm-up)" : "", wall, walls[0], walls[1], walls[2], walls[3]);
  }

  const auto count = [](const std::vector<double>& v) {
    return static_cast<std::uint64_t>(v.size());
  };
  // The operation is one pass over the execution set: its four protocols
  // differ ~5x in wall time, so a percentile over single executions would
  // land on whichever protocol's cluster sits at the rank.
  const double executions = first_set.empty() ? 0.0 : static_cast<double>(first_set.size());
  std::vector<double> sets_per_s, exec_per_s, set_ms;
  for (const double w : run_s) {
    sets_per_s.push_back(1.0 / w);
    exec_per_s.push_back(executions / w);
    set_ms.push_back(w * 1e3);
  }
  r.e2e["setup_s"] = {median(setup_s), count(setup_s)};
  r.e2e["req_per_s"] = {median(sets_per_s), count(sets_per_s)};
  r.e2e["inst_per_s"] = {median(exec_per_s), count(exec_per_s)};
  r.e2e["run_s"] = {median(run_s), count(run_s)};
  r.e2e["ack_p50_ms"] = {percentile(set_ms, 50.0), count(set_ms)};
  r.e2e["ack_p99_ms"] = {percentile(set_ms, 99.0), count(set_ms)};
  if (tracer == nullptr) return r;

  const double epochs = static_cast<double>(traced_run_s.size());
  const auto n_ep = static_cast<std::uint64_t>(epochs);
  engine_layers(registry.snapshot(), traced_exec_s, epochs, r);
  double traced_wall = 0.0;
  for (const double w : traced_run_s) traced_wall += w;
  r.layers["ledger.engine_residual_share"] = {1.0 - traced_exec_s / traced_wall, n_ep};
  static const char* kSetupNames[] = {"setup.consensus_s", "setup.gossip_s",
                                      "setup.checkpoint_s", "setup.ab_s"};
  for (std::size_t b = 0; b < 4; ++b) {
    r.layers[kSetupNames[b]] = {median(builder_s[b]), count(builder_s[b])};
  }
  for (const auto& e : first_set) {
    const std::string p = std::string("proto.") + e.protocol;
    const auto n = static_cast<double>(e.n);
    r.layers[p + ".rounds"] = {static_cast<double>(e.report.rounds), 1};
    r.layers[p + ".msgs_per_n"] = {static_cast<double>(e.report.metrics.messages_total) / n, 1};
    r.layers[p + ".bits_per_n"] = {static_cast<double>(e.report.metrics.bits_total) / n, 1};
  }
  r.layers["trace.overhead_share"] = {median(traced_run_s) / median(run_s) - 1.0, n_ep};
  return r;
}

}  // namespace perfbench
