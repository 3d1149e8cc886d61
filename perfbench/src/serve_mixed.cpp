// Workload `serve-mixed`: the multi-tenant service in a closed loop. One
// generator thread keeps two requests outstanding on a serve::Service with
// default options, cycling a seeded pool of 64 HeteroPrio requests that
// alternate independent 1,024-task uniform instances and Cholesky N=12
// DAGs (364 tasks, lognormal duration noise). One op is one request round
// trip as the client sees it: copy + submit until the reply is observed.
//
// Only the parts of the serve API a simpler service would keep are used:
// ServiceOptions::workers (left at its default), submit, drain and
// accounting.

#include <algorithm>
#include <array>
#include <chrono>
#include <future>
#include <limits>
#include <memory>
#include <sched.h>
#include <stdexcept>
#include <string>

#include "bounds/area_bound.hpp"
#include "bounds/dag_lower_bound.hpp"
#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "model/generators.hpp"
#include "obs/profile.hpp"
#include "sched/validate.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace serve = hp::serve;

constexpr std::size_t kPool = 64;
constexpr std::size_t kIndepTasks = 1024;
constexpr int kDagTiles = 12;
constexpr double kNoiseSigma = 0.1;
constexpr int kGenerators = 1;  ///< client threads, the one running this code
constexpr int kSetupReps = 31;  ///< about 60 ms each, spread over the run
constexpr std::uint64_t kSalt = 0x73726d78ULL;  // "srmx"

struct PoolEntry {
  serve::Request request;
  serve::Response direct;  ///< execute_request on the same request
  double lower_bound = 0.0;
  bool dag = false;
};

serve::Request make_request(std::uint64_t seed, std::size_t index,
                            const hp::Platform& platform) {
  // The seed is mixed in before the index: seed_from_cell({seed, index})
  // maps some (seed, index) pairs of nearby seeds onto one stream, so two
  // seeds could share most of a pool.
  hp::util::Rng rng(
      hp::util::seed_from_cell({index}, hp::util::seed_from_cell({seed}, kSalt)));
  serve::Request request;
  request.tenant = static_cast<int>(index % 4);
  request.backend = serve::Backend::kHp;
  request.rank = hp::RankScheme::kMin;
  request.platform = platform;
  if (index % 2 == 0) {
    hp::UniformGenParams params;
    params.num_tasks = kIndepTasks;
    const hp::Instance instance = hp::uniform_instance(params, rng);
    hp::TaskGraph graph("indep-" + std::to_string(index));
    for (const hp::Task& task : instance.tasks()) graph.add_task(task);
    graph.finalize();
    request.graph = std::move(graph);
  } else {
    request.graph = hp::cholesky_dag(kDagTiles);
    apply_duration_noise(request.graph, rng, kNoiseSigma);
    hp::assign_priorities(request.graph, hp::RankScheme::kMin);
  }
  return request;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// One outstanding request of the closed loop.
struct InFlight {
  std::future<serve::Response> response;
  std::size_t index = 0;  ///< pool entry
  std::uint64_t op = 0;
  Nanos start = 0;      ///< before the request copy
  Nanos copied = 0;     ///< copy done; the service clock starts about here
  Nanos submitted = 0;  ///< submit() returned
  bool live = false;
};

}  // namespace

WorkloadResult run_serve_mixed(const RunConfig& config) {
  const hp::Platform platform = paper_platform();
  const serve::ServiceOptions service_options;
  if (kGenerators + service_options.workers > usable_cpus()) {
    throw std::runtime_error(
        "serve-mixed needs " +
        std::to_string(kGenerators + service_options.workers) +
        " CPUs (generator + service workers), the process may use " +
        std::to_string(usable_cpus()));
  }
  WorkloadResult result;
  result.fastest_ms.assign(kPool, std::numeric_limits<double>::infinity());

  // Set-up: generate the pool, bound and run every request directly, start
  // the service and send every request through it once, verifying each
  // reply against the direct run. A repetition first drains and retires
  // the previous service; its direct runs must match the first set-up's.
  std::vector<double> generate_ms;
  std::vector<PoolEntry> pool;
  std::vector<double> first_makespans;
  std::unique_ptr<serve::Service> service;
  double area_lb_ms = 0.0;
  double dag_lb_ms = 0.0;
  double check_ms = 0.0;
  double verified = 0.0;
  double rejected = 0.0;
  int setups = 0;
  auto retire_service = [&]() {
    service->drain();
    const serve::Service::Accounting acct = service->accounting();
    rejected += static_cast<double>(acct.rejected);
    if (!acct.balanced() || acct.rejected != 0 || acct.in_flight != 0 ||
        acct.completed != acct.submitted) {
      result.fail("accounting at drain: submitted " +
                  std::to_string(acct.submitted) + ", completed " +
                  std::to_string(acct.completed) + ", rejected " +
                  std::to_string(acct.rejected));
    }
    service.reset();
  };
  auto set_up = [&]() -> bool {
    if (service) retire_service();
    pool.clear();
    area_lb_ms = dag_lb_ms = check_ms = verified = 0.0;
    const Nanos t0 = now_ns();
    for (std::size_t i = 0; i < kPool; ++i) {
      pool.push_back({make_request(config.seed, i, platform), {}, 0.0, i % 2 == 1});
    }
    generate_ms.push_back(ms_between(t0, now_ns()));
    for (PoolEntry& entry : pool) {
      const Nanos b0 = now_ns();
      entry.lower_bound =
          entry.dag ? hp::dag_lower_bound(entry.request.graph, platform).value()
                    : hp::opt_lower_bound(entry.request.graph.tasks(), platform);
      (entry.dag ? dag_lb_ms : area_lb_ms) += ms_between(b0, now_ns());
      entry.direct = serve::execute_request(entry.request);
      const Nanos c0 = now_ns();
      const hp::ScheduleCheck check =
          hp::check_schedule(entry.direct.schedule, entry.request.graph, platform);
      check_ms += ms_between(c0, now_ns());
      if (!check.ok) result.fail("direct run: invalid schedule: " + check.message);
    }
    if (setups == 0) {
      for (const PoolEntry& entry : pool) first_makespans.push_back(entry.direct.makespan);
    }
    for (std::size_t i = 0; i < kPool; ++i) {
      if (!same_bits(pool[i].direct.makespan, first_makespans[i])) {
        result.fail("set-up " + std::to_string(setups) + ": direct run of request " +
                    std::to_string(i) + " differs from the first set-up's");
      }
    }
    service = std::make_unique<serve::Service>(service_options);
    std::vector<serve::Service::Ticket> tickets;
    for (const PoolEntry& entry : pool) {
      tickets.push_back(service->submit(serve::Request(entry.request), 0));
    }
    for (std::size_t i = 0; i < kPool; ++i) {
      const serve::Response reply = tickets[i].response.get();
      std::string why = "rejected";
      ++result.attempted;
      if (reply.status == serve::ResponseStatus::kCompleted &&
          serve::identical_schedules(reply.schedule, pool[i].direct.schedule,
                                     &why)) {
        verified += 1.0;
      } else {
        result.fail("warm-up request " + std::to_string(i) + ": " + why);
      }
    }
    result.setup_s.push_back(ms_between(t0, now_ns()) * 1e-3);
    ++setups;
    return verified == static_cast<double>(kPool);
  };
  set_up();

  double ratio_sum = 0.0;
  double spoliations = 0.0;
  for (const PoolEntry& entry : pool) {
    ratio_sum += entry.direct.makespan / entry.lower_bound;
    spoliations += static_cast<double>(entry.direct.schedule.spoliation_count());
  }
  result.makespan_ratio = ratio_sum / static_cast<double>(kPool);
  result.exact_counts = {{"core.spoliations", spoliations},
                         {"serve.completed", verified}};

  // Traced run only: each request's engine time measured directly, and the
  // engine phases from a collector on direct runs of the same pool.
  std::vector<double> exec_ms(kPool, 0.0);
  hp::obs::MetricsCollector collector;
  if (config.trace) {
    constexpr int kPasses = 5;
    std::vector<std::vector<double>> per_entry(kPool);
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t i = 0; i < kPool; ++i) {
        const Nanos e0 = now_ns();
        (void)serve::execute_request(pool[i].request);
        per_entry[i].push_back(ms_between(e0, now_ns()));
      }
    }
    for (std::size_t i = 0; i < kPool; ++i) exec_ms[i] = median(per_entry[i]);
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const PoolEntry& entry : pool) {
        hp::HeteroPrioOptions options;
        options.metrics = &collector;
        (void)(entry.dag
                   ? hp::heteroprio_dag(entry.request.graph, platform, options)
                   : hp::heteroprio(entry.request.graph.tasks(), platform,
                                    options));
      }
    }
  }

  // Timed region: the closed loop.
  std::vector<double> submit_us, in_service_ms, wait_ms, reply_us;
  std::array<InFlight, 2> slots;
  std::size_t cursor = 0;
  std::uint64_t next_op = 0;
  TimedRegion region(config, kSetupReps);
  auto submit = [&](InFlight& slot) {
    slot.index = cursor;
    cursor = (cursor + 1) % kPool;
    slot.op = next_op++;
    slot.start = now_ns();
    serve::Request request(pool[slot.index].request);
    slot.copied = now_ns();
    serve::Service::Ticket ticket = service->submit(std::move(request), 0);
    slot.submitted = now_ns();
    slot.response = std::move(ticket.response);
    slot.live = true;
  };
  for (InFlight& slot : slots) submit(slot);
  for (bool any_live = true; any_live;) {
    any_live = false;
    for (InFlight& slot : slots) {
      if (!slot.live) continue;
      if (slot.response.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        any_live = true;
        continue;
      }
      const Nanos observed = now_ns();
      const serve::Response reply = slot.response.get();
      slot.live = false;
      ++result.attempted;
      const PoolEntry& entry = pool[slot.index];
      if (reply.status != serve::ResponseStatus::kCompleted ||
          !same_bits(reply.makespan, entry.direct.makespan) ||
          reply.schedule.num_tasks() != entry.request.graph.size() ||
          reply.schedule.spoliation_count() !=
              entry.direct.schedule.spoliation_count()) {
        result.fail("op " + std::to_string(slot.op) +
                    ": reply differs from the direct run");
      } else {
        result.validated_tasks += static_cast<double>(entry.request.graph.size());
        const double round_trip = ms_between(slot.start, observed);
        const bool traced = traced_op(config, slot.op);
        if (!traced) result.record_latency(config, slot.index, round_trip);
        if (config.trace) {
          const double in_service = reply.latency_seconds * 1e3;
          submit_us.push_back(ms_between(slot.start, slot.submitted) * 1e3);
          in_service_ms.push_back(in_service);
          wait_ms.push_back(in_service - exec_ms[slot.index]);
          reply_us.push_back((round_trip - in_service) * 1e3);
        }
        if (traced) {
          // Spans from the client's clock readings, the service's own
          // latency figure and the directly measured engine time: submit,
          // then waiting in the service, then the engine, then the reply.
          const Nanos served = slot.copied +
                               static_cast<Nanos>(reply.latency_seconds * 1e9);
          const Nanos engine_start = std::clamp(
              served - static_cast<Nanos>(exec_ms[slot.index] * 1e6),
              slot.submitted, observed);
          const Nanos engine_end = std::clamp(served, engine_start, observed);
          SpanRecorder& spans = result.spans;
          const std::int32_t root =
              spans.add("op", slot.start, observed, -1, slot.op);
          spans.add("serve.submit", slot.start, slot.submitted, root, slot.op);
          spans.add("serve.wait", slot.submitted, engine_start, root, slot.op);
          spans.add("core.engine", engine_start, engine_end, root, slot.op);
          spans.add("serve.reply", engine_end, observed, root, slot.op);
        }
      }
      if (region.running() && !region.setup_due(setups)) {
        submit(slot);
        any_live = true;
      }
    }
    // Both requests answered while the region runs: a set-up repetition is
    // due. Run it with nothing outstanding, then refill the loop.
    if (!any_live && region.running()) {
      region.pause();
      const bool ok = set_up();
      region.resume();
      if (ok) {
        for (InFlight& slot : slots) submit(slot);
        any_live = true;
      }
    }
  }
  region.finish(&result);
  retire_service();

  if (config.trace) {
    const double dags = static_cast<double>(kPool / 2);
    result.layer["model.generate_ms"] = median(generate_ms);
    result.layer["bounds.area_lb_ms"] = area_lb_ms / (kPool - dags);
    result.layer["bounds.dag_lb_ms"] = dag_lb_ms / dags;
    result.layer["sched.check_ms"] = check_ms / static_cast<double>(kPool);
    result.layer["serve.submit_us"] = median(submit_us);
    // Means, not medians: half the requests are DAGs and half independent
    // instances, so a median would sit between the two modes.
    result.layer["serve.in_service_ms"] = mean(in_service_ms);
    result.layer["serve.exec_ms"] = mean(exec_ms);
    result.layer["serve.wait_ms.p50"] = quantile(wait_ms, 0.5);
    result.layer["serve.wait_ms.p90"] = quantile(wait_ms, 0.9);
    result.layer["serve.reply_us"] = median(reply_us);
    result.layer["serve.rejected"] = rejected;
    add_engine_phases(collector, &result.layer);
  }
  return result;
}

}  // namespace perfbench
