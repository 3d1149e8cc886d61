// Deterministic soak of the scheduling service: 8 tenants x 500 requests
// of mixed workloads (independent instances of varying size, tiled
// Cholesky DAGs, faulty runs, all four backends) pushed through the
// concurrent driver. The checks are the service's whole contract at once:
// request/response pairing (every ticket answered exactly once by its own
// response), per-tenant counter totals, the zero-silent-drop accounting
// identity, graceful drain, and — on a verified subset — the bitwise
// differential against the direct engine call.
//
// ServeSoak.* runs in the `serve`-labeled aggregate (TSan CI included);
// CI's quick path is the `serve_smoke` CLI test, not a reduced soak.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "dag/ranking.hpp"
#include "fault/fault_plan.hpp"
#include "linalg/cholesky.hpp"
#include "model/generators.hpp"
#include "serve/driver.hpp"
#include "util/rng.hpp"

namespace hp::serve {
namespace {

constexpr int kTenants = 8;
constexpr int kRequestsPerTenant = 500;

/// Mixed-workload factory, deterministic in (client, index): mostly small
/// independent instances, every 7th a Cholesky DAG, every 9th carrying a
/// generated fault plan.
Request make_soak_request(int client, int index) {
  util::Rng rng(util::seed_from_cell({static_cast<std::uint64_t>(client),
                                      static_cast<std::uint64_t>(index)},
                                     0x736f616bULL));  // "soak"
  Request request;
  request.tenant = client;
  switch (index % 4) {
    case 0: request.backend = Backend::kHp; break;
    case 1: request.backend = Backend::kHeft; break;
    case 2: request.backend = Backend::kHpNoSpol; break;
    default: request.backend = Backend::kDualHp; break;
  }
  request.platform = Platform(2 + client % 3, 1 + client % 2);

  if (index % 7 == 0) {
    TaskGraph graph = cholesky_dag(3 + index % 3);
    graph.finalize();
    assign_priorities(graph, RankScheme::kMin);
    request.graph = std::move(graph);
    request.rank = RankScheme::kMin;
  } else {
    UniformGenParams params;
    params.num_tasks = 10 + rng.bounded(30);
    const Instance inst = uniform_instance(params, rng);
    TaskGraph graph("soak-" + std::to_string(client) + "-" +
                    std::to_string(index));
    for (const Task& t : inst.tasks()) {
      Task task = t;
      task.priority = rng.uniform(0.0, 16.0);
      graph.add_task(task);
    }
    graph.finalize();
    request.graph = std::move(graph);
  }

  if (index % 9 == 0) {
    fault::FaultSpec spec;
    spec.crashes = 1;
    spec.task_fail_prob = 0.05;
    spec.max_attempts = 3;
    spec.horizon = 64.0;
    spec.seed = rng();
    request.faults = fault::FaultPlan::generate(spec, request.platform);
  }
  return request;
}

TEST(ServeSoak, EightTenantsFiveHundredRequestsEach) {
  DriverOptions options;
  options.clients = kTenants;
  options.requests_per_client = kRequestsPerTenant;
  options.service.workers = 3;
  // Verifying all 4000 differentials would re-run every request serially;
  // the fuzz `serve` property owns the exhaustive bitwise check. The soak
  // checks pairing + accounting at scale.
  options.verify = false;

  const DriverReport report = run_driver(make_soak_request, options);
  EXPECT_TRUE(report.ok()) << report.first_error;
  EXPECT_TRUE(report.balanced);
  EXPECT_TRUE(report.paired);
  EXPECT_EQ(report.responses,
            static_cast<std::uint64_t>(kTenants) * kRequestsPerTenant);
  EXPECT_EQ(report.accounting.completed, report.responses)
      << "no admission pressure configured, everything must complete";
  EXPECT_EQ(report.accounting.rejected, 0u);
  EXPECT_EQ(report.accounting.in_flight, 0u);

  // Per-tenant isolation: each tenant's counters account for exactly its
  // own 500 requests.
  ASSERT_EQ(report.tenants.size(), static_cast<std::size_t>(kTenants));
  for (const DriverTenantReport& t : report.tenants) {
    EXPECT_EQ(t.submitted, static_cast<std::uint64_t>(kRequestsPerTenant))
        << "tenant " << t.tenant;
    EXPECT_EQ(t.completed, static_cast<std::uint64_t>(kRequestsPerTenant))
        << "tenant " << t.tenant;
    EXPECT_EQ(t.rejected, 0u) << "tenant " << t.tenant;
    EXPECT_GT(t.p50_latency_seconds, 0.0) << "tenant " << t.tenant;
    EXPECT_LE(t.p50_latency_seconds, t.p99_latency_seconds)
        << "tenant " << t.tenant;
  }
  EXPECT_GT(report.requests_per_sec, 0.0);
}

// The same soak under admission pressure with the defer policy: a shallow
// watermark parks bursts, but deferral never loses work — every request
// still completes, and the hysteresis actually cycled.
TEST(ServeSoak, DeferredSoakCompletesEverything) {
  DriverOptions options;
  options.clients = kTenants;
  options.requests_per_client = 120;
  options.service.workers = 2;
  options.service.watermark_high = 4;
  options.service.watermark_low = 2;
  options.service.shed_policy = online::ShedPolicy::kDefer;
  // Verify the bitwise differential on this smaller run: admission
  // pressure and parking must not change a single placement.
  options.verify = true;

  const DriverReport report = run_driver(make_soak_request, options);
  EXPECT_TRUE(report.ok()) << report.first_error;
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.accounting.completed,
            static_cast<std::uint64_t>(kTenants) * 120);
  EXPECT_EQ(report.accounting.rejected, 0u)
      << "the defer policy must never reject";
  EXPECT_GT(report.accounting.deferred, 0u)
      << "the watermark never tripped: the soak is not exercising parking";
}

// And with the reject policy: whatever is shed is answered, counted, and
// the remainder completes — completed + rejected covers every submission.
TEST(ServeSoak, RejectingSoakAccountsForEveryRequest) {
  DriverOptions options;
  options.clients = kTenants;
  options.requests_per_client = 120;
  options.service.workers = 2;
  options.service.watermark_high = 4;
  options.service.shed_policy = online::ShedPolicy::kReject;
  options.verify = false;

  const DriverReport report = run_driver(make_soak_request, options);
  EXPECT_TRUE(report.ok()) << report.first_error;
  EXPECT_EQ(report.accounting.completed + report.accounting.rejected,
            static_cast<std::uint64_t>(kTenants) * 120);
  EXPECT_EQ(report.responses,
            static_cast<std::uint64_t>(kTenants) * 120)
      << "every submission gets a response, shed ones included";
}

}  // namespace
}  // namespace hp::serve
