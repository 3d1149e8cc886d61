#pragma once
// In-process load driver for the scheduling service: N client threads
// submitting M requests each (no sockets — the client threads play the
// transport). This is what `hp_sched serve`, the soak test and the
// BENCH_serve bench run; it owns the end-to-end assertions:
//
//  * zero silent drops — the service accounting identity balances and
//    every submission resolved exactly one response,
//  * request/response pairing — each response carries the id of the ticket
//    its submission returned and the submitting client's tenant,
//  * (with `verify`) the bitwise differential — every completed response's
//    schedule and recovery report equal a direct execute_request() of the
//    same request, regardless of worker or admission pressure.
//
// Workloads are pre-generated before the clock starts, so wall_seconds and
// requests_per_sec measure the service (queue + admission + engine), not
// the generator.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/service.hpp"

namespace hp::serve {

/// Builds the request client `client` submits as its `index`-th call.
/// Must be thread-safe for distinct clients (the driver pre-generates on
/// one thread, so pure functions are trivially fine).
using RequestFactory = std::function<Request(int client, int index)>;

struct DriverOptions {
  int clients = 4;               ///< client threads (tenants, typically)
  int requests_per_client = 50;
  ServiceOptions service;        ///< the service the clients submit to
  /// Re-run every completed request directly and require bitwise-identical
  /// schedules and recovery reports (costs one extra engine run each).
  bool verify = true;
};

struct DriverTenantReport {
  int tenant = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deferred = 0;
  double mean_latency_seconds = 0.0;
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
};

struct DriverReport {
  Service::Accounting accounting;
  bool balanced = false;   ///< the accounting identity held
  bool paired = false;     ///< every response matched its ticket id/tenant
  bool verified = false;   ///< bitwise differential passed (true if skipped)
  std::uint64_t responses = 0;  ///< futures resolved (must == submitted)
  double wall_seconds = 0.0;
  double requests_per_sec = 0.0;  ///< completed / wall_seconds
  double p50_latency_seconds = 0.0;  ///< across all tenants
  double p99_latency_seconds = 0.0;
  std::vector<DriverTenantReport> tenants;
  std::string first_error;  ///< first assertion failure, empty when ok

  [[nodiscard]] bool ok() const noexcept {
    return balanced && paired && verified && first_error.empty();
  }
};

[[nodiscard]] DriverReport run_driver(const RequestFactory& make_request,
                                      const DriverOptions& options);

}  // namespace hp::serve
