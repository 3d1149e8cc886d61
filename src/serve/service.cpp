#include "serve/service.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

namespace hp::serve {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

/// One submitted request in service custody: the request itself, the
/// promise its ticket resolves, and the enqueue timestamp the latency
/// histogram is fed from. Owned by exactly one stage at a time (intake
/// queue, parked deque, or the worker executing it), which is what makes
/// "no request lost or double-served" a structural property.
struct PendingRequest {
  explicit PendingRequest(Request r) : request(std::move(r)) {}

  Request request;
  std::promise<Response> promise;
  std::uint64_t id = 0;
  Clock::time_point submit_time;
};

const char* admission_name(Admission admission) noexcept {
  switch (admission) {
    case Admission::kAccepted: return "accepted";
    case Admission::kDeferred: return "deferred";
    case Admission::kRejected: return "rejected";
  }
  return "?";
}

Service::Service(const ServiceOptions& options) : options_(options) {
  options_.workers = std::max(1, options_.workers);
  if (options_.watermark_high > 0 && options_.watermark_low == 0) {
    options_.watermark_low = options_.watermark_high / 2;
  }
  worker_metrics_.resize(static_cast<std::size_t>(options_.workers));
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

Service::~Service() { drain(); }

Service::Ticket Service::submit(Request request, int /*client_slot*/) {
  auto* pending = new PendingRequest(std::move(request));
  pending->submit_time = Clock::now();

  Ticket ticket;
  ticket.response = pending->promise.get_future();

  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    pending->id = next_id_++;
    ticket.id = pending->id;
    ++acct_.submitted;
    TenantCounters& tenant = tenant_counts_[pending->request.tenant];
    ++tenant.submitted;
    if (draining_) {
      ticket.admission = Admission::kRejected;
    } else if (options_.watermark_high > 0) {
      if (!shedding_ && queue_.size() >= options_.watermark_high) {
        shedding_ = true;
        ++acct_.shed_mode_changes;
      }
      ticket.admission =
          !shedding_ ? Admission::kAccepted
          : options_.shed_policy == online::ShedPolicy::kReject
              ? Admission::kRejected
              : Admission::kDeferred;
    }
    switch (ticket.admission) {
      case Admission::kRejected:
        ++acct_.rejected;
        ++tenant.rejected;
        break;
      case Admission::kDeferred:
        ++acct_.accepted;
        ++acct_.in_flight;
        ++acct_.deferred;
        ++tenant.accepted;
        ++tenant.deferred;
        parked_.push_back(pending);
        break;
      case Admission::kAccepted:
        ++acct_.accepted;
        ++acct_.in_flight;
        ++tenant.accepted;
        queue_.push_back(pending);
        break;
    }
  }

  // `pending` belongs to the service once queued or parked; only a
  // rejection is still ours to answer.
  if (ticket.admission == Admission::kRejected) {
    reject_request(pending);
  } else if (ticket.admission == Admission::kAccepted) {
    work_ready_.notify_one();
  }
  return ticket;
}

void Service::reject_request(PendingRequest* pending) {
  Response response;
  response.id = pending->id;
  response.tenant = pending->request.tenant;
  response.status = ResponseStatus::kRejected;
  response.latency_seconds =
      std::chrono::duration<double>(Clock::now() - pending->submit_time)
          .count();
  pending->promise.set_value(std::move(response));
  delete pending;
}

void Service::finish_request(PendingRequest* pending, int worker_index) {
  Response response = execute_request(pending->request);
  response.id = pending->id;
  response.served_by = worker_index;
  response.latency_seconds =
      std::chrono::duration<double>(Clock::now() - pending->submit_time)
          .count();

  obs::MetricsRegistry& tm =
      worker_metrics_[static_cast<std::size_t>(worker_index)]
                     [pending->request.tenant];
  tm.counter("serve_requests_completed") += 1.0;
  tm.counter("serve_tasks_scheduled") +=
      static_cast<double>(pending->request.graph.size());
  tm.histogram("serve_latency_seconds").record(response.latency_seconds);

  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ++acct_.completed;
    --acct_.in_flight;
    ++tenant_counts_[pending->request.tenant].completed;
  }
  pending->promise.set_value(std::move(response));
  delete pending;
}

bool Service::update_shedding_locked() {
  if (options_.watermark_high > 0) {
    if (!shedding_ && queue_.size() >= options_.watermark_high) {
      shedding_ = true;
      ++acct_.shed_mode_changes;
    }
    if (shedding_ && queue_.size() <= options_.watermark_low) {
      shedding_ = false;
      ++acct_.shed_mode_changes;
    }
  }
  // Re-admit parked requests while below the high watermark (drain
  // force-admits regardless — graceful shutdown completes what it holds).
  // Workers call this at every pop, which is enough: requests park only
  // while shedding, shedding implies a non-empty queue, and the pop that
  // clears shedding runs this loop.
  bool moved = false;
  while (!parked_.empty() &&
         (draining_ || (!shedding_ && (options_.watermark_high == 0 ||
                                       queue_.size() <
                                           options_.watermark_high)))) {
    queue_.push_back(parked_.front());
    parked_.pop_front();
    moved = true;
    if (options_.watermark_high > 0 && !draining_ &&
        queue_.size() >= options_.watermark_high) {
      shedding_ = true;
      ++acct_.shed_mode_changes;
      break;
    }
  }
  return moved;
}

void Service::worker_main(int worker_index) {
  for (;;) {
    PendingRequest* pending = nullptr;
    bool readmitted = false;
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      work_ready_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining, and nothing left to serve
      pending = queue_.front();
      queue_.pop_front();
      readmitted = update_shedding_locked();
    }
    if (readmitted) work_ready_.notify_all();
    finish_request(pending, worker_index);
  }
}

void Service::drain() {
  // Serializes concurrent drain() callers (the joins must run exactly
  // once); state_mutex_ stays the inner lock.
  const std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (draining_ && workers_.empty()) return;  // already drained
    draining_ = true;
    update_shedding_locked();  // force-admits the whole park
  }
  // Workers finish the queue, then see draining_ with nothing left.
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  assert(accounting().balanced());
  assert(accounting().in_flight == 0);
}

bool Service::draining() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return draining_;
}

Service::Accounting Service::accounting() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return acct_;
}

std::vector<int> Service::tenants() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  std::vector<int> out;
  out.reserve(tenant_counts_.size());
  for (const auto& [tenant, counts] : tenant_counts_) out.push_back(tenant);
  return out;
}

obs::MetricsRegistry Service::tenant_metrics(int tenant) const {
  obs::MetricsRegistry merged;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    const auto it = tenant_counts_.find(tenant);
    if (it != tenant_counts_.end()) {
      merged.counter("serve_requests_submitted") =
          static_cast<double>(it->second.submitted);
      merged.counter("serve_requests_accepted") =
          static_cast<double>(it->second.accepted);
      merged.counter("serve_requests_rejected") =
          static_cast<double>(it->second.rejected);
      merged.counter("serve_requests_deferred") =
          static_cast<double>(it->second.deferred);
    }
  }
  // Worker registries are single-writer and unlocked; exact only while
  // the workers are idle (see the header contract).
  for (const TenantRegistries& registries : worker_metrics_) {
    const auto it = registries.find(tenant);
    if (it != registries.end()) merged.merge(it->second);
  }
  return merged;
}

}  // namespace hp::serve
