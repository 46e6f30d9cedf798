#include "stats/build_scheduler.h"

#include <algorithm>
#include <cstddef>
#include <utility>

namespace equihist {

BuildScheduler::BuildScheduler(const Options& options,
                               metrics::MetricsPlane* metrics)
    : max_inflight_(std::max<std::uint64_t>(options.max_inflight, 1)),
      metrics_(metrics),
      pool_(std::make_unique<ThreadPool>(max_inflight_ + 1)) {}

BuildScheduler::~BuildScheduler() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
    // Inflight builds must finish (their closures reference live shards);
    // a concurrent Pump() must fully exit before `this` goes away. Queued
    // requests are simply discarded.
    idle_cv_.Wait(mu_, [this]() REQUIRES(mu_) {
      return inflight_ == 0 && !pumping_;
    });
    for (ClassQueue& cq : classes_) {
      cq.table_turns.clear();
      cq.by_table.clear();
    }
    UpdateGaugesLocked();
  }
  pool_.reset();  // joins workers; no tasks remain by this point
}

void BuildScheduler::Enqueue(Request request) {
  {
    MutexLock lock(mu_);
    if (stopping_) return;
    ++enqueued_;
    if (metrics_ != nullptr) {
      metrics_->Increment(metrics::Counter::kSchedulerEnqueued);
    }
    if (TryCoalesceLocked(request)) {
      ++coalesced_;
      if (metrics_ != nullptr) {
        metrics_->Increment(metrics::Counter::kSchedulerCoalesced);
      }
    } else {
      InsertLocked(std::move(request));
    }
    UpdateGaugesLocked();
  }
  Pump();
}

void BuildScheduler::Pause() {
  MutexLock lock(mu_);
  paused_ = true;
}

void BuildScheduler::Resume() {
  {
    MutexLock lock(mu_);
    paused_ = false;
  }
  Pump();
}

void BuildScheduler::Drain() {
  MutexLock lock(mu_);
  idle_cv_.Wait(mu_, [this]() REQUIRES(mu_) {
    return QueueEmptyLocked() && inflight_ == 0;
  });
}

BuildScheduler::Counts BuildScheduler::counts() const {
  MutexLock lock(mu_);
  return Counts{enqueued_, coalesced_,      completed_,
                failed_,   QueuedLocked(),  inflight_};
}

std::vector<std::pair<std::string, Status>> BuildScheduler::TakeFailures() {
  MutexLock lock(mu_);
  std::vector<std::pair<std::string, Status>> out;
  out.swap(failures_);
  return out;
}

bool BuildScheduler::QueueEmptyLocked() const {
  for (const ClassQueue& cq : classes_) {
    if (!cq.by_table.empty()) return false;
  }
  return true;
}

std::uint64_t BuildScheduler::QueuedLocked() const {
  std::uint64_t n = 0;
  for (const ClassQueue& cq : classes_) {
    for (const auto& [table, dq] : cq.by_table) n += dq.size();
  }
  return n;
}

void BuildScheduler::InsertLocked(Request request) {
  ClassQueue& cq = classes_[ClassOf(request.health)];
  std::deque<Request>& dq = cq.by_table[request.table];
  if (dq.empty()) cq.table_turns.push_back(request.table);
  // Descending pressure, stable: equal pressure keeps arrival order.
  auto pos = std::find_if(dq.begin(), dq.end(), [&](const Request& queued) {
    return queued.pressure < request.pressure;
  });
  dq.insert(pos, std::move(request));
}

bool BuildScheduler::TryCoalesceLocked(Request& request) {
  for (ClassQueue& cq : classes_) {
    auto it = cq.by_table.find(request.table);
    if (it == cq.by_table.end()) continue;
    std::deque<Request>& dq = it->second;
    auto pos = std::find_if(dq.begin(), dq.end(), [&](const Request& queued) {
      return queued.column == request.column;
    });
    if (pos == dq.end()) continue;
    Request merged = std::move(*pos);
    dq.erase(pos);
    if (dq.empty()) {
      cq.by_table.erase(it);
      auto turn = std::find(cq.table_turns.begin(), cq.table_turns.end(),
                            request.table);
      if (turn != cq.table_turns.end()) cq.table_turns.erase(turn);
    }
    // Severity and pressure are raised to the max of the two; the newest
    // closure wins (it was bound against the most recent shard state).
    if (ClassOf(request.health) < ClassOf(merged.health)) {
      merged.health = request.health;
    }
    merged.pressure = std::max(merged.pressure, request.pressure);
    merged.build = std::move(request.build);
    InsertLocked(std::move(merged));
    return true;
  }
  return false;
}

BuildScheduler::Request BuildScheduler::PopNextLocked() {
  for (ClassQueue& cq : classes_) {
    while (!cq.table_turns.empty()) {
      const std::string table = std::move(cq.table_turns.front());
      cq.table_turns.pop_front();
      auto it = cq.by_table.find(table);
      if (it == cq.by_table.end() || it->second.empty()) {
        if (it != cq.by_table.end()) cq.by_table.erase(it);
        continue;  // stale turn left by coalescing
      }
      Request out = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) {
        cq.by_table.erase(it);
      } else {
        cq.table_turns.push_back(table);  // rotate to the back of the class
      }
      return out;
    }
  }
  return Request{};  // unreachable: callers check QueueEmptyLocked() first
}

void BuildScheduler::UpdateGaugesLocked() {
  if (metrics_ == nullptr) return;
  metrics_->GaugeSet(metrics::Gauge::kQueueDepth, QueuedLocked());
  metrics_->GaugeSet(metrics::Gauge::kInflightBuilds, inflight_);
}

void BuildScheduler::Pump() {
  {
    MutexLock lock(mu_);
    if (pumping_) return;  // the active pumper will see any new work
    pumping_ = true;
  }
  for (;;) {
    Request next;
    {
      MutexLock lock(mu_);
      if (stopping_ || paused_ || inflight_ >= max_inflight_ ||
          QueueEmptyLocked()) {
        pumping_ = false;
        idle_cv_.NotifyAll();  // the destructor may be waiting on !pumping_
        return;
      }
      next = PopNextLocked();
      ++inflight_;
      UpdateGaugesLocked();
    }
    auto task = [this, table = std::move(next.table),
                 column = std::move(next.column),
                 build = std::move(next.build)]() mutable {
      Status status = build ? build() : Status::OK();
      OnBuildDone(table, column, std::move(status));
    };
    pool_->Submit(std::move(task));
  }
}

void BuildScheduler::OnBuildDone(const std::string& table,
                                 const std::string& column, Status status) {
  {
    MutexLock lock(mu_);
    --inflight_;
    if (status.ok()) {
      ++completed_;
      if (metrics_ != nullptr) {
        metrics_->Increment(metrics::Counter::kSchedulerCompleted);
      }
    } else {
      ++failed_;
      failures_.emplace_back(table + "." + column, std::move(status));
      if (metrics_ != nullptr) {
        metrics_->Increment(metrics::Counter::kSchedulerFailed);
      }
    }
    UpdateGaugesLocked();
    idle_cv_.NotifyAll();
  }
  Pump();  // a slot just freed; admit the next request
}

}  // namespace equihist
