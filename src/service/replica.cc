#include "src/service/replica.h"

#include <algorithm>

#include "src/util/thread_pool.h"

namespace rwl::service {

bool ReplicationSubscription::Next(std::string* line, double timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  util::WaitWithTimeout(cv_, lock, timeout_ms,
                        [&] { return !lines_.empty() || closed_; });
  if (lines_.empty()) return false;
  *line = std::move(lines_.front());
  lines_.pop_front();
  return true;
}

bool ReplicationSubscription::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_ && lines_.empty();
}

bool ReplicationSubscription::Push(const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return false;
    if (lines_.size() >= kMaxQueuedLines) {
      // The replica fell too far behind for in-memory buffering; cut it
      // off so it reconnects and re-bootstraps from fresh snapshots.
      closed_ = true;
      cv_.notify_all();
      return false;
    }
    lines_.push_back(line);
  }
  cv_.notify_all();
  return true;
}

void ReplicationSubscription::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::shared_ptr<ReplicationSubscription> ReplicationHub::Subscribe() {
  auto sub = std::make_shared<ReplicationSubscription>();
  std::lock_guard<std::mutex> lock(mutex_);
  subs_.push_back(sub);
  return sub;
}

void ReplicationHub::Unsubscribe(
    const std::shared_ptr<ReplicationSubscription>& sub) {
  if (sub == nullptr) return;
  sub->Close();
  std::lock_guard<std::mutex> lock(mutex_);
  subs_.erase(std::remove(subs_.begin(), subs_.end(), sub), subs_.end());
}

void ReplicationHub::Publish(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < subs_.size();) {
    if (subs_[i]->Push(line)) {
      ++i;
    } else {
      subs_.erase(subs_.begin() + i);  // overflowed or closed
    }
  }
}

size_t ReplicationHub::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return subs_.size();
}

bool ReplicationHub::HasSubscribers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !subs_.empty();
}

bool ReplicaApplier::ApplyLine(const std::string& line, std::string* error) {
  WalRecord record;
  if (!DecodeWalRecord(line, &record, error)) return false;
  if (record.op == WalRecord::Op::kDrop) {
    // DROP carries no version (the chain is gone); always apply.
    catalog_->Drop(record.kb);
    std::lock_guard<std::mutex> lock(mutex_);
    applied_.erase(record.kb);
    ++records_applied_;
    cv_.notify_all();
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = applied_.find(record.kb);
    if (it != applied_.end() && record.version <= it->second.primary) {
      // Bootstrap/stream overlap: a record published while the bootstrap
      // snapshot (which already contains it) was being serialized.
      ++records_skipped_;
      return true;
    }
  }
  uint64_t local_version = 0;
  if (!ApplyWalRecord(catalog_, record, &local_version, error)) return false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    KbVersions& versions = applied_[record.kb];
    versions.primary = record.version;
    versions.local = local_version;
    ++records_applied_;
  }
  cv_.notify_all();
  return true;
}

bool ReplicaApplier::WaitForPrimaryVersion(const std::string& kb,
                                           uint64_t version, double timeout_ms,
                                           uint64_t* local_version) const {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = applied_.end();
  if (!util::WaitWithTimeout(cv_, lock, timeout_ms, [&] {
        it = applied_.find(kb);
        return it != applied_.end() && it->second.primary >= version;
      })) {
    return false;
  }
  *local_version = it->second.local;
  return true;
}

std::map<std::string, ReplicaApplier::KbVersions>
ReplicaApplier::AppliedVersions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return applied_;
}

uint64_t ReplicaApplier::records_applied() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_applied_;
}

uint64_t ReplicaApplier::records_skipped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_skipped_;
}

}  // namespace rwl::service
