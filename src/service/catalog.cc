#include "src/service/catalog.h"

#include <utility>

#include "src/util/thread_pool.h"

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace rwl::service {

void KbSnapshot::RecordQuery(const logic::FormulaPtr& query,
                             const InferenceOptions& options) const {
  // Only queries the shared context answered are worth replaying; a query
  // with fresh symbols runs in a private context either way.
  if (!QueryCoveredByVocabulary(kb.vocabulary(), query)) return;
  std::lock_guard<std::mutex> lock(query_log_mutex_);
  if (query_log_.size() >= kMaxLoggedQueries) return;
  for (const auto& logged : query_log_) {
    // Formulas are hash-consed: pointer equality is formula identity.
    if (logged.first == query) return;
  }
  query_log_.emplace_back(query, options);
}

std::vector<std::pair<logic::FormulaPtr, InferenceOptions>>
KbSnapshot::LoggedQueries() const {
  std::lock_guard<std::mutex> lock(query_log_mutex_);
  return query_log_;
}

KbCatalog::KbCatalog()
    : maintenance_thread_(&KbCatalog::MaintenanceLoop, this) {}

KbCatalog::~KbCatalog() {
  {
    std::lock_guard<std::mutex> lock(maintenance_mutex_);
    stopping_ = true;
  }
  maintenance_cv_.notify_all();
  maintenance_thread_.join();
}

std::shared_ptr<KbSnapshot> KbCatalog::BuildSnapshot(const std::string& name,
                                                     KnowledgeBase kb,
                                                     const KbSnapshot* prior,
                                                     bool* patched) {
  auto snapshot = std::make_shared<KbSnapshot>();
  snapshot->name = name;
  snapshot->kb = std::move(kb);
  snapshot->context = std::make_shared<QueryContext>(
      snapshot->kb.vocabulary(), snapshot->kb.AsFormula());
  // Service tenants re-ask the same sweep points for the KB's lifetime,
  // and a recorded world list is the unit ApplyDelta patches across
  // versions — record on first computation instead of second (never
  // changes an answer; see engines/world_cache.h).
  snapshot->context->set_eager_world_recording(true);
  if (prior != nullptr) {
    snapshot->context->AdoptCachesFrom(*prior->context);
    const bool applied = snapshot->context->ApplyDelta(
        *prior->context, ComputeKbDelta(prior->kb, snapshot->kb));
    if (patched != nullptr) *patched = applied;
  }
  return snapshot;
}

std::shared_ptr<KbSnapshot> KbCatalog::MintSuccessor(const std::string& name,
                                                     KnowledgeBase kb,
                                                     const KbSnapshot& prior) {
  bool patched = false;
  std::shared_ptr<KbSnapshot> snapshot =
      BuildSnapshot(name, std::move(kb), &prior, &patched);
  (patched ? patched_ : rebuilt_).fetch_add(1, std::memory_order_relaxed);
  // Publish-when-warm: replay the predecessor's query log so everything
  // those queries will need on the new version — including work the old
  // version never did, like a sweep for a query the mutation knocked off a
  // symbolic fast path — is computed HERE, before readers can pin this
  // snapshot, not on the first post-mutation request.  Answers are
  // discarded; the caches the replay fills are transparent, so the first
  // real query is a hit with a bit-identical result.  The log carries
  // forward so the next successor warms the same working set.
  for (const auto& [query, opts] : prior.LoggedQueries()) {
    try {
      AnswerOnSnapshot(*snapshot, query, opts);
    } catch (...) {
      // Best-effort: a query that fails here fails identically (and
      // reports its own error) when a client re-asks it.
    }
    snapshot->RecordQuery(query, opts);
  }
  return snapshot;
}

KbCatalog::Evicted KbCatalog::InstallLocked(
    Chain* chain, std::shared_ptr<KbSnapshot> snapshot) {
  chain->versions.emplace(snapshot->version, std::move(snapshot));
  Evicted evicted;
  while (chain->versions.size() > kRetainedVersions) {
    evicted.push_back(std::move(chain->versions.begin()->second));
    chain->versions.erase(chain->versions.begin());
  }
  install_cv_.notify_all();
  return evicted;
}

std::shared_ptr<const KbSnapshot> KbCatalog::Load(
    const std::string& name, KnowledgeBase kb, const VersionHook& on_version) {
  std::shared_ptr<KbSnapshot> snapshot =
      BuildSnapshot(name, std::move(kb), nullptr);
  decltype(chains_)::node_type replaced;  // released after the unlock
  Evicted evicted;
  std::lock_guard<std::mutex> lock(mutex_);
  replaced = chains_.extract(name);  // a re-load starts a fresh chain
  snapshot->version = next_version_++;
  Chain& chain = chains_[name];
  chain.staged_kb = snapshot->kb;
  chain.staged_version = snapshot->version;
  if (on_version) on_version(snapshot->version);
  evicted = InstallLocked(&chain, snapshot);
  return snapshot;
}

std::shared_ptr<const KbSnapshot> KbCatalog::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chains_.find(name);
  if (it == chains_.end() || it->second.versions.empty()) return nullptr;
  return it->second.versions.rbegin()->second;
}

std::shared_ptr<const KbSnapshot> KbCatalog::GetVersion(
    const std::string& name, uint64_t version) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chains_.find(name);
  if (it == chains_.end()) return nullptr;
  auto vit = it->second.versions.find(version);
  return vit == it->second.versions.end() ? nullptr : vit->second;
}

MutationTicket KbCatalog::Mutate(
    const std::string& name,
    const std::function<bool(KnowledgeBase*, std::string*)>& edit,
    const VersionHook& on_version) {
  MutationTicket ticket;
  auto fail = [&](const std::string& message) {
    ticket.error = message;
    return ticket;
  };
  // Serialize writers on this tenant only; the catalog-wide mutex_ is
  // held just long enough to read and update chain state, so other
  // tenants' Get() admissions never wait on this edit.
  std::shared_ptr<std::mutex> write_mutex;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chains_.find(name);
    if (it == chains_.end() || it->second.versions.empty()) {
      return fail("no knowledge base named '" + name + "'");
    }
    write_mutex = it->second.write_mutex;
  }
  std::lock_guard<std::mutex> write_lock(*write_mutex);
  // Edit against the STAGED tail, not the published head: the head may
  // lag acked mutations, and a later mutation must see every earlier ack
  // (WAL order).  The copy is O(delta) — the conjunct list is a
  // persistent vector.
  KnowledgeBase next;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chains_.find(name);
    if (it == chains_.end() || it->second.write_mutex != write_mutex) {
      return fail("knowledge base '" + name + "' was dropped or reloaded");
    }
    next = it->second.staged_kb;
  }
  std::string edit_error;
  if (!edit(&next, &edit_error)) return fail(edit_error);

  // Fix the WAL order now (assign the version, advance the staged tail,
  // journal/ship via the hook), hand the expensive successor build to the
  // maintenance worker, and return.  Readers keep serving the published
  // head until the warm successor is installed.
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chains_.find(name);
    if (it == chains_.end() || it->second.write_mutex != write_mutex) {
      return fail("knowledge base '" + name + "' was dropped or reloaded");
    }
    version = next_version_++;
    it->second.staged_kb = next;
    it->second.staged_version = version;
    if (on_version) on_version(version);
  }
  {
    // Never block the ack on the worker: a run of mutations on one chain
    // coalesces into the single queued task, which the worker always
    // builds from the NEWEST acked state (skipped versions still satisfy
    // WaitForVersion — it waits for `head >= v`, and the coalesced
    // publication carries the highest v of the run).  This replaces the
    // old bounded-queue backpressure that stalled acks for the length of
    // a successor build (the 775 ms mixed-phase mutation p99).
    std::unique_lock<std::mutex> lock(maintenance_mutex_);
    if (!stopping_) {
      bool folded = false;
      for (MaintenanceTask& task : queue_) {
        if (task.name == name && task.token == write_mutex) {
          task.kb = std::move(next);
          task.version = version;
          folded = true;
          coalesced_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      if (!folded) {
        queue_.push_back(
            MaintenanceTask{name, write_mutex, std::move(next), version});
      }
    }
  }
  maintenance_cv_.notify_all();
  ticket.ok = true;
  ticket.version = version;
  return ticket;
}

bool KbCatalog::Drop(const std::string& name,
                     const std::function<void()>& on_drop) {
  decltype(chains_)::node_type dropped;  // released after the unlock
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dropped = chains_.extract(name);
    if (!dropped.empty() && on_drop) on_drop();
  }
  // Queued maintenance for the dropped chain is discarded by the worker
  // (its token no longer matches); waiters must re-check now.
  install_cv_.notify_all();
  return !dropped.empty();
}

KbCatalog::StagedState KbCatalog::Staged(const std::string& name) const {
  StagedState state;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chains_.find(name);
  if (it == chains_.end()) return state;
  state.ok = true;
  state.kb = it->second.staged_kb;  // O(delta): persistent conjunct vector
  state.version = it->second.staged_version;
  return state;
}

std::shared_ptr<const KbSnapshot> KbCatalog::StagedSnapshot(
    const std::string& name) const {
  StagedState staged = Staged(name);
  if (!staged.ok) return nullptr;
  std::shared_ptr<const KbSnapshot> prior = Get(name);
  // Same warm path as the worker's mint — adopt the published head's
  // caches and patch the delta — minus the query-log replay: the caller
  // has one concrete query to answer, so warming the rest of the working
  // set here would put exactly the work this fallback exists to avoid
  // back on the request path.  The service differential check covers the
  // adopt+patch path's bit-identity.
  std::shared_ptr<KbSnapshot> snapshot =
      BuildSnapshot(name, std::move(staged.kb), prior.get());
  snapshot->version = staged.version;
  return snapshot;
}

void KbCatalog::EnsureVersionFloor(uint64_t floor) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (next_version_ <= floor) next_version_ = floor + 1;
}

std::vector<std::shared_ptr<const KbSnapshot>> KbCatalog::Heads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const KbSnapshot>> heads;
  heads.reserve(chains_.size());
  for (const auto& [name, chain] : chains_) {
    if (!chain.versions.empty()) {
      heads.push_back(chain.versions.rbegin()->second);
    }
  }
  return heads;
}

bool KbCatalog::WaitForVersion(const std::string& name, uint64_t version,
                               double timeout_ms) const {
  std::unique_lock<std::mutex> lock(mutex_);
  bool published = false;
  util::WaitWithTimeout(install_cv_, lock, timeout_ms, [&] {
    auto it = chains_.find(name);
    if (it == chains_.end() || it->second.versions.empty()) return true;
    published = it->second.versions.rbegin()->second->version >= version;
    return published;
  });
  return published;
}

bool KbCatalog::DrainMaintenance(double timeout_ms) {
  std::unique_lock<std::mutex> lock(maintenance_mutex_);
  return util::WaitWithTimeout(maintenance_cv_, lock, timeout_ms, [&] {
    return queue_.empty() && in_flight_ == 0;
  });
}

void KbCatalog::PauseMaintenance() {
  std::unique_lock<std::mutex> lock(maintenance_mutex_);
  paused_ = true;
  maintenance_cv_.wait(lock, [&] { return in_flight_ == 0; });
}

void KbCatalog::ResumeMaintenance() {
  {
    std::lock_guard<std::mutex> lock(maintenance_mutex_);
    paused_ = false;
  }
  maintenance_cv_.notify_all();
}

KbCatalog::MaintenanceStats KbCatalog::maintenance_stats() const {
  MaintenanceStats stats;
  {
    std::lock_guard<std::mutex> lock(maintenance_mutex_);
    stats.queue_depth = queue_.size() + in_flight_;
  }
  stats.minted = minted_.load(std::memory_order_relaxed);
  stats.patched = patched_.load(std::memory_order_relaxed);
  stats.rebuilt = rebuilt_.load(std::memory_order_relaxed);
  stats.discarded = discarded_.load(std::memory_order_relaxed);
  stats.coalesced = coalesced_.load(std::memory_order_relaxed);
  return stats;
}

void KbCatalog::MaintenanceLoop() {
#if defined(__linux__)
  // Successor builds (and their warming replays) can burn hundreds of
  // milliseconds of CPU; on a saturated machine that time must come out
  // of idle cycles, not out of foreground query latency.  Lowest niceness
  // for this thread only: queries preempt maintenance, publication just
  // lags a little longer — readers keep the warm predecessor meanwhile.
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), 19);
#endif
  std::unique_lock<std::mutex> lock(maintenance_mutex_);
  for (;;) {
    // On shutdown the queue is drained regardless of pause: every acked
    // mutation is published within the catalog's lifetime.
    maintenance_cv_.wait(
        lock, [&] { return stopping_ || (!paused_ && !queue_.empty()); });
    if (queue_.empty()) return;  // stopping, fully drained
    MaintenanceTask task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    ProcessTask(std::move(task));
    lock.lock();
    --in_flight_;
    maintenance_cv_.notify_all();  // Drain / Pause waiters re-check
  }
}

void KbCatalog::ProcessTask(MaintenanceTask task) {
  // The predecessor is the published head at processing time: this worker
  // is the only publisher of successors, so the build adopts (and patches
  // against) the newest published version.  With coalescing the task may
  // fold several acked mutations into one mint — the delta is then
  // multi-op, and ApplyDelta falls back to a lazy rebuild when it cannot
  // patch; answers are unaffected either way.
  std::shared_ptr<const KbSnapshot> head;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = chains_.find(task.name);
    if (it == chains_.end() || it->second.write_mutex != task.token) {
      discarded_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    head = it->second.versions.rbegin()->second;
  }
  std::shared_ptr<KbSnapshot> snapshot =
      MintSuccessor(task.name, std::move(task.kb), *head);
  snapshot->version = task.version;
  Evicted evicted;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = chains_.find(task.name);
  if (it == chains_.end() || it->second.write_mutex != task.token) {
    discarded_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  minted_.fetch_add(1, std::memory_order_relaxed);
  evicted = InstallLocked(&it->second, std::move(snapshot));
}

size_t RetractConjuncts(
    KnowledgeBase* kb,
    const std::function<bool(size_t, const logic::FormulaPtr&)>& drop) {
  KnowledgeBase next;
  next.mutable_vocabulary() = kb->vocabulary();
  size_t removed = 0;
  for (size_t i = 0; i < kb->conjuncts().size(); ++i) {
    if (drop(i, kb->conjuncts()[i])) {
      ++removed;
      continue;
    }
    next.Add(kb->conjuncts()[i]);
  }
  *kb = std::move(next);
  return removed;
}

Answer AnswerOnSnapshot(const KbSnapshot& snapshot,
                        const logic::FormulaPtr& query,
                        const InferenceOptions& options) {
  if (QueryCoveredByVocabulary(snapshot.kb.vocabulary(), query)) {
    return DegreeOfBelief(*snapshot.context, query, options);
  }
  // Fresh query symbols: a private context over the pinned KB (the shared
  // context's vocabulary cannot cover them) — the batch API's rule.
  return DegreeOfBelief(snapshot.kb, query, options);
}

}  // namespace rwl::service
