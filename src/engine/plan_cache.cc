#include "engine/plan_cache.h"

#include <cctype>
#include <utility>

#include "codegen/codegen_engine.h"

namespace bypass {

std::string PlanCacheKey(const std::string& sql,
                         const QueryOptions& options) {
  // Normalize the SQL: collapse whitespace runs to one space, trim the
  // ends, drop a trailing ';'. Deliberately *not* case-folded — the
  // parser is case-sensitive for identifiers, so "FROM R" and "FROM r"
  // are different queries.
  std::string key;
  key.reserve(sql.size() + 16);
  bool pending_space = false;
  for (char c : sql) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !key.empty();
      continue;
    }
    if (pending_space) {
      key.push_back(' ');
      pending_space = false;
    }
    key.push_back(c);
  }
  while (!key.empty() && (key.back() == ';' || key.back() == ' ')) {
    key.pop_back();
  }
  // Plan-shape fingerprint: every knob that changes what Prepare builds.
  // Execution knobs (threads, batch size, timeout, columnar) vary per
  // run on the same plan and stay out of the key.
  key.push_back('|');
  key.push_back(options.unnest ? 'u' : '-');
  key.push_back(options.cost_based ? 'c' : '-');
  key.push_back(options.memoize_subqueries ? 'm' : '-');
  key.push_back(options.shortcut_disjunctions ? 's' : '-');
  key.push_back(options.collect_plans ? 'p' : '-');
  const RewriteOptions& r = options.rewrite;
  key.push_back(r.enable_quantified ? 'q' : '-');
  key.push_back(options.enable_codegen ? 'g' : '-');
  key.push_back(options.codegen_synchronous ? 'y' : '-');
  key.push_back(static_cast<char>('0' + static_cast<int>(r.disjunct_order)));
  key += std::to_string(static_cast<int64_t>(r.subquery_cost));
  return key;
}

Result<PlanCache::Lease> PlanCache::Acquire(Database* db,
                                            const std::string& sql,
                                            const QueryOptions& options) {
  if (options_.max_entries == 0) {
    Lease lease;
    BYPASS_ASSIGN_OR_RETURN(lease.prepared, db->Prepare(sql, options));
    return lease;
  }
  std::string key = PlanCacheKey(sql, options);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && !it->second.idle.empty()) {
      Lease lease;
      lease.prepared = std::move(it->second.idle.back());
      it->second.idle.pop_back();
      lease.key = std::move(key);
      lease.from_cache = true;
      ++stats_.hits;
      if (it->second.compiled) ++stats_.compiled_hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return lease;
    }
    // A present-but-drained entry (all handles leased) counts as a miss:
    // the extra handle prepared below joins the pool on release.
    ++stats_.misses;
  }
  Lease lease;
  BYPASS_ASSIGN_OR_RETURN(lease.prepared, db->Prepare(sql, options));
  lease.key = std::move(key);
  if (lease.prepared.compiled_pipelines() > 0) {
    // Only known after preparing, hence counted outside the miss above.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.compiled_misses;
  }
  return lease;
}

void PlanCache::Release(Lease lease) {
  if (options_.max_entries == 0 || lease.key.empty()) return;
  // A handle that went stale mid-lease would re-plan on its next use
  // anyway; dropping it here keeps the idle pools uniformly fresh.
  if (lease.prepared.IsStale()) return;
  const bool compiled = lease.prepared.compiled_pipelines() > 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(lease.key);
  if (it == entries_.end()) {
    if (entries_.size() >= options_.max_entries) {
      // Evict the least recently used entry to make room.
      auto victim = entries_.find(lru_.back());
      if (victim->second.compiled) ++stats_.compiled_capacity_evictions;
      EvictLocked(victim);
      ++stats_.capacity_evictions;
    }
    lru_.push_front(lease.key);
    Entry entry;
    entry.lru_pos = lru_.begin();
    it = entries_.emplace(std::move(lease.key), std::move(entry)).first;
  } else {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }
  it->second.compiled = it->second.compiled || compiled;
  if (it->second.idle.size() < kMaxIdleHandlesPerEntry) {
    it->second.idle.push_back(std::move(lease.prepared));
  }
  stats_.entries = entries_.size();
}

void PlanCache::EvictStale(const Catalog* catalog,
                           CodegenEngine* codegen) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t epoch = catalog->stats_epoch();
  if (epoch == swept_epoch_) return;
  swept_epoch_ = epoch;
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto next = std::next(it);
    // Idle pools are uniformly fresh (Release drops stale handles), so
    // one handle's verdict covers the entry. Drained entries have no
    // handle to ask; their leased handles self-heal via ReplanIfStale
    // and Release re-checks on the way back in.
    if (!it->second.idle.empty() && it->second.idle.front().IsStale()) {
      if (it->second.compiled) ++stats_.compiled_stale_evictions;
      EvictLocked(it);
      ++stats_.stale_evictions;
    }
    it = next;
  }
  stats_.entries = entries_.size();
  // The codegen half of the sweep: dlopen artifacts compiled at an
  // earlier epoch must not be served to re-planned queries.
  if (codegen != nullptr) codegen->EvictStale(epoch);
}

void PlanCache::EvictLocked(
    std::unordered_map<std::string, Entry>::iterator it) {
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
  stats_.entries = entries_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats out = stats_;
  out.entries = entries_.size();
  out.compiled_entries = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.compiled) ++out.compiled_entries;
  }
  return out;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace bypass
