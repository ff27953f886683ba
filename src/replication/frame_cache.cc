#include "src/replication/frame_cache.h"

#include "src/obs/metrics.h"

namespace {
// Byte budget of the hub's shared frame cache.
constexpr uint64_t kFrameCacheBytes = 256 * 1024;

// Process-wide mirrors of the per-instance stats, so a metrics snapshot
// taken after every hub is gone still carries the frame-cache family.
asbestos::obs::Counter& HitCounter() {
  static asbestos::obs::Counter& c =
      asbestos::obs::Registry::Get().counter("repl.frame_cache.hits");
  return c;
}
asbestos::obs::Counter& MissCounter() {
  static asbestos::obs::Counter& c =
      asbestos::obs::Registry::Get().counter("repl.frame_cache.misses");
  return c;
}
asbestos::obs::Counter& EvictionCounter() {
  static asbestos::obs::Counter& c =
      asbestos::obs::Registry::Get().counter("repl.frame_cache.evictions");
  return c;
}
asbestos::obs::Counter& HitBytesCounter() {
  static asbestos::obs::Counter& c =
      asbestos::obs::Registry::Get().counter("repl.frame_cache.hit_bytes");
  return c;
}
}  // namespace

namespace asbestos {

bool FrameCache::Lookup(uint32_t shard, uint64_t generation, uint64_t offset,
                        uint64_t want_bytes, uint64_t tail_off, Payload* span) {
  const Key key{shard, generation, offset};
  auto it = index_.find(key);
  if (it == index_.end()) {
    stats_.misses += 1;
    MissCounter().Add();
    return false;
  }
  Entry& e = *it->second;
  const bool covers_request = e.span.size() >= want_bytes;
  const bool covers_tail = offset + e.span.size() == tail_off;
  if (!covers_request && !covers_tail) {
    // The log grew past this entry since it was cached; serving it would
    // shrink every follower's batches to the stalest reader's view.
    stats_.misses += 1;
    MissCounter().Add();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  stats_.hits += 1;
  stats_.hit_bytes += e.span.size();
  HitCounter().Add();
  HitBytesCounter().Add(e.span.size());
  *span = e.span;  // refcount bump: caller and cache share one buffer
  return true;
}

void FrameCache::Insert(uint32_t shard, uint64_t generation, uint64_t offset,
                        const Payload& span) {
  if (span.size() > kFrameCacheBytes) {
    return;  // a span no budget could hold
  }
  const Key key{shard, generation, offset};
  auto it = index_.find(key);
  if (it != index_.end()) {
    if (it->second->span.size() >= span.size()) {
      return;  // the resident entry is at least as long; keep it
    }
    stats_.bytes -= it->second->span.size();
    lru_.erase(it->second);
    index_.erase(it);
  }
  lru_.push_front(Entry{key, span});
  index_[key] = lru_.begin();
  stats_.bytes += span.size();
  EvictToBudget();
}

void FrameCache::EvictToBudget() {
  while (stats_.bytes > kFrameCacheBytes && !lru_.empty()) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.span.size();
    stats_.evictions += 1;
    EvictionCounter().Add();
    index_.erase(victim.key);
    lru_.pop_back();
  }
}

}  // namespace asbestos
