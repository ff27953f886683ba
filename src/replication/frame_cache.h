// FrameCache: the replication hub's bounded shared WAL-read cache.
//
// K followers streaming at nearby offsets each need the same raw WAL spans.
// Without sharing, every follower session costs one ReadShardWal (a pread)
// per batch — the primary's disk pays K times for one log. The cache keys
// read spans by (shard, generation, offset): positions are immutable within
// a generation (the WAL is append-only; compaction starts a new generation),
// so a cached span can never go stale — at worst it is SHORTER than what the
// log now holds, which the lookup detects and treats as a miss.
//
// Eviction is LRU by total payload bytes. Sessions in lockstep hit the same
// entry; a straggler a few batches behind still hits as long as its span is
// within the byte budget; a follower in snapshot catch-up bypasses the cache
// entirely (images ship whole from the store).
#ifndef SRC_REPLICATION_FRAME_CACHE_H_
#define SRC_REPLICATION_FRAME_CACHE_H_

#include <cstdint>
#include <list>
#include <map>

#include "src/kernel/payload.h"

namespace asbestos {

struct FrameCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t bytes = 0;       // current resident payload bytes
  uint64_t hit_bytes = 0;   // span bytes served without touching the WAL
};

class FrameCache {
 public:
  // Hands out a refcounted view of the cached span for (shard, generation,
  // offset) — no byte copy, the caller shares the resident buffer — and
  // returns true when the entry can satisfy a read of up to `want_bytes`:
  // either it holds at least that much, or it already extends to `tail_off`
  // (the shard's current log tail — there is nothing more to read anyway).
  // A shorter entry is a miss: the log grew past what was cached, and the
  // caller should re-read and Insert the longer span.
  bool Lookup(uint32_t shard, uint64_t generation, uint64_t offset, uint64_t want_bytes,
              uint64_t tail_off, Payload* span);

  // Caches `span` (sharing its buffer, no copy) as the bytes at (shard,
  // generation, offset), replacing any shorter entry at the same position,
  // then evicts LRU entries until the byte budget (256 KiB) holds.
  void Insert(uint32_t shard, uint64_t generation, uint64_t offset, const Payload& span);

  const FrameCacheStats& stats() const { return stats_; }

 private:
  struct Key {
    uint32_t shard;
    uint64_t generation;
    uint64_t offset;
    bool operator<(const Key& o) const {
      if (shard != o.shard) return shard < o.shard;
      if (generation != o.generation) return generation < o.generation;
      return offset < o.offset;
    }
  };
  struct Entry {
    Key key;
    Payload span;
  };

  void EvictToBudget();

  std::list<Entry> lru_;  // front = most recently used
  std::map<Key, std::list<Entry>::iterator> index_;
  FrameCacheStats stats_;
};

}  // namespace asbestos

#endif  // SRC_REPLICATION_FRAME_CACHE_H_
