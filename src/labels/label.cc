#include "src/labels/label.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <new>

#include "src/base/panic.h"
#include "src/base/strings.h"
#include "src/labels/intern.h"

namespace asbestos {

namespace {

LabelWorkStats g_work;
LabelMemStats g_mem;

using internal::EntryHandle;
using internal::EntryLevel;
using internal::PackEntry;

// The asymmetric fast paths engage when one side is a handful of entries and
// the other is huge (netd/idd/ok-dbproxy labels grow with the user count).
// The real merge would be linear in the huge side; these compute the same
// result via chunk sharing and point lookups, while callers keep *charging*
// the linear cost (the paper's implementation is linear, §5.6/§9.3; our
// cycle accounting must stay faithful to it).
constexpr size_t kAsymmetricSmallLimit = 24;
constexpr size_t kAsymmetricBigFactor = 8;

bool AsymmetricShapes(size_t small_count, size_t big_count) {
  return small_count <= kAsymmetricSmallLimit &&
         big_count >= kAsymmetricBigFactor * (small_count + 8);
}

}  // namespace

namespace internal {

// A chunk: sorted array of up to kChunkMaxEntries packed entries, reference
// counted for copy-on-write sharing between labels. A chunk is one heap
// block: this header, then its `capacity` entry slots. Only the first `size`
// slots are ever read; the rest are left uninitialized.
struct Chunk {
  int32_t refcount = 1;
  uint16_t size = 0;
  uint16_t capacity = 0;
  Level min_level = Level::kL3;  // over entries only; meaningless when empty
  Level max_level = Level::kStar;
  uint64_t* entries = nullptr;  // the slots right after this header
};

namespace {

constexpr uint16_t kChunkMaxEntries = 64;
constexpr uint16_t kChunkMinCapacity = 32;

uint64_t ChunkBytes(uint16_t capacity) {
  // Struct + entry storage + the label's pointer slot referencing it.
  return sizeof(Chunk) + static_cast<uint64_t>(capacity) * sizeof(uint64_t) + sizeof(void*);
}

Chunk* NewChunk(uint16_t capacity) {
  void* block = ::operator new(sizeof(Chunk) + capacity * sizeof(uint64_t));
  auto* c = new (block) Chunk();
  c->capacity = capacity;
  c->entries = reinterpret_cast<uint64_t*>(c + 1);
  g_mem.live_bytes += static_cast<int64_t>(ChunkBytes(capacity));
  g_mem.live_chunks += 1;
  return c;
}

void UnrefChunk(Chunk* c) {
  if (--c->refcount == 0) {
    g_mem.live_bytes -= static_cast<int64_t>(ChunkBytes(c->capacity));
    g_mem.live_chunks -= 1;
    c->~Chunk();
    ::operator delete(c);
  }
}

Chunk* RefChunk(Chunk* c) {
  ++c->refcount;
  return c;
}

void RecomputeChunkExtrema(Chunk* c) {
  Level lo = Level::kL3;
  Level hi = Level::kStar;
  for (uint16_t i = 0; i < c->size; ++i) {
    const Level l = EntryLevel(c->entries[i]);
    lo = LevelMin(lo, l);
    hi = LevelMax(hi, l);
  }
  c->min_level = lo;
  c->max_level = hi;
}

Handle ChunkFirstHandle(const Chunk* c) { return EntryHandle(c->entries[0]); }

// Index of the first entry in c with handle >= h.
uint16_t LowerBoundInChunk(const Chunk* c, Handle h) {
  const uint64_t key = h.value() << 3;
  const uint64_t* begin = c->entries;
  const uint64_t* end = begin + c->size;
  // Levels occupy the low 3 bits, so compare on the handle part only.
  const uint64_t* it = std::lower_bound(begin, end, key,
                                        [](uint64_t e, uint64_t k) { return (e >> 3) < (k >> 3); });
  return static_cast<uint16_t>(it - begin);
}

}  // namespace

// A rep's chunk pointers, in handle order. The first pointer lives inline,
// so a one-chunk label (up to 64 entries: every send's C_S, every taint)
// costs no allocation for its list; a second chunk moves the list to a heap
// array that doubles as it grows. 24 bytes, the std::vector it replaced.
// Never copied or moved: it points into itself while inline.
class ChunkList {
 public:
  ChunkList() = default;
  ChunkList(const ChunkList&) = delete;
  ChunkList& operator=(const ChunkList&) = delete;
  ~ChunkList() {
    if (data_ != &inline_) {
      delete[] data_;
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Chunk*& operator[](size_t i) { return data_[i]; }
  Chunk* operator[](size_t i) const { return data_[i]; }
  Chunk* const* begin() const { return data_; }
  Chunk* const* end() const { return data_ + size_; }

  void reserve(size_t n) {
    if (n > capacity_) {
      Chunk** grown = new Chunk*[n];
      std::copy(data_, data_ + size_, grown);
      if (data_ != &inline_) {
        delete[] data_;
      }
      data_ = grown;
      capacity_ = static_cast<uint32_t>(n);
    }
  }
  void push_back(Chunk* c) { Insert(size_, c); }
  void Insert(size_t i, Chunk* c) {
    if (size_ == capacity_) {
      reserve(std::max<size_t>(4, 2 * static_cast<size_t>(capacity_)));
    }
    std::copy_backward(data_ + i, data_ + size_, data_ + size_ + 1);
    data_[i] = c;
    ++size_;
  }
  void Erase(size_t i) {
    std::copy(data_ + i + 1, data_ + size_, data_ + i);
    --size_;
  }

 private:
  Chunk** data_ = &inline_;
  uint32_t size_ = 0;
  uint32_t capacity_ = 1;
  Chunk* inline_ = nullptr;
};

struct LabelRep {
  int32_t refcount = 1;
  Level default_level = Level::kL3;
  Level min_level = Level::kL3;  // over default and all entries
  Level max_level = Level::kL3;
  // Content-snapshot identity (see intern.h): assigned at creation, and
  // re-assigned on every in-place mutation, so a given id value names one
  // extensional content forever.
  uint64_t id = 0;
  // Order-independent structural hash of the current content (intern.h),
  // kept current by every construction and every in-place Set, whether or
  // not the rep is in the intern table.
  uint64_t struct_hash = 0;
  // Canonical reps are immutable: MutableRep clones them even at refcount 1.
  bool interned = false;
  bool in_table = false;  // registered in the intern table (unlike the
                          // per-level shared default singletons)
  uint64_t level_counts[5] = {};  // explicit entries per level
  ChunkList chunks;

  ~LabelRep() {
    for (Chunk* c : chunks) {
      UnrefChunk(c);
    }
  }
};

// The memory model. The label heap accounting (kRepBytes per rep,
// ChunkBytes(capacity) per chunk: its header, every entry slot, and the
// rep's pointer to it) feeds the modelled memory figures (Figure 6, bytes
// per user): a field added here moves them. The host layout behind those
// charges is leaner and is not what they count: a chunk's header and slots
// are one heap block, and a one-chunk rep keeps its chunk pointer inline in
// its ChunkList, so a label of up to 64 entries takes two allocations.
static_assert(sizeof(LabelRep) == 96, "LabelRep size is part of the memory model");
static_assert(sizeof(Chunk) == 24, "Chunk size is part of the memory model");

namespace {

constexpr uint64_t kRepBytes = sizeof(LabelRep);

LabelRep* NewRep(Level default_level) {
  auto* rep = new LabelRep();
  rep->default_level = default_level;
  rep->min_level = default_level;
  rep->max_level = default_level;
  rep->struct_hash = InternHashSeed(LevelOrdinal(default_level));
  rep->id = InternNextRepId();
  g_mem.live_bytes += static_cast<int64_t>(kRepBytes);
  g_mem.live_reps += 1;
  return rep;
}

void FreeRep(LabelRep* rep) {
  if (rep->in_table) {
    InternErase(rep->struct_hash, rep);
  }
  g_mem.live_bytes -= static_cast<int64_t>(kRepBytes);
  g_mem.live_reps -= 1;
  delete rep;
}

uint64_t RepHeapBytes(const LabelRep* rep) {
  uint64_t bytes = kRepBytes;
  for (const Chunk* c : rep->chunks) {
    bytes += ChunkBytes(c->capacity);
  }
  return bytes;
}

void RecomputeRepExtrema(LabelRep* rep) {
  Level lo = rep->default_level;
  Level hi = rep->default_level;
  for (const Chunk* c : rep->chunks) {
    lo = LevelMin(lo, c->min_level);
    hi = LevelMax(hi, c->max_level);
  }
  rep->min_level = lo;
  rep->max_level = hi;
}

// Shallow rep clone: shares chunks, used to unshare before mutation.
LabelRep* CloneRep(const LabelRep* rep) {
  LabelRep* copy = NewRep(rep->default_level);
  copy->min_level = rep->min_level;
  copy->max_level = rep->max_level;
  copy->struct_hash = rep->struct_hash;
  for (int i = 0; i < 5; ++i) {
    copy->level_counts[i] = rep->level_counts[i];
  }
  copy->chunks.reserve(rep->chunks.size());
  for (Chunk* c : rep->chunks) {
    copy->chunks.push_back(RefChunk(c));
  }
  return copy;
}

Chunk* CloneChunkWithCapacity(const Chunk* c, uint16_t capacity) {
  ASB_ASSERT(capacity >= c->size);
  Chunk* copy = NewChunk(capacity);
  copy->size = c->size;
  copy->min_level = c->min_level;
  copy->max_level = c->max_level;
  std::memcpy(copy->entries, c->entries, c->size * sizeof(uint64_t));
  return copy;
}

// Whether rep has an entry whose handle value lies in (after, last]. Linear
// in the rep's chunk count: only ever asked of the small side of a merge.
bool HasEntryIn(const LabelRep* rep, uint64_t after, uint64_t last) {
  for (const Chunk* c : rep->chunks) {
    const uint16_t i = LowerBoundInChunk(c, Handle::FromValue(after + 1));
    if (i < c->size) {
      return (c->entries[i] >> 3) <= last;
    }
  }
  return false;
}

// Sequential reader over a rep's entries in increasing handle order.
class Cursor {
 public:
  explicit Cursor(const LabelRep* rep) : rep_(rep) { SkipToValid(); }

  bool done() const { return chunk_ >= rep_->chunks.size(); }
  uint64_t entry() const { return rep_->chunks[chunk_]->entries[index_]; }
  void Advance() {
    ++index_;
    SkipToValid();
  }

  // The survivor paths. When a handful of entries meets a huge label, most
  // of the huge side's entries cannot affect the outcome: entries only it
  // mentions whose level lies in the dead band [lo, hi] fold into a merge's
  // default, or pass a ⊑ check. The level histogram counts the rest (the
  // possible survivors) in O(1). When they and `other`, the small side, are
  // few, and `sound` says the band is dead for the operation, this cursor
  // over the huge side skips every chunk it enters whose stored extrema put
  // all its levels in the band, as long as `other` has no entry between the
  // end of the previous chunk and the end of the skipped one. The merge loop
  // has consumed every entry below the previous chunk's end, so the skipped
  // entries are ones only this side mentions and precede every entry the
  // loop still examines. Each is charged as visited, as a loop that walked
  // it would have, so the charged work is exactly the full walk's.
  Cursor(const LabelRep* rep, const LabelRep* other, bool sound, Level lo, Level hi)
      : Cursor(rep) {
    uint64_t count = 0;
    uint64_t other_count = 0;
    uint64_t survivors = 0;
    for (int l = 0; l < 5; ++l) {
      count += rep->level_counts[l];
      other_count += other->level_counts[l];
      survivors += l < LevelOrdinal(lo) || l > LevelOrdinal(hi) ? rep->level_counts[l] : 0;
    }
    if (sound && AsymmetricShapes(other_count + survivors, count)) {
      other_ = other;
      dead_lo_ = lo;
      dead_hi_ = hi;
      SkipDead();
    }
  }

 private:
  void SkipToValid() {
    while (chunk_ < rep_->chunks.size() && index_ >= rep_->chunks[chunk_]->size) {
      ++chunk_;
      index_ = 0;
      if (other_ != nullptr) {
        SkipDead();
      }
    }
  }

  void SkipDead() {
    for (; chunk_ < rep_->chunks.size(); ++chunk_) {
      const Chunk* c = rep_->chunks[chunk_];
      const Chunk* prev = chunk_ == 0 ? nullptr : rep_->chunks[chunk_ - 1];
      const uint64_t after = prev == nullptr ? 0 : prev->entries[prev->size - 1] >> 3;
      if (!LevelLeq(dead_lo_, c->min_level) || !LevelLeq(c->max_level, dead_hi_) ||
          HasEntryIn(other_, after, c->entries[c->size - 1] >> 3)) {
        return;
      }
      g_work.entries_visited += c->size;
    }
  }

  const LabelRep* rep_;
  size_t chunk_ = 0;
  uint16_t index_ = 0;
  const LabelRep* other_ = nullptr;
  Level dead_lo_ = Level::kStar;
  Level dead_hi_ = Level::kStar;
};

// Entry-less default labels ({⋆}, {1}, {2}, {3}) are ubiquitous — every
// SendArgs default, every fresh vnode — so they share one immutable
// representation per level. Copy-on-write unshares on first mutation; the
// `interned` mark makes the immutability explicit (MutableRep always clones
// canonical reps), so these singletons behave exactly like table-interned
// reps without occupying the table.
LabelRepRef SharedDefaultRep(Level default_level) {
  static LabelRep* cache[5] = {};
  LabelRep*& slot = cache[LevelOrdinal(default_level)];
  if (slot == nullptr) {
    slot = NewRep(default_level);  // one live ref owned by the cache
    slot->interned = true;
  }
  ++slot->refcount;
  return LabelRepRef(slot);
}

// Packs sorted entries into a fresh rep: chunked memcpy, one extrema pass.
// Shared by the merge builders below and LabelBuilder's bulk path.
LabelRepRef PackSortedEntries(Level default_level, const uint64_t* entries, size_t count,
                              const uint64_t level_counts[5], uint64_t struct_hash) {
  LabelRep* rep = NewRep(default_level);
  rep->struct_hash = struct_hash;
  size_t i = 0;
  while (i < count) {
    const size_t n = std::min<size_t>(kChunkMaxEntries, count - i);
    const uint16_t capacity = n <= kChunkMinCapacity ? kChunkMinCapacity : kChunkMaxEntries;
    Chunk* c = NewChunk(capacity);
    c->size = static_cast<uint16_t>(n);
    std::memcpy(c->entries, entries + i, n * sizeof(uint64_t));
    RecomputeChunkExtrema(c);
    rep->chunks.push_back(c);
    i += n;
  }
  RecomputeRepExtrema(rep);
  for (int l = 0; l < 5; ++l) {
    rep->level_counts[l] = level_counts[l];
  }
  return LabelRepRef(rep);
}

// Structural comparison of a canonical-rep candidate against a flat sorted
// entry array — the intern probe's equality check.
struct FlatMatchCtx {
  Level default_level;
  const uint64_t* entries;
  size_t count;
  const uint64_t* level_counts;
};

bool MatchRepAgainstFlat(const LabelRep* rep, const void* vctx) {
  const auto* ctx = static_cast<const FlatMatchCtx*>(vctx);
  if (rep->default_level != ctx->default_level) {
    return false;
  }
  // Histogram mismatch (which implies count mismatch) rejects in O(1).
  for (int i = 0; i < 5; ++i) {
    if (rep->level_counts[i] != ctx->level_counts[i]) {
      return false;
    }
  }
  Cursor c(rep);
  for (size_t i = 0; i < ctx->count; ++i, c.Advance()) {
    if (c.done() || c.entry() != ctx->entries[i]) {
      return false;
    }
  }
  return c.done();
}

// Extensional equality of two reps (Equals, and the intern probe of
// Canonicalize). The default level and the level histogram reject in O(1)
// before the entry walk. Chunks that start together and have one size
// compare whole, and the two often share most of them: a COW clone that
// diverged in one chunk still shares the others, which are equal without
// touching their entries. Otherwise the walk compares entry by entry.
bool SameContent(const LabelRep* a, const LabelRep* b) {
  if (a->default_level != b->default_level) {
    return false;
  }
  for (int i = 0; i < 5; ++i) {
    if (a->level_counts[i] != b->level_counts[i]) {
      return false;
    }
  }
  size_t ai = 0;
  size_t bi = 0;
  uint16_t aj = 0;
  uint16_t bj = 0;
  const auto& achunks = a->chunks;
  const auto& bchunks = b->chunks;
  for (;;) {
    while (ai < achunks.size() && aj >= achunks[ai]->size) {
      ++ai;
      aj = 0;
    }
    while (bi < bchunks.size() && bj >= bchunks[bi]->size) {
      ++bi;
      bj = 0;
    }
    const bool a_done = ai >= achunks.size();
    const bool b_done = bi >= bchunks.size();
    if (a_done || b_done) {
      return a_done && b_done;
    }
    if (aj == 0 && bj == 0 && achunks[ai]->size == bchunks[bi]->size) {
      const uint64_t* as = achunks[ai]->entries;
      const uint64_t* bs = bchunks[bi]->entries;
      if (as != bs && !std::equal(as, as + achunks[ai]->size, bs)) {
        return false;
      }
      ++ai;
      ++bi;
      continue;
    }
    if (achunks[ai]->entries[aj] != bchunks[bi]->entries[bj]) {
      return false;
    }
    ++aj;
    ++bj;
  }
}

// The hash-consing funnel (see intern.h): every completed construction from
// sorted entries lands here, with the structural hash its builder
// accumulated. A live canonical rep with the same content is shared;
// otherwise the freshly packed rep is registered as canonical.
// Deliberately invisible to LabelWorkStats — interning changes wall-clock
// and memory, never the charged label-algebra cost.
LabelRepRef InternSortedEntries(Level default_level, const uint64_t* entries, size_t count,
                                const uint64_t level_counts[5], uint64_t struct_hash) {
  if (count == 0) {
    return SharedDefaultRep(default_level);  // per-level canonical singleton
  }
  const FlatMatchCtx ctx{default_level, entries, count, level_counts};
  if (LabelRep* canonical = InternLookup(struct_hash, MatchRepAgainstFlat, &ctx)) {
    InternNoteDedup(RepHeapBytes(canonical));  // same layout a fresh pack would use
    ++canonical->refcount;
    return LabelRepRef(canonical);
  }
  LabelRepRef rep = PackSortedEntries(default_level, entries, count, level_counts, struct_hash);
  rep.get()->interned = true;
  rep.get()->in_table = true;
  InternInsert(struct_hash, rep.get());
  return rep;
}

// Accumulates sorted packed entries and packs them into chunks.
class RepBuilder {
 public:
  explicit RepBuilder(Level default_level)
      : default_level_(default_level), struct_hash_(InternHashSeed(LevelOrdinal(default_level))) {}

  void Append(Handle h, Level l) {
    if (l == default_level_) {
      return;  // entries never duplicate the default
    }
    const uint64_t packed = PackEntry(h, l);
    level_counts_[LevelOrdinal(l)] += 1;
    struct_hash_ += InternHashEntry(packed);
    entries_.push_back(packed);
  }

  LabelRepRef Finish() {
    return InternSortedEntries(default_level_, entries_.data(), entries_.size(), level_counts_,
                               struct_hash_);
  }

 private:
  Level default_level_;
  uint64_t struct_hash_;
  uint64_t level_counts_[5] = {};
  std::vector<uint64_t> entries_;
};

}  // namespace

LabelRepRef::LabelRepRef(const LabelRepRef& other) : rep_(other.rep_) {
  if (rep_ != nullptr) {
    ++rep_->refcount;
  }
}

LabelRepRef& LabelRepRef::operator=(const LabelRepRef& other) {
  if (this == &other) {
    return *this;
  }
  LabelRep* old = rep_;
  rep_ = other.rep_;
  if (rep_ != nullptr) {
    ++rep_->refcount;
  }
  if (old != nullptr && --old->refcount == 0) {
    FreeRep(old);
  }
  return *this;
}

LabelRepRef& LabelRepRef::operator=(LabelRepRef&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  LabelRep* old = rep_;
  rep_ = other.rep_;
  other.rep_ = nullptr;
  if (old != nullptr && --old->refcount == 0) {
    FreeRep(old);
  }
  return *this;
}

LabelRepRef::~LabelRepRef() {
  if (rep_ != nullptr && --rep_->refcount == 0) {
    FreeRep(rep_);
  }
}

}  // namespace internal

using internal::Chunk;
using internal::LabelRep;
using internal::LabelRepRef;

LabelWorkStats& GetLabelWorkStats() { return g_work; }
void ResetLabelWorkStats() { g_work = LabelWorkStats(); }
const LabelMemStats& GetLabelMemStats() { return g_mem; }

Label::Label() : rep_(internal::SharedDefaultRep(Level::kL3)) {}

Label::Label(Level default_level) : rep_(internal::SharedDefaultRep(default_level)) {}

Label::Label(std::initializer_list<std::pair<Handle, Level>> entries, Level default_level)
    : Label(default_level) {
  for (const auto& [h, l] : entries) {
    Set(h, l);
  }
}

Level Label::default_level() const { return rep_->default_level; }
size_t Label::entry_count() const {
  // Entries never hold the default level, so the histogram sums to the count.
  const uint64_t* counts = rep_->level_counts;
  return static_cast<size_t>(counts[0] + counts[1] + counts[2] + counts[3] + counts[4]);
}
Level Label::min_level() const { return rep_->min_level; }
Level Label::max_level() const { return rep_->max_level; }

uint64_t Label::CountEntriesAtLevel(Level l) const {
  return rep_->level_counts[LevelOrdinal(l)];
}

uint64_t Label::CountEntriesAbove(Level l) const {
  uint64_t n = 0;
  for (int i = LevelOrdinal(l) + 1; i < 5; ++i) {
    n += rep_->level_counts[i];
  }
  return n;
}

Level Label::EntryMinLevel() const {
  for (int i = 0; i < 5; ++i) {
    if (rep_->level_counts[i] != 0) {
      return static_cast<Level>(i);
    }
  }
  return Level::kL3;
}

Level Label::EntryMaxLevel() const {
  for (int i = 4; i >= 0; --i) {
    if (rep_->level_counts[i] != 0) {
      return static_cast<Level>(i);
    }
  }
  return Level::kStar;
}

Level Label::MinNonStarEntryLevel() const {
  for (int i = 1; i < 5; ++i) {
    if (rep_->level_counts[i] != 0) {
      return static_cast<Level>(i);
    }
  }
  return Level::kL3;
}

namespace {

// Where h is or would go: the chunk that could hold it (the last one whose
// first handle is <= h; SIZE_MAX when h precedes every chunk), its lower
// bound there, and whether h has an entry.
struct Slot {
  size_t chunk;
  uint16_t pos;
  bool exists;
};

Slot FindSlot(const LabelRep* rep, Handle h) {
  size_t lo = 0;
  size_t hi = rep->chunks.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (internal::ChunkFirstHandle(rep->chunks[mid]) <= h) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) {
    return {SIZE_MAX, 0, false};
  }
  const Chunk* c = rep->chunks[lo - 1];
  const uint16_t pos = internal::LowerBoundInChunk(c, h);
  return {lo - 1, pos, pos < c->size && EntryHandle(c->entries[pos]) == h};
}

// The weak memo of the asymmetric ⊔ with a one-entry small side (intern.h):
// a direct-mapped array keyed by (big rep id, small default, small entry).
// A rep id names one content and one chunk layout forever, so a key that
// matches names the same result and the same build charges. The result is
// remembered by id and hash only, never by reference: the memo pins no rep,
// and a hit re-finds the live rep in the intern table.
struct LubMemoEntry {
  uint64_t big_id = 0;  // 0: empty (no rep has id 0)
  uint64_t small_entry = 0;
  uint64_t result_id = 0;
  uint64_t result_hash = 0;
  uint64_t build_visited = 0;  // entries_visited the build charged
  uint8_t small_default = 0;

  bool Holds(const LabelRep* big, uint8_t default_ordinal, uint64_t entry) const {
    return big_id == big->id && small_entry == entry && small_default == default_ordinal;
  }
};
static_assert(sizeof(LubMemoEntry) == 48, "memo slot size is part of the RSS budget");

constexpr size_t kLubMemoSlots = 1024;  // 48 KiB
LubMemoEntry g_lub_memo[kLubMemoSlots];

bool HasId(const LabelRep* candidate, const void* id) {
  return candidate->id == *static_cast<const uint64_t*>(id);
}

}  // namespace

namespace internal {
void ResetLubMemo() { std::fill(std::begin(g_lub_memo), std::end(g_lub_memo), LubMemoEntry()); }
}  // namespace internal

Level Label::Get(Handle h) const {
  g_work.entries_visited += 1;
  const Slot slot = FindSlot(rep_.get(), h);
  return slot.exists ? EntryLevel(rep_->chunks[slot.chunk]->entries[slot.pos])
                     : rep_->default_level;
}

bool Label::HasExplicit(Handle h) const { return FindSlot(rep_.get(), h).exists; }

uint64_t Label::rep_id() const { return rep_->id; }
bool Label::rep_canonical() const { return rep_->interned; }

LabelRep* Label::MutableRep() {
  LabelRep* rep = rep_.get();
  // Canonical reps are immutable even when this label is their only owner:
  // the intern table and the check cache both key on their identity, so
  // mutating one in place would corrupt every future lookup.
  if (rep->refcount > 1 || rep->interned) {
    rep_ = LabelRepRef(internal::CloneRep(rep));
    rep = rep_.get();
  }
  return rep;
}

void Label::Set(Handle h, Level l) {
  ASB_ASSERT(h.valid());
  LabelRep* rep = rep_.get();
  // Locate an existing entry without unsharing yet.
  const Slot found = FindSlot(rep, h);
  size_t ci = found.chunk;
  const bool exists = found.exists;
  const uint16_t pos = found.pos;
  if (exists && EntryLevel(rep->chunks[ci]->entries[pos]) == l) {
    return;  // no change
  }
  if (!exists && l == rep->default_level) {
    return;  // absent and equal to default: nothing to record
  }

  rep = MutableRep();
  g_work.entries_visited += 1;
  // The content is about to change in place: retire the old snapshot id so
  // anything keyed on it (the kernel's check cache) can never match stale
  // content. Cheap, and harmless when MutableRep just cloned.
  rep->id = internal::InternNextRepId();

  if (exists) {
    // Unshare the chunk, then overwrite or remove in place.
    Chunk*& slot = rep->chunks[ci];
    if (slot->refcount > 1) {
      Chunk* copy = internal::CloneChunkWithCapacity(slot, slot->capacity);
      internal::UnrefChunk(slot);
      slot = copy;
    }
    Chunk* c = slot;
    g_work.entries_visited += c->size;
    rep->level_counts[LevelOrdinal(EntryLevel(c->entries[pos]))] -= 1;
    rep->struct_hash -= internal::InternHashEntry(c->entries[pos]);
    if (l == rep->default_level) {
      std::memmove(&c->entries[pos], &c->entries[pos + 1],
                   (c->size - pos - 1) * sizeof(uint64_t));
      --c->size;
      if (c->size == 0) {
        internal::UnrefChunk(c);
        rep->chunks.Erase(ci);
      } else {
        internal::RecomputeChunkExtrema(c);
      }
    } else {
      rep->level_counts[LevelOrdinal(l)] += 1;
      c->entries[pos] = PackEntry(h, l);
      rep->struct_hash += internal::InternHashEntry(c->entries[pos]);
      internal::RecomputeChunkExtrema(c);
    }
    internal::RecomputeRepExtrema(rep);
    return;
  }

  // Insertion path.
  rep->level_counts[LevelOrdinal(l)] += 1;
  rep->struct_hash += internal::InternHashEntry(PackEntry(h, l));
  if (rep->chunks.empty()) {
    Chunk* c = internal::NewChunk(internal::kChunkMinCapacity);
    c->entries[0] = PackEntry(h, l);
    c->size = 1;
    internal::RecomputeChunkExtrema(c);
    rep->chunks.push_back(c);
    internal::RecomputeRepExtrema(rep);
    return;
  }
  if (ci == SIZE_MAX) {
    ci = 0;  // h precedes every chunk; insert at the front of the first one
  }

  Chunk*& slot = rep->chunks[ci];
  // Grow or split a full chunk before inserting.
  if (slot->size == slot->capacity) {
    if (slot->capacity < internal::kChunkMaxEntries) {
      Chunk* bigger = internal::CloneChunkWithCapacity(slot, internal::kChunkMaxEntries);
      internal::UnrefChunk(slot);
      slot = bigger;
    } else {
      // Split 64 entries into two chunks of 32.
      Chunk* left = internal::NewChunk(internal::kChunkMaxEntries);
      Chunk* right = internal::NewChunk(internal::kChunkMaxEntries);
      const uint16_t half = slot->size / 2;
      left->size = half;
      right->size = static_cast<uint16_t>(slot->size - half);
      std::memcpy(left->entries, slot->entries, half * sizeof(uint64_t));
      std::memcpy(right->entries, slot->entries + half,
                  right->size * sizeof(uint64_t));
      internal::RecomputeChunkExtrema(left);
      internal::RecomputeChunkExtrema(right);
      internal::UnrefChunk(slot);
      rep->chunks[ci] = left;
      rep->chunks.Insert(ci + 1, right);
      if (h >= internal::ChunkFirstHandle(right)) {
        ++ci;
      }
    }
  }

  Chunk*& target = rep->chunks[ci];
  if (target->refcount > 1) {
    Chunk* copy = internal::CloneChunkWithCapacity(target, target->capacity);
    internal::UnrefChunk(target);
    target = copy;
  }
  Chunk* c = target;
  const uint16_t ins = internal::LowerBoundInChunk(c, h);
  g_work.entries_visited += c->size;
  std::memmove(&c->entries[ins + 1], &c->entries[ins], (c->size - ins) * sizeof(uint64_t));
  c->entries[ins] = PackEntry(h, l);
  ++c->size;
  internal::RecomputeChunkExtrema(c);
  internal::RecomputeRepExtrema(rep);
}

bool Label::Leq(const Label& other) const {
  g_work.ops += 1;
  const LabelRep* a = rep_.get();
  const LabelRep* b = other.rep_.get();
  if (a == b) {
    g_work.fast_path_hits += 1;
    return true;
  }
  // Min/max pruning (§5.6): if every level in A is below every level in B,
  // no entry scan is needed.
  if (LevelLeq(a->max_level, b->min_level)) {
    g_work.fast_path_hits += 1;
    return true;
  }
  // Handles mentioned in neither label compare default-to-default, and there
  // are unboundedly many of them, so this check is decisive.
  if (!LevelLeq(a->default_level, b->default_level)) {
    return false;
  }
  // Asymmetric small ⊑ big: if our default is below every entry of the big
  // side, only our explicit entries need point checks. (Charged as a scan.)
  if (AsymmetricShapes(entry_count(), other.entry_count()) &&
      LevelLeq(a->default_level, other.EntryMinLevel())) {
    g_work.entries_visited += entry_count() + other.entry_count();
    for (EntryIter it = IterateEntries(); !it.done(); it.Advance()) {
      if (!LevelLeq(it.level(), other.Get(it.handle()))) {
        return false;
      }
    }
    return true;
  }
  // Asymmetric big ⊑ small: valid wholesale when every big entry is below
  // the small side's default; the small side's entries get point checks.
  if (AsymmetricShapes(other.entry_count(), entry_count()) &&
      LevelLeq(EntryMaxLevel(), b->default_level)) {
    g_work.entries_visited += entry_count() + other.entry_count();
    for (EntryIter it = other.IterateEntries(); !it.done(); it.Advance()) {
      if (!LevelLeq(Get(it.handle()), it.level())) {
        return false;
      }
    }
    return true;
  }
  internal::Cursor ca(a, b, true, Level::kStar, b->default_level);
  internal::Cursor cb(b, a, true, a->default_level, Level::kL3);
  while (!ca.done() || !cb.done()) {
    g_work.entries_visited += 1;
    if (cb.done() || (!ca.done() && EntryHandle(ca.entry()) < EntryHandle(cb.entry()))) {
      // Handle only in A: compare against B's default.
      if (!LevelLeq(EntryLevel(ca.entry()), b->default_level)) {
        return false;
      }
      ca.Advance();
    } else if (ca.done() || EntryHandle(cb.entry()) < EntryHandle(ca.entry())) {
      // Handle only in B: A's default applies.
      if (!LevelLeq(a->default_level, EntryLevel(cb.entry()))) {
        return false;
      }
      cb.Advance();
    } else {
      if (!LevelLeq(EntryLevel(ca.entry()), EntryLevel(cb.entry()))) {
        return false;
      }
      ca.Advance();
      cb.Advance();
    }
  }
  return true;
}

Label Label::Lub(const Label& a, const Label& b) {
  g_work.ops += 1;
  const LabelRep* ra = a.rep_.get();
  const LabelRep* rb = b.rep_.get();
  // Fast paths: if one label dominates the other everywhere (by extrema),
  // the result is the dominating label, shared without copying.
  if (ra == rb || LevelLeq(rb->max_level, ra->min_level)) {
    g_work.fast_path_hits += 1;
    return a;
  }
  if (LevelLeq(ra->max_level, rb->min_level)) {
    g_work.fast_path_hits += 1;
    return b;
  }
  // Asymmetric small ⊔ big: when the small side's default is below
  // everything in the big side, big-only entries and the default are
  // unchanged, so the result is the big label with the small side's entries
  // folded in pointwise. Account the work as if the big side were scanned.
  // A result that differs from the big side is canonicalized, so the sends
  // of one owner (ES = PS ⊔ CS, dbproxy's row fan-out) share one rep and
  // one id while any of them is queued. With a one-entry small side the
  // memo answers a repeat without building: it takes the remembered rep
  // while it lives and replays the charges its build measured.
  {
    const Label& small = a.entry_count() <= b.entry_count() ? a : b;
    const Label& big = a.entry_count() <= b.entry_count() ? b : a;
    if (AsymmetricShapes(small.entry_count(), big.entry_count()) &&
        LevelLeq(small.default_level(), big.min_level())) {
      g_work.entries_visited += big.entry_count() + small.entry_count();
      const LabelRep* big_rep = big.rep_.get();
      const uint8_t small_default = LevelOrdinal(small.default_level());
      uint64_t small_entry = 0;
      LubMemoEntry* memo = nullptr;
      if (small.entry_count() == 1) {
        small_entry = internal::Cursor(small.rep_.get()).entry();
        memo = &g_lub_memo[HashMix64(big_rep->id, small_entry) & (kLubMemoSlots - 1)];
        // The id check counts nothing; a hit counts what Canonicalize
        // would have when it found this rep.
        LabelRep* twin = memo->Holds(big_rep, small_default, small_entry)
                             ? internal::InternFind(memo->result_hash, HasId, &memo->result_id)
                             : nullptr;
        if (twin != nullptr) {
          g_work.entries_visited += memo->build_visited;
          internal::InternNoteProbedDedup(internal::RepHeapBytes(twin));
          ++twin->refcount;
          return Label(LabelRepRef(twin));
        }
      }
      const uint64_t visited_before = g_work.entries_visited;
      Label result = big;
      for (Label::EntryIter it = small.IterateEntries(); !it.done(); it.Advance()) {
        result.Set(it.handle(), LevelMax(big.Get(it.handle()), it.level()));
      }
      // No change leaves the big side's own rep, possibly a process's
      // mutable label: canonicalizing it would freeze that label.
      if (result.rep_.get() == big_rep) {
        return result;
      }
      const uint64_t build_visited = g_work.entries_visited - visited_before;
      result.Canonicalize();
      if (memo != nullptr) {
        *memo = {big_rep->id, small_entry, result.rep_->id, result.rep_->struct_hash,
                 build_visited, small_default};
      }
      return result;
    }
  }
  const Level da = ra->default_level;
  const Level db = rb->default_level;
  internal::RepBuilder out(LevelMax(da, db));
  internal::Cursor ca(ra, rb, LevelLeq(da, db), Level::kStar, db);
  internal::Cursor cb(rb, ra, LevelLeq(db, da), Level::kStar, da);
  while (!ca.done() || !cb.done()) {
    g_work.entries_visited += 1;
    if (cb.done() || (!ca.done() && EntryHandle(ca.entry()) < EntryHandle(cb.entry()))) {
      out.Append(EntryHandle(ca.entry()), LevelMax(EntryLevel(ca.entry()), db));
      ca.Advance();
    } else if (ca.done() || EntryHandle(cb.entry()) < EntryHandle(ca.entry())) {
      out.Append(EntryHandle(cb.entry()), LevelMax(EntryLevel(cb.entry()), da));
      cb.Advance();
    } else {
      out.Append(EntryHandle(ca.entry()),
                 LevelMax(EntryLevel(ca.entry()), EntryLevel(cb.entry())));
      ca.Advance();
      cb.Advance();
    }
  }
  return Label(out.Finish());
}

Label Label::Glb(const Label& a, const Label& b) {
  g_work.ops += 1;
  const LabelRep* ra = a.rep_.get();
  const LabelRep* rb = b.rep_.get();
  if (ra == rb || LevelLeq(ra->max_level, rb->min_level)) {
    g_work.fast_path_hits += 1;
    return a;
  }
  if (LevelLeq(rb->max_level, ra->min_level)) {
    g_work.fast_path_hits += 1;
    return b;
  }
  // Asymmetric small ⊓ big (dual of the ⊔ fast path): valid when the small
  // default sits above everything in the big label.
  {
    const Label& small = a.entry_count() <= b.entry_count() ? a : b;
    const Label& big = a.entry_count() <= b.entry_count() ? b : a;
    if (AsymmetricShapes(small.entry_count(), big.entry_count()) &&
        LevelLeq(big.max_level(), small.default_level())) {
      g_work.entries_visited += big.entry_count() + small.entry_count();
      Label result = big;
      for (Label::EntryIter it = small.IterateEntries(); !it.done(); it.Advance()) {
        result.Set(it.handle(), LevelMin(big.Get(it.handle()), it.level()));
      }
      return result;
    }
  }
  const Level da = ra->default_level;
  const Level db = rb->default_level;
  internal::RepBuilder out(LevelMin(da, db));
  internal::Cursor ca(ra, rb, LevelLeq(db, da), db, Level::kL3);
  internal::Cursor cb(rb, ra, LevelLeq(da, db), da, Level::kL3);
  while (!ca.done() || !cb.done()) {
    g_work.entries_visited += 1;
    if (cb.done() || (!ca.done() && EntryHandle(ca.entry()) < EntryHandle(cb.entry()))) {
      out.Append(EntryHandle(ca.entry()), LevelMin(EntryLevel(ca.entry()), db));
      ca.Advance();
    } else if (ca.done() || EntryHandle(cb.entry()) < EntryHandle(ca.entry())) {
      out.Append(EntryHandle(cb.entry()), LevelMin(EntryLevel(cb.entry()), da));
      cb.Advance();
    } else {
      out.Append(EntryHandle(ca.entry()),
                 LevelMin(EntryLevel(ca.entry()), EntryLevel(cb.entry())));
      ca.Advance();
      cb.Advance();
    }
  }
  return Label(out.Finish());
}

Label Label::StarsOnly() const {
  g_work.ops += 1;
  const LabelRep* rep = rep_.get();
  const bool default_is_star = rep->default_level == Level::kStar;
  const Level def = default_is_star ? Level::kStar : Level::kL3;
  if (rep->chunks.empty()) {
    g_work.fast_path_hits += 1;
    return Label(def);
  }
  internal::RepBuilder out(def);
  internal::Cursor c(rep);
  while (!c.done()) {
    g_work.entries_visited += 1;
    const Level l = EntryLevel(c.entry());
    if (default_is_star) {
      // Unmentioned handles are ⋆; explicit non-star entries become 3.
      if (l != Level::kStar) {
        out.Append(EntryHandle(c.entry()), Level::kL3);
      }
    } else {
      if (l == Level::kStar) {
        out.Append(EntryHandle(c.entry()), Level::kStar);
      }
    }
    c.Advance();
  }
  return Label(out.Finish());
}

bool Label::Equals(const Label& other) const {
  const LabelRep* a = rep_.get();
  const LabelRep* b = other.rep_.get();
  // Shared-rep fast path: COW copies and hash-consed constructions compare
  // in O(1), whatever their size.
  if (a == b) {
    return true;
  }
  // Two simultaneously-live canonical reps are structurally distinct by the
  // intern invariant, so distinct pointers decide inequality in O(1) too.
  if (a->interned && b->interned) {
    return false;
  }
  return internal::SameContent(a, b);
}

void Label::JoinInPlace(const Label& other) {
  // Fast no-op: everything in `other` is already below everything here.
  if (LevelLeq(other.rep_->max_level, rep_->min_level)) {
    g_work.ops += 1;
    g_work.fast_path_hits += 1;
    return;
  }
  if (other.Leq(*this)) {
    return;  // accurate containment check avoids allocating a new rep
  }
  *this = Lub(*this, other);
  // The merge ran: re-key the result to its canonical rep. Lub's merge paths
  // already return canonical reps; this covers the paths that hand back
  // `other`'s own rep, which would otherwise take a fresh id on the next
  // contamination and starve the kernel's check cache.
  Canonicalize();
}

void Label::MeetInPlace(const Label& other) {
  if (LevelLeq(rep_->max_level, other.rep_->min_level)) {
    g_work.ops += 1;
    g_work.fast_path_hits += 1;
    return;
  }
  if (Leq(other)) {
    return;
  }
  *this = Glb(*this, other);
  Canonicalize();
}

void Label::Canonicalize() {
  internal::LabelRep* rep = rep_.get();
  if (rep->interned) {
    return;  // already canonical (or a shared default singleton)
  }
  if (rep->chunks.empty()) {
    rep_ = internal::SharedDefaultRep(rep->default_level);
    return;
  }
  // The rep's hash is already current, so the probe costs O(1) plus a
  // rep-against-rep match that skips the chunks a twin shares with it.
  const internal::InternMatchFn same_content = [](const internal::LabelRep* candidate,
                                                  const void* self) {
    return internal::SameContent(candidate, static_cast<const internal::LabelRep*>(self));
  };
  if (internal::LabelRep* canonical =
          internal::InternLookup(rep->struct_hash, same_content, rep)) {
    internal::InternNoteDedup(internal::RepHeapBytes(canonical));
    ++canonical->refcount;
    rep_ = internal::LabelRepRef(canonical);  // drops the private rep
    return;
  }
  // No live twin: this very rep becomes the canonical one — no copy, just
  // the immutability promise (future mutations clone, per MutableRep).
  rep->interned = true;
  rep->in_table = true;
  internal::InternInsert(rep->struct_hash, rep);
}

void Label::EntryIter::NextChunk() {
  while (chunk_ < rep_->chunks.size()) {
    const Chunk* c = rep_->chunks[chunk_++];
    if (c->size != 0) {
      pos_ = c->entries;
      end_ = c->entries + c->size;
      return;
    }
  }
  pos_ = end_;
}

Label::EntryIter Label::IterateEntries() const { return EntryIter(rep_.get()); }

void Label::NonStarIter::NextChunk() {
  while (chunk_ < rep_->chunks.size()) {
    const Chunk* c = rep_->chunks[chunk_++];
    // Whole-chunk skip: the cached extrema say every entry here is ⋆.
    if (c->max_level == Level::kStar) {
      continue;
    }
    pos_ = c->entries;
    end_ = c->entries + c->size;
    while (pos_ != end_ && EntryLevel(*pos_) == Level::kStar) {
      ++pos_;
    }
    if (pos_ != end_) {
      return;
    }
  }
  pos_ = end_;
}

Label::NonStarIter Label::IterateNonStarEntries() const { return NonStarIter(rep_.get()); }

std::vector<std::pair<Handle, Level>> Label::Entries() const {
  std::vector<std::pair<Handle, Level>> out;
  out.reserve(entry_count());
  internal::Cursor c(rep_.get());
  while (!c.done()) {
    out.emplace_back(EntryHandle(c.entry()), EntryLevel(c.entry()));
    c.Advance();
  }
  return out;
}

uint64_t Label::heap_bytes() const { return internal::RepHeapBytes(rep_.get()); }

std::string Label::ToString() const {
  std::string out = "{";
  internal::Cursor c(rep_.get());
  while (!c.done()) {
    out += StrFormat("%llu %s, ", static_cast<unsigned long long>(EntryHandle(c.entry()).value()),
                     LevelName(EntryLevel(c.entry())));
    c.Advance();
  }
  out += LevelName(rep_->default_level);
  out += "}";
  return out;
}

bool Label::Parse(std::string_view text, Label* out) {
  std::string_view s = Trim(text);
  if (s.size() < 3 || s.front() != '{' || s.back() != '}') {
    return false;
  }
  s = s.substr(1, s.size() - 2);
  const std::vector<std::string> parts = Split(s, ',');
  if (parts.empty()) {
    return false;
  }
  const std::string_view def_part = Trim(parts.back());
  Level def;
  if (def_part.size() != 1 || !LevelFromName(def_part[0], &def)) {
    return false;
  }
  // Build through LabelBuilder so parsed labels land on the hash-consing
  // path: re-parsing a label the process already holds shares its canonical
  // rep instead of allocating a twin. Validation happens before each Append
  // (the builder asserts, it does not report).
  LabelBuilder builder(def);
  uint64_t prev_handle = 0;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    const std::string_view entry = Trim(parts[i]);
    const size_t space = entry.rfind(' ');
    if (space == std::string_view::npos) {
      return false;
    }
    uint64_t handle_value = 0;
    if (!ParseUint64(Trim(entry.substr(0, space)), &handle_value) ||
        handle_value == 0 || handle_value > Handle::kMaxValue) {
      return false;
    }
    // ToString emits strictly increasing handles; duplicated or reordered
    // entries mark corrupt input (the binary codec in src/store rejects the
    // same shapes), so refuse them rather than silently last-one-wins.
    if (handle_value <= prev_handle) {
      return false;
    }
    prev_handle = handle_value;
    const std::string_view level_part = Trim(entry.substr(space + 1));
    Level l;
    if (level_part.size() != 1 || !LevelFromName(level_part[0], &l)) {
      return false;
    }
    if (l != def) {  // a default-valued entry parses as a no-op, as Set did
      builder.Append(Handle::FromValue(handle_value), l);
    }
  }
  *out = builder.Build();
  return true;
}

void LabelBuilder::Append(Handle h, Level l) {
  ASB_ASSERT(h.valid());
  ASB_ASSERT(l != default_level_ && "builder entries must differ from the default");
  const uint64_t packed = PackEntry(h, l);
  // Levels live in the low 3 bits, so shifted comparison orders by handle;
  // strict inequality also rejects duplicates.
  ASB_ASSERT((entries_.empty() || (packed >> 3) > (last_packed_ >> 3)) &&
             "builder entries must arrive in strictly increasing handle order");
  last_packed_ = packed;
  level_counts_[LevelOrdinal(l)] += 1;
  entries_hash_ += internal::InternHashEntry(packed);
  entries_.push_back(packed);
}

Label LabelBuilder::Build() {
  Label result(internal::InternSortedEntries(
      default_level_, entries_.data(), entries_.size(), level_counts_,
      internal::InternHashSeed(LevelOrdinal(default_level_)) + entries_hash_));
  entries_.clear();
  last_packed_ = 0;
  entries_hash_ = 0;
  for (int l = 0; l < 5; ++l) {
    level_counts_[l] = 0;
  }
  return result;
}

void Label::CheckRep() const {
  const LabelRep* rep = rep_.get();
  ASB_ASSERT(rep != nullptr);
  ASB_ASSERT(rep->refcount >= 1);
  Level lo = rep->default_level;
  Level hi = rep->default_level;
  Handle prev = Handle::Invalid();
  for (const Chunk* c : rep->chunks) {
    ASB_ASSERT(c->refcount >= 1);
    ASB_ASSERT(c->size >= 1);
    ASB_ASSERT(c->size <= c->capacity);
    Level clo = Level::kL3;
    Level chi = Level::kStar;
    for (uint16_t i = 0; i < c->size; ++i) {
      const Handle h = EntryHandle(c->entries[i]);
      const Level l = EntryLevel(c->entries[i]);
      ASB_ASSERT(h.valid());
      ASB_ASSERT(prev < h && "entries must be strictly increasing");
      ASB_ASSERT(l != rep->default_level && "entries must differ from the default");
      prev = h;
      clo = LevelMin(clo, l);
      chi = LevelMax(chi, l);
    }
    ASB_ASSERT(c->min_level == clo);
    ASB_ASSERT(c->max_level == chi);
    lo = LevelMin(lo, clo);
    hi = LevelMax(hi, chi);
  }
  ASB_ASSERT(rep->min_level == lo);
  ASB_ASSERT(rep->max_level == hi);
  uint64_t counts[5] = {};
  std::vector<uint64_t> entries;
  for (const Chunk* c : rep->chunks) {
    for (uint16_t i = 0; i < c->size; ++i) {
      counts[LevelOrdinal(EntryLevel(c->entries[i]))] += 1;
      entries.push_back(c->entries[i]);
    }
  }
  for (int i = 0; i < 5; ++i) {
    ASB_ASSERT(rep->level_counts[i] == counts[i]);
  }
  ASB_ASSERT(rep->struct_hash == internal::InternHashEntries(LevelOrdinal(rep->default_level),
                                                             entries.data(), entries.size()) &&
             "incremental structural hash must match a from-scratch recomputation");
}

}  // namespace asbestos
