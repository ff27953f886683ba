#include "src/labels/intern.h"

#include <memory>

#include "src/base/panic.h"
#include "src/obs/metrics.h"

namespace asbestos {

namespace {

LabelInternStats g_intern;

// The live canonical reps, in one open-addressing array of (structural hash,
// rep) slots: linear probing from slot `hash & mask`, growth to twice the
// slots when an insert would pass half full, and backward-shift erase, so a
// probe run never holds a tombstone and insert and erase allocate nothing.
// Weak pointers: reps unregister on free.
class InternTable {
 public:
  internal::LabelRep* Find(uint64_t hash, internal::InternMatchFn match, const void* ctx) const {
    for (size_t i = Home(hash); slots_[i].rep != nullptr; i = Next(i)) {
      if (slots_[i].hash == hash && match(slots_[i].rep, ctx)) {
        return slots_[i].rep;
      }
    }
    return nullptr;
  }

  void Insert(uint64_t hash, internal::LabelRep* rep) {
    if (2 * (live_ + 1) > mask_ + 1) {
      Grow();
    }
    Place({hash, rep});
    ++live_;
  }

  void Erase(uint64_t hash, const internal::LabelRep* rep) {
    size_t i = Home(hash);
    for (; slots_[i].rep != rep; i = Next(i)) {
      ASB_ASSERT(slots_[i].rep != nullptr && "canonical rep missing from intern table");
    }
    // Backward shift: pull each later slot of the run into the hole when its
    // home does not lie strictly between the hole and it, so every entry
    // stays reachable from its home without a tombstone.
    for (size_t j = Next(i); slots_[j].rep != nullptr; j = Next(j)) {
      if (((j - Home(slots_[j].hash)) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot();
    --live_;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    internal::LabelRep* rep = nullptr;  // nullptr: empty
  };

  static constexpr size_t kInitialSlots = 256;

  size_t Home(uint64_t hash) const { return static_cast<size_t>(hash) & mask_; }
  size_t Next(size_t i) const { return (i + 1) & mask_; }

  void Place(Slot slot) {
    size_t i = Home(slot.hash);
    while (slots_[i].rep != nullptr) {
      i = Next(i);
    }
    slots_[i] = slot;
  }

  void Grow() {
    std::unique_ptr<Slot[]> old = std::move(slots_);
    const size_t old_count = mask_ + 1;
    mask_ = 2 * old_count - 1;
    slots_ = std::make_unique<Slot[]>(mask_ + 1);
    for (size_t i = 0; i < old_count; ++i) {
      if (old[i].rep != nullptr) {
        Place(old[i]);
      }
    }
  }

  std::unique_ptr<Slot[]> slots_ = std::make_unique<Slot[]>(kInitialSlots);
  size_t mask_ = kInitialSlots - 1;
  size_t live_ = 0;
};

InternTable& Table() {
  static InternTable* table = new InternTable();  // never destroyed: reps may
  return *table;                                  // outlive static teardown
}

}  // namespace

const LabelInternStats& GetLabelInternStats() { return g_intern; }

namespace {
// Metrics-plane window onto the live intern stats (the struct stays the
// storage of record; see src/obs/metrics.h).
[[maybe_unused]] const uint64_t g_intern_gauges =
    obs::Registry::Get().RegisterGauges([](obs::GaugeSink& sink) {
      sink.Set("labels.intern.probes", g_intern.probes);
      sink.Set("labels.intern.hits", g_intern.hits);
      sink.Set("labels.intern.misses", g_intern.misses);
      sink.Set("labels.intern.bytes_saved", g_intern.bytes_saved);
      sink.Set("labels.intern.live_canonical", g_intern.live_canonical);
    });
}  // namespace

void ResetLabelInternStats() {
  const int64_t live = g_intern.live_canonical;
  g_intern = LabelInternStats();
  g_intern.live_canonical = live;
}

namespace internal {

uint64_t InternNextRepId() {
  static uint64_t next = 0;
  return ++next;
}

uint64_t InternHashEntries(uint8_t default_ordinal, const uint64_t* entries, size_t count) {
  uint64_t h = InternHashSeed(default_ordinal);
  for (size_t i = 0; i < count; ++i) {
    h += InternHashEntry(entries[i]);
  }
  return h;
}

LabelRep* InternFind(uint64_t hash, InternMatchFn match, const void* ctx) {
  return Table().Find(hash, match, ctx);
}

LabelRep* InternLookup(uint64_t hash, InternMatchFn match, const void* ctx) {
  g_intern.probes += 1;
  return InternFind(hash, match, ctx);
}

void InternInsert(uint64_t hash, LabelRep* rep) {
  Table().Insert(hash, rep);
  g_intern.misses += 1;
  g_intern.live_canonical += 1;
}

void InternErase(uint64_t hash, const LabelRep* rep) {
  Table().Erase(hash, rep);
  g_intern.live_canonical -= 1;
}

void InternNoteDedup(uint64_t bytes_saved) {
  g_intern.hits += 1;
  g_intern.bytes_saved += bytes_saved;
}

void InternNoteProbedDedup(uint64_t bytes_saved) {
  g_intern.probes += 1;
  InternNoteDedup(bytes_saved);
}

}  // namespace internal
}  // namespace asbestos
