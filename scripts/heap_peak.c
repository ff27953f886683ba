// heap_peak: what the heap held, by block size, at a process's in-use peak.
//
// An LD_PRELOAD shim over glibc's allocator, using libc only. It counts
// every live block by its usable size (malloc_usable_size), keeps the
// in-use total, and copies the per-size histogram whenever that total
// passes its peak. At exit it prints the peak histogram to stderr, largest
// share first. It also interposes _exit, so the forked repetitions of
// bench_e2e (which end with _exit) report too: each process prints its own
// report under its pid, and a forked child counts from the heap it
// inherited at the fork.
//
//   cc -O2 -shared -fPIC -o heap_peak.so scripts/heap_peak.c
//   LD_PRELOAD=$PWD/heap_peak.so .bench_build/e2e/bench_e2e --smoke --workload notes_rw
//
// Blocks up to 1 KiB are binned by 16-byte size class, named by its upper
// bound (a std::deque node of 504 B shows as "<=512", one of 512 B, whose
// usable size is 520, as "<=528"); larger ones by power of two. A snapshot
// is taken each time the total passes the last one by 1/1024, so the
// histogram is the peak's to within 0.1%; the peak total itself is exact.
// The counts are usable sizes, the bytes a program can actually touch, not
// the allocator's headers or the pages the kernel maps (RSS).
#define _GNU_SOURCE
#include <errno.h>
#include <malloc.h>
#include <pthread.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <sys/syscall.h>
#include <unistd.h>

extern void* __libc_malloc(size_t);
extern void __libc_free(void*);
extern void* __libc_calloc(size_t, size_t);
extern void* __libc_realloc(void*, size_t);
extern void* __libc_memalign(size_t, size_t);

enum { kSmallLimit = 1024, kBuckets = 128 };

struct Histogram {
  uint64_t blocks[kBuckets];
  uint64_t bytes[kBuckets];
  uint64_t total;
};

static struct Histogram live;
static struct Histogram at_peak;
static uint64_t peak_total;
static volatile int lock_word;
static int reported;

static void Lock(void) {
  while (__atomic_test_and_set(&lock_word, __ATOMIC_ACQUIRE)) {
  }
}

static void Unlock(void) { __atomic_clear(&lock_word, __ATOMIC_RELEASE); }

static int Bucket(size_t size) {
  if (size <= kSmallLimit) {
    return (int)((size + 15) / 16);  // 0..64
  }
  // (2^k, 2^(k+1)] for k >= 10 maps to 65 + (k - 10).
  const int k = 63 - __builtin_clzll((unsigned long long)(size - 1));
  const int b = 65 + (k - 10);
  return b < kBuckets ? b : kBuckets - 1;
}

static void Track(void* p, int sign) {
  if (p == NULL) {
    return;
  }
  const size_t size = malloc_usable_size(p);
  const int b = Bucket(size);
  Lock();
  if (sign > 0) {
    live.blocks[b] += 1;
    live.bytes[b] += size;
    live.total += size;
    if (live.total > peak_total) {
      peak_total = live.total;
      if (live.total - at_peak.total > at_peak.total / 1024) {
        at_peak = live;
      }
    }
  } else {
    live.blocks[b] -= 1;
    live.bytes[b] -= size;
    live.total -= size;
  }
  Unlock();
}

void* malloc(size_t n) {
  void* p = __libc_malloc(n);
  Track(p, +1);
  return p;
}

void free(void* p) {
  Track(p, -1);
  __libc_free(p);
}

void* calloc(size_t n, size_t size) {
  void* p = __libc_calloc(n, size);
  Track(p, +1);
  return p;
}

void* realloc(void* old, size_t n) {
  if (old == NULL) {
    return malloc(n);
  }
  if (n == 0) {
    free(old);
    return NULL;
  }
  Track(old, -1);
  void* p = __libc_realloc(old, n);
  Track(p != NULL ? p : old, +1);  // on failure the old block lives on
  return p;
}

void* reallocarray(void* old, size_t n, size_t size) {
  size_t bytes;
  if (__builtin_mul_overflow(n, size, &bytes)) {
    errno = ENOMEM;
    return NULL;
  }
  return realloc(old, bytes);
}

void* memalign(size_t align, size_t n) {
  void* p = __libc_memalign(align, n);
  Track(p, +1);
  return p;
}

void* aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void** out, size_t align, size_t n) {
  if (align < sizeof(void*) || (align & (align - 1)) != 0) {
    return EINVAL;
  }
  void* p = memalign(align, n);
  if (p == NULL) {
    return ENOMEM;
  }
  *out = p;
  return 0;
}

void* valloc(size_t n) { return memalign((size_t)sysconf(_SC_PAGESIZE), n); }

void* pvalloc(size_t n) {
  const size_t page = (size_t)sysconf(_SC_PAGESIZE);
  return memalign(page, (n + page - 1) / page * page);
}

// --- Report (no allocation: formats into a stack buffer) ---------------------

struct Out {
  char buf[8192];
  size_t len;
};

static void Put(struct Out* o, const char* s) {
  while (*s != '\0' && o->len < sizeof(o->buf)) {
    o->buf[o->len++] = *s++;
  }
}

// Writes v right-aligned in `width` columns (0 = no padding).
static void PutU64(struct Out* o, uint64_t v, int width) {
  char digits[24];
  int n = 0;
  do {
    digits[n++] = (char)('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (int pad = width - n; pad > 0; --pad) {
    Put(o, " ");
  }
  char one[2] = {0, 0};
  while (n > 0) {
    one[0] = digits[--n];
    Put(o, one);
  }
}

// A size in bytes as "512", "4K" or "2M".
static void PutSize(struct Out* o, uint64_t bytes) {
  if (bytes >= (1ull << 20) && bytes % (1ull << 20) == 0) {
    PutU64(o, bytes >> 20, 0);
    Put(o, "M");
  } else if (bytes >= 1024 && bytes % 1024 == 0) {
    PutU64(o, bytes >> 10, 0);
    Put(o, "K");
  } else {
    PutU64(o, bytes, 0);
  }
}

static void PutClass(struct Out* o, int b) {
  struct Out cell = {{0}, 0};
  if (b <= kSmallLimit / 16) {
    Put(&cell, "<=");
    PutSize(&cell, (uint64_t)b * 16);
  } else {
    const int k = b - 65 + 10;
    Put(&cell, "(");
    PutSize(&cell, 1ull << k);
    Put(&cell, ",");
    PutSize(&cell, 1ull << (k + 1));
    Put(&cell, "]");
  }
  for (size_t pad = cell.len; pad < 14; ++pad) {
    Put(o, " ");
  }
  cell.buf[cell.len] = '\0';
  Put(o, cell.buf);
}

static void Report(void) {
  Lock();
  if (reported) {
    Unlock();
    return;
  }
  reported = 1;
  const struct Histogram h = at_peak;
  const uint64_t peak = peak_total;
  Unlock();

  struct Out o = {{0}, 0};
  uint64_t blocks = 0;
  for (int b = 0; b < kBuckets; ++b) {
    blocks += h.blocks[b];
  }
  Put(&o, "heap_peak[pid ");
  PutU64(&o, (uint64_t)getpid(), 0);
  Put(&o, "]: peak ");
  PutU64(&o, peak, 0);
  Put(&o, " B in use; at the snapshot ");
  PutU64(&o, h.total, 0);
  Put(&o, " B in ");
  PutU64(&o, blocks, 0);
  Put(&o, " blocks\n    size class     blocks          bytes  share\n");
  // Rows largest first, down to 1% of the total or the 16th row.
  int shown[kBuckets] = {0};
  for (int row = 0; row < 16; ++row) {
    int best = -1;
    for (int b = 0; b < kBuckets; ++b) {
      if (!shown[b] && h.bytes[b] != 0 && (best < 0 || h.bytes[b] > h.bytes[best])) {
        best = b;
      }
    }
    if (best < 0 || (row > 0 && h.bytes[best] * 100 < h.total)) {
      break;
    }
    shown[best] = 1;
    const uint64_t tenths = h.total == 0 ? 0 : h.bytes[best] * 1000 / h.total;
    PutClass(&o, best);
    PutU64(&o, h.blocks[best], 11);
    PutU64(&o, h.bytes[best], 15);
    PutU64(&o, tenths / 10, 6);
    Put(&o, ".");
    PutU64(&o, tenths % 10, 0);
    Put(&o, "%\n");
  }
  for (size_t off = 0; off < o.len;) {
    const ssize_t n = write(2, o.buf + off, o.len - off);
    if (n <= 0) {
      break;
    }
    off += (size_t)n;
  }
}

// A forked child's peak is its own: it starts from the heap it inherited.
static void AfterForkInChild(void) {
  lock_word = 0;
  peak_total = live.total;
  at_peak = live;
  reported = 0;
}

__attribute__((constructor)) static void Init(void) {
  pthread_atfork(NULL, NULL, AfterForkInChild);
}

__attribute__((destructor)) static void AtExit(void) { Report(); }

void _exit(int status) {
  Report();
  syscall(SYS_exit_group, status);
  __builtin_unreachable();
}
