// Allocation-site sampler, loaded with LD_PRELOAD (see scripts/profile.sh
// --alloc). It stands in for malloc, calloc and realloc, forwards each call to
// glibc, and on one thread only — the one named $PROF_THREAD, default
// "policy-rest-loop" — records every $PROF_EVERY-th call (default 16): its tid, the
// address the call returns to and a frame-pointer walk, in shim.c's format,
// so scripts/prof/symbolise.py reads the dump unchanged. A thread is matched
// by name on its sampled calls until it matches once; from then on every call
// it makes is counted, and the count goes to stderr at exit.
#define _GNU_SOURCE
#include <fcntl.h>
#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

#define MAX_SAMPLES (1 << 20)
#define DEPTH 16 /* words per sample: tid, return address, then up to 14 more */
static unsigned long (*samples)[DEPTH];
static long taken, matched_calls, every = 16;
static char wanted[32] = "policy-rest-loop";
static __thread long calls;
static __thread int matched;
// The mapping this thread's stack lives in: [lo, hi), found once.
static __thread unsigned long stack[2];

// Find the mapping of /proc/self/maps that holds sp (lines of "lo-hi perms
// ..."): open/read/close only, so it allocates nothing.
static void find_stack(unsigned long sp) {
  char buf[4096];
  unsigned long at[2] = {0, 0};
  int field = 0;
  int fd = open("/proc/self/maps", O_RDONLY);
  for (long n; fd >= 0 && !stack[1] && (n = read(fd, buf, sizeof buf)) > 0;)
    for (long i = 0; i < n && !stack[1]; i++) {
      char c = buf[i];
      if (c == '\n') {
        field = 0, at[0] = at[1] = 0;
      } else if (field < 2 && c == '-') {
        field = 1;
      } else if (field < 2 && c == ' ') {
        field = 2;
        if (at[0] <= sp && sp < at[1]) stack[0] = at[0], stack[1] = at[1];
      } else if (field < 2) {
        at[field] = at[field] << 4 | (c <= '9' ? c - '0' : c - 'a' + 10);
      }
    }
  if (fd >= 0) close(fd);
}

__attribute__((noinline)) static void record(void) {
  if (!samples) return;
  if (!matched) {
    char name[16] = {0}; /* the kernel keeps 15 bytes of a thread's name */
    prctl(PR_GET_NAME, name);
    if (strncmp(name, wanted, 15) != 0) return;
    matched = 1;
  }
  long i = __sync_fetch_and_add(&taken, 1);
  if (i >= MAX_SAMPLES) return;
  unsigned long *s = samples[i];
  unsigned long *fp = __builtin_frame_address(1); /* the allocator entry's frame */
  unsigned long sp = (unsigned long)__builtin_frame_address(0);
  if (!stack[1]) find_stack(sp);
  s[0] = syscall(SYS_gettid);
  // Follow the chain while it rises inside this thread's stack mapping.
  for (int d = 1; d < DEPTH; d++) {
    unsigned long a = (unsigned long)fp;
    if (a <= sp || a + 16 > stack[1] || (a & 7)) break;
    s[d] = fp[1];
    if ((unsigned long *)fp[0] <= fp) break;
    fp = (unsigned long *)fp[0];
  }
}

static inline void seen(void) {
  if (matched) __sync_fetch_and_add(&matched_calls, 1);
  if (++calls % every == 0) record();
}

__attribute__((noinline)) void *malloc(size_t n) {
  seen();
  return __libc_malloc(n);
}

__attribute__((noinline)) void *calloc(size_t k, size_t n) {
  seen();
  return __libc_calloc(k, n);
}

__attribute__((noinline)) void *realloc(void *p, size_t n) {
  seen();
  return __libc_realloc(p, n);
}

static void dump(void) {
  void *all = samples;
  samples = NULL; /* the dump's own allocations are not sampled */
  const char *path = getenv("PROF_OUT");
  FILE *out = fopen(path ? path : "prof.out", "w");
  if (!out) return;
  long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
  for (long i = 0; i < n; i++) {
    unsigned long *s = ((unsigned long (*)[DEPTH])all)[i];
    fprintf(out, "S %lu", s[0]);
    for (int d = 1; d < DEPTH && s[d]; d++) fprintf(out, " %lx", s[d]);
    fputc('\n', out);
  }
  char line[512];
  FILE *maps = fopen("/proc/self/maps", "r");
  while (maps && fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
  fclose(out);
  fprintf(stderr, "alloc_shim: %ld allocating calls on %s, 1 in %ld sampled\n", matched_calls,
          wanted, every);
}

__attribute__((constructor)) static void start(void) {
  const char *name = getenv("PROF_THREAD"), *n = getenv("PROF_EVERY");
  if (name) strncpy(wanted, name, sizeof wanted - 1);
  if (n && atol(n) > 0) every = atol(n);
  samples = __libc_calloc(MAX_SAMPLES, sizeof *samples);
  atexit(dump);
}
