// Flat CPU sampler, loaded with LD_PRELOAD (see scripts/profile.sh).
// SIGPROF every PROF_HZ-th of a CPU second lands on whichever thread is
// running; the handler records its tid, RIP and a frame-pointer walk. At exit
// the samples and /proc/self/maps go to $PROF_OUT for scripts/prof/symbolise.py.
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)
#define DEPTH 16 /* words per sample: tid, rip, then up to 14 return addresses */
static unsigned long (*samples)[DEPTH];
static volatile long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
  (void)sig, (void)info;
  long i = __sync_fetch_and_add(&taken, 1);
  if (i >= MAX_SAMPLES) return;
  greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
  unsigned long *s = samples[i], sp = regs[REG_RSP];
  unsigned long *fp = (unsigned long *)regs[REG_RBP];
  s[0] = syscall(SYS_gettid);
  s[1] = regs[REG_RIP];
  // Code built without frame pointers (libc) uses rbp as data: follow it only
  // while it looks like a chain of frames just above this stack pointer.
  for (int d = 2; d < DEPTH; d++) {
    unsigned long a = (unsigned long)fp;
    if (a <= sp || a > sp + (256 << 10) || (a & 7)) break;
    s[d] = fp[1];
    if ((unsigned long *)fp[0] <= fp) break;
    fp = (unsigned long *)fp[0];
  }
}

static void dump(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char *path = getenv("PROF_OUT");
  FILE *out = fopen(path ? path : "prof.out", "w");
  if (!out) return;
  long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
  for (long i = 0; i < n; i++) {
    fprintf(out, "S %lu", samples[i][0]);
    for (int d = 1; d < DEPTH && samples[i][d]; d++) fprintf(out, " %lx", samples[i][d]);
    fputc('\n', out);
  }
  char line[512];
  FILE *maps = fopen("/proc/self/maps", "r");
  while (maps && fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
  fclose(out);
}

__attribute__((constructor)) static void start(void) {
  const char *hz = getenv("PROF_HZ");
  long period_us = 1000000 / (hz ? atol(hz) : 997);
  samples = calloc(MAX_SAMPLES, sizeof *samples);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval every = {{0, period_us}, {0, period_us}};
  setitimer(ITIMER_PROF, &every, NULL);
  atexit(dump);
}
