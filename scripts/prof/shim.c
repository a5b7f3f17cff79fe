// Flat CPU sampler, loaded with LD_PRELOAD (see scripts/profile.sh).
// SIGPROF every PERIOD_US of CPU time lands on whichever thread is running;
// the handler records its tid, RIP and a frame-pointer walk. At exit
// the samples and /proc/self/maps go to $PROF_OUT for scripts/prof/symbolise.py.
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define PERIOD_US 1003 /* the kernel rounds it up to its tick (4 ms here) */
#define MAX_SAMPLES (1 << 20)
#define DEPTH 16 /* words per sample: tid, rip, then up to 14 return addresses */
static unsigned long (*samples)[DEPTH];
static volatile long taken;
// The mapping this thread's stack pointer was last seen in: [lo, hi).
static __thread unsigned long stack[2] __attribute__((tls_model("initial-exec")));

// Find the mapping that holds sp in /proc/self/maps (lines of "lo-hi perms
// ...", hex). Runs inside the signal handler: open/read/close only, errno kept.
static void find_stack(unsigned long sp) {
  char buf[4096];
  unsigned long at[2] = {0, 0};
  int field = 0; /* 0: reading lo, 1: reading hi, 2: rest of the line */
  int saved = errno, fd = open("/proc/self/maps", O_RDONLY);
  stack[0] = stack[1] = 0;
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
  errno = saved;
}

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
  // while it is a rising chain of frames inside this thread's stack mapping,
  // every byte of which is readable.
  if (sp < stack[0] || sp >= stack[1]) find_stack(sp);
  for (int d = 2; d < DEPTH; d++) {
    unsigned long a = (unsigned long)fp;
    if (a <= sp || a + 16 > stack[1] || (a & 7)) break;
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
  samples = calloc(MAX_SAMPLES, sizeof *samples);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
  setitimer(ITIMER_PROF, &every, NULL);
  atexit(dump);
}
