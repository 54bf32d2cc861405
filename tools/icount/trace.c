/* Count the host instructions of a region of a program's run.

     trace [-h HIST] PROGRAM ARGS...

   Runs PROGRAM under ptrace, lets it run freely until it stops itself
   with its first SIGSTOP, single-steps it until its second SIGSTOP and
   prints the steps taken as "steps=N" on stderr; then it lets the
   program run to its end and exits with its status. With -h, the
   program runs with address-space randomization off (for that process
   only), and HIST gets the load base of its executable ("base 0x...")
   and one "0xPC COUNT" line per instruction address stepped (x86_64
   only). Linux only. */
#define _GNU_SOURCE
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>
#include <signal.h>
#include <sys/personality.h>
#include <sys/ptrace.h>
#include <sys/user.h>
#include <sys/wait.h>

#define SLOTS (1 << 20)
static unsigned long long pcs[SLOTS], counts[SLOTS];

static void note(unsigned long long pc) {
  unsigned long long h = (pc * 0x9E3779B97F4A7C15ULL) >> 44;
  while (pcs[h] != pc && counts[h] != 0) h = (h + 1) & (SLOTS - 1);
  pcs[h] = pc;
  counts[h]++;
}

/* the start of the first mapping of the program's executable */
static unsigned long long exe_base(pid_t pid) {
  char path[64], exe[4096], line[4608];
  unsigned long long lo = 0;
  snprintf(path, sizeof path, "/proc/%d/exe", pid);
  ssize_t n = readlink(path, exe, sizeof exe - 1);
  exe[n < 0 ? 0 : n] = 0;
  snprintf(path, sizeof path, "/proc/%d/maps", pid);
  FILE *f = fopen(path, "r");
  while (f && fgets(line, sizeof line, f)) {
    line[strcspn(line, "\n")] = 0;
    char *name = strchr(line, '/');
    if (name && strcmp(name, exe) == 0) { lo = strtoull(line, NULL, 16); break; }
  }
  if (f) fclose(f);
  return lo;
}

/* resume [pid] with [req], passing [sig]; the next stop's signal, or -1 at exit */
static int resume(pid_t pid, int req, int sig, int *status) {
  if (ptrace(req, pid, 0, (void *)(long)sig) < 0) { perror("ptrace"); exit(2); }
  waitpid(pid, status, 0);
  return WIFSTOPPED(*status) ? WSTOPSIG(*status) : -1;
}

int main(int argc, char **argv) {
  const char *hist = NULL;
  int a = 1, status, sig = 0;
  if (argc > 3 && strcmp(argv[1], "-h") == 0) { hist = argv[2]; a = 3; }
  if (a >= argc) { fprintf(stderr, "usage: trace [-h HIST] PROGRAM ARGS...\n"); return 2; }
  pid_t pid = fork();
  if (pid == 0) {
    if (hist) personality(ADDR_NO_RANDOMIZE);
    ptrace(PTRACE_TRACEME, 0, 0, 0);
    execvp(argv[a], argv + a);
    perror(argv[a]);
    _exit(127);
  }
  waitpid(pid, &status, 0); /* the exec's SIGTRAP */
  while ((sig = resume(pid, PTRACE_CONT, sig == SIGTRAP ? 0 : sig, &status)) != SIGSTOP)
    if (sig < 0) { fprintf(stderr, "trace: no region (no SIGSTOP)\n"); return 2; }
  unsigned long long steps = 0, base = hist ? exe_base(pid) : 0;
#ifdef __x86_64__
  struct user_regs_struct regs;
#endif
  for (sig = 0;;) {
    sig = resume(pid, PTRACE_SINGLESTEP, sig, &status);
    if (sig == SIGSTOP || sig < 0) break;
    if (sig != SIGTRAP) continue; /* deliver it on the next step */
    sig = 0;
    steps++;
#ifdef __x86_64__
    if (hist && ptrace(PTRACE_GETREGS, pid, 0, &regs) == 0) note(regs.rip);
#endif
  }
  fprintf(stderr, "steps=%llu\n", steps);
  if (hist) {
    FILE *f = fopen(hist, "w");
    if (!f) { perror(hist); return 2; }
    fprintf(f, "base 0x%llx\n", base);
    for (int i = 0; i < SLOTS; i++)
      if (counts[i]) fprintf(f, "0x%llx %llu\n", pcs[i], counts[i]);
    fclose(f);
  }
  while (sig >= 0)
    sig = resume(pid, PTRACE_CONT, sig == SIGSTOP || sig == SIGTRAP ? 0 : sig, &status);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}
