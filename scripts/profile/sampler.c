/*
 * sampler.c - a CPU-time sampling profiler loaded with LD_PRELOAD.
 *
 * At load it arms setitimer(ITIMER_PROF) at 1 ms of process CPU time. Each
 * SIGPROF records the interrupted instruction pointer and walks the frame
 * pointer chain (rbp) into a preallocated ring; nothing is allocated and
 * no lock is taken in the handler. At exit it writes to $CTPROF_OUT:
 *
 *   exe <path of the executable>
 *   text <lo> <hi>        one line per executable mapping of that file
 *   base <addr>           where the file's offset 0 is mapped (PIE bias)
 *   dropped <n>           samples the full ring overwrote
 *   s <leaf> <caller> ... one line per sample, innermost frame first
 *
 * scripts/profile.sh builds the program with frame pointers, runs it under
 * this file and symbolises the addresses with nm.
 *
 * The walk only reads memory it knows is stack: between the interrupted
 * stack pointer and the top of the main thread's stack (read from
 * /proc/self/maps at load; the stack grows down from there, at most
 * STACK_SPAN). A sample taken on another thread keeps its leaf frame only.
 * A frame pointer that leaves the stack, does not grow, or is misaligned
 * ends the walk.
 *
 * x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 48
#define RING 32768
#define STACK_SPAN ((uintptr_t)64 << 20)

struct sample {
    uint32_t depth;
    uintptr_t pc[MAX_DEPTH];
};

static struct sample ring[RING];
static uint64_t taken;
static uintptr_t stack_hi;
static int armed;

static void on_prof(int sig, siginfo_t *info, void *uctx) {
    (void)sig;
    (void)info;
    ucontext_t *uc = (ucontext_t *)uctx;
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    struct sample *s = &ring[__atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED) % RING];
    uint32_t depth = 0;
    s->pc[depth++] = pc;
    /* Only the main thread's stack is known to be readable. */
    if (sp < stack_hi && stack_hi - sp < STACK_SPAN) {
        while (depth < MAX_DEPTH && fp >= sp && fp % 8 == 0 && fp + 16 <= stack_hi) {
            uintptr_t next = ((uintptr_t *)fp)[0];
            uintptr_t ret = ((uintptr_t *)fp)[1];
            if (ret == 0)
                break;
            s->pc[depth++] = ret;
            if (next <= fp)
                break;
            fp = next;
        }
    }
    s->depth = depth;
}

/* The main thread's stack mapping, from /proc/self/maps. */
static void find_stack(void) {
    FILE *f = fopen("/proc/self/maps", "r");
    if (!f)
        return;
    char line[512];
    while (fgets(line, sizeof line, f)) {
        if (strstr(line, "[stack]")) {
            unsigned long lo, hi;
            if (sscanf(line, "%lx-%lx", &lo, &hi) == 2)
                stack_hi = hi;
        }
    }
    fclose(f);
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("CTPROF_OUT"))
        return;
    find_stack();
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &it, NULL);
    armed = 1;
}

__attribute__((destructor)) static void finish(void) {
    if (!armed)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    signal(SIGPROF, SIG_IGN);
    FILE *out = fopen(getenv("CTPROF_OUT"), "w");
    if (!out)
        return;
    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[n > 0 ? n : 0] = '\0';
    fprintf(out, "exe %s\n", exe);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4608];
        while (fgets(line, sizeof line, maps)) {
            unsigned long lo, hi, off;
            char perms[8], path[4096];
            path[0] = '\0';
            if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095s", &lo, &hi, perms, &off, path) < 4)
                continue;
            if (strcmp(path, exe) != 0)
                continue;
            if (off == 0)
                fprintf(out, "base %lx\n", lo);
            if (perms[2] == 'x')
                fprintf(out, "text %lx %lx\n", lo, hi);
        }
        fclose(maps);
    }
    uint64_t total = __atomic_load_n(&taken, __ATOMIC_RELAXED);
    uint64_t first = total > RING ? total - RING : 0;
    fprintf(out, "dropped %llu\n", (unsigned long long)first);
    for (uint64_t i = first; i < total; i++) {
        struct sample *s = &ring[i % RING];
        fputc('s', out);
        for (uint32_t d = 0; d < s->depth; d++)
            fprintf(out, " %lx", (unsigned long)s->pc[d]);
        fputc('\n', out);
    }
    fclose(out);
}
