/*
 * A SIGPROF stack sampler to preload into any dynamically linked program,
 * for boxes without perf or a debugger.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so tools/profile/sampler.c
 *   LD_PRELOAD=$PWD/sampler.so ./target/release/program ...
 *   python3 tools/profile/symbolize.py sampler.*.txt
 *
 * Every process that loads it (children that inherit LD_PRELOAD included)
 * arms ITIMER_PROF for every ~1 ms of CPU time, which the kernel rounds
 * up to its own tick (4 ms at 250 Hz). Each SIGPROF records the
 * interrupted thread's stack with glibc backtrace() into a fixed buffer;
 * at exit the process writes sampler.<pid>.txt in its working directory:
 * its /proc/self/maps, then one line of hex return addresses per sample,
 * innermost first. A process that dies by a signal or _exit writes
 * nothing. When the buffer fills, later samples are dropped and counted.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_FRAMES 64
/* Words of sample storage: a depth word, then the frames. 32 MiB of
 * address space, touched only as samples arrive. */
#define BUFFER_WORDS (4u << 20)
/* The handler's own frame and the signal trampoline. */
#define SKIP_FRAMES 2

static uintptr_t buffer[BUFFER_WORDS];
static unsigned long cursor;
static unsigned long dropped;

static void on_prof(int sig) {
    (void)sig;
    int saved = errno;
    void *frames[MAX_FRAMES + SKIP_FRAMES];
    int depth = backtrace(frames, MAX_FRAMES + SKIP_FRAMES) - SKIP_FRAMES;
    if (depth > 0) {
        unsigned long at = __atomic_fetch_add(&cursor, (unsigned long)depth + 1, __ATOMIC_RELAXED);
        if (at + depth + 1 <= BUFFER_WORDS) {
            buffer[at] = (uintptr_t)depth;
            memcpy(&buffer[at + 1], &frames[SKIP_FRAMES], (size_t)depth * sizeof(void *));
        } else {
            __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        }
    }
    errno = saved;
}

__attribute__((constructor)) static void sampler_start(void) {
    /* backtrace() loads the unwinder on first use, which allocates: do it
     * here, not in the signal handler. */
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_handler = on_prof;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every = {{0, 997}, {0, 997}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void sampler_dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64];
    snprintf(path, sizeof path, "sampler.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    fputs("maps\n", out);
    int maps = open("/proc/self/maps", O_RDONLY);
    if (maps >= 0) {
        char chunk[4096];
        ssize_t n;
        while ((n = read(maps, chunk, sizeof chunk)) > 0)
            fwrite(chunk, 1, (size_t)n, out);
        close(maps);
    }
    unsigned long end = __atomic_load_n(&cursor, __ATOMIC_RELAXED);
    if (end > BUFFER_WORDS)
        end = BUFFER_WORDS;
    fprintf(out, "samples dropped %lu\n", __atomic_load_n(&dropped, __ATOMIC_RELAXED));
    for (unsigned long at = 0; at < end;) {
        uintptr_t depth = buffer[at];
        /* A reservation the handler never filled (the buffer ran out). */
        if (depth == 0 || at + depth + 1 > end)
            break;
        for (uintptr_t i = 0; i < depth; i++)
            fprintf(out, i ? " %lx" : "%lx", (unsigned long)buffer[at + 1 + i]);
        fputc('\n', out);
        at += depth + 1;
    }
    fclose(out);
}
