/*
 * sigprof: an LD_PRELOAD sampling profiler for hosts without perf.
 *
 * The constructor arms ITIMER_PROF at 1 kHz of process CPU time. The SIGPROF
 * handler stores the interrupted RIP and up to 12 return addresses found by
 * walking frame pointers, each relative to the executable's load base (so a
 * PIE's samples are the addresses addr2line wants). At exit the samples are
 * written to "$PROF_OUT.<pid>", one line a sample, leaf first; a process
 * started without PROF_OUT is left alone. Children that inherit LD_PRELOAD
 * and PROF_OUT each leave their own file.
 *
 * Build the profiled program with frame pointers
 * (RUSTFLAGS="-C force-frame-pointers=yes"); see README.md. x86-64 Linux
 * only. A diagnostic: nothing in the repository takes a number from it.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#if !defined(__x86_64__) || !defined(__linux__)
#error "sigprof reads RIP/RBP from an x86-64 Linux ucontext"
#endif

#define MAX_FRAMES 13            /* RIP + 12 return addresses */
#define MAX_SAMPLES (1u << 17)   /* 131 s of CPU at 1 kHz; 13.6 MB, touched lazily */
#define PERIOD_US 1000

struct sample {
    uintptr_t pc[MAX_FRAMES];    /* 0 ends a short stack */
};

static struct sample *samples;
static volatile uint32_t n_samples;
static volatile uint32_t n_dropped;
static uintptr_t load_base;
static char out_prefix[4000];

/* Reads two words at `fp` without faulting on a bad pointer: code built
 * without frame pointers (libc, the vDSO) leaves anything in RBP. */
static int read_frame(uintptr_t fp, uintptr_t out[2])
{
    struct iovec local = { out, 2 * sizeof(uintptr_t) };
    struct iovec remote = { (void *)fp, 2 * sizeof(uintptr_t) };
    return process_vm_readv(getpid(), &local, 1, &remote, 1, 0)
        == (ssize_t)(2 * sizeof(uintptr_t));
}

static void on_sigprof(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    int saved_errno = errno;
    uint32_t slot = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES) {
        __atomic_store_n(&n_samples, MAX_SAMPLES, __ATOMIC_RELAXED);
        __atomic_fetch_add(&n_dropped, 1, __ATOMIC_RELAXED);
        errno = saved_errno;
        return;
    }
    const ucontext_t *uc = ctx;
    struct sample *s = &samples[slot];
    s->pc[0] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP] - load_base;
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t floor = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    int depth = 1;
    /* Frames move up the stack: a pointer that does not is not one. */
    while (depth < MAX_FRAMES && fp >= floor && (fp & 7) == 0) {
        uintptr_t frame[2];
        if (!read_frame(fp, frame) || frame[1] == 0)
            break;
        s->pc[depth++] = frame[1] - load_base;
        floor = fp + 1;
        fp = frame[0];
    }
    if (depth < MAX_FRAMES)
        s->pc[depth] = 0;
    errno = saved_errno;
}

static void write_samples(void)
{
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);

    char path[4096];
    snprintf(path, sizeof path, "%s.%d", out_prefix, (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    uint32_t n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    fprintf(f, "# sigprof period_us=%d samples=%u dropped=%u\n", PERIOD_US, n, n_dropped);
    for (uint32_t i = 0; i < n; i++) {
        for (int d = 0; d < MAX_FRAMES && samples[i].pc[d]; d++)
            fprintf(f, d ? " %lx" : "%lx", (unsigned long)samples[i].pc[d]);
        fputc('\n', f);
    }
    fclose(f);
}

/* dl_iterate_phdr reports the executable first. */
static int first_object(struct dl_phdr_info *info, size_t size, void *data)
{
    (void)size;
    *(uintptr_t *)data = info->dlpi_addr;
    return 1;
}

__attribute__((constructor)) static void sigprof_start(void)
{
    const char *out = getenv("PROF_OUT");
    if (!out || !*out || strlen(out) >= sizeof out_prefix)
        return;
    strcpy(out_prefix, out);
    dl_iterate_phdr(first_object, &load_base);
    samples = mmap(NULL, sizeof(struct sample) * MAX_SAMPLES, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (samples == MAP_FAILED)
        return;
    atexit(write_samples);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    struct itimerval every;
    every.it_interval.tv_sec = 0;
    every.it_interval.tv_usec = PERIOD_US;
    every.it_value = every.it_interval;
    setitimer(ITIMER_PROF, &every, NULL);
}
