/* A SIGPROF program-counter sampler.
 *
 * setitimer(ITIMER_PROF) delivers SIGPROF as the process consumes CPU; the
 * handler stores the interrupted program counter into a ring allocated
 * before the timer starts, so it never allocates, locks or calls into the
 * OCaml runtime. The handler runs on the alternate signal stack
 * (SA_ONSTACK): OCaml 5 runs code on small fiber stacks that a signal
 * frame can overflow. The OCaml runtime installs an alternate stack per
 * domain; start fails if the calling thread has none.
 *
 * The timer asks for a sample every INTERVAL_US of CPU, but the kernel
 * delivers SIGPROF at most once per scheduler tick (about 4 ms at HZ=250).
 * The ring keeps the latest RING_CAP samples.
 *
 * Only x86-64 Linux is supported (the PC is read from the ucontext's RIP);
 * elsewhere start fails. While the timer is off nothing is installed.
 */
#define _GNU_SOURCE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__) && defined(__linux__)
#define WFC_SAMPLER 1
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#endif

#ifdef WFC_SAMPLER
#define RING_CAP ((size_t) 1000000)
#define INTERVAL_US 500

static uintptr_t *ring = NULL;
static volatile size_t taken = 0; /* samples taken since start */
static int running = 0;
static struct sigaction old_action;

static void on_prof(int sig, siginfo_t *si, void *uc_)
{
  ucontext_t *uc = (ucontext_t *) uc_;
  size_t n = taken;
  (void) sig;
  (void) si;
  ring[n % RING_CAP] = (uintptr_t) uc->uc_mcontext.gregs[REG_RIP];
  taken = n + 1;
}

static int first_object(struct dl_phdr_info *info, size_t size, void *data)
{
  (void) size;
  *(uintptr_t *) data = (uintptr_t) info->dlpi_addr;
  return 1; /* the executable is listed first */
}
#endif

CAMLprim value wfc_sampler_start(value unit)
{
#ifdef WFC_SAMPLER
  struct sigaction sa;
  struct itimerval it;
  stack_t ss;
  (void) unit;
  if (running) caml_failwith("Sampler.start: already running");
  if (sigaltstack(NULL, &ss) != 0 || (ss.ss_flags & SS_DISABLE))
    caml_failwith("Sampler.start: no alternate signal stack");
  ring = calloc(RING_CAP, sizeof *ring);
  if (ring == NULL) caml_raise_out_of_memory();
  taken = 0;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, &old_action) != 0) {
    free(ring);
    ring = NULL;
    caml_failwith("Sampler.start: sigaction failed");
  }
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = INTERVAL_US;
  it.it_value = it.it_interval;
  if (setitimer(ITIMER_PROF, &it, NULL) != 0) {
    sigaction(SIGPROF, &old_action, NULL);
    free(ring);
    ring = NULL;
    caml_failwith("Sampler.start: setitimer failed");
  }
  running = 1;
  return Val_unit;
#else
  (void) unit;
  caml_failwith("Sampler.start: the sampler needs x86-64 Linux");
#endif
}

/* Stop the timer and return ⟨load base, kept PCs oldest first, samples
   taken⟩. */
CAMLprim value wfc_sampler_stop(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(pcs, res);
#ifdef WFC_SAMPLER
  struct itimerval off;
  uintptr_t base = 0;
  size_t n, kept, first, i;
  if (!running) caml_failwith("Sampler.stop: not running");
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  sigaction(SIGPROF, &old_action, NULL);
  running = 0;
  n = taken;
  kept = n < RING_CAP ? n : RING_CAP;
  first = n - kept;
  pcs = caml_alloc(kept, 0);
  for (i = 0; i < kept; i++)
    Store_field(pcs, i, Val_long((intnat) ring[(first + i) % RING_CAP]));
  free(ring);
  ring = NULL;
  dl_iterate_phdr(first_object, &base);
  res = caml_alloc_tuple(3);
  Store_field(res, 0, Val_long((intnat) base));
  Store_field(res, 1, pcs);
  Store_field(res, 2, Val_long((intnat) n));
  CAMLreturn(res);
#else
  caml_failwith("Sampler.stop: the sampler needs x86-64 Linux");
  CAMLreturn(Val_unit);
#endif
}
