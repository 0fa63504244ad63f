(** A SIGPROF program-counter sampler.

    [start] arms [setitimer(ITIMER_PROF)]; each SIGPROF stores the
    interrupted program counter into a ring allocated up front, so sampling
    allocates nothing and never enters the OCaml runtime. [stop] disarms the
    timer and returns the samples with the executable's load base, so a PC
    minus the base is an address [nm -n] prints for the executable. While
    the timer is off nothing is installed and nothing is paid.

    The timer asks for a sample every 0.5 ms of CPU, but the kernel
    delivers SIGPROF at most once per scheduler tick of consumed CPU (about
    4 ms at the common HZ=250): a one-second run yields a few hundred
    samples.

    Only x86-64 Linux is supported; elsewhere [start] raises [Failure]. *)

type profile = {
  load_base : int;  (** where the executable is mapped *)
  pcs : int array;  (** the kept samples, oldest first *)
  taken : int;  (** samples taken; more than [Array.length pcs] if the ring wrapped *)
}

val start : unit -> unit
(** Start sampling into a ring of 1,000,000 PCs, the latest kept when it
    wraps. Raises [Failure] if already running, if the calling thread has
    no alternate signal stack (the OCaml runtime installs one per domain)
    or if the platform is not x86-64 Linux. *)

val stop : unit -> profile
(** Stop sampling. Raises [Failure] if not running. *)

val write : string -> profile -> unit
(** [write file p] stores [p] as text: a header naming the executable, the
    load base and the counts, then one hexadecimal PC per line. The script
    [tools/profile_report.py] maps the PCs to symbols. *)
