(** Deterministic cooperative scheduler for MiniLang threads.

    Threads are OCaml effect fibers multiplexed on one domain; every
    preemption choice is drawn from a seeded splitmix64 stream, so a
    run is a pure function of (program, policy spec) and replays
    bit-for-bit by re-running with the same spec.  Preemption
    opportunities are method-call boundaries only, making opportunity
    counting — and hence every decision — a function of the program's
    calls alone.  See doc/concurrency.md for the memory model,
    the decision grammar and the replay guarantees. *)

type policy =
  | Coop  (** never preempts; FIFO switch on block/finish; no decisions *)
  | Slice of int
      (** [Slice seed]: random slices of 1..8 call opportunities, next
          thread uniform over the runnable set *)
  | Pct of int * int
      (** [Pct (depth, seed)]: PCT-style randomized priorities with
          [depth] priority-change points over a 10,000-opportunity
          horizon *)

val policy_to_string : policy -> string
(** ["coop" | "slice:<seed>" | "pct:<depth>:<seed>"] — the spec
    recorded in run logs and accepted by [--schedules]. *)

val policy_of_string : string -> policy option

val run : Vm.t -> policy:policy -> (unit -> Value.t) -> Value.t
(** Runs a thunk as MiniLang thread 0 (main) under the policy, handling
    the scheduling effects ({!Vm.Preempt}, spawn/join/monitors).  After
    main returns normally, remaining runnable threads are drained and
    the crash of the lowest-tid unjoined crashed thread (if any) is
    re-raised; a crash of main or a fatal OCaml-level exception aborts
    immediately.  On return (normal or exceptional) the VM's [sched_*]
    counters and decision digest are filled in and [cur_tid] is back
    to 0. *)

val fork : Vm.t -> (unit -> Value.t) -> (Value.t, exn) result option
(** [fork vm run], called from inside a MiniLang thread of a {!run} of
    [vm]: the
    rest of that run from here, as if the current thread went on with
    [run] — a function that continues a copy of its frames, e.g.
    {!Exec.resume_raise} on an {!Exec.capture} — instead of returning.
    The scheduler is copied (threads with their states, [joined] flags
    and priorities, monitors with owners, depths and FIFO waiters, the
    run queue, the decision stream and digest, the counters, the slice
    quantum and the PCT state), every other suspended thread resumes a
    copy of its frames when first picked, and the VM's [sched_*]
    counters continue from the fork point.  Returns what {!run} would
    have returned or raised, with the VM's [sched_*] fields as {!run}
    leaves them (restore them with {!Vm.rewind}); the run it forks from
    is left as it was, apart from everything else the forked run changes
    in the VM.  [None], with nothing run, when some other thread is
    suspended under native re-entry (part of its continuation is on its
    fiber's native stack). *)
