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
