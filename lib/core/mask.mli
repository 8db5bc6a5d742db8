(** The masking phase (paper §4.2, Listing 2; Steps 4–5 of Figure 1).

    Failure non-atomic methods are wrapped in atomicity wrappers that
    checkpoint the receiver's object graph on entry and roll it back
    before re-raising on exceptional exit.  Every wrapper — the
    load-time filter, the woven source-flavor hooks and the production
    wrappers of [Failatom_prod.Armed] — takes the same copy-on-write
    {!Failatom_runtime.Checkpoint} through {!enter} / {!leave}.  Per Definition 3 the default
    policy wraps only pure failure non-atomic methods.  Both of the
    paper's implementation flavors are provided: a load-time filter for
    compiled programs and a source-to-source rewrite producing the
    corrected program P_C. *)

open Failatom_runtime
open Failatom_minilang

val targets : Config.t -> Classify.t -> Method_id.Set.t
(** The methods to wrap: chosen by the configured policy, minus the
    user's do-not-wrap list. *)

val checkpoint_roots : Config.t -> Value.t -> Value.t list -> Value.t list
(** The roots a wrapped call protects: the receiver, plus the reference
    arguments when [snapshot_args] is set. *)

type entries
(** Per-thread stacks of the checkpoints of wrapped calls in progress.
    Nested wrapped calls push and pop in LIFO order; under a preemptive
    schedule each thread's calls stay on their own stack. *)

val entries : unit -> entries

val enter : Config.t -> entries -> Vm.t -> Value.t -> Value.t list -> unit
(** [enter config entries vm recv args] checkpoints a wrapped call's
    {!checkpoint_roots} on the calling thread's stack. *)

val leave : entries -> Vm.t -> rollback:bool -> unit
(** Pops the calling thread's innermost checkpoint, rolls it back when
    [rollback], and disposes it.  No-op on an empty stack. *)

val masking_filter : Config.t -> Vm.filter
(** A fresh atomicity filter (Listing 2 as a pre/post filter).  One
    filter instance keeps its own checkpoint stack; share a single
    instance across the methods of one VM. *)

val attach_masking : Config.t -> targets:Method_id.Set.t -> Vm.t -> unit
(** Load-time masking: attaches an atomicity filter to every target
    method of a compiled program (no source access). *)

val corrected_program : targets:Method_id.Set.t -> Ast.program -> Ast.program
(** Source-flavor masking: the corrected program P_C.  Its VM needs
    {!register_hooks} before running. *)

val register_hooks : Config.t -> Vm.t -> unit
(** Registers [__checkpoint] / [__restore] / [__cpdrop], the runtime
    support of woven atomicity wrappers.  The hooks keep their
    checkpoints in the VM's handle table ({!Vm.add_handle}), so a
    prefix-sharing walk of the corrected program ({!Detect.walk})
    rewinds them with each fork. *)

val load_corrected : Config.t -> targets:Method_id.Set.t -> Ast.program -> Vm.t
(** Compiles the corrected program with its hooks registered. *)

type outcome = {
  classification : Classify.t;
  wrapped : Method_id.Set.t;
  corrected : Ast.program;  (** the corrected program P_C *)
}

val correct :
  ?config:Config.t -> ?flavor:Detect.flavor -> ?prepare:(Vm.t -> unit) ->
  Ast.program -> outcome
(** The full pipeline of Figure 1: detect, classify, select targets,
    and produce the corrected program.  [prepare] is forwarded to the
    detection runs (pass {!register_hooks} when the input is itself a
    corrected program). *)
