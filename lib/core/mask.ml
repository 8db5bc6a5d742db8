(* The masking phase (paper §4.2, Listing 2; Steps 4-5 of Figure 1).

   Failure non-atomic methods are wrapped in atomicity wrappers that
   checkpoint the receiver's object graph on entry and roll it back
   before re-raising if the call ends exceptionally.  Per §4.3
   (Definition 3) the default policy wraps only *pure* failure
   non-atomic methods: once these are masked, conditional ones are
   atomic by construction.

   Like detection, masking exists in both implementation flavors:
   a load-time filter for compiled programs, and a source-to-source
   transformation producing the corrected program P_C. *)

open Failatom_runtime
open Failatom_minilang

(* The methods to wrap: chosen by policy, minus the user's do-not-wrap
   list (the paper's web-interface exclusions).  Mangled methods — the
   wrappers and renamed originals of an earlier masking pass — are never
   wrapped again: re-masking an already-corrected program must be a
   no-op, not wrap the masking machinery itself. *)
let targets (config : Config.t) (classification : Classify.t) : Method_id.Set.t =
  let base =
    match config.Config.wrap_policy with
    | Config.Wrap_pure -> Classify.pure_methods classification
    | Config.Wrap_all_non_atomic -> Classify.non_atomic_methods classification
  in
  let base =
    List.filter
      (fun (id : Method_id.t) -> Source_weaver.demangle id.Method_id.name = None)
      base
  in
  Method_id.Set.diff
    (Method_id.Set.of_list base)
    (Method_id.Set.of_list config.Config.do_not_wrap)

(* ------------------------------------------------------------------ *)
(* Shared checkpoint/rollback logic                                    *)
(* ------------------------------------------------------------------ *)

let checkpoint_roots (config : Config.t) recv args =
  if config.Config.snapshot_args then recv :: List.filter Value.is_ref args
  else [ recv ]

(* The call's checkpoint.  It is closed when the roots cover every
   reference the body starts with; a reference argument left out of the
   roots makes rollback filter by entry-time reachability, so the
   argument's graph keeps the call's writes, as under an eager
   checkpoint of the same roots. *)
let take_checkpoint (config : Config.t) vm recv args =
  let closed = config.Config.snapshot_args || not (List.exists Value.is_ref args) in
  Checkpoint.take ~closed vm.Vm.heap (checkpoint_roots config recv args)

(* Nested wrapped calls push and pop in LIFO order, mirroring each
   thread's call stack.  The stacks are per-thread: under a preemptive
   schedule two threads' wrapped calls interleave arbitrarily, and a
   shared stack would let one thread's exit pop — and roll back —
   another thread's checkpoint. *)
type entries = (int, Checkpoint.t list) Hashtbl.t

let entries () : entries = Hashtbl.create 4

let stack_of (entries : entries) vm =
  Option.value ~default:[] (Hashtbl.find_opt entries vm.Vm.cur_tid)

let enter config entries vm recv args =
  Hashtbl.replace entries vm.Vm.cur_tid
    (take_checkpoint config vm recv args :: stack_of entries vm)

let leave entries vm ~rollback =
  match stack_of entries vm with
  | [] -> ()
  | cp :: rest ->
    Hashtbl.replace entries vm.Vm.cur_tid rest;
    if rollback then Checkpoint.rollback cp;
    Checkpoint.dispose cp

(* ------------------------------------------------------------------ *)
(* Binary flavor: atomicity filter                                     *)
(* ------------------------------------------------------------------ *)

let masking_filter config =
  let entries = entries () in
  { Vm.filt_name = "masking";
    pre =
      (fun vm _meth recv args ->
        enter config entries vm recv args;
        Vm.Proceed);
    post =
      (fun vm _meth _recv _args result ->
        leave entries vm ~rollback:(Result.is_error result);
        Vm.Pass);
    unwind =
      (fun vm _meth ->
        (* An OCaml-level abort (deadline, scheduler unwind) ends the
           call exceptionally without running [post]: roll the entry
           back and dispose it, exactly as an exceptional return would —
           leaving it would keep its shadow attached to the write
           barrier forever. *)
        leave entries vm ~rollback:true) }

(* Attaches atomicity wrappers to the target methods of a compiled
   program (load-time masking, no source access). *)
let attach_masking config ~targets vm =
  let filter = masking_filter config in
  Vm.iter_methods vm (fun _cls meth ->
      let id = Method_id.make meth.Vm.meth_class meth.Vm.meth_name in
      if Method_id.Set.mem id targets then Vm.attach_filter meth filter)

(* ------------------------------------------------------------------ *)
(* Source flavor: corrected program P_C                                *)
(* ------------------------------------------------------------------ *)

(* Rewrites the program so every target method is replaced by its
   atomicity wrapper (Listing 2).  The result is ordinary MiniLang; it
   needs {!register_hooks} on its VM before running. *)
let corrected_program ~targets program = Source_weaver.weave_masking ~targets program

(* A woven wrapper's checkpoint, as held by the running program. *)
type Vm.handle += Wrapper_checkpoint of Checkpoint.t

(* Runtime support for the woven atomicity wrappers.  The checkpoints
   live in the VM's handle table, so a fork of the run rewinds them too
   (their shadows are rewound with the heap). *)
let register_hooks (config : Config.t) vm =
  let hook_error name = invalid_arg (Printf.sprintf "hook %s: invalid arguments" name) in
  let take_cp name vm = function
    | [ Value.Int token ] -> (
      match Vm.take_handle vm token with
      | Some (Wrapper_checkpoint cp) -> cp
      | _ -> hook_error name)
    | _ -> hook_error name
  in
  Vm.register_hook vm "__checkpoint" (fun vm args ->
      match args with
      | [ recv; Value.Ref arr_id ] ->
        let extra =
          match Heap.get vm.Vm.heap arr_id with
          | Heap.Arr a -> Array.to_list a
          | Heap.Obj _ -> hook_error "__checkpoint"
        in
        let cp = take_checkpoint config vm recv extra in
        Value.Int (Vm.add_handle vm (Wrapper_checkpoint cp))
      | _ -> hook_error "__checkpoint");
  Vm.register_hook vm "__restore" (fun vm args ->
      let cp = take_cp "__restore" vm args in
      Checkpoint.rollback cp;
      Checkpoint.dispose cp;
      Value.Null);
  Vm.register_hook vm "__cpdrop" (fun vm args ->
      Checkpoint.dispose (take_cp "__cpdrop" vm args);
      Value.Null)

(* Compiles the corrected program with its hooks registered. *)
let load_corrected config ~targets program =
  let vm = Compile.program (corrected_program ~targets program) in
  register_hooks config vm;
  vm

(* ------------------------------------------------------------------ *)
(* End-to-end pipeline                                                 *)
(* ------------------------------------------------------------------ *)

type outcome = {
  classification : Classify.t;
  wrapped : Method_id.Set.t;
  corrected : Ast.program; (* the corrected program P_C (source flavor) *)
}

(* Runs detection, classifies, and produces the corrected program —
   the full pipeline of Figure 1.  [prepare] is forwarded to the
   detection runs (needed when [program] is itself a corrected program
   whose woven wrappers call the checkpoint hooks). *)
let correct ?(config = Config.default) ?flavor ?prepare program =
  let detection = Detect.run ~config ?flavor ?prepare program in
  let classification =
    Classify.classify ~exception_free:config.Config.exception_free detection
  in
  let wrapped = targets config classification in
  { classification; wrapped; corrected = corrected_program ~targets:wrapped program }
