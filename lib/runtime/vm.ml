(* The virtual machine: class table, method dispatch and interposition.

   This module plays the role of the JVM / C++ runtime in the paper.
   Method entries are mutable so that "load-time" tools — our analog of
   the paper's Java Wrapper Generator (JWG/BCEL filters) — can attach
   pre/post filters to any method *after* the program has been compiled,
   without touching its source.  Source-level weaving, the analog of the
   paper's AspectC++ path, instead rewrites the AST before compilation
   and needs no filter. *)

type exn_value = {
  exn_class : string;
  message : string;
  exn_obj : Value.t; (* the heap object carried by the exception, or Null *)
}

(* The MiniLang-level exception, propagated as an OCaml exception while
   a program runs. *)
exception Mini_raise of exn_value

(* What a method entry runs besides its native [impl]: the execution
   engine extends this with its compiled bodies, so a call made from
   interpreted code can push a heap frame instead of re-entering the
   engine through [impl].  [No_body] for hand-written methods. *)
type body = ..
type body += No_body

(* The execution engine's resumable control state for the call running
   right now (extended by the engine; [No_machine] outside it). *)
type machine = ..
type machine += No_machine

(* The scheduler running this VM's threads (extended by the scheduler;
   [No_sched] outside a run). *)
type sched = ..
type sched += No_sched

(* A host value a hook hands the program as a token (see {!add_handle}). *)
type handle = ..

type t = {
  heap : Heap.t;
  classes : (string, cls) Hashtbl.t;
  functions : (string, func) Hashtbl.t;
  out : Buffer.t; (* program output, captured per run *)
  hooks : (string, t -> Value.t list -> Value.t) Hashtbl.t;
      (* reflective builtins (__inject, __mark, ...) registered by the
         detection/masking engine; looked up by woven code at runtime *)
  mutable frame_roots : ((Value.t -> unit) -> unit) list;
      (* live interpreter frames, for GC root enumeration; each entry
         applies the marker to every value the frame holds, so slot
         frames scan in place instead of materialising a list *)
  mutable call_depth : int;
  mutable max_call_depth : int;
  mutable steps : int;
  mutable step_limit : int; (* guards against runaway injected programs *)
  mutable deadline_ns : int;
      (* absolute monotonic deadline for this run, 0 = none; checked
         every few thousand steps so a divergent injected run aborts
         with Deadline_exceeded instead of wedging its worker *)
  mutable calls : int; (* dynamic count of method + constructor calls *)
  mutable ic_hits : int;
      (* compiled call sites whose monomorphic inline cache hit; plain
         per-VM count (like [calls]), harvested at run boundaries *)
  mutable ic_misses : int; (* call sites that fell back to table lookup *)
  globals : (string, Value.t ref) Hashtbl.t; (* program globals, by name *)
  mutable global_roots : Value.t ref list;
      (* the same refs in (reverse) creation order: GC-root enumeration
         stays deterministic while reads go through the table *)
  mutable meth_table : meth array;
      (* this run's method entries indexed by compile-time slot; filled
         by Compile.instantiate so compiled call sites dispatch without
         a class-table walk.  Empty for hand-built VMs. *)
  mutable preempt_flag : bool;
      (* set by the scheduler for preemptive policies only; when false
         (the whole sequential path) call_filtered performs no effect *)
  mutable cur_tid : int; (* MiniLang thread running right now; 0 = main *)
  mutable sched_switches : int; (* context switches this run *)
  mutable sched_preemptions : int; (* switches forced at a Preempt point *)
  mutable sched_contention : int; (* monitor acquisitions that blocked *)
  mutable sched_digest : string;
      (* hex FNV-1a digest of the scheduler's decision stream, written
         by Sched.run at the end of the run; "" for coop runs *)
  exn_fields_cache : (string, string array) Hashtbl.t;
      (* memoized [Heap.layout] of [all_fields] per exception class —
         exceptions are allocated on every throw, including the hot
         injection paths; invalidated whenever a class is (re)defined *)
  mutable machine : machine;
      (* the innermost interpreter activation of the running MiniLang
         thread, for capturing its continuation; set and restored by the
         engine, swapped per thread by the scheduler *)
  mutable sched : sched; (* the scheduler of the run in progress *)
  handles : (int, handle) Hashtbl.t; (* host values held by the program, by token *)
  mutable next_handle : int;
  mutable undo : (int * undo list) option;
      (* while a fork point is open: the next token at the fork point,
         and how to undo each write to the globals or the handle table
         made since, newest first *)
}

and undo =
  | Undo_set of Value.t ref * Value.t (* the ref held this *)
  | Undo_add of string (* the global did not exist *)
  | Undo_take of int * handle (* the token was bound to this *)

and cls = {
  cls_name : string;
  super : string option;
  decl_fields : string list;
  cls_methods : (string, meth) Hashtbl.t;
}

and meth = {
  meth_class : string; (* defining class *)
  meth_name : string;
  params : string list;
  throws : string list; (* declared exception classes *)
  impl : impl;
  body : body;
      (* the compiled body [impl] runs, when the engine built it; an
         interpreted caller pushes a frame for it directly.  Neither
         changes after [add_method], so the two cannot disagree. *)
  mutable filters : filter list; (* outermost first *)
}

and impl = t -> Value.t -> Value.t list -> Value.t

and func = {
  fn_name : string;
  fn_params : string list;
  mutable fn_impl : t -> Value.t list -> Value.t;
}

and filter = {
  filt_name : string;
  pre : t -> meth -> Value.t -> Value.t list -> pre_action;
  post :
    t -> meth -> Value.t -> Value.t list -> (Value.t, exn_value) result ->
    post_action;
  unwind : t -> meth -> unit;
      (* called when a non-MiniLang (OCaml-level) exception — deadline,
         step limit, scheduler abort — unwinds through the call after
         [pre] ran: [post] will never run, so per-call state acquired in
         [pre] (checkpoints, shadows, snapshot stacks) must be released
         here.  [no_unwind] for filters that keep no such state. *)
}

and pre_action = Proceed | Pre_return of Value.t | Pre_raise of exn_value
and post_action = Pass | Post_return of Value.t | Post_raise of exn_value

let no_unwind (_ : t) (_ : meth) = ()

exception Unknown_class of string
exception Unknown_method of string * string (* class, method *)
exception Step_limit_exceeded
exception Deadline_exceeded

(* ------------------------------------------------------------------ *)
(* Scheduling effects                                                  *)
(* ------------------------------------------------------------------ *)

(* The cooperative scheduler (Sched) handles these; they are declared
   here so the concurrency builtins (__spawn, __join, monitor enter and
   exit) can perform them without depending on the scheduler module.
   [Preempt] is performed by {!call_filtered} when [preempt_flag] is
   set — method-call boundaries are the only preemption opportunities,
   so where a thread can be preempted does not depend on how the
   interpreter batches its ticks, and a schedule replays bit-for-bit. *)
type _ Effect.t +=
  | Preempt : unit Effect.t
  | Sched_spawn : (unit -> Value.t) -> int Effect.t
  | Sched_join : int -> Value.t Effect.t
  | Monitor_enter : int -> unit Effect.t
  | Monitor_exit : int -> unit Effect.t

(* ------------------------------------------------------------------ *)
(* Built-in exception class hierarchy                                  *)
(* ------------------------------------------------------------------ *)

let throwable = "Throwable"
let exception_class = "Exception"
let runtime_exception = "RuntimeException"
let error_class = "Error"

(* Runtime exceptions: may be raised implicitly by any operation, hence
   are injection candidates for every method (paper §4.1 step 1). *)
let builtin_runtime_exceptions =
  [ "NullPointerException";
    "IndexOutOfBoundsException";
    "ArithmeticException";
    "NegativeArraySizeException";
    "ClassCastException";
    "IllegalArgumentException";
    "IllegalStateException";
    "NoSuchElementException";
    "UnsupportedOperationException";
    "ConcurrentModificationException" ]

let builtin_errors = [ "OutOfMemoryError"; "StackOverflowError" ]

let builtin_exception_classes =
  (throwable, None)
  :: (exception_class, Some throwable)
  :: (runtime_exception, Some throwable)
  :: (error_class, Some throwable)
  :: List.map (fun c -> (c, Some runtime_exception)) builtin_runtime_exceptions
  @ List.map (fun c -> (c, Some error_class)) builtin_errors

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let add_class vm ?super ?(fields = []) name =
  let cls = { cls_name = name; super; decl_fields = fields; cls_methods = Hashtbl.create 8 } in
  Hashtbl.replace vm.classes name cls;
  Hashtbl.reset vm.exn_fields_cache;
  cls

let create () =
  let vm =
    { heap = Heap.create ();
      classes = Hashtbl.create 64;
      functions = Hashtbl.create 16;
      out = Buffer.create 256;
      hooks = Hashtbl.create 8;
      frame_roots = [];
      call_depth = 0;
      max_call_depth = 2_000;
      steps = 0;
      step_limit = 50_000_000;
      deadline_ns = 0;
      calls = 0;
      ic_hits = 0;
      ic_misses = 0;
      globals = Hashtbl.create 16;
      global_roots = [];
      meth_table = [||];
      preempt_flag = false;
      cur_tid = 0;
      sched_switches = 0;
      sched_preemptions = 0;
      sched_contention = 0;
      sched_digest = "";
      exn_fields_cache = Hashtbl.create 16;
      machine = No_machine;
      sched = No_sched;
      handles = Hashtbl.create 16;
      next_handle = 0;
      undo = None }
  in
  List.iter
    (fun (name, super) -> ignore (add_class vm ?super ~fields:[ "message" ] name))
    builtin_exception_classes;
  vm

let find_class vm name =
  match Hashtbl.find_opt vm.classes name with
  | Some c -> c
  | None -> raise (Unknown_class name)

let class_exists vm name = Hashtbl.mem vm.classes name

(* [is_subclass vm c1 c2] holds iff [c1] equals [c2] or transitively
   extends it. *)
let rec is_subclass vm c1 c2 =
  String.equal c1 c2
  || match Hashtbl.find_opt vm.classes c1 with
     | Some { super = Some s; _ } -> is_subclass vm s c2
     | Some { super = None; _ } | None -> false

let is_exception_class vm name =
  class_exists vm name && is_subclass vm name throwable

(* All fields of a class, including inherited ones. *)
let rec all_fields vm name =
  match Hashtbl.find_opt vm.classes name with
  | None -> []
  | Some { super; decl_fields; _ } ->
    (match super with None -> [] | Some s -> all_fields vm s) @ decl_fields

let add_method vm cls_name ~name ~params ~throws ?(body = No_body) impl =
  let cls = find_class vm cls_name in
  let meth =
    { meth_class = cls_name; meth_name = name; params; throws; impl; body;
      filters = [] }
  in
  Hashtbl.replace cls.cls_methods name meth;
  meth

(* Method resolution walks the superclass chain (single inheritance). *)
let rec lookup_method vm cls_name mname =
  match Hashtbl.find_opt vm.classes cls_name with
  | None -> None
  | Some cls -> (
    match Hashtbl.find_opt cls.cls_methods mname with
    | Some m -> Some m
    | None -> (
      match cls.super with
      | Some s -> lookup_method vm s mname
      | None -> None))

let find_method vm cls_name mname =
  match lookup_method vm cls_name mname with
  | Some m -> m
  | None -> raise (Unknown_method (cls_name, mname))

(* Every method of [vm], user classes only (builtin exception classes
   define none). *)
let iter_methods vm f =
  Hashtbl.iter (fun _ cls -> Hashtbl.iter (fun _ m -> f cls m) cls.cls_methods) vm.classes

(* ------------------------------------------------------------------ *)
(* Exceptions                                                          *)
(* ------------------------------------------------------------------ *)

(* Allocates the exception object on the simulated heap (exceptions are
   objects, as in Java) and raises it as a MiniLang exception. *)
let make_exn vm cls_name message =
  let names =
    match Hashtbl.find_opt vm.exn_fields_cache cls_name with
    | Some names -> names
    | None ->
      let names = Heap.layout (all_fields vm cls_name) in
      Hashtbl.replace vm.exn_fields_cache cls_name names;
      names
  in
  let vals =
    Array.map (fun f -> if String.equal f "message" then Value.Str message else Value.Null) names
  in
  let id = Heap.alloc vm.heap (Heap.Obj { cls = cls_name; names; vals }) in
  { exn_class = cls_name; message; exn_obj = Value.Ref id }

let throw vm cls_name message = raise (Mini_raise (make_exn vm cls_name message))

let exn_matches vm exn_v handler_class = is_subclass vm exn_v.exn_class handler_class

(* ------------------------------------------------------------------ *)
(* Dispatch with filter interposition                                  *)
(* ------------------------------------------------------------------ *)

(* How many steps pass between deadline-clock reads.  The mask keeps the
   per-tick cost of an armed deadline to one load and one branch; the
   clock itself is only read every [deadline_check_mask + 1] steps. *)
let deadline_check_mask = 0xfff

let tick vm =
  vm.steps <- vm.steps + 1;
  if vm.steps > vm.step_limit then raise Step_limit_exceeded;
  if
    vm.deadline_ns > 0
    && vm.steps land deadline_check_mask = 0
    && Failatom_obs.Obs.now_ns () > vm.deadline_ns
  then raise Deadline_exceeded

let arm_deadline vm ~timeout_s =
  vm.deadline_ns <-
    Failatom_obs.Obs.now_ns () + int_of_float (timeout_s *. 1e9)

(* Runs [meth] on [recv] with [args], threading the call through the
   method's filter chain (outermost first).  Filters see the MiniLang
   exception as a [result] and may pass it on, swallow it, or replace
   it — exactly the JWG pre/post filter contract described in §5.2. *)
let rec run_filters vm meth recv args filters =
  match filters with
  | [] -> meth.impl vm recv args
  | f :: rest -> (
    match f.pre vm meth recv args with
    | Pre_return v -> v
    | Pre_raise e -> raise (Mini_raise e)
    | Proceed -> (
      let result =
        try Ok (run_filters vm meth recv args rest) with
        | Mini_raise e -> Error e
        | e ->
          (* OCaml-level aborts bypass [post]; let the filter release
             whatever its [pre] acquired for this call. *)
          f.unwind vm meth;
          raise e
      in
      match f.post vm meth recv args result with
      | Pass -> (match result with Ok v -> v | Error e -> raise (Mini_raise e))
      | Post_return v -> v
      | Post_raise e -> raise (Mini_raise e)))

let call_filtered vm meth recv args =
  if vm.preempt_flag then Effect.perform Preempt;
  vm.calls <- vm.calls + 1;
  vm.call_depth <- vm.call_depth + 1;
  if vm.call_depth > vm.max_call_depth then begin
    vm.call_depth <- vm.call_depth - 1;
    throw vm "StackOverflowError" "call depth exceeded"
  end;
  match
    (* unfiltered calls (every call of an uninstrumented run) go
       straight to the implementation *)
    match meth.filters with
    | [] -> meth.impl vm recv args
    | filters -> run_filters vm meth recv args filters
  with
  | v ->
    vm.call_depth <- vm.call_depth - 1;
    v
  | exception e ->
    vm.call_depth <- vm.call_depth - 1;
    raise e

(* Dynamic dispatch on a receiver value. *)
let invoke vm recv mname args =
  match recv with
  | Value.Ref id -> (
    match Heap.get vm.heap id with
    | Heap.Obj { cls; _ } -> call_filtered vm (find_method vm cls mname) recv args
    | Heap.Arr _ -> throw vm "UnsupportedOperationException" ("method call on array: " ^ mname))
  | Value.Null -> throw vm "NullPointerException" ("call of " ^ mname ^ " on null")
  | Value.Int _ | Value.Bool _ | Value.Str _ ->
    throw vm "UnsupportedOperationException"
      (Printf.sprintf "call of %s on %s" mname (Value.type_name recv))

(* Filter (de-)installation: the load-time weaving API. *)
let attach_filter meth filter = meth.filters <- filter :: meth.filters
let detach_filter meth name =
  meth.filters <- List.filter (fun f -> not (String.equal f.filt_name name)) meth.filters

let attach_filter_everywhere vm filter = iter_methods vm (fun _ m -> attach_filter m filter)

(* ------------------------------------------------------------------ *)
(* Hooks, output, globals                                              *)
(* ------------------------------------------------------------------ *)

let register_hook vm name f = Hashtbl.replace vm.hooks name f
let find_hook vm name = Hashtbl.find_opt vm.hooks name

let output vm = Buffer.contents vm.out
let print_out vm s = Buffer.add_string vm.out s

let journal vm u =
  match vm.undo with Some (mark, l) -> vm.undo <- Some (mark, u :: l) | None -> ()

let set_global vm name v =
  match Hashtbl.find_opt vm.globals name with
  | Some r ->
    journal vm (Undo_set (r, !r));
    r := v
  | None ->
    journal vm (Undo_add name);
    let r = ref v in
    Hashtbl.replace vm.globals name r;
    vm.global_roots <- r :: vm.global_roots

let get_global vm name = Option.map ( ! ) (Hashtbl.find_opt vm.globals name)

let iter_global_roots vm f = List.iter (fun r -> f !r) vm.global_roots

let add_handle vm h =
  let token = vm.next_handle in
  vm.next_handle <- token + 1;
  Hashtbl.replace vm.handles token h;
  token

let take_handle vm token =
  match Hashtbl.find_opt vm.handles token with
  | None -> None
  | Some h as found ->
    (* a token handed out since the fork point is unbound by the rewind *)
    (match vm.undo with
     | Some (mark, l) when token < mark -> vm.undo <- Some (mark, Undo_take (token, h) :: l)
     | Some _ | None -> ());
    Hashtbl.remove vm.handles token;
    found

(* Keeps the heap's thread tag in step with the VM's, so write-barrier
   shadow saves land in the bucket of the thread that performed them. *)
let set_cur_tid vm tid =
  vm.cur_tid <- tid;
  Heap.set_cur_tid vm.heap tid

(* ------------------------------------------------------------------ *)
(* Forks                                                               *)
(* ------------------------------------------------------------------ *)

(* Everything a tentative continuation of this run can change outside
   the interpreter's own frames and the scheduler, restorable by
   {!rewind}: the heap (see {!Heap.fork}), globals, the handle table,
   output, the per-run counters and the scheduler's counters and digest
   (its fork restores the running thread's [cur_tid] and [machine]
   itself).  Inline caches are shared with the image and only ever warm
   up. *)
type fork = {
  fk_heap : Heap.fork;
  fk_undo : (int * undo list) option; (* an enclosing fork's *)
  fk_global_roots : Value.t ref list;
  fk_out : int;
  fk_steps : int;
  fk_calls : int;
  fk_call_depth : int;
  fk_ic_hits : int;
  fk_ic_misses : int;
  fk_sched_switches : int;
  fk_sched_preemptions : int;
  fk_sched_contention : int;
  fk_sched_digest : string;
}

let fork vm =
  let fk_undo = vm.undo in
  vm.undo <- Some (vm.next_handle, []);
  { fk_heap = Heap.fork vm.heap;
    fk_undo;
    fk_global_roots = vm.global_roots;
    fk_out = Buffer.length vm.out;
    fk_steps = vm.steps;
    fk_calls = vm.calls;
    fk_call_depth = vm.call_depth;
    fk_ic_hits = vm.ic_hits;
    fk_ic_misses = vm.ic_misses;
    fk_sched_switches = vm.sched_switches;
    fk_sched_preemptions = vm.sched_preemptions;
    fk_sched_contention = vm.sched_contention;
    fk_sched_digest = vm.sched_digest }

let rewind vm f =
  Heap.rewind vm.heap f.fk_heap;
  (match vm.undo with
   | Some (mark, l) ->
     List.iter
       (function
         | Undo_set (r, v) -> r := v
         | Undo_add name -> Hashtbl.remove vm.globals name
         | Undo_take (token, h) -> Hashtbl.replace vm.handles token h)
       l;
     (* tokens handed out since (those still held) *)
     for token = mark to vm.next_handle - 1 do
       Hashtbl.remove vm.handles token
     done;
     vm.next_handle <- mark
   | None -> ());
  vm.undo <- f.fk_undo;
  vm.global_roots <- f.fk_global_roots;
  Buffer.truncate vm.out f.fk_out;
  vm.steps <- f.fk_steps;
  vm.calls <- f.fk_calls;
  vm.call_depth <- f.fk_call_depth;
  vm.ic_hits <- f.fk_ic_hits;
  vm.ic_misses <- f.fk_ic_misses;
  vm.sched_switches <- f.fk_sched_switches;
  vm.sched_preemptions <- f.fk_sched_preemptions;
  vm.sched_contention <- f.fk_sched_contention;
  vm.sched_digest <- f.fk_sched_digest
