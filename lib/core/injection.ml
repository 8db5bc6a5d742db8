(* Exception injection and atomicity checking (paper §4.1, Listing 1).

   One run of the exception injector program arms a single threshold
   [InjectionPoint]; a global counter [Point] is incremented once per
   injectable exception type at every (wrapped) method entry, and the
   matching exception is thrown when the counter reaches the threshold.
   When a wrapped call returns exceptionally, the wrapper compares the
   receiver's object graph against the snapshot taken on entry and marks
   the method atomic or non-atomic for this injection.  The snapshot is a
   copy-on-write shadow, and the comparison one lockstep walk of its
   entry-time view and the current heap up to their first difference
   ([Object_graph.first_diff]); the eager canonical-form snapshot of
   Listing 1 stays as the test oracle, canonicalizing afresh at entry
   and at exceptional exit.

   The logic lives here once and is exposed in the two forms used by the
   paper's two implementations:
   - {!filter}: a pre/post filter attached to compiled methods
     ("binary code transformation", the Java/JWG path);
   - {!register_hooks}: reflective builtins ([__inject], [__snapshot],
     [__mark], [__drop]) called by wrapper methods that the source
     weaver spliced into the program text (the C++/AspectC++ path). *)

open Failatom_runtime
module Obs = Failatom_obs.Obs

(* Observability: snapshot volume, time spent comparing object graphs
   (the cow lockstep walk, or the eager oracle's canonicalizations), and
   how often the cow dirty-set intersection proves atomicity without any
   comparison at all. *)
let m_snapshots = Obs.counter "detect.snapshots_taken"
let m_cow_fast = Obs.counter "detect.cow_fast_path_hits"
let h_canon = Obs.histogram ~unit_:Obs.Ns "detect.canonicalize"

(* The entry state captured by a wrapped call, per the configured
   snapshot mode:

   - [Eager_snap]: the canonical form of the receiver's object graph,
     built at entry (paper Listing 1) — O(graph) per call;
   - [Cow_snap]: a copy-on-write {!Shadow} plus the snapshot roots.
     Nothing is traversed at entry; on the rare exceptional return the
     shadow's dirty set is intersected with the ids reachable from the
     roots, and only if they overlap are the entry-time graph (current
     heap, saved payloads preferred for dirty ids) and the current one
     walked in lockstep up to their first difference — so a call's
     detection cost is proportional to what it mutated, not to the
     graph it could reach. *)
type snapshot =
  | Eager_snap of Object_graph.node
  | Cow_snap of { shadow : Shadow.t; roots : Value.t list }

(* A prefix-sharing walk over one uninjected run (see {!Detect}): told
   about every wrapped entry before its points are counted, and about
   every point as it is reached, with the injector that makes this run
   the one armed at that point. *)
type walker = {
  w_entry : Method_id.t -> string list -> first:int -> unit;
  w_point : int -> (unit -> Vm.exn_value) -> unit;
}

type state = {
  config : Config.t;
  analyzer : Analyzer.t;
  threshold : int; (* this run's InjectionPoint *)
  mutable point : int; (* the global Point counter *)
  mutable injected : (Method_id.t * string) option;
  mutable injected_exn_id : int;
      (* heap id of the injected exception object (0 before injection):
         lets the driver distinguish "the injected exception escaped"
         from "a natural exception escaped" by identity, not class *)
  mutable marks : Marks.mark list; (* reversed *)
  snap_stacks : (int, (Method_id.t * snapshot) list) Hashtbl.t;
      (* binary flavor: snapshot pushed by pre, popped by post; keyed by
         MiniLang thread id, because pre/post pairs of different threads
         interleave under preemption while each thread's own pairs stay
         LIFO (filters run in the calling fiber).  The source flavor's
         snapshots are held by tokens of the VM's handle table. *)
  mutable walker : walker option;
  mutable journal : journal option;
      (* while a fork is open: what restoring its save point undoes *)
}

(* Per thread, its snapshot stack at the save point, recorded on the
   thread's first write since: a fork pays for the stacks its suffix
   touched, not for a copy of the table. *)
and journal = (int * (Method_id.t * snapshot) list option) list

(* A source-flavor snapshot, as held by the running program. *)
type Vm.handle += Snapshot of snapshot

let make_state config analyzer ~threshold =
  { config;
    analyzer;
    threshold;
    point = 0;
    injected = None;
    injected_exn_id = 0;
    marks = [];
    snap_stacks = Hashtbl.create 4;
    walker = None;
    journal = None }

let marks state = List.rev state.marks

(* Roots of a snapshot: the receiver plus, per configuration, every
   argument passed by reference (paper: "all arguments that are passed
   in as non-constant references"). *)
let snapshot_roots state recv args =
  if state.config.Config.snapshot_args then
    recv :: List.filter Value.is_ref args
  else [ recv ]

(* The eager oracle's canonical form of the current heap graph, built
   afresh at call entry and again at exceptional exit. *)
let eager_canon heap roots =
  Obs.timed h_canon (fun () -> Object_graph.canonical_many heap roots)

let take_snapshot_of state vm roots =
  Obs.incr m_snapshots;
  match state.config.Config.snapshot_mode with
  | Config.Snapshot_eager -> Eager_snap (eager_canon vm.Vm.heap roots)
  | Config.Snapshot_cow -> Cow_snap { shadow = Shadow.open_ vm.Vm.heap; roots }

let take_snapshot state vm recv args =
  take_snapshot_of state vm (snapshot_roots state recv args)

(* Discards a snapshot whose call returned normally (or whose mark was
   dropped): eager forms are garbage, cow shadows must detach from the
   write barrier. *)
let release_snapshot = function
  | Eager_snap _ -> ()
  | Cow_snap { shadow; _ } -> Shadow.close shadow

(* Fires the injection at the current point: records the site and
   class and allocates the exception object. *)
let fire state vm id exn_class =
  state.injected <- Some (id, exn_class);
  let exn_v = Vm.make_exn vm exn_class "injected" in
  (match exn_v.Vm.exn_obj with
   | Value.Ref heap_id -> state.injected_exn_id <- heap_id
   | _ -> ());
  exn_v

(* The injection points of Listing 1, lines 2-5: one potential point per
   injectable exception type.  Returns the exception to inject when the
   armed threshold is crossed.  A walker sees every point on the way. *)
let inject_at state vm id injectable =
  (match state.walker with
   | Some w when injectable <> [] -> w.w_entry id injectable ~first:(state.point + 1)
   | Some _ | None -> ());
  let rec try_types = function
    | [] -> None
    | exn_class :: rest ->
      state.point <- state.point + 1;
      if state.point = state.threshold then Some (fire state vm id exn_class)
      else begin
        (match state.walker with
         | Some w -> w.w_point state.point (fun () -> fire state vm id exn_class)
         | None -> ());
        try_types rest
      end
  in
  try_types injectable

let maybe_inject state vm id =
  inject_at state vm id (Analyzer.injectable_for state.analyzer id)

(* The mutable part of a state, for forking a run; the snapshot stacks
   are journaled from the save point on (their snapshots are shared —
   cow shadows are rewound with the heap). *)
type saved = {
  sv_point : int;
  sv_injected : (Method_id.t * string) option;
  sv_injected_exn_id : int;
  sv_marks : Marks.mark list;
  sv_walker : walker option;
  sv_journal : journal option; (* an enclosing save point's *)
}

let save state =
  let sv =
    { sv_point = state.point;
      sv_injected = state.injected;
      sv_injected_exn_id = state.injected_exn_id;
      sv_marks = state.marks;
      sv_walker = state.walker;
      sv_journal = state.journal }
  in
  state.journal <- Some [];
  sv

let restore state sv =
  Option.iter
    (List.iter (fun (tid, before) ->
         match before with
         | Some l -> Hashtbl.replace state.snap_stacks tid l
         | None -> Hashtbl.remove state.snap_stacks tid))
    state.journal;
  state.point <- sv.sv_point;
  state.injected <- sv.sv_injected;
  state.injected_exn_id <- sv.sv_injected_exn_id;
  state.marks <- sv.sv_marks;
  state.walker <- sv.sv_walker;
  state.journal <- sv.sv_journal

(* Every write to the snapshot stacks goes through here, which journals
   it while a save point is open. *)
let set_snap_stack state tid stack =
  (match state.journal with
   | Some j when not (List.mem_assoc tid j) ->
     state.journal <- Some ((tid, Hashtbl.find_opt state.snap_stacks tid) :: j)
   | Some _ | None -> ());
  Hashtbl.replace state.snap_stacks tid stack

let exn_identity (exn_v : Vm.exn_value) =
  match exn_v.Vm.exn_obj with Value.Ref id -> id | _ -> 0

let record_mark state id ~atomic ~diff_path ~exn_id =
  state.marks <- { Marks.meth = id; atomic; diff_path; exn_id } :: state.marks

(* Snapshots wrap their roots in a synthetic array (receiver at slot 0,
   reference arguments after it); rewrite the raw diff path so reports
   speak in terms of [this] and [argN]. *)
let tidy_diff_path path =
  let prefix p = String.length path >= String.length p && String.sub path 0 (String.length p) = p in
  if prefix "this[" then
    match String.index_opt path ']' with
    | Some close ->
      let idx = String.sub path 5 (close - 5) in
      let rest = String.sub path (close + 1) (String.length path - close - 1) in
      (match int_of_string_opt idx with
       | Some 0 -> "this" ^ rest
       | Some n -> Printf.sprintf "arg%d%s" (n - 1) rest
       | None -> path)
    | None -> path
  else path

let mark_verdict state id ~before ~after ~exn_id =
  if Object_graph.equal before after then
    record_mark state id ~atomic:true ~diff_path:None ~exn_id
  else
    record_mark state id ~atomic:false ~exn_id
      ~diff_path:(Option.map tidy_diff_path (Object_graph.diff before after))

(* Compares the entry snapshot with the current graph and records the
   verdict for this injection (Listing 1, lines 10-14).  Consumes the
   snapshot (cow shadows are closed). *)
let check_and_mark state vm id snapshot roots ~exn_id =
  match snapshot with
  | Eager_snap before ->
    let after = eager_canon vm.Vm.heap roots in
    mark_verdict state id ~before ~after ~exn_id
  | Cow_snap { shadow; roots } ->
    (* If the call wrote nothing, the graphs are identical by
       construction — atomic, with zero comparison. *)
    (if Shadow.dirty_count shadow = 0 then begin
       Obs.incr m_cow_fast;
       record_mark state id ~atomic:true ~diff_path:None ~exn_id
     end
     else
       (* Otherwise walk the entry-time graph (saved payloads preferred
          for dirty ids) and the current one in lockstep, up to their
          first difference: one walk, which also settles writes outside
          the graph.  No canonical form is built and nothing is
          allocated on the program heap, so the comparison never feeds
          the write barrier of enclosing shadows. *)
       let diff =
         Obs.timed h_canon (fun () ->
             Object_graph.first_diff ~read_a:(Shadow.read_before shadow)
               ~read_b:(Heap.get (Shadow.heap shadow)) roots)
       in
       record_mark state id ~atomic:(Option.is_none diff)
         ~diff_path:(Option.map tidy_diff_path diff) ~exn_id);
    Shadow.close shadow

(* ------------------------------------------------------------------ *)
(* Binary flavor: a pre/post filter                                    *)
(* ------------------------------------------------------------------ *)

let snap_stack_of state tid =
  match Hashtbl.find_opt state.snap_stacks tid with Some l -> l | None -> []

(* The filter of one method entry: its id and injectable classes are
   resolved once, not at every call. *)
let filter state (meth : Vm.meth) =
  let id = Method_id.make meth.Vm.meth_class meth.Vm.meth_name in
  let injectable = Analyzer.injectable_for state.analyzer id in
  { Vm.filt_name = "injection";
    pre =
      (fun vm _meth recv args ->
        match inject_at state vm id injectable with
        | Some exn_v -> Vm.Pre_raise exn_v
        | None ->
          let tid = vm.Vm.cur_tid in
          set_snap_stack state tid
            ((id, take_snapshot state vm recv args) :: snap_stack_of state tid);
          Vm.Proceed);
    post =
      (fun vm _meth recv args result ->
        let tid = vm.Vm.cur_tid in
        match snap_stack_of state tid with
        | [] ->
          (* Desynchronized only if a fatal (non-MiniLang) error aborted
             the run; nothing sensible to record. *)
          Vm.Pass
        | (id, snapshot) :: rest ->
          set_snap_stack state tid rest;
          (match result with
           | Ok _ -> release_snapshot snapshot
           | Error exn_v ->
             check_and_mark state vm id snapshot
               (snapshot_roots state recv args)
               ~exn_id:(exn_identity exn_v));
          Vm.Pass);
    unwind =
      (fun vm _meth ->
        (* OCaml-level abort (deadline, step limit): no verdict for the
           call in flight, but its snapshot must not stay attached to
           the write barrier. *)
        let tid = vm.Vm.cur_tid in
        match snap_stack_of state tid with
        | [] -> ()
        | (_, snapshot) :: rest ->
          set_snap_stack state tid rest;
          release_snapshot snapshot) }

let attach state vm = Vm.iter_methods vm (fun _ m -> Vm.attach_filter m (filter state m))

(* ------------------------------------------------------------------ *)
(* Source flavor: reflective hooks called by woven wrapper methods     *)
(* ------------------------------------------------------------------ *)

let hook_error name = invalid_arg (Printf.sprintf "hook %s: invalid arguments" name)

let id_of_args name args =
  match args with
  | Value.Str cls :: Value.Str meth :: rest -> (Method_id.make cls meth, rest)
  | _ -> hook_error name

let roots_of state vm recv args_array =
  let args =
    match args_array with
    | Value.Ref id -> (
      match Heap.get vm.Vm.heap id with
      | Heap.Arr a -> Array.to_list a
      | Heap.Obj _ -> hook_error "__snapshot")
    | _ -> hook_error "__snapshot"
  in
  snapshot_roots state recv args

let register_hooks state vm =
  Vm.register_hook vm "__inject" (fun vm args ->
      let id, rest = id_of_args "__inject" args in
      if rest <> [] then hook_error "__inject";
      (match maybe_inject state vm id with
       | Some exn_v -> raise (Vm.Mini_raise exn_v)
       | None -> ());
      Value.Null);
  Vm.register_hook vm "__snapshot" (fun vm args ->
      match args with
      | [ recv; args_array ] ->
        let snapshot = take_snapshot_of state vm (roots_of state vm recv args_array) in
        Value.Int (Vm.add_handle vm (Snapshot snapshot))
      | _ -> hook_error "__snapshot");
  Vm.register_hook vm "__mark" (fun vm args ->
      match args with
      | [ Value.Str cls; Value.Str meth; Value.Int token; recv; args_array; exn_obj ] ->
        let id = Method_id.make cls meth in
        let exn_id = match exn_obj with Value.Ref i -> i | _ -> 0 in
        (match Vm.take_handle vm token with
         | Some (Snapshot snapshot) ->
           check_and_mark state vm id snapshot
             (roots_of state vm recv args_array)
             ~exn_id
         | _ -> hook_error "__mark");
        Value.Null
      | _ -> hook_error "__mark");
  Vm.register_hook vm "__drop" (fun vm args ->
      match args with
      | [ Value.Int token ] ->
        (match Vm.take_handle vm token with
         | Some (Snapshot snapshot) -> release_snapshot snapshot
         | _ -> ());
        Value.Null
      | _ -> hook_error "__drop")
