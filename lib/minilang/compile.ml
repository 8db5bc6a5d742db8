(* Staged compilation of MiniLang programs.

   Compilation is split in two:

   - {!image} does the one-time work for a program: flattened per-class
     dispatch tables and inherited-field templates (no
     [lookup_method]/[all_fields] chain walks at runtime), static
     resolution of [super], [new] and free-function call sites, and a
     single translation of every method and function body into flat
     bytecode ({!Bytecode}, run by {!Exec}).  The resulting image is
     immutable apart from the bodies' inline caches, whose updates are
     single writes, so it is safe to share — including across campaign
     domains.

   - {!instantiate} turns an image into a fresh {!Vm.t} cheaply: a new
     heap/output/globals/counters plus per-run copies of the mutable
     method entries, so load-time interposition (attaching filters to
     method entries — the analog of the paper's bytecode-level JWG
     instrumentation) still works per run without source access.

   [program] remains [instantiate ∘ image].  Each detection run
   instantiates its own VM, guaranteeing independent heaps across runs,
   but the image is built once per program×flavor instead of once per
   injection run.

   The observable behaviour — output, step/call/inline-cache/allocation
   counters, results, error messages and detection run logs — is pinned
   for every bundled application by test/golden/engine_runs.txt.  Call
   sites resolved statically fall back to the dynamic [Vm] lookup when
   the receiver's class or method is not in the image (e.g. added to a
   VM by hand after compilation). *)

open Failatom_runtime
module Obs = Failatom_obs.Obs

(* A genuine defect in the interpreted program (unknown variable, bad
   arity, ...) as opposed to a MiniLang-level exception, which is raised
   as {!Vm.Mini_raise} and is catchable in-language. *)
exception Runtime_error of string * Ast.pos

(* ------------------------------------------------------------------ *)
(* Program images                                                      *)
(* ------------------------------------------------------------------ *)

type imeth = {
  im_class : string; (* defining class *)
  im_name : string;
  im_params : string list;
  im_throws : string list;
  mutable im_impl : Vm.impl; (* set once the whole image is laid out *)
  mutable im_body : Vm.body; (* the compiled body [im_impl] runs *)
}

type iclass = {
  ic_name : string;
  ic_super : string option; (* declared superclass name, resolved or not *)
  ic_decl_fields : string list;
  ic_fields : string list; (* all fields, inherited first *)
  ic_layout : string array;
      (* [Heap.layout] of [ic_fields]: every [new] allocates with it,
         so all instances share one [names] array *)
  ic_dispatch : (string, int) Hashtbl.t;
      (* method name -> method index, own and inherited flattened *)
  ic_is_exception : bool; (* transitively extends Throwable *)
  ic_user : bool; (* declared by the program (installed per run) *)
}

type ifunc = {
  if_name : string;
  if_params : string list;
  if_body : Exec.fbody; (* filled in pass 2 *)
  if_impl : Vm.t -> Value.t list -> Value.t; (* native entry of [if_body] *)
}

type image = {
  img_classes : (string, iclass) Hashtbl.t; (* user and builtin *)
  img_class_order : iclass array; (* user classes, program order *)
  img_methods : imeth array;
  img_functions : ifunc array; (* program order; duplicates last-wins *)
  img_fn_index : (string, int) Hashtbl.t;
}

(* Subclass test over the image's class table (same chain walk as
   [Vm.is_subclass], on static data). *)
let rec img_is_subclass img c1 c2 =
  String.equal c1 c2
  || match Hashtbl.find_opt img.img_classes c1 with
     | Some { ic_super = Some s; _ } -> img_is_subclass img s c2
     | Some { ic_super = None; _ } | None -> false

(* Classes outside the image (added to a VM by hand) fall back to the
   dynamic walk over the VM's own class table. *)
let is_exception_class img vm cls =
  match Hashtbl.find_opt img.img_classes cls with
  | Some ic -> ic.ic_is_exception
  | None -> Vm.is_exception_class vm cls

let exn_matches img vm (exn_v : Vm.exn_value) handler =
  if Hashtbl.mem img.img_classes exn_v.Vm.exn_class then
    img_is_subclass img exn_v.Vm.exn_class handler
  else Vm.is_subclass vm exn_v.Vm.exn_class handler

(* [lookup_method] over the flattened dispatch tables. *)
let resolve_method img cls mname =
  match Hashtbl.find_opt img.img_classes cls with
  | Some ic -> Hashtbl.find_opt ic.ic_dispatch mname
  | None -> None

(* ------------------------------------------------------------------ *)
(* Bytecode linkage                                                    *)
(* ------------------------------------------------------------------ *)

(* What the bytecode emitter needs to know about the image, as closures
   (the dependency stays one-way: Compile → Bytecode → Exec).  [lk_fn]
   hands out the function's [fbody], filled in pass 2, so functions can
   reference functions compiled later. *)
let linkage_of_image (img : image) : Bytecode.linkage =
  { Bytecode.lk_resolve =
      (fun cls m ->
        match resolve_method img cls m with Some i -> i | None -> -1);
    lk_fn =
      (fun name ->
        match Hashtbl.find_opt img.img_fn_index name with
        | None -> None
        | Some idx ->
          let fn = img.img_functions.(idx) in
          Some (List.length fn.if_params, fn.if_body));
    lk_class =
      (fun cls ->
        match Hashtbl.find_opt img.img_classes cls with
        | None -> None
        | Some ic ->
          Some
            { Bytecode.ci_layout = ic.ic_layout;
              ci_init =
                (match Hashtbl.find_opt ic.ic_dispatch "init" with
                 | Some i -> i
                 | None -> -1);
              ci_is_exc = ic.ic_is_exception });
    lk_is_exc = (fun vm cls -> is_exception_class img vm cls);
    lk_exn_matches = (fun vm ev handler -> exn_matches img vm ev handler) }

(* Program defects surface as [Exec.Error] inside the dispatch loop and
   become [Runtime_error] where the engine returns to native code,
   carrying the source position of the offending expression or
   statement; an outer activation sees it as an ordinary OCaml exception
   and lets it pass. *)
let wrap_bc_method (impl : Vm.impl) : Vm.impl =
 fun vm this args ->
  try impl vm this args
  with Exec.Error (msg, line, col) -> raise (Runtime_error (msg, { Ast.line; col }))

let wrap_bc_fn (impl : Vm.t -> Value.t list -> Value.t) : Vm.t -> Value.t list -> Value.t =
 fun vm args ->
  try impl vm args
  with Exec.Error (msg, line, col) -> raise (Runtime_error (msg, { Ast.line; col }))

(* ------------------------------------------------------------------ *)
(* Image construction                                                  *)
(* ------------------------------------------------------------------ *)

(* Class skeleton used while laying the image out. *)
type skel = {
  sk_super : string option;
  sk_fields : string list;
  sk_own : (string * int) list; (* own methods, declaration order *)
  sk_user : bool;
}

let build_image (prog : Ast.program) : image =
  (* Pass 1: class skeletons and global method/function indices, so
     that bodies can reference classes and functions declared later. *)
  let skels : (string, skel) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (name, super) ->
      Hashtbl.replace skels name
        { sk_super = super; sk_fields = [ "message" ]; sk_own = []; sk_user = false })
    Vm.builtin_exception_classes;
  let order = ref [] (* user class names, first-declaration order *) in
  let meths = ref [] (* (class, decl) in index order, reversed *) in
  let n_meths = ref 0 in
  let funcs = ref [] (* func decls in index order, reversed *) in
  let n_funcs = ref 0 in
  let fn_index = Hashtbl.create 16 in
  List.iter
    (fun decl ->
      match decl with
      | Ast.Class_decl c ->
        let own =
          List.map
            (fun m ->
              let idx = !n_meths in
              incr n_meths;
              meths := (c.Ast.c_name, m) :: !meths;
              (m.Ast.m_name, idx))
            c.Ast.c_methods
        in
        let prev_own =
          (* a redeclared class replaces fields and superclass but, as
             before, keeps accumulating methods into one class record *)
          match Hashtbl.find_opt skels c.Ast.c_name with
          | Some { sk_user = true; sk_own; _ } -> sk_own
          | _ ->
            order := c.Ast.c_name :: !order;
            []
        in
        Hashtbl.replace skels c.Ast.c_name
          { sk_super = c.Ast.c_super;
            sk_fields = c.Ast.c_fields;
            sk_own = prev_own @ own;
            sk_user = true }
      | Ast.Func_decl f ->
        let idx = !n_funcs in
        incr n_funcs;
        funcs := f :: !funcs;
        Hashtbl.replace fn_index f.Ast.f_name idx)
    prog;
  (* Resolution helpers over the skeletons.  The [seen] guards keep
     image construction terminating on (degenerate) inheritance cycles:
     each walk stops where the chain repeats. *)
  let rec all_fields seen name =
    if List.mem name seen then []
    else
      match Hashtbl.find_opt skels name with
      | None -> []
      | Some sk ->
        (match sk.sk_super with
         | None -> []
         | Some s -> all_fields (name :: seen) s)
        @ sk.sk_fields
  in
  let disp_cache : (string, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let rec dispatch seen name =
    match Hashtbl.find_opt disp_cache name with
    | Some t -> t
    | None ->
      let t =
        if List.mem name seen then Hashtbl.create 4
        else
          match Hashtbl.find_opt skels name with
          | None -> Hashtbl.create 4
          | Some sk ->
            let base =
              match sk.sk_super with
              | Some s -> Hashtbl.copy (dispatch (name :: seen) s)
              | None -> Hashtbl.create 8
            in
            List.iter (fun (mname, idx) -> Hashtbl.replace base mname idx) sk.sk_own;
            base
      in
      Hashtbl.replace disp_cache name t;
      t
  in
  let rec is_exc seen name =
    String.equal name Vm.throwable
    || (not (List.mem name seen))
       && (match Hashtbl.find_opt skels name with
           | Some { sk_super = Some s; _ } -> is_exc (name :: seen) s
           | Some { sk_super = None; _ } | None -> false)
  in
  let classes = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name sk ->
      let fields = all_fields [] name in
      Hashtbl.replace classes name
        { ic_name = name;
          ic_super = sk.sk_super;
          ic_decl_fields = sk.sk_fields;
          ic_fields = fields;
          ic_layout = Heap.layout fields;
          ic_dispatch = dispatch [] name;
          ic_is_exception = is_exc [] name;
          ic_user = sk.sk_user })
    skels;
  let meths_fwd = List.rev !meths in
  let img =
    { img_classes = classes;
      img_class_order =
        Array.of_list (List.rev_map (fun name -> Hashtbl.find classes name) !order);
      img_methods =
        Array.of_list
          (List.map
             (fun (cls, (m : Ast.meth_decl)) ->
               { im_class = cls;
                 im_name = m.Ast.m_name;
                 im_params = m.Ast.m_params;
                 im_throws = m.Ast.m_throws;
                 im_impl = (fun _ _ _ -> assert false);
                 im_body = Vm.No_body })
             meths_fwd);
      img_functions =
        Array.of_list
          (List.rev_map
             (fun (f : Ast.func_decl) ->
               let fb = Exec.new_fbody () in
               { if_name = f.Ast.f_name;
                 if_params = f.Ast.f_params;
                 if_body = fb;
                 if_impl = wrap_bc_fn (Exec.function_impl fb) })
             !funcs);
      img_fn_index = fn_index }
  in
  (* Pass 2: compile every body against the finished layout. *)
  let lk = linkage_of_image img in
  List.iteri
    (fun idx (cls, m) ->
      let super = (Hashtbl.find classes cls).ic_super in
      let mb = Bytecode.compile_method lk ~cls_name:cls ~defining_super:super m in
      let im = img.img_methods.(idx) in
      im.im_impl <- wrap_bc_method (Exec.method_impl mb);
      im.im_body <- Exec.Method_body mb)
    meths_fwd;
  List.iteri
    (fun idx f -> Bytecode.compile_function lk f img.img_functions.(idx).if_body)
    (List.rev !funcs);
  img

let image (prog : Ast.program) : image =
  Obs.span "compile.image" (fun () -> build_image prog)

(* ------------------------------------------------------------------ *)
(* Instantiation                                                       *)
(* ------------------------------------------------------------------ *)

let instantiate_vm (img : image) : Vm.t =
  let vm = Vm.create () in
  Array.iter
    (fun ic ->
      ignore (Vm.add_class vm ?super:ic.ic_super ~fields:ic.ic_decl_fields ic.ic_name))
    img.img_class_order;
  let table =
    Array.map
      (fun im ->
        Vm.add_method vm im.im_class ~name:im.im_name ~params:im.im_params
          ~throws:im.im_throws ~body:im.im_body im.im_impl)
      img.img_methods
  in
  vm.Vm.meth_table <- table;
  Array.iter
    (fun ifn ->
      Hashtbl.replace vm.Vm.functions ifn.if_name
        { Vm.fn_name = ifn.if_name; fn_params = ifn.if_params; fn_impl = ifn.if_impl })
    img.img_functions;
  vm

let instantiate (img : image) : Vm.t =
  Obs.span "compile.instantiate" (fun () -> instantiate_vm img)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

(* Static analyses (exception flow, pruning) read the image's finished
   layout instead of re-deriving hierarchy and dispatch from the AST:
   the flattened dispatch tables already encode inheritance, redeclared
   classes and the builtin exception hierarchy exactly as execution
   resolves them. *)

type class_summary = {
  cs_name : string;
  cs_super : string option;
  cs_fields : string list; (* full template layout, inherited first *)
  cs_is_exception : bool;
  cs_user : bool; (* declared by the program, not builtin *)
}

let summarize_class ic =
  { cs_name = ic.ic_name;
    cs_super = ic.ic_super;
    cs_fields = ic.ic_fields;
    cs_is_exception = ic.ic_is_exception;
    cs_user = ic.ic_user }

let image_classes img =
  let user = Array.to_list (Array.map summarize_class img.img_class_order) in
  let builtin =
    Hashtbl.fold
      (fun _ ic acc -> if ic.ic_user then acc else summarize_class ic :: acc)
      img.img_classes []
    |> List.sort (fun a b -> compare a.cs_name b.cs_name)
  in
  user @ builtin

let image_is_subclass = img_is_subclass

let dispatch_targets img mname =
  Hashtbl.fold
    (fun _ ic acc ->
      match Hashtbl.find_opt ic.ic_dispatch mname with
      | Some idx ->
        let cls = img.img_methods.(idx).im_class in
        if List.mem cls acc then acc else cls :: acc
      | None -> acc)
    img.img_classes []
  |> List.sort compare

let resolve_dispatch img cls mname =
  match resolve_method img cls mname with
  | Some idx -> Some img.img_methods.(idx).im_class
  | None -> None

let program (prog : Ast.program) : Vm.t = instantiate (image prog)

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

(* Run-boundary harvest: the interpreter's hot path counts in plain
   per-VM mutable fields ([steps], [calls], the inline-cache pair) and
   the heap's own totals; one run's worth is folded into the global
   registry here, so enabling metrics adds nothing to the per-step or
   per-call cost. *)
let m_runs = Obs.counter "vm.runs"
let m_steps = Obs.counter "vm.steps"
let m_calls = Obs.counter "vm.calls"
let m_ic_hits = Obs.counter "vm.inline_cache.hits"
let m_ic_misses = Obs.counter "vm.inline_cache.misses"
let m_allocations = Obs.counter "heap.allocations"
let m_barrier_hits = Obs.counter "heap.barrier_hits"
let h_live = Obs.histogram ~unit_:Obs.Items "heap.live_at_exit"
let m_preemptions = Obs.counter "sched.preemptions"
let m_switches = Obs.counter "sched.switches"
let m_contention = Obs.counter "sched.lock_contention"

let harvest vm =
  Obs.incr m_runs;
  Obs.add m_steps vm.Vm.steps;
  Obs.add m_calls vm.Vm.calls;
  Obs.add m_ic_hits vm.Vm.ic_hits;
  Obs.add m_ic_misses vm.Vm.ic_misses;
  Obs.add m_allocations (Heap.allocations vm.Vm.heap);
  Obs.add m_barrier_hits (Heap.barrier_hits vm.Vm.heap);
  Obs.add m_preemptions vm.Vm.sched_preemptions;
  Obs.add m_switches vm.Vm.sched_switches;
  Obs.add m_contention vm.Vm.sched_contention;
  Obs.observe h_live (Heap.live_count vm.Vm.heap)

(* A spawned thread's root call leaves a program defect as
   [Exec.Error] (main's entry converts its own): the run fails with it
   as [Runtime_error] all the same. *)
let defect = function
  | Exec.Error (msg, line, col) -> Runtime_error (msg, { Ast.line; col })
  | e -> e

(* Runs the program's [main] function; returns its value.  [main] is
   always MiniLang thread 0 under the scheduler, so the concurrency
   effects are handled even in sequential programs (which never perform
   them under [Coop], keeping the sequential path unchanged). *)
let run_main ?(policy = Sched.Coop) vm =
  match Hashtbl.find_opt vm.Vm.functions "main" with
  | None -> invalid_arg "program has no main function"
  | Some fn ->
    let run () =
      try Sched.run vm ~policy (fun () -> fn.Vm.fn_impl vm [])
      with Exec.Error _ as e -> raise (defect e)
    in
    if not (Obs.enabled ()) then run ()
    else
      (* harvest even when a MiniLang exception escapes main — that is
         how most injection runs end *)
      Fun.protect ~finally:(fun () -> harvest vm) (fun () -> Obs.span "vm.run_main" run)

(* The rest of the run from a continuation captured with [Exec.capture],
   as if the captured call had raised [inject ()] there: a
   [Sched.fork] whose current thread resumes the capture.  Defects
   become [Runtime_error] as they would leaving the run; the steps,
   calls and scheduler counters the fork adds are folded into the
   harvest counters here, because the fork they belong to is rewound
   before its run's own harvest. *)
let fork_raise vm k inject =
  let steps0 = vm.Vm.steps and calls0 = vm.Vm.calls in
  let preemptions0 = vm.Vm.sched_preemptions and switches0 = vm.Vm.sched_switches in
  let contention0 = vm.Vm.sched_contention in
  let forked = Sched.fork vm (fun () -> Exec.resume_raise vm k (inject ())) in
  Obs.add m_steps (vm.Vm.steps - steps0);
  Obs.add m_calls (vm.Vm.calls - calls0);
  Obs.add m_preemptions (vm.Vm.sched_preemptions - preemptions0);
  Obs.add m_switches (vm.Vm.sched_switches - switches0);
  Obs.add m_contention (vm.Vm.sched_contention - contention0);
  match forked with
  | Some (Error e) -> Some (Error (defect e))
  | Some (Ok _) | None -> forked
