(* Dynamic profile of the target program.

   A plain (uninstrumented) run with a counting filter attached to every
   method yields: which methods are actually *used* by the program, and
   how often each is called.  The detection phase uses the profile to
   know where wrappers are needed; Figures 2(b)/3(b) of the paper weight
   the classification by these call counts. *)

open Failatom_runtime
open Failatom_minilang

type t = {
  calls : int Method_id.Map.t; (* per-method dynamic call counts *)
  total_calls : int;
  output : string; (* baseline program output *)
  exit_value : Value.t;
}

let used_methods t = List.map fst (Method_id.Map.bindings t.calls)
let call_count t id = Option.value ~default:0 (Method_id.Map.find_opt id t.calls)

(* Runs the program once with a counting filter on every method.  The
   baseline run must complete without an escaping exception: a workload
   that fails on its own would make injection results meaningless.
   [prepare] is applied to the fresh VM before the run; programs that
   were produced by the masking weaver use it to register their
   checkpoint hooks.  Takes a compiled image so the caller can share
   one image between the profile and the detection runs. *)
let of_image ?(prepare = fun (_ : Vm.t) -> ()) (image : Compile.image) : t =
  let vm = Compile.instantiate image in
  prepare vm;
  (* one counter per method entry, bumped by a filter of its own: the
     hot path is an increment, not a table update per call *)
  let counters = ref [] in
  Vm.iter_methods vm (fun _ meth ->
      let n = ref 0 in
      counters := (Method_id.make meth.Vm.meth_class meth.Vm.meth_name, n) :: !counters;
      Vm.attach_filter meth
        { Vm.filt_name = "profile";
          pre =
            (fun _vm _meth _recv _args ->
              incr n;
              Vm.Proceed);
          post = (fun _vm _meth _recv _args _result -> Vm.Pass);
          unwind = Vm.no_unwind });
  let exit_value = Compile.run_main vm in
  let calls =
    List.fold_left
      (fun acc (id, n) ->
        if !n = 0 then acc
        else
          Method_id.Map.add id
            (!n + Option.value ~default:0 (Method_id.Map.find_opt id acc))
            acc)
      Method_id.Map.empty !counters
  in
  { calls;
    total_calls = Method_id.Map.fold (fun _ n acc -> n + acc) calls 0;
    output = Vm.output vm;
    exit_value }

let run ?prepare (program : Ast.program) : t =
  of_image ?prepare (Compile.image program)
