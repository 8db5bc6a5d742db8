(* Armed production wrappers: masking without the detection machinery.

   The hot path is a normal call through a wrapped method: entry takes
   the copy-on-write checkpoint (an O(1) shadow open), exit releases
   it.  Rollback only happens on exceptional exits, which production
   masking exists to absorb — so all graph-sized work sits on that rare
   path. *)

open Failatom_core
open Failatom_runtime
module Obs = Failatom_obs.Obs

type method_stats = {
  mutable ms_calls : int;
  mutable ms_hits : int;
  mutable ms_wrap_ns : int;
  mutable ms_rollback_ns : int;
}

type t = {
  config : Config.t;
  targets : Method_id.Set.t;
  stats : (Method_id.t, method_stats) Hashtbl.t;
}

let create ~config ~targets () = { config; targets; stats = Hashtbl.create 16 }

let targets t = t.targets

let stats_of t id =
  match Hashtbl.find_opt t.stats id with
  | Some ms -> ms
  | None ->
    let ms = { ms_calls = 0; ms_hits = 0; ms_wrap_ns = 0; ms_rollback_ns = 0 } in
    Hashtbl.replace t.stats id ms;
    ms

let per_method t =
  Hashtbl.fold (fun id ms acc -> (id, ms) :: acc) t.stats []
  |> List.sort (fun (a, _) (b, _) -> Method_id.compare a b)

let calls t = Hashtbl.fold (fun _ ms n -> n + ms.ms_calls) t.stats 0
let hits t = Hashtbl.fold (fun _ ms n -> n + ms.ms_hits) t.stats 0

(* Canonical metric names; see doc/architecture.md. *)
let c_calls = Obs.counter "mask.calls"
let c_hits = Obs.counter "mask.hits"
let h_wrap = Obs.histogram ~unit_:Obs.Ns "mask.wrap_ns"
let h_rollback = Obs.histogram ~unit_:Obs.Ns "mask.rollback_ns"

(* One filter per armed method: the stats record is resolved once, at
   arm time, keeping the per-call path free of method-id lookups. *)
let filter_for t ms =
  let entries = Mask.entries () in
  { Vm.filt_name = "armed";
    pre =
      (fun vm _meth recv args ->
        let t0 = Obs.now_ns () in
        Mask.enter t.config entries vm recv args;
        let dt = Obs.now_ns () - t0 in
        ms.ms_calls <- ms.ms_calls + 1;
        ms.ms_wrap_ns <- ms.ms_wrap_ns + dt;
        Obs.incr c_calls;
        Obs.observe h_wrap dt;
        Vm.Proceed);
    post =
      (fun vm _meth _recv _args result ->
        let t0 = Obs.now_ns () in
        let rollback = Result.is_error result in
        Mask.leave entries vm ~rollback;
        let dt = Obs.now_ns () - t0 in
        if rollback then begin
          ms.ms_hits <- ms.ms_hits + 1;
          ms.ms_rollback_ns <- ms.ms_rollback_ns + dt;
          Obs.incr c_hits;
          Obs.observe h_rollback dt
        end
        else ms.ms_wrap_ns <- ms.ms_wrap_ns + dt;
        Vm.Pass);
    unwind =
      (fun vm _meth ->
        (* Deadline or scheduler unwind: exceptional exit without a
           [post]; roll back so the abort cannot publish a half-mutated
           graph, and release the entry so nothing leaks. *)
        Mask.leave entries vm ~rollback:true) }

let arm t vm =
  Vm.iter_methods vm (fun _cls meth ->
      let id = Method_id.make meth.Vm.meth_class meth.Vm.meth_name in
      if Method_id.Set.mem id t.targets then
        Vm.attach_filter meth (filter_for t (stats_of t id)))
