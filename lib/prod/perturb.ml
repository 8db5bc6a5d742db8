(* The canary perturbation channel.

   Per selected call, in filter order (canary outermost, igniter
   innermost, the armed wrapper between them):

     canary.pre    draw RNG; open a copy-on-write shadow of the heap
     armed.pre     take the rollback protection
     igniter.pre   At_entry: raise the injected exception now
     (body)        At_exit only
     igniter.post  At_exit: body returned normally -> raise now
     armed.post    exceptional exit -> roll the receiver graph back
     canary.post   our exception?  validate graph == its state when
                   the shadow opened, close the shadow, then retry the
                   call with draws suppressed

   The per-thread cells (pending injection, injected-raise-in-flight,
   retry suppression) make the channel safe under preemptive schedules:
   every hand-off between the three filters happens within one call on
   one thread. *)

open Failatom_core
open Failatom_runtime
module Obs = Failatom_obs.Obs

type point = At_entry | At_exit

let point_name = function At_entry -> "entry" | At_exit -> "exit"

let point_of_name = function
  | "entry" -> Some At_entry
  | "exit" -> Some At_exit
  | _ -> None

type method_stats = {
  mutable pv_fired : int;
  mutable pv_validated : int;
  mutable pv_interfered : int;
  mutable pv_failed : int;
  mutable pv_diff : string option;
}

(* A canary frame, pushed at pre and popped at post/unwind.  A selected
   frame keeps a shadow opened at selection — its before-state is the
   pre-call graph, paid for by the payloads the call writes rather than
   by a traversal at entry — plus the heap's write generation and this
   thread's own write count at selection time: a post-rollback mismatch
   is only a mask failure when the generation delta is fully accounted
   for by this thread's own writes — i.e. no *other* thread wrote during
   the call.  The shadow is closed at post, before any retry, or at
   unwind. *)
type frame =
  | Unselected
  | Selected of Shadow.t * int * int

type t = {
  mutable rng : int64;
  seed : int;
  rate : int;  (* per-mille of calls selected *)
  max_fires : int;  (* max_int = unlimited *)
  point : point;
  fallback : string list;
  config : Config.t;
  targets : Method_id.Set.t;
  stats : (Method_id.t, method_stats) Hashtbl.t;
  mutable fired_total : int;
  mutable retries_total : int;
  pending : (int, string) Hashtbl.t;  (* tid -> exception class to inject *)
  in_flight : (int, unit) Hashtbl.t;  (* tid -> the Error in flight is ours *)
  suppress : (int, int) Hashtbl.t;  (* tid -> retry nesting depth *)
}

let create ?(rate_per_mille = 10) ?(max_fires = max_int) ?(point = At_exit)
    ?(fallback_exceptions = []) ~config ~targets ~seed () =
  { rng = Int64.of_int seed;
    seed;
    rate = rate_per_mille;
    max_fires;
    point;
    fallback = fallback_exceptions;
    config;
    targets;
    stats = Hashtbl.create 16;
    fired_total = 0;
    retries_total = 0;
    pending = Hashtbl.create 4;
    in_flight = Hashtbl.create 4;
    suppress = Hashtbl.create 4 }

let point_of t = t.point
let seed_of t = t.seed
let rate_of t = t.rate

let stats_of t id =
  match Hashtbl.find_opt t.stats id with
  | Some s -> s
  | None ->
    let s =
      { pv_fired = 0;
        pv_validated = 0;
        pv_interfered = 0;
        pv_failed = 0;
        pv_diff = None }
    in
    Hashtbl.replace t.stats id s;
    s

let fired t = t.fired_total
let validated t = Hashtbl.fold (fun _ s n -> n + s.pv_validated) t.stats 0
let interfered t = Hashtbl.fold (fun _ s n -> n + s.pv_interfered) t.stats 0
let failed t = Hashtbl.fold (fun _ s n -> n + s.pv_failed) t.stats 0
let retries t = t.retries_total

let per_method t =
  Hashtbl.fold (fun id s acc -> (id, s) :: acc) t.stats []
  |> List.sort (fun (a, _) (b, _) -> Method_id.compare a b)

(* Canonical metric names; see doc/architecture.md. *)
let c_fired = Obs.counter "prod.perturb_fired"
let c_validated = Obs.counter "prod.perturb_validated"
let c_interfered = Obs.counter "prod.perturb_interfered"
let c_failed = Obs.counter "prod.perturb_failed"
let c_retry = Obs.counter "prod.retry"
let h_validate = Obs.histogram ~unit_:Obs.Ns "prod.validate_ns"

(* splitmix64: a tiny, seedable, deterministic generator — the draw
   sequence must replay exactly from the scorecard's recorded seed. *)
let next_u64 t =
  t.rng <- Int64.add t.rng 0x9E3779B97F4A7C15L;
  let z = t.rng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let draw_mod t n =
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next_u64 t) 1) (Int64.of_int n))

let suppressed t tid = Option.value ~default:0 (Hashtbl.find_opt t.suppress tid) > 0

let candidates t (meth : Vm.meth) =
  match meth.Vm.throws with [] -> t.fallback | declared -> declared

(* ------------------------------------------------------------------ *)
(* Igniter: raises the pending injection from inside the wrapper        *)
(* ------------------------------------------------------------------ *)

let ignite t vm cls =
  t.fired_total <- t.fired_total + 1;
  Obs.incr c_fired;
  Hashtbl.replace t.in_flight vm.Vm.cur_tid ();
  Vm.make_exn vm cls "canary perturbation"

let igniter_filter t =
  (* At_exit frames: [true] when this call must raise on normal return.
     Per-thread, LIFO with the call stack. *)
  let marks : (int, bool list) Hashtbl.t = Hashtbl.create 4 in
  let marks_of vm = Option.value ~default:[] (Hashtbl.find_opt marks vm.Vm.cur_tid) in
  let pop_mark vm =
    match marks_of vm with
    | [] -> false
    | m :: rest ->
      Hashtbl.replace marks vm.Vm.cur_tid rest;
      m
  in
  { Vm.filt_name = "perturb-igniter";
    pre =
      (fun vm _meth _recv _args ->
        match Hashtbl.find_opt t.pending vm.Vm.cur_tid with
        | None ->
          if t.point = At_exit then
            Hashtbl.replace marks vm.Vm.cur_tid (false :: marks_of vm);
          Vm.Proceed
        | Some cls -> (
          Hashtbl.remove t.pending vm.Vm.cur_tid;
          match t.point with
          | At_entry ->
            (* Pre_raise skips this filter's own post: no mark to pop. *)
            Vm.Pre_raise (ignite t vm cls)
          | At_exit ->
            Hashtbl.replace marks vm.Vm.cur_tid (true :: marks_of vm);
            Hashtbl.replace t.pending vm.Vm.cur_tid cls;
            (* keep the class for the post *)
            Vm.Proceed));
    post =
      (fun vm _meth _recv _args result ->
        let armed = pop_mark vm in
        if armed then begin
          let cls = Hashtbl.find_opt t.pending vm.Vm.cur_tid in
          Hashtbl.remove t.pending vm.Vm.cur_tid;
          match (result, cls) with
          | Ok _, Some cls ->
            (* The body completed and mutated whatever it mutates:
               now is when the rollback has real work to do. *)
            Vm.Post_raise (ignite t vm cls)
          | _ -> Vm.Pass  (* a natural exception won the race: stand down *)
        end
        else Vm.Pass);
    unwind =
      (fun vm _meth ->
        if t.point = At_exit then ignore (pop_mark vm : bool);
        Hashtbl.remove t.pending vm.Vm.cur_tid) }

(* ------------------------------------------------------------------ *)
(* Canary: selection, validation, retry                                 *)
(* ------------------------------------------------------------------ *)

let canary_filter t ms =
  let frames : (int, frame list) Hashtbl.t = Hashtbl.create 4 in
  let frames_of vm = Option.value ~default:[] (Hashtbl.find_opt frames vm.Vm.cur_tid) in
  let push vm f = Hashtbl.replace frames vm.Vm.cur_tid (f :: frames_of vm) in
  let pop vm =
    match frames_of vm with
    | [] -> Unselected
    | f :: rest ->
      Hashtbl.replace frames vm.Vm.cur_tid rest;
      f
  in
  { Vm.filt_name = "perturb-canary";
    pre =
      (fun vm meth _recv _args ->
        let tid = vm.Vm.cur_tid in
        if suppressed t tid || t.fired_total >= t.max_fires then
          push vm Unselected
        else begin
          let selected = t.rate > 0 && draw_mod t 1000 < t.rate in
          if not selected then push vm Unselected
          else
            match candidates t meth with
            | [] -> push vm Unselected
            | exns ->
              let cls = List.nth exns (draw_mod t (List.length exns)) in
              let gen = Heap.write_gen vm.Vm.heap in
              let own = Heap.writes_by_tid vm.Vm.heap tid in
              Hashtbl.replace t.pending tid cls;
              push vm (Selected (Shadow.open_ vm.Vm.heap, gen, own))
        end;
        Vm.Proceed);
    post =
      (fun vm meth recv args result ->
        let tid = vm.Vm.cur_tid in
        match pop vm with
        | Unselected -> Vm.Pass
        | Selected (shadow, gen, own) -> (
          let ours = Hashtbl.mem t.in_flight tid in
          Hashtbl.remove t.in_flight tid;
          match result with
          | Error _ when ours ->
            (* Our injection came back: the armed wrapper has already
               rolled the graph back (its post ran before ours).
               Validate, then hide the whole episode from the caller. *)
            ms.pv_fired <- ms.pv_fired + 1;
            let t0 = Obs.now_ns () in
            let diff =
              Fun.protect
                ~finally:(fun () -> Shadow.close shadow)
                (fun () ->
                  Object_graph.first_diff ~read_a:(Shadow.read_before shadow)
                    ~read_b:(Heap.get vm.Vm.heap)
                    (Mask.checkpoint_roots t.config recv args))
            in
            Obs.observe h_validate (Obs.now_ns () - t0);
            if diff = None then begin
              ms.pv_validated <- ms.pv_validated + 1;
              Obs.incr c_validated
            end
            else if
              Heap.write_gen vm.Vm.heap - gen
              > Heap.writes_by_tid vm.Vm.heap tid - own
            then begin
              (* Another thread wrote while the perturbed call ran.  A
                 per-thread rollback rightly keeps that thread's work,
                 so the pre-call snapshot is no longer the reference:
                 inconclusive, not a mask failure. *)
              ms.pv_interfered <- ms.pv_interfered + 1;
              Obs.incr c_interfered
            end
            else begin
              ms.pv_failed <- ms.pv_failed + 1;
              if ms.pv_diff = None then ms.pv_diff <- diff;
              Obs.incr c_failed
            end;
            t.retries_total <- t.retries_total + 1;
            Obs.incr c_retry;
            Hashtbl.replace t.suppress tid
              (1 + Option.value ~default:0 (Hashtbl.find_opt t.suppress tid));
            let retry () =
              Fun.protect
                ~finally:(fun () ->
                  Hashtbl.replace t.suppress tid
                    (Option.value ~default:1 (Hashtbl.find_opt t.suppress tid) - 1))
                (fun () -> Vm.call_filtered vm meth recv args)
            in
            (match retry () with
            | v -> Vm.Post_return v
            | exception Vm.Mini_raise e -> Vm.Post_raise e)
          | _ ->
            (* Either the call succeeded before the igniter could fire
               (At_entry never reaches here) or a natural exception beat
               ours: no perturbation happened, pass the outcome on. *)
            Shadow.close shadow;
            Vm.Pass));
    unwind =
      (fun vm _meth ->
        (match pop vm with
         | Selected (shadow, _, _) -> Shadow.close shadow
         | Unselected -> ());
        Hashtbl.remove t.pending vm.Vm.cur_tid;
        Hashtbl.remove t.in_flight vm.Vm.cur_tid) }

let arm_on t vm make_filter =
  Vm.iter_methods vm (fun _cls meth ->
      let id = Method_id.make meth.Vm.meth_class meth.Vm.meth_name in
      if Method_id.Set.mem id t.targets then Vm.attach_filter meth (make_filter id))

let arm_igniter t vm =
  let filter = igniter_filter t in
  arm_on t vm (fun _id -> filter)

let arm_canary t vm = arm_on t vm (fun id -> canary_filter t (stats_of t id))
