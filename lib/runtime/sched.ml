(* The deterministic cooperative scheduler.

   MiniLang threads are OCaml effect fibers multiplexed onto the single
   domain that runs the VM — there is no OS-level parallelism, so every
   interleaving is a deterministic function of the scheduling policy
   alone.  The policy's every choice is drawn from a seeded splitmix64
   stream and folded into a decision digest, so a run is replayed
   bit-for-bit by re-running with the same policy spec (the spec is
   recorded per run in the journal; see Run_log).

   Preemption opportunities are method-call boundaries only
   ({!Vm.call_filtered} performs {!Vm.Preempt} when [preempt_flag] is
   set).  The interpreter funnels every method and constructor call
   through that one function, so opportunity counting — and hence every
   decision a policy makes — is a function of the program's calls alone.

   Policies:
   - [Coop]: never preempts; switches only when a thread blocks or
     finishes, next thread in FIFO order.  Zero decisions, empty
     digest.  A sequential program under [Coop] runs exactly as it did
     without the scheduler (one fiber, no preemption checks beyond a
     single dead branch per call).
   - [Slice seed]: random time slices of 1..8 call opportunities; on
     expiry the next thread is drawn uniformly from the runnable set.
   - [Pct (depth, seed)]: PCT-style randomized priorities (Burckhardt
     et al.): each thread gets a random priority at spawn, the highest
     runnable priority always runs, and [depth] priority-change points
     are sampled over a 10,000-opportunity horizon, at which the
     running thread is demoted below every other.

   Monitors are per-object, reentrant, with FIFO handoff: the longest
   waiting thread acquires the lock the moment it is released, which
   makes lock-transfer order independent of the pick order of the
   policy (fairness is testable).  [join] returns the target's result
   value, or re-raises its crash into the joiner; joining self, main or
   an unknown tid raises IllegalArgumentException.  When every live
   thread is blocked the run dies with IllegalStateException
   ("deadlock"), catchable in-language like any other runtime
   exception.

   After main returns normally the scheduler drains the remaining
   runnable threads (so the set of calls executed does not depend on
   the policy), then re-raises the crash of the lowest-tid unjoined
   crashed thread, if any — an injected exception that kills a spawned
   thread still escapes the run and is seen by the detector.  A crash
   of main itself, or a fatal OCaml-level exception in any thread
   (step limit, deadline, genuine defects), aborts the whole run
   immediately. *)

open Effect.Deep

type policy = Coop | Slice of int | Pct of int * int

let policy_to_string = function
  | Coop -> "coop"
  | Slice seed -> Printf.sprintf "slice:%d" seed
  | Pct (depth, seed) -> Printf.sprintf "pct:%d:%d" depth seed

let policy_of_string s =
  match String.split_on_char ':' s with
  | [ "coop" ] -> Some Coop
  | [ "slice"; seed ] ->
    Option.map (fun n -> Slice n) (int_of_string_opt seed)
  | [ "pct"; depth; seed ] -> (
    match int_of_string_opt depth, int_of_string_opt seed with
    | Some d, Some n when d >= 0 -> Some (Pct (d, n))
    | _ -> None)
  | _ -> None

(* PCT priority-change points are sampled over this many preemption
   opportunities; runs longer than the horizon see no further change
   points (as in the original PCT formulation with a length bound). *)
let pct_horizon = 10_000

(* splitmix64: the seeded decision stream. *)
let sm64 st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_below st n =
  if n <= 1 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (sm64 st) 1) (Int64.of_int n))

(* FNV-1a 64 over the decision stream: (opportunity index, chosen tid)
   at every scheduling choice.  Rendered as 16 hex digits. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_fold acc n =
  let rec bytes acc v i =
    if i = 8 then acc
    else
      bytes
        (Int64.mul (Int64.logxor acc (Int64.of_int (v land 0xff))) fnv_prime)
        (v lsr 8) (i + 1)
  in
  bytes acc n 0

let hex64 v = Printf.sprintf "%016Lx" v

type tstate =
  | Runnable of (unit -> unit) (* thunk resumes (or starts) the fiber *)
  | Running
  | Blocked_join of int * (Value.t, unit) continuation
  | Blocked_lock of int * (unit, unit) continuation
  | Finished of Value.t
  | Crashed of Vm.exn_value

type thread = {
  tid : int;
  mutable st : tstate;
  mutable joined : bool; (* crash consumed by a joiner (or drain) *)
  mutable prio : int; (* PCT base priority; negative once demoted *)
}

type monitor = {
  mutable owner : int; (* thread id, -1 = free *)
  mutable depth : int; (* reentrant acquisition count *)
  waiting : int Queue.t; (* FIFO handoff order *)
}

let run vm ~policy (main_thunk : unit -> Value.t) : Value.t =
  let threads : (int, thread) Hashtbl.t = Hashtbl.create 8 in
  let monitors : (int, monitor) Hashtbl.t = Hashtbl.create 8 in
  let next_tid = ref 1 in
  let rng = ref (Int64.of_int (match policy with Coop -> 0 | Slice s | Pct (_, s) -> s)) in
  let digest = ref fnv_offset in
  let opportunities = ref 0 in
  let switches = ref 0 in
  let preemptions = ref 0 in
  let contention = ref 0 in
  let cur = ref 0 in
  let abort : exn option ref = ref None in
  let main_value : Value.t option ref = ref None in
  (* coop run queue: holds exactly the runnable-but-not-running tids *)
  let rq : int Queue.t = Queue.create () in
  let pct_changes =
    match policy with
    | Pct (d, _) -> List.init d (fun _ -> 1 + rand_below rng pct_horizon)
    | Coop | Slice _ -> []
  in
  let pct_low = ref 0 in
  let quantum = ref 1 in
  let new_prio () =
    match policy with Pct _ -> 1 + rand_below rng 1_000_000 | Coop | Slice _ -> 0
  in
  let set_runnable t thunk =
    t.st <- Runnable thunk;
    Queue.push t.tid rq
  in
  let runnable_list () =
    Hashtbl.fold
      (fun _ t acc -> match t.st with Runnable _ -> t :: acc | _ -> acc)
      threads []
    |> List.sort (fun a b -> compare a.tid b.tid)
  in
  let exists_other_runnable () =
    Hashtbl.fold
      (fun _ t acc -> acc || (match t.st with Runnable _ -> true | _ -> false))
      threads false
  in
  (* Wakes every thread blocked on [join target]; a crash is delivered
     into the joiner as the original MiniLang exception. *)
  let wake_joiners target =
    Hashtbl.iter
      (fun _ th ->
        match th.st with
        | Blocked_join (tid, k) when tid = target.tid -> (
          target.joined <- true;
          match target.st with
          | Finished v -> set_runnable th (fun () -> continue k v)
          | Crashed ev -> set_runnable th (fun () -> discontinue k (Vm.Mini_raise ev))
          | Runnable _ | Running | Blocked_join _ | Blocked_lock _ -> assert false)
        | _ -> ())
      threads
  in
  let rec start_fiber t thunk =
    match_with
      (fun () ->
        let v = thunk () in
        t.st <- Finished v;
        if t.tid = 0 then main_value := Some v;
        wake_joiners t)
      ()
      (handler t)
  and handler : thread -> (unit, unit) Effect.Deep.handler =
   fun t ->
    { retc = Fun.id;
      exnc =
        (fun e ->
          match e with
          | Vm.Mini_raise ev when t.tid <> 0 ->
            t.st <- Crashed ev;
            wake_joiners t
          | e ->
            (* main crashed, or a fatal OCaml-level exception anywhere:
               the whole run aborts with it *)
            abort := Some e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Vm.Preempt ->
            Some
              (fun (k : (b, unit) continuation) ->
                incr opportunities;
                let yield () =
                  incr preemptions;
                  set_runnable t (fun () -> continue k ())
                in
                match policy with
                | Coop -> continue k ()
                | Slice _ ->
                  decr quantum;
                  if !quantum <= 0 && exists_other_runnable () then yield ()
                  else continue k ()
                | Pct _ ->
                  if List.mem !opportunities pct_changes then begin
                    decr pct_low;
                    t.prio <- !pct_low;
                    yield ()
                  end
                  else if
                    List.exists (fun o -> o.prio > t.prio) (runnable_list ())
                  then yield ()
                  else continue k ())
          | Vm.Sched_spawn thunk ->
            Some
              (fun (k : (b, unit) continuation) ->
                let tid = !next_tid in
                incr next_tid;
                let nt =
                  { tid; st = Running; joined = false; prio = new_prio () }
                in
                Hashtbl.add threads tid nt;
                set_runnable nt (fun () -> start_fiber nt thunk);
                continue k tid)
          | Vm.Sched_join tid ->
            Some
              (fun (k : (b, unit) continuation) ->
                let bad msg =
                  discontinue k
                    (Vm.Mini_raise (Vm.make_exn vm "IllegalArgumentException" msg))
                in
                if tid = 0 then bad "join: cannot join the main thread"
                else if tid = t.tid then bad "join: cannot join self"
                else
                  match Hashtbl.find_opt threads tid with
                  | None -> bad (Printf.sprintf "join: unknown thread %d" tid)
                  | Some target -> (
                    match target.st with
                    | Finished v ->
                      target.joined <- true;
                      continue k v
                    | Crashed ev ->
                      target.joined <- true;
                      discontinue k (Vm.Mini_raise ev)
                    | Runnable _ | Running | Blocked_join _ | Blocked_lock _ ->
                      t.st <- Blocked_join (tid, k)))
          | Vm.Monitor_enter id ->
            Some
              (fun (k : (b, unit) continuation) ->
                let mon =
                  match Hashtbl.find_opt monitors id with
                  | Some m -> m
                  | None ->
                    let m = { owner = -1; depth = 0; waiting = Queue.create () } in
                    Hashtbl.add monitors id m;
                    m
                in
                if mon.owner = -1 || mon.owner = t.tid then begin
                  mon.owner <- t.tid;
                  mon.depth <- mon.depth + 1;
                  continue k ()
                end
                else begin
                  incr contention;
                  Queue.push t.tid mon.waiting;
                  t.st <- Blocked_lock (id, k)
                end)
          | Vm.Monitor_exit id ->
            Some
              (fun (k : (b, unit) continuation) ->
                match Hashtbl.find_opt monitors id with
                | Some mon when mon.owner = t.tid ->
                  mon.depth <- mon.depth - 1;
                  if mon.depth = 0 then begin
                    if Queue.is_empty mon.waiting then mon.owner <- -1
                    else begin
                      (* FIFO handoff: the longest waiter owns the lock
                         from this instant, whatever the policy later
                         decides to run *)
                      let nxt = Queue.pop mon.waiting in
                      let th = Hashtbl.find threads nxt in
                      mon.owner <- nxt;
                      mon.depth <- 1;
                      match th.st with
                      | Blocked_lock (_, k') ->
                        set_runnable th (fun () -> continue k' ())
                      | _ -> assert false
                    end
                  end;
                  continue k ()
                | Some _ | None ->
                  discontinue k
                    (Vm.Mini_raise
                       (Vm.make_exn vm "IllegalStateException" "monitor not owned")))
          | _ -> None) }
  in
  let pick () =
    match policy with
    | Coop ->
      let rec pop () =
        match Queue.take_opt rq with
        | None -> None
        | Some tid -> (
          match Hashtbl.find_opt threads tid with
          | Some ({ st = Runnable _; _ } as t) -> Some t
          | _ -> pop ())
      in
      pop ()
    | Slice _ -> (
      Queue.clear rq;
      match runnable_list () with
      | [] -> None
      | l -> Some (List.nth l (rand_below rng (List.length l))))
    | Pct _ -> (
      Queue.clear rq;
      match runnable_list () with
      | [] -> None
      | l ->
        Some
          (List.fold_left (fun best t -> if t.prio > best.prio then t else best)
             (List.hd l) (List.tl l)))
  in
  let main = { tid = 0; st = Running; joined = true; prio = new_prio () } in
  Hashtbl.add threads 0 main;
  set_runnable main (fun () -> start_fiber main main_thunk);
  let saved_flag = vm.Vm.preempt_flag in
  vm.Vm.preempt_flag <- (match policy with Coop -> false | Slice _ | Pct _ -> true);
  let finish_stats () =
    vm.Vm.preempt_flag <- saved_flag;
    Vm.set_cur_tid vm 0;
    vm.Vm.sched_switches <- !switches;
    vm.Vm.sched_preemptions <- !preemptions;
    vm.Vm.sched_contention <- !contention;
    vm.Vm.sched_digest <-
      (match policy with Coop -> "" | Slice _ | Pct _ -> hex64 !digest)
  in
  Fun.protect ~finally:finish_stats (fun () ->
      let prev = ref (-1) in
      let rec loop () =
        match !abort with
        | Some e -> raise e
        | None -> (
          match pick () with
          | Some t ->
            (match policy with
             | Coop -> ()
             | Slice _ | Pct _ ->
               digest := fnv_fold (fnv_fold !digest !opportunities) t.tid);
            if !prev >= 0 && t.tid <> !prev then incr switches;
            prev := t.tid;
            cur := t.tid;
            Vm.set_cur_tid vm t.tid;
            (match policy with
             | Slice _ -> quantum := 1 + rand_below rng 8
             | Coop | Pct _ -> ());
            let resume =
              match t.st with Runnable r -> r | _ -> assert false
            in
            t.st <- Running;
            resume ();
            loop ()
          | None ->
            let blocked =
              Hashtbl.fold
                (fun _ t acc ->
                  acc
                  || (match t.st with
                      | Blocked_join _ | Blocked_lock _ -> true
                      | _ -> false))
                threads false
            in
            if blocked then
              raise (Vm.Mini_raise (Vm.make_exn vm "IllegalStateException" "deadlock")))
      in
      loop ();
      (* main finished normally and everything runnable was drained:
         surface the first unjoined crash, if any *)
      let crashed =
        Hashtbl.fold
          (fun _ t acc ->
            match t.st with
            | Crashed ev when not t.joined -> (
              match acc with
              | Some (tid, _) when tid < t.tid -> acc
              | _ -> Some (t.tid, ev))
            | _ -> acc)
          threads None
      in
      match crashed with
      | Some (_, ev) -> raise (Vm.Mini_raise ev)
      | None -> (
        match !main_value with
        | Some v -> v
        | None -> assert false))
