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
   immediately.

   Forks.  The scheduler's state is one record ([t]), so a run can be
   forked at any point of any thread ({!fork}, for prefix-sharing
   detection): the forked run continues on a copy of it, nested inside
   the run it forks from.  For that, every suspended thread keeps its
   engine activation ([machine], saved at each switch — the VM's
   [machine] is the running thread's) besides its one-shot effect
   continuation; a fork never resumes the continuation, it starts a
   fresh fiber on a copy of the thread's frames ({!Exec.continue_call},
   {!Exec.continue_with}) the first time the copy is picked.  A switch
   therefore costs nothing extra, and frames are copied only for
   threads a forked run resumes. *)

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

(* How a suspended thread goes on when it is next picked. *)
type resume =
  | Start (* not started: runs its entry *)
  | Call (* preempted at a call's opportunity: makes the call *)
  | Return of Value.t (* woken in [join] or a monitor enter: the builtin returns this *)
  | Raise of Vm.exn_value (* woken in [join]: the builtin raises the joined crash *)

type tstate =
  | Runnable of resume
  | Running
  | Blocked_join of int
  | Blocked_lock of int
  | Finished of Value.t
  | Crashed of Vm.exn_value

(* What a suspended thread runs on when it is resumed. *)
type fiber =
  | Unstarted (* nothing yet: a new fiber runs the thread's entry *)
  | Live of (resume -> unit) (* its own fiber's effect continuation *)
  | Copy of Exec.suspended
      (* a fork's copy of a thread suspended in the forked run: a new
         fiber resumes a copy of that thread's frames *)

type thread = {
  tid : int;
  mutable st : tstate;
  mutable joined : bool; (* crash consumed by a joiner (or drain) *)
  mutable prio : int; (* PCT base priority; negative once demoted *)
  entry : unit -> Value.t; (* the thread's body *)
  mutable fiber : fiber;
  mutable machine : Vm.machine;
      (* a [Live] thread's engine activations, saved when it suspends *)
}

type monitor = {
  mutable owner : int; (* thread id, -1 = free *)
  mutable depth : int; (* reentrant acquisition count *)
  waiting : int Queue.t; (* FIFO handoff order *)
}

(* One run's scheduler.  Everything a fork copies is here or in the VM
   (its [preempt_flag], [cur_tid], [machine] and [sched_*] counters). *)
type t = {
  vm : Vm.t;
  policy : policy;
  mutable threads : thread array; (* indexed by tid: tids are dense *)
  mutable order : (int, unit) Hashtbl.t;
      (* the tids, in the order threads are woken in: the iteration
         order of a hash table the tids were added to as spawned (coop
         queue order depends on it).  Shared with a fork until the fork
         spawns, which copies it bucket for bucket first. *)
  mutable order_owned : bool;
  mutable monitors : (int, monitor) Hashtbl.t option; (* made on first use *)
  rq : int Queue.t; (* coop run queue: exactly the runnable tids *)
  rng : int64 ref; (* the splitmix64 decision stream *)
  pct_changes : int list;
  mutable next_tid : int;
  mutable digest : int64;
  mutable opportunities : int;
  mutable pct_low : int;
  mutable quantum : int;
  mutable prev : int; (* the thread picked last, -1 before the first pick *)
  mutable abort : exn option;
  mutable main_value : Value.t option;
}

type Vm.sched += Running_sched of t

let preemptive = function Coop -> false | Slice _ | Pct _ -> true

(* The decision digest, into the VM at the end of a run or fork. *)
let publish s =
  s.vm.Vm.sched_digest <- (if preemptive s.policy then hex64 s.digest else "")

exception Not_copyable

let copy_of machine ~in_call =
  match Exec.suspended machine ~in_call with
  | Some c -> Copy c
  | None -> raise Not_copyable

let copy_thread t =
  let fiber =
    match t.st with
    | Runnable Call -> copy_of t.machine ~in_call:true
    | Runnable (Return _ | Raise _) | Blocked_join _ | Blocked_lock _ ->
      copy_of t.machine ~in_call:false
    | Runnable Start | Running | Finished _ | Crashed _ -> Unstarted
  in
  { t with fiber; machine = Vm.No_machine }

(* The scheduler at a fork point, for the forked run: [None] when some
   suspended thread cannot be copied.  The thread-order table stays
   shared until the forked run spawns (see [order]). *)
let copy s =
  match Array.map copy_thread s.threads with
  | exception Not_copyable -> None
  | threads ->
    let monitors =
      Option.map
        (fun monitors ->
          let copy = Hashtbl.copy monitors in
          Hashtbl.iter
            (fun id m -> Hashtbl.replace copy id { m with waiting = Queue.copy m.waiting })
            monitors;
          copy)
        s.monitors
    in
    Some
      { s with threads; order_owned = false; monitors; rq = Queue.copy s.rq;
        rng = ref !(s.rng) }

let new_prio s =
  match s.policy with Pct _ -> 1 + rand_below s.rng 1_000_000 | Coop | Slice _ -> 0

let set_runnable s t r =
  t.st <- Runnable r;
  Queue.push t.tid s.rq

let find_thread s tid =
  if tid >= 0 && tid < Array.length s.threads then Some s.threads.(tid) else None

(* The runnable threads by tid. *)
let runnable_list s =
  Array.fold_right
    (fun t acc -> match t.st with Runnable _ -> t :: acc | _ -> acc)
    s.threads []

let exists_other_runnable s =
  Array.exists (fun t -> match t.st with Runnable _ -> true | _ -> false) s.threads

(* Wakes every thread blocked on [join target]; a crash is delivered
   into the joiner as the original MiniLang exception. *)
let wake_joiners s target =
  Hashtbl.iter
    (fun tid () ->
      let th = s.threads.(tid) in
      match th.st with
      | Blocked_join tid when tid = target.tid -> (
        target.joined <- true;
        match target.st with
        | Finished v -> set_runnable s th (Return v)
        | Crashed ev -> set_runnable s th (Raise ev)
        | Runnable _ | Running | Blocked_join _ | Blocked_lock _ -> assert false)
      | _ -> ())
    s.order

(* The policy's choice of the next thread, if any is runnable. *)
let pick s =
  match s.policy with
  | Coop ->
    let rec pop () =
      match Queue.take_opt s.rq with
      | None -> None
      | Some tid -> (
        match s.threads.(tid) with
        | { st = Runnable _; _ } as t -> Some t
        | _ -> pop ())
    in
    pop ()
  | Slice _ -> (
    Queue.clear s.rq;
    match runnable_list s with
    | [] -> None
    | l -> Some (List.nth l (rand_below s.rng (List.length l))))
  | Pct _ -> (
    Queue.clear s.rq;
    match runnable_list s with
    | [] -> None
    | l ->
      Some
        (List.fold_left (fun best t -> if t.prio > best.prio then t else best)
           (List.hd l) (List.tl l)))

(* The thread suspends in the effect handler: its activations are kept
   for a fork to copy, its continuation for resuming it. *)
let suspend s t wake =
  t.machine <- s.vm.Vm.machine;
  t.fiber <- Live wake

let rec start_fiber s t thunk =
  match_with
    (fun () ->
      let v = thunk () in
      t.st <- Finished v;
      if t.tid = 0 then s.main_value <- Some v;
      wake_joiners s t)
    ()
    (handler s t)

and handler s t : (unit, unit) Effect.Deep.handler =
  let vm = s.vm in
  { retc = Fun.id;
    exnc =
      (fun e ->
        match e with
        | Vm.Mini_raise ev when t.tid <> 0 ->
          t.st <- Crashed ev;
          wake_joiners s t
        | e ->
          (* main crashed, or a fatal OCaml-level exception anywhere:
             the whole run aborts with it *)
          s.abort <- Some e);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Vm.Preempt ->
          Some
            (fun (k : (b, unit) continuation) ->
              s.opportunities <- s.opportunities + 1;
              let yield () =
                vm.Vm.sched_preemptions <- vm.Vm.sched_preemptions + 1;
                suspend s t (fun _ -> continue k ());
                set_runnable s t Call
              in
              match s.policy with
              | Coop -> continue k ()
              | Slice _ ->
                s.quantum <- s.quantum - 1;
                if s.quantum <= 0 && exists_other_runnable s then yield ()
                else continue k ()
              | Pct _ ->
                if List.mem s.opportunities s.pct_changes then begin
                  s.pct_low <- s.pct_low - 1;
                  t.prio <- s.pct_low;
                  yield ()
                end
                else if List.exists (fun o -> o.prio > t.prio) (runnable_list s) then
                  yield ()
                else continue k ())
        | Vm.Sched_spawn entry ->
          Some
            (fun (k : (b, unit) continuation) ->
              let tid = s.next_tid in
              s.next_tid <- tid + 1;
              let nt =
                { tid; st = Running; joined = false; prio = new_prio s; entry;
                  fiber = Unstarted; machine = Vm.No_machine }
              in
              s.threads <- Array.append s.threads [| nt |];
              if not s.order_owned then begin
                s.order <- Hashtbl.copy s.order;
                s.order_owned <- true
              end;
              Hashtbl.add s.order tid ();
              set_runnable s nt Start;
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
                match find_thread s tid with
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
                    suspend s t (function
                      | Return v -> continue k v
                      | Raise ev -> discontinue k (Vm.Mini_raise ev)
                      | Start | Call -> assert false);
                    t.st <- Blocked_join tid))
        | Vm.Monitor_enter id ->
          Some
            (fun (k : (b, unit) continuation) ->
              let monitors =
                match s.monitors with
                | Some monitors -> monitors
                | None ->
                  let monitors = Hashtbl.create 8 in
                  s.monitors <- Some monitors;
                  monitors
              in
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
                vm.Vm.sched_contention <- vm.Vm.sched_contention + 1;
                Queue.push t.tid mon.waiting;
                suspend s t (fun _ -> continue k ());
                t.st <- Blocked_lock id
              end)
        | Vm.Monitor_exit id ->
          Some
            (fun (k : (b, unit) continuation) ->
              match
                match s.monitors with
                | Some monitors -> Hashtbl.find_opt monitors id
                | None -> None
              with
              | Some mon when mon.owner = t.tid ->
                mon.depth <- mon.depth - 1;
                if mon.depth = 0 then begin
                  if Queue.is_empty mon.waiting then mon.owner <- -1
                  else begin
                    (* FIFO handoff: the longest waiter owns the lock
                       from this instant, whatever the policy later
                       decides to run *)
                    let nxt = Queue.pop mon.waiting in
                    let th = s.threads.(nxt) in
                    mon.owner <- nxt;
                    mon.depth <- 1;
                    match th.st with
                    | Blocked_lock _ -> set_runnable s th (Return Value.Null)
                    | _ -> assert false
                  end
                end;
                continue k ()
              | Some _ | None ->
                discontinue k
                  (Vm.Mini_raise
                     (Vm.make_exn vm "IllegalStateException" "monitor not owned")))
        | _ -> None) }

(* Runs the picked thread until it suspends or ends. *)
and resume_thread s t r =
  let vm = s.vm in
  match t.fiber with
  | Live wake ->
    vm.Vm.machine <- t.machine;
    wake r
  | Unstarted ->
    vm.Vm.machine <- Vm.No_machine;
    start_fiber s t t.entry
  | Copy c ->
    vm.Vm.machine <- Vm.No_machine;
    start_fiber s t (fun () ->
        match r with
        | Call -> Exec.continue_call vm c
        | Return v -> Exec.continue_with vm c (Ok v)
        | Raise ev -> Exec.continue_with vm c (Error ev)
        | Start -> assert false)

and loop s =
  match s.abort with
  | Some e -> raise e
  | None -> (
    match pick s with
    | Some t ->
      if preemptive s.policy then
        s.digest <- fnv_fold (fnv_fold s.digest s.opportunities) t.tid;
      let vm = s.vm in
      if s.prev >= 0 && t.tid <> s.prev then
        vm.Vm.sched_switches <- vm.Vm.sched_switches + 1;
      s.prev <- t.tid;
      Vm.set_cur_tid vm t.tid;
      (match s.policy with
       | Slice _ -> s.quantum <- 1 + rand_below s.rng 8
       | Coop | Pct _ -> ());
      let r = match t.st with Runnable r -> r | _ -> assert false in
      t.st <- Running;
      resume_thread s t r;
      loop s
    | None ->
      let blocked =
        Array.exists
          (fun t -> match t.st with Blocked_join _ | Blocked_lock _ -> true | _ -> false)
          s.threads
      in
      if blocked then
        raise (Vm.Mini_raise (Vm.make_exn s.vm "IllegalStateException" "deadlock")))

(* The rest of a run once the current thread is off: the loop, then —
   main finished normally and everything runnable was drained — the
   first unjoined crash, if any, else main's value. *)
and finish s =
  loop s;
  match
    Array.find_map
      (fun t -> match t.st with Crashed ev when not t.joined -> Some ev | _ -> None)
      s.threads
  with
  | Some ev -> raise (Vm.Mini_raise ev)
  | None -> (
    match s.main_value with
    | Some v -> v
    | None -> assert false)

let run vm ~policy (main_thunk : unit -> Value.t) : Value.t =
  let rng = ref (Int64.of_int (match policy with Coop -> 0 | Slice s | Pct (_, s) -> s)) in
  let pct_changes =
    match policy with
    | Pct (d, _) -> List.init d (fun _ -> 1 + rand_below rng pct_horizon)
    | Coop | Slice _ -> []
  in
  let s =
    { vm; policy; threads = [||]; order = Hashtbl.create 8; order_owned = true;
      monitors = None;
      rq = Queue.create (); rng; pct_changes; next_tid = 1; digest = fnv_offset;
      opportunities = 0; pct_low = 0; quantum = 1; prev = -1; abort = None;
      main_value = None }
  in
  let main =
    { tid = 0; st = Running; joined = true; prio = new_prio s; entry = main_thunk;
      fiber = Unstarted; machine = Vm.No_machine }
  in
  s.threads <- [| main |];
  Hashtbl.add s.order 0 ();
  set_runnable s main Start;
  let saved_flag = vm.Vm.preempt_flag and saved_machine = vm.Vm.machine in
  let saved_sched = vm.Vm.sched in
  vm.Vm.sched <- Running_sched s;
  vm.Vm.preempt_flag <- preemptive policy;
  vm.Vm.sched_switches <- 0;
  vm.Vm.sched_preemptions <- 0;
  vm.Vm.sched_contention <- 0;
  Fun.protect
    ~finally:(fun () ->
      vm.Vm.preempt_flag <- saved_flag;
      vm.Vm.machine <- saved_machine;
      vm.Vm.sched <- saved_sched;
      Vm.set_cur_tid vm 0;
      publish s)
    (fun () -> finish s)

(* A fork: the rest of the run from the current thread's fork point, on
   a copy of the scheduler and of every other thread, nested inside the
   run it forks from and leaving it as it was.  [run] continues the
   current thread from its fork point (a copy of its frames); the other
   threads resume copies of theirs when first picked.  Frames not yet
   copied are no GC roots of the forked run: nothing collects the heap
   during detection (only production checkpoints call the collector,
   and they never fork). *)
let fork vm run =
  let sched = vm.Vm.sched and tid = vm.Vm.cur_tid in
  let s =
    match sched with
    | Running_sched s -> s
    | _ -> invalid_arg "Sched.fork: no run in progress"
  in
  match copy s with
  | None -> None
  | Some s' ->
    let machine = vm.Vm.machine and roots = vm.Vm.frame_roots in
    (* the forked run's frames are copies; the originals stay frozen
       and out of the GC root set until the fork returns *)
    vm.Vm.frame_roots <- [];
    vm.Vm.machine <- Vm.No_machine;
    vm.Vm.sched <- Running_sched s';
    let outcome =
      match
        start_fiber s' s'.threads.(tid) run;
        finish s'
      with
      | v -> Ok v
      | exception e -> Error e
    in
    publish s';
    vm.Vm.sched <- sched;
    vm.Vm.machine <- machine;
    vm.Vm.frame_roots <- roots;
    Vm.set_cur_tid vm tid;
    Some outcome
