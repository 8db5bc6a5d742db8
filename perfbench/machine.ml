(* A fixed reference load that measures how fast the machine runs right
   now, so that times can be scaled to one reference pace.

   On a shared host the speed of memory-bound code swings by up to 2x
   within a minute while a pure ALU loop keeps its pace: neighbours
   contend for caches and memory bandwidth, not for the clock.
   Detection, masking and JSON decoding allocate and chase pointers, so
   they swing with memory.  The kernel below does that kind of work —
   it chases pointers through a random graph of about 10 MB and churns
   short-lived maps — and uses nothing from the program under test, so
   no change to the program can move it.  A time measured while the
   kernel took [k] is reported as [t * reference_s / k]: what it would
   have taken had the kernel run at its reference pace.  The unscaled
   figures go into the result row next to the scaled ones.  The graph
   adds to the measured process's peak RSS. *)

type node = { mutable next : node option; mutable v : int; tag : string }

let chase n =
  let nodes = Array.init n (fun i -> { next = None; v = i; tag = string_of_int (i land 1023) }) in
  let st = ref 12345 in
  let rnd () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st
  in
  Array.iter (fun nd -> nd.next <- Some nodes.(rnd () mod n)) nodes;
  let h = Hashtbl.create 1024 and acc = ref 0 and cur = ref nodes.(0) in
  for _ = 0 to n do
    (match !cur.next with Some x -> cur := x | None -> ());
    !cur.v <- !cur.v + 1;
    let k = !cur.tag in
    Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k));
    acc := !acc + !cur.v
  done;
  !acc

module M = Map.Make (Int)

let churn rounds =
  let acc = ref 0 in
  for r = 0 to rounds do
    let m = ref M.empty in
    for i = 0 to 2000 do
      m := M.add (((i * 7919) + r) land 4095) (string_of_int i) !m
    done;
    M.iter (fun k v -> acc := !acc + k + String.length v) !m
  done;
  !acc

let kernel () = chase 100_000 + churn 25

(* The kernel's duration at the reference pace: about its duration on
   an uncontended 2-core Xeon host.  A constant of the benchmark; never
   change it between a parent and a change that are compared. *)
let reference_s = 0.06

let now = Unix.gettimeofday

(* A clock samples the kernel between timed calls, at most once per
   [interval]; a call is scaled by the kernel's pace around its
   midpoint.  The kernel runs in the measured process itself: a child
   process may run on the other core and see other neighbours, and
   tracked the workloads worse than no scaling at all. *)
let interval = 0.15

type clock = { mutable samples : (float * float) list; mutable last : float }
type span = { t0 : float; t1 : float }

let tick c =
  if now () -. c.last >= interval then begin
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    let t1 = now () in
    c.samples <- ((t0 +. t1) /. 2., t1 -. t0) :: c.samples;
    c.last <- t1
  end

(* The first kernel runs of a process are slow while the heap grows;
   they are dropped. *)
let clock () =
  ignore (Sys.opaque_identity (kernel ()));
  ignore (Sys.opaque_identity (kernel ()));
  let c = { samples = []; last = neg_infinity } in
  tick c;
  c

(* [measure c f] runs [f] between kernel samples and returns its
   result and its span. *)
let measure c f =
  tick c;
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  tick c;
  (r, { t0; t1 })

(* Takes a last sample, so the final calls have one after them. *)
let finish c =
  c.last <- neg_infinity;
  tick c

let raw s = s.t1 -. s.t0

(* The kernel's pace at time [t]: the median of the [nearest] samples
   closest in time.  One sample jitters by several percent, and the
   machine's pace moves within a second; in trials, three samples 0.15 s
   apart tracked the workloads better than two, five, nine, sparser
   samples or one pace for the whole run. *)
let nearest = 3

let pace c t =
  let by_distance =
    List.sort
      (fun (a, _) (b, _) -> Float.compare (Float.abs (a -. t)) (Float.abs (b -. t)))
      c.samples
  in
  match List.filteri (fun i _ -> i < nearest) by_distance with
  | [] -> reference_s
  | near -> Stats.median (List.map snd near)

let scaled c s = raw s *. reference_s /. pace c ((s.t0 +. s.t1) /. 2.)
