(* Campaign observability: progress events and a throttled line
   reporter.

   The engine emits one {!event} per state change (start, every
   recorded run, finish); consumers decide what to do with them.  The
   bundled {!reporter} prints periodic throughput/ETA lines and a final
   summary, throttling [Tick]s to one per [interval_s] of campaign
   time so a fast campaign does not flood the terminal. *)

type summary = {
  total_runs : int;  (* runs in the final result, probe included *)
  injections : int;
  executed : int;  (* runs executed by workers in this invocation *)
  reused : int;  (* journaled runs adopted without re-execution *)
  discarded : int;  (* always 0: no run is speculative; kept for the wire *)
  synthesized : int;  (* coalesced records adopted without execution *)
  workers : int;
  wall_clock_s : float;
  busy_s : float;  (* CPU seconds consumed over the campaign *)
}

type event =
  | Started of { workers : int; reused : int }
  | Tick of {
      completed : int;  (* runs recorded so far, reused included *)
      needed : int option;  (* total runs needed, once the frontier is known *)
      injections : int;
      elapsed_s : float;
      rate : float;  (* executed runs per second of wall-clock *)
      eta_s : float option;
    }
  | Warning of string
    (* a recoverable anomaly worth surfacing (e.g. a torn journal tail
       truncated on resume) *)
  | Finished of summary

let null (_ : event) = ()

let pp_summary ppf s =
  Fmt.pf ppf "campaign: %d runs (%d injections) in %.2fs on %d worker(s)@."
    s.total_runs s.injections s.wall_clock_s s.workers;
  Fmt.pf ppf "campaign: %d executed, %d reused from journal@." s.executed s.reused;
  if s.synthesized > 0 then
    Fmt.pf ppf "campaign: %d synthesized from blindness-group representatives@."
      s.synthesized;
  (* Effective parallelism: CPU time over wall-clock time, the speedup
     over one worker executing the same runs back to back.  It stays
     honest when the machine has fewer cores than workers. *)
  let speedup = if s.wall_clock_s > 0. then s.busy_s /. s.wall_clock_s else 1. in
  Fmt.pf ppf "campaign: estimated speedup vs 1 worker: %.2fx@." speedup

let reporter ?(interval_s = 1.0) ppf =
  let last_tick = ref neg_infinity in
  fun event ->
    match event with
    | Started { workers; reused } ->
      if reused > 0 then
        Fmt.pf ppf "campaign: %d worker(s), resuming %d journaled run(s)@." workers
          reused
      else Fmt.pf ppf "campaign: %d worker(s)@." workers
    | Tick t ->
      if t.elapsed_s -. !last_tick >= interval_s then begin
        last_tick := t.elapsed_s;
        let total =
          match t.needed with Some n -> string_of_int n | None -> "?"
        in
        let eta =
          match t.eta_s with
          | Some e -> Fmt.str "%.1fs" (Float.max e 0.)
          | None -> "?"
        in
        Fmt.pf ppf "campaign: %d/%s runs, %d injections, %.0f runs/s, ETA %s@."
          t.completed total t.injections t.rate eta
      end
    | Warning msg -> Fmt.pf ppf "campaign: warning: %s@." msg
    | Finished s -> pp_summary ppf s
