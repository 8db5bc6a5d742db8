(** Spans the benchmark records around its own calls into the program.

    A span is one timed call: its name, start and end on the monotonic
    clock, and the span that caused it.  Recording is off until
    {!set_enabled}; while off, {!with_span} only runs its function.
    Spans stay in memory until the run ends. *)

type t = {
  id : int;
  parent : int;  (** id of the causing span; [0] for a root *)
  name : string;
  t0 : int;  (** ns, monotonic *)
  t1 : int;
}

val set_enabled : bool -> unit

val with_span : ?on:bool -> ?parent:int -> string -> (int -> 'a) -> 'a
(** [with_span ~parent name f] runs [f id] and records the span [id]
    (also when [f] raises).  Safe to call from several threads.  While
    recording is off — [on], which defaults to {!enabled}[ ()], is
    false — [f] receives [0] and nothing is kept. *)

val all : unit -> t list
(** Every span recorded so far, in start order. *)

val covered : t0:int -> t1:int -> (int * int) list -> int
(** Length of the part of [\[t0, t1\]] covered by the union of the
    given intervals (overlaps counted once, parts outside clipped). *)

val self_ns : t -> children:t list -> int
(** The span's duration minus the part of its interval its children
    cover. *)

val unattributed_ratio : roots:t list -> t list -> float
(** Summed self time of [roots], with every span of the list whose
    parent is a root as its children, over the roots' summed duration:
    the share of the timed work that no layer span accounts for.  [0.]
    when the roots have no duration. *)

val total_ns : string -> t list -> int
(** Summed duration of the spans with this name. *)

val durations_ms : string -> t list -> float list
(** Durations of the spans with this name, in ms. *)

val to_json_line : t -> string
