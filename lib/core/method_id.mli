(** Identity of a method: its defining class and its name.

    Dynamic dispatch resolves every call to one defining class, so a
    method inherited by many subclasses is a single method here —
    matching the paper's accounting of methods "defined and used". *)

type t = { cls : string; name : string }

val make : string -> string -> t
val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** ["Cls.meth"]. *)

val of_string : string -> (t, string) result
(** Parses ["Cls.meth"], split at the first ['.']; class and name must
    both be non-empty.  The error names the rejected string. *)

val pp : t Fmt.t

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
