(* Identity of a method: its defining class and its name.

   Dynamic dispatch always resolves a call to one defining class, so a
   method inherited by many subclasses is one method here — matching the
   paper's accounting, where reused methods are counted once per
   definition. *)

type t = { cls : string; name : string }

let make cls name = { cls; name }
let compare a b =
  match String.compare a.cls b.cls with
  | 0 -> String.compare a.name b.name
  | c -> c

let equal a b = compare a b = 0
let to_string { cls; name } = cls ^ "." ^ name

let of_string s =
  match String.index_opt s '.' with
  | Some i when i > 0 && i < String.length s - 1 ->
    Ok (make (String.sub s 0 i) (String.sub s (i + 1) (String.length s - i - 1)))
  | _ -> Error (Printf.sprintf "%S is not of the form Class.method" s)

let pp ppf id = Fmt.string ppf (to_string id)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
