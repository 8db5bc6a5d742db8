(** The daemon's content-addressed caches: compiled program images
    keyed by (program digest, flavor), and finished job results keyed
    by the full job fingerprint (program digest, mode, flavor,
    {!Config.fingerprint}, run timeout, protocol revision).  A warm
    result hit answers a resubmission in O(1) with a byte-identical
    {!Protocol.job_result} plus its pre-rendered NDJSON text, with or
    without the run log.

    An optional {!Store} adds a disk tier: results and image metadata
    spill to it, memory misses consult it, and a fresh cache prewarms
    its images from it.  The disk tier is never fatal: the store
    swallows its I/O errors and a blob that does not decode is a miss.

    Thread-safe; bounded by FIFO eviction.  The internal mutex guards
    table mutation only — compilation, rendering, and disk-tier
    deserialization run outside it (concurrent compiles of the same
    digest are still deduplicated via a per-key promise). *)

open Failatom_core
open Failatom_minilang

type images = {
  plain : Compile.image;  (** the unmodified program's image *)
  compiled : Detect.compiled;  (** the flavor-specific detection image *)
}

type entry = {
  e_result : Protocol.job_result;
  e_rendered : string;
      (** [Json.to_string (Protocol.result_to_json e_result)] — exact
          bytes, safe to splice into reply frames *)
  e_warm_frame : string;
      (** [done_frame ~cached:true e_rendered], rendered once per entry:
          every warm hit appends this same string to its job, so the
          job table retains no per-hit copy of the result *)
  e_rendered_nolog : string;
      (** [e_rendered] without the ["log"] member
          ([Protocol.result_to_json ~log:false]) *)
  e_warm_frame_nolog : string;  (** [done_frame ~cached:true e_rendered_nolog] *)
}

val done_frame : cached:bool -> string -> string
(** The terminal [done] event frame around a rendered result,
    byte-identical to rendering the event through {!Json}. *)

val entry : Protocol.job_result -> entry
(** An uncached entry: renders the result and its warm frame, with and
    without the log. *)

val rendered : entry -> log:bool -> string
(** [e_rendered] or [e_rendered_nolog]. *)

val warm_frame : entry -> log:bool -> string
(** [e_warm_frame] or [e_warm_frame_nolog]. *)

type t

val create : ?store:Store.t -> unit -> t
(** Holds 128 images, 1024 results and 256 program digests.  With
    [store], first recompiles up to 64 of the store's images, most
    recently used first, skipping junk metadata; the new cache's image
    count ({!stats}) is then the number prewarmed. *)

val result_key :
  program_digest:string -> mode:Protocol.mode -> flavor:Detect.flavor ->
  config:Config.t -> run_timeout_s:float option -> string
(** The full job fingerprint.  Equal keys guarantee byte-identical
    results (detection is deterministic given program + config).  The
    request's [log] flag is not part of it: it selects a rendering of
    the entry, not a different result. *)

val images :
  t -> program_digest:string -> flavor:Detect.flavor -> Ast.program -> images
(** The cached images for the program, compiled (and woven) on a miss.
    Compilation happens outside the cache mutex; concurrent submitters
    of the same digest wait on a per-key promise instead. *)

val find_result : t -> string -> entry option
val store_result : t -> string -> Protocol.job_result -> entry

val digest_find : t -> source_key:string -> string option
(** Memoized program digest for a source key (["app:<name>"] or
    ["src:<md5 of source>"]); lets a warm resubmission skip the parse. *)

val digest_learn : t -> source_key:string -> string -> unit

val stats : t -> int * int
(** (cached images, cached results). *)
