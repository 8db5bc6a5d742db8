(* Built-in functions callable from MiniLang with free-function syntax.

   The set deliberately mirrors what the paper's workloads need from
   their standard libraries (java.util / STL): array allocation and
   copying, string primitives, hashing, printing, and a deep
   object-graph equality used by test drivers to validate state. *)

open Failatom_runtime

let arity_error vm name expected got =
  ignore vm;
  invalid_arg
    (Printf.sprintf "builtin %s: expected %d argument(s), got %d" name expected got)

let as_int vm name v =
  match (v : Value.t) with
  | Value.Int n -> n
  | v ->
    ignore vm;
    invalid_arg (Printf.sprintf "builtin %s: expected int, got %s" name (Value.type_name v))

let as_str vm name v =
  match (v : Value.t) with
  | Value.Str s -> s
  | v ->
    ignore vm;
    invalid_arg
      (Printf.sprintf "builtin %s: expected string, got %s" name (Value.type_name v))

(* Same polynomial string hash as java.lang.String, used by the hash
   container workloads. *)
let string_hash s =
  let h = ref 0 in
  String.iter (fun c -> h := ((!h * 31) + Char.code c) land 0x3FFFFFFF) s;
  !h

let table : (string, int * (Vm.t -> Value.t list -> Value.t)) Hashtbl.t =
  Hashtbl.create 64

let define name arity f = Hashtbl.replace table name (arity, f)

let () =
  define "print" 1 (fun vm args ->
      match args with
      | [ v ] ->
        Vm.print_out vm (Value.to_display_string v);
        Value.Null
      | _ -> assert false);
  define "println" 1 (fun vm args ->
      match args with
      | [ v ] ->
        Vm.print_out vm (Value.to_display_string v);
        Vm.print_out vm "\n";
        Value.Null
      | _ -> assert false);
  define "len" 1 (fun vm args ->
      match args with
      | [ Value.Str s ] -> Value.Int (String.length s)
      | [ Value.Ref id ] -> (
        match Heap.array_length vm.Vm.heap id with
        | Some n -> Value.Int n
        | None -> Vm.throw vm "IllegalArgumentException" "len: not an array")
      | [ Value.Null ] -> Vm.throw vm "NullPointerException" "len(null)"
      | [ v ] ->
        Vm.throw vm "IllegalArgumentException" ("len: unsupported " ^ Value.type_name v)
      | _ -> assert false);
  define "str" 1 (fun _vm args ->
      match args with
      | [ v ] -> Value.Str (Value.to_display_string v)
      | _ -> assert false);
  define "newArray" 1 (fun vm args ->
      match args with
      | [ v ] ->
        let n = as_int vm "newArray" v in
        if n < 0 then
          Vm.throw vm "NegativeArraySizeException" (string_of_int n)
        else Value.Ref (Heap.alloc_array vm.Vm.heap (Array.make n Value.Null))
      | _ -> assert false);
  define "arraycopy" 5 (fun vm args ->
      match args with
      | [ src; src_pos; dst; dst_pos; count ] -> (
        let sp = as_int vm "arraycopy" src_pos
        and dp = as_int vm "arraycopy" dst_pos
        and n = as_int vm "arraycopy" count in
        match src, dst with
        | Value.Ref s, Value.Ref d -> (
          match Heap.get vm.Vm.heap s, Heap.get vm.Vm.heap d with
          | Heap.Arr sa, Heap.Arr da ->
            if n < 0 || sp < 0 || dp < 0
               || sp + n > Array.length sa
               || dp + n > Array.length da
            then Vm.throw vm "IndexOutOfBoundsException" "arraycopy"
            else begin
              Heap.barrier vm.Vm.heap d;
              Array.blit sa sp da dp n;
              Value.Null
            end
          | _ -> Vm.throw vm "IllegalArgumentException" "arraycopy: not arrays")
        | Value.Null, _ | _, Value.Null ->
          Vm.throw vm "NullPointerException" "arraycopy(null)"
        | _ -> Vm.throw vm "IllegalArgumentException" "arraycopy: not arrays")
      | _ -> assert false);
  define "charAt" 2 (fun vm args ->
      match args with
      | [ s; i ] ->
        let s = as_str vm "charAt" s and i = as_int vm "charAt" i in
        if i < 0 || i >= String.length s then
          Vm.throw vm "IndexOutOfBoundsException" (Printf.sprintf "charAt(%d)" i)
        else Value.Str (String.make 1 s.[i])
      | _ -> assert false);
  define "ord" 1 (fun vm args ->
      match args with
      | [ s ] ->
        let s = as_str vm "ord" s in
        if String.length s = 0 then
          Vm.throw vm "IndexOutOfBoundsException" "ord of empty string"
        else Value.Int (Char.code s.[0])
      | _ -> assert false);
  define "chr" 1 (fun vm args ->
      match args with
      | [ n ] ->
        let n = as_int vm "chr" n in
        if n < 0 || n > 255 then
          Vm.throw vm "IllegalArgumentException" (Printf.sprintf "chr(%d)" n)
        else Value.Str (String.make 1 (Char.chr n))
      | _ -> assert false);
  define "substr" 3 (fun vm args ->
      match args with
      | [ s; start; count ] ->
        let s = as_str vm "substr" s
        and start = as_int vm "substr" start
        and count = as_int vm "substr" count in
        if start < 0 || count < 0 || start + count > String.length s then
          Vm.throw vm "IndexOutOfBoundsException"
            (Printf.sprintf "substr(%d,%d) of %d" start count (String.length s))
        else Value.Str (String.sub s start count)
      | _ -> assert false);
  define "strcmp" 2 (fun vm args ->
      match args with
      | [ a; b ] -> Value.Int (compare (as_str vm "strcmp" a) (as_str vm "strcmp" b))
      | _ -> assert false);
  define "parseInt" 1 (fun vm args ->
      match args with
      | [ s ] -> (
        let s = as_str vm "parseInt" s in
        match int_of_string_opt s with
        | Some n -> Value.Int n
        | None -> Vm.throw vm "IllegalArgumentException" ("parseInt: " ^ s))
      | _ -> assert false);
  define "hashCode" 1 (fun vm args ->
      match args with
      | [ Value.Int n ] -> Value.Int (abs n)
      | [ Value.Bool b ] -> Value.Int (if b then 1 else 0)
      | [ Value.Str s ] -> Value.Int (string_hash s)
      | [ Value.Null ] -> Value.Int 0
      | [ Value.Ref id ] -> Value.Int (id land 0x3FFFFFFF)
      | _ ->
        ignore vm;
        assert false);
  define "abs" 1 (fun vm args ->
      match args with
      | [ v ] -> Value.Int (abs (as_int vm "abs" v))
      | _ -> assert false);
  define "min" 2 (fun vm args ->
      match args with
      | [ a; b ] -> Value.Int (min (as_int vm "min" a) (as_int vm "min" b))
      | _ -> assert false);
  define "max" 2 (fun vm args ->
      match args with
      | [ a; b ] -> Value.Int (max (as_int vm "max" a) (as_int vm "max" b))
      | _ -> assert false);
  define "instanceOf" 2 (fun vm args ->
      match args with
      | [ v; cls ] -> (
        let cls = as_str vm "instanceOf" cls in
        match v with
        | Value.Ref id -> (
          match Heap.class_of vm.Vm.heap id with
          | Some c -> Value.Bool (Vm.is_subclass vm c cls)
          | None -> Value.Bool false)
        | Value.Int _ | Value.Bool _ | Value.Str _ | Value.Null -> Value.Bool false)
      | _ -> assert false);
  define "classOf" 1 (fun vm args ->
      match args with
      | [ Value.Ref id ] -> (
        match Heap.class_of vm.Vm.heap id with
        | Some c -> Value.Str c
        | None -> Value.Str "array")
      | [ v ] -> Value.Str (Value.type_name v)
      | _ ->
        ignore vm;
        assert false);
  (* Deep object-graph equality (Definition 1), exposed to drivers so
     they can assert state consistency from within the program. *)
  define "graphEq" 2 (fun vm args ->
      match args with
      | [ a; b ] ->
        Value.Bool
          (Object_graph.equal
             (Object_graph.canonical vm.Vm.heap a)
             (Object_graph.canonical vm.Vm.heap b))
      | _ -> assert false);
  define "deepCopy" 1 (fun vm args ->
      match args with
      | [ v ] -> Object_graph.clone vm.Vm.heap v
      | _ -> assert false);
  (* [check] is the drivers' assertion: a failed check is a genuine
     (uninjected) application bug and surfaces as IllegalStateException. *)
  define "check" 2 (fun vm args ->
      match args with
      | [ cond; msg ] ->
        if Value.truthy cond then Value.Null
        else Vm.throw vm "IllegalStateException" ("check failed: " ^ Value.to_display_string msg)
      | _ -> assert false);
  (* Concurrency surface.  [spawn recv.m(args)] and [synchronized]
     blocks desugar (in the parser) to the reserved hooks below; [join]
     is an ordinary builtin so programs can keep using "join" as a
     method name.  All four perform scheduler effects handled by
     {!Failatom_runtime.Sched.run}. *)
  define "join" 1 (fun vm args ->
      match args with
      | [ Value.Int tid ] -> Effect.perform (Vm.Sched_join tid)
      | [ v ] ->
        Vm.throw vm "IllegalArgumentException"
          ("join: expected a thread id, got " ^ Value.type_name v)
      | _ -> assert false);
  define "__spawn" 3 (fun vm args ->
      match args with
      | [ recv; m; arr ] -> (
        let m = as_str vm "__spawn" m in
        let call_args =
          match arr with
          | Value.Ref id -> (
            match Heap.get vm.Vm.heap id with
            | Heap.Arr a -> Array.to_list a
            | _ -> assert false)
          | _ -> assert false
        in
        match recv with
        | Value.Null -> Vm.throw vm "NullPointerException" ("spawn null." ^ m)
        | Value.Ref _ ->
          Value.Int
            (Effect.perform (Vm.Sched_spawn (fun () -> Exec.invoke vm recv m call_args)))
        | v ->
          Vm.throw vm "UnsupportedOperationException"
            (Printf.sprintf "spawn on %s receiver" (Value.type_name v)))
      | _ -> assert false);
  define "__monitor_enter" 1 (fun vm args ->
      match args with
      | [ Value.Ref id ] ->
        Effect.perform (Vm.Monitor_enter id);
        Value.Null
      | [ Value.Null ] -> Vm.throw vm "NullPointerException" "synchronized(null)"
      | [ v ] ->
        Vm.throw vm "IllegalArgumentException"
          ("synchronized: lock must be an object, got " ^ Value.type_name v)
      | _ -> assert false);
  define "__monitor_exit" 1 (fun vm args ->
      match args with
      | [ Value.Ref id ] ->
        Effect.perform (Vm.Monitor_exit id);
        Value.Null
      | [ Value.Null ] -> Vm.throw vm "NullPointerException" "synchronized(null)"
      | [ v ] ->
        Vm.throw vm "IllegalArgumentException"
          ("synchronized: lock must be an object, got " ^ Value.type_name v)
      | _ -> assert false)

let find name = Hashtbl.find_opt table name
let exists name = Hashtbl.mem table name
let names () = Hashtbl.fold (fun k _ acc -> k :: acc) table []

let call vm name args =
  match find name with
  | None -> invalid_arg ("unknown builtin " ^ name)
  | Some (arity, f) ->
    if List.length args <> arity then arity_error vm name arity (List.length args)
    else f vm args
