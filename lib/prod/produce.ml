(* Production mode: arm from a plan, run, score.

   Filter attach order per VM matters — attach_filter prepends, so the
   igniter goes on first (innermost: it raises from inside the armed
   wrapper's protection), the armed wrapper second, the canary last
   (outermost: it sees the masked outcome and owns validation and
   retry). *)

open Failatom_core
open Failatom_runtime
open Failatom_minilang

type perturb_spec = {
  seed : int;
  rate_per_mille : int;
  max_fires : int option;
  point : Perturb.point;
  fallback_exceptions : string list;
}

type run_report = { output : string; escaped : string option }
type result = { scorecard : Scorecard.t; runs : run_report list }

let run ?(config = Config.default) ?perturb ?policy ?(times = 1) ~plan program =
  let digest = Minilang.program_digest program in
  match Plan.validate plan ~program_digest:digest with
  | Error msg -> Error msg
  | Ok () ->
    let targets = Plan.target_set plan in
    let image = Compile.image program in
    let armed = Armed.create ~config ~targets () in
    let perturb =
      Option.map
        (fun spec ->
          Perturb.create ~rate_per_mille:spec.rate_per_mille
            ?max_fires:spec.max_fires ~point:spec.point
            ~fallback_exceptions:spec.fallback_exceptions ~config ~targets
            ~seed:spec.seed ())
        perturb
    in
    let one_run () =
      let vm = Compile.instantiate image in
      Option.iter (fun p -> Perturb.arm_igniter p vm) perturb;
      Armed.arm armed vm;
      Option.iter (fun p -> Perturb.arm_canary p vm) perturb;
      let escaped =
        match Compile.run_main ?policy vm with
        | _ -> None
        | exception Vm.Mini_raise e -> Some e.Vm.exn_class
      in
      { output = Vm.output vm; escaped }
    in
    let runs = List.init times (fun _ -> one_run ()) in
    let scorecard =
      Scorecard.build ~program_digest:digest ~armed ?perturb ~runs:times ()
    in
    Ok { scorecard; runs }
