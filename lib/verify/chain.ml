module K = Cgra_kernels.Kernel_def
module FC = Cgra_core.Flow_config
module Flow = Cgra_core.Flow
module Sim = Cgra_sim.Simulator

type opt = Default | Raw | Optimized

type kernel = {
  name : string;
  lower : raw:bool -> (Cgra_ir.Cdfg.t, string) result;
  fresh_mem : unit -> int array;
  golden : (int array -> int array) option;
}

let of_kernel k =
  {
    name = k.K.name;
    lower = (fun ~raw -> Ok (if raw then K.cdfg_raw k else K.cdfg k));
    fresh_mem = (fun () -> K.fresh_mem k);
    golden = Some k.K.golden;
  }

let cdfg opt kernel = kernel.lower ~raw:(opt <> Default)

type mapped = {
  mapping : Cgra_core.Mapping.t;
  stats : Flow.stats;
  program : Cgra_asm.Assemble.program;
  sim : Sim.result;
  energy : Cgra_power.Energy.breakdown;
  map_seconds : float;
}

type outcome =
  | Mapped of mapped
  | Unmappable of { failure : Flow.failure; map_seconds : float }
  | Timed_out of { where : string }

type failure =
  | Bad_source of string
  | Bad_faults of string
  | Opt_verification of string
  | Invalid_artifact of Validator.violation list
  | Sim_failed of Sim.error
  | Golden_mismatch

let failure_to_string = function
  | Bad_source e -> "kernel source: " ^ e
  | Bad_faults e -> "fault map: " ^ e
  | Opt_verification e ->
    "optimization pipeline failed differential verification: " ^ e
  | Invalid_artifact vs ->
    "invalid artifact: "
    ^ String.concat "; " (List.map Validator.to_string vs)
  | Sim_failed e -> "simulation failed: " ^ Sim.error_to_string e
  | Golden_mismatch ->
    "simulated memory image disagrees with the golden model"

exception Failed of failure

let () =
  Printexc.register_printer (function
    | Failed f -> Some ("Chain.Failed: " ^ failure_to_string f)
    | _ -> None)

let ( let* ) = Result.bind

let run ?deadline ?(opt = Default) ~config cgra kernel =
  let* cdfg = Result.map_error (fun e -> Bad_source e) (cdfg opt kernel) in
  let* () =
    match Cgra_arch.Cgra.degrade cgra config.FC.faults with
    | _ -> Ok ()
    | exception Invalid_argument e -> Error (Bad_faults e)
  in
  let config = { config with FC.optimize = opt = Optimized } in
  (* Verify the pipeline on the kernel's own input image when the golden
     check below will run on it; otherwise on the pipeline's defaults. *)
  let opt_verify =
    match (opt, kernel.golden) with
    | Optimized, Some _ ->
      Some (Cgra_opt.Pipeline.verifier_of_mems [ kernel.fresh_mem () ])
    | _ -> None
  in
  let t0 = Cgra_util.Clock.now () in
  match Flow.run ~config ?deadline ?opt_verify cgra cdfg with
  | exception Cgra_opt.Pipeline.Verification_failed e ->
    Error (Opt_verification e)
  | Error { Flow.timed_out = Some where; _ } -> Ok (Timed_out { where })
  | Error failure ->
    Ok (Unmappable { failure; map_seconds = Cgra_util.Clock.elapsed_s t0 })
  | Ok (mapping, stats) -> (
    let map_seconds = Cgra_util.Clock.elapsed_s t0 in
    match Cgra_asm.Assemble.assemble mapping with
    | exception Cgra_asm.Assemble.Assembly_error e ->
      (* register-file pressure the search does not model *)
      let failure =
        { Flow.reason = "assembly: " ^ e; at_block = None;
          work = stats.Flow.work; gave_up = []; timed_out = None }
      in
      Ok (Unmappable { failure; map_seconds })
    | program -> (
      let* () =
        match Validator.check program with
        | [] -> Ok ()
        | vs -> Error (Invalid_artifact vs)
      in
      let mem = kernel.fresh_mem () in
      match Sim.run ?protect:(Sim.protect_of config.FC.protection) program ~mem with
      | exception Sim.Sim_error e -> Error (Sim_failed e)
      | sim ->
        let* () =
          match kernel.golden with
          | Some g when mem <> g (kernel.fresh_mem ()) -> Error Golden_mismatch
          | _ -> Ok ()
        in
        let energy =
          Cgra_power.Energy.cgra ~protect:config.FC.protection cgra sim
        in
        Ok (Mapped { mapping; stats; program; sim; energy; map_seconds })))

let mapped = function
  | Ok (Mapped m) -> Ok m
  | Ok (Unmappable { failure; _ }) -> Error failure.Flow.reason
  | Ok (Timed_out { where }) -> Error ("timed out (" ^ where ^ ")")
  | Error f -> raise (Failed f)
